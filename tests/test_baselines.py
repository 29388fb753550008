import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from enumutil import continuous_table, reference_cart_train
from soilcausal import baselines
from soilcausal.baselines import (
    cart_train,
    gbt_predict,
    gbt_train,
    mlp_train,
    random_skeleton,
    rf_predict,
    rf_train,
)
from soilcausal.errors import ConfigError, NumericError
from soilcausal.ingest import select_columns

# few distinct values, so x ties, duplicated rows and equal-SSE splits are common
_LEVELS = (-1.0, 0.0, 0.25, 0.5, 3.0)


def _tied_design(rng, n, d):
    """A constant first column, tied levels in the middle columns, a
    continuous last column."""
    X = rng.choice(_LEVELS, size=(n, d))
    X[:, -1] = rng.standard_normal(n)
    X[:, 0] = 0.5
    y = np.round(X[:, -1] + rng.choice(_LEVELS, size=n), 1)
    return X, y


def _random_table(seed, n=60, d=5):
    rng = np.random.default_rng(seed)
    X, y = _tied_design(rng, n, d)
    names = tuple(f"x{k}" for k in range(d)) + ("y",)
    return continuous_table(names, np.column_stack([X, y]), target="y")


@st.composite
def _cart_case(draw):
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 5))
    continuous = draw(st.lists(st.booleans(), min_size=d, max_size=d))
    constant = draw(st.lists(st.booleans(), min_size=d, max_size=d))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.choice(_LEVELS, size=(n, d))
    for f in range(d):
        if constant[f]:
            X[:, f] = _LEVELS[f % len(_LEVELS)]
        elif continuous[f]:
            X[:, f] = rng.standard_normal(n)
    y = draw(st.sampled_from([rng.choice(_LEVELS, size=n), rng.standard_normal(n)]))
    return (
        X,
        y,
        draw(st.sampled_from([None, 0, 3])),
        draw(st.sampled_from([1, 2, 5])),
        draw(st.one_of(st.none(), st.integers(1, d))),
        draw(st.integers(0, 2**32 - 1)),
    )


@settings(deadline=None, max_examples=300, derandomize=True)
@given(_cart_case())
def test_cart_matches_reference_node_for_node(case):
    X, y, max_depth, min_leaf, n_features, seed = case
    got = cart_train(X, y, max_depth, min_leaf, np.random.default_rng(seed), n_features)
    want = reference_cart_train(X, y, max_depth, min_leaf, np.random.default_rng(seed), n_features)
    assert got == want


def test_cart_matches_reference_on_deep_tree():
    X, y = _tied_design(np.random.default_rng(5), 400, 6)
    assert cart_train(X, y, 20, 1) == reference_cart_train(X, y, 20, 1)


def test_cart_threshold_between_adjacent_doubles():
    # the midpoint of 1 + 2^-52 and 1 + 2^-51 rounds up to the larger value
    X, y = [[1 + 2**-52], [1 + 2**-51]], [0.0, 1.0]
    for max_depth in (2, None):
        tree = cart_train(X, y, max_depth=max_depth, min_leaf=1)
        assert tree.threshold == 1 + 2**-52
        assert (tree.left.value, tree.right.value) == (0.0, 1.0)
        assert tree.left.is_leaf and tree.right.is_leaf
        assert baselines.tree_predict(tree, [[2.0]]).tolist() == [1.0]
        assert reference_cart_train(X, y, max_depth=max_depth, min_leaf=1) == tree


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_forest_and_boosting_match_reference_models(seed, monkeypatch):
    table = _random_table(seed)
    rf = rf_train(table, n_trees=4, seed=seed, bootstrap=True)
    gbt = gbt_train(table, n_estimators=4, max_depth=5, seed=seed)
    monkeypatch.setattr(baselines, "cart_train", reference_cart_train)
    rf_ref = rf_train(table, n_trees=4, seed=seed, bootstrap=True)
    gbt_ref = gbt_train(table, n_estimators=4, max_depth=5, seed=seed)
    assert rf.trees == rf_ref.trees
    assert gbt.trees == gbt_ref.trees
    assert gbt.loss_history == gbt_ref.loss_history


def test_forest_and_boosting_invariant_to_column_order():
    table = _random_table(7)
    permuted = select_columns(table, ("x3", "y", "x0", "x4", "x2", "x1"))
    for train, predict in (
        (lambda t: rf_train(t, n_trees=3, seed=1), rf_predict),
        (lambda t: gbt_train(t, n_estimators=3, max_depth=4, seed=1), gbt_predict),
    ):
        assert np.array_equal(
            predict(train(table), table), predict(train(permuted), permuted)
        )


def test_random_skeleton_rejects_too_many_edges():
    with pytest.raises(ConfigError):
        random_skeleton(("a", "b", "c"), "c", n_edges=7)


@pytest.mark.parametrize("kwargs", [{"hidden_sizes": (4,)}, {"lr": 1e-2}])
def test_mlp_train_needs_both_or_neither_of_hidden_and_lr(kwargs):
    with pytest.raises(ConfigError):
        mlp_train(_random_table(0), epochs=1, **kwargs)


@pytest.mark.parametrize("kwargs", [{}, {"hidden_sizes": (4,), "lr": 0.01}])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_mlp_train_rejects_non_finite_labels_by_row(kwargs, bad):
    rows = np.random.default_rng(1).standard_normal((8, 3))
    rows[3, 2] = bad
    table = continuous_table(("a", "b", "t"), rows, target="t")
    with pytest.raises(NumericError, match="label in row 3 .f0, 2020-06-04, obs."):
        mlp_train(table, epochs=1, **kwargs)
