from unittest import mock

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
from soilcausal.seeding import derive_seed

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


def test_cart_level_with_a_block_that_does_not_split():
    # the root cuts off five rows of one value: the next level pads them
    # apart from the other 200 rows, and only the larger block splits
    rng = np.random.default_rng(0)
    X = rng.standard_normal((205, 11))
    y = rng.standard_normal(205) * 0.01
    y[np.argsort(X[:, 0])[:5]] = 100.0
    tree = cart_train(X, y, 20, 1)
    assert tree.left.is_leaf and not tree.right.is_leaf
    assert tree == reference_cart_train(X, y, 20, 1)


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


def _reference_forest(table, n_trees, seed, bootstrap):
    """``rf_train``'s trees from ``reference_cart_train``: the same bootstrap
    rows and per-tree generators."""
    X, y, _ = baselines._design(table)
    n, d = X.shape
    trees = []
    for t in range(n_trees):
        rng = np.random.default_rng(derive_seed(seed, t))
        idx = rng.integers(0, n, size=n) if bootstrap else np.arange(n)
        sub_rng = np.random.default_rng(derive_seed(seed, t, 1))
        trees.append(reference_cart_train(X[idx], y[idx], None, 2, sub_rng, max(1, int(np.sqrt(d)))))
    return trees


def _reference_boosting(table, n_estimators, max_depth, lr=0.1):
    """``gbt_train``'s trees and losses from ``reference_cart_train`` and
    ``tree_predict``."""
    X, y, _ = baselines._design(table)
    current = np.full(y.shape, float(y.mean()))
    trees, losses = [], []
    for _ in range(n_estimators):
        trees.append(reference_cart_train(X, y - current, max_depth, 1))
        current = current + lr * baselines.tree_predict(trees[-1], X)
        losses.append(float(np.mean((y - current) ** 2)))
    return trees, losses


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_forest_and_boosting_match_reference_models(seed):
    table = _random_table(seed)
    assert rf_train(table, n_trees=4, seed=seed).trees == _reference_forest(table, 4, seed, True)
    gbt = gbt_train(table, n_estimators=4, max_depth=5, seed=seed)
    assert (gbt.trees, gbt.loss_history) == _reference_boosting(table, 4, 5)


@settings(deadline=None, max_examples=40, derandomize=True)
@given(
    st.integers(1, 300),
    st.integers(0, 2**32 - 1),
    st.integers(1, 5),
    st.booleans(),
    st.sampled_from([None, 3, 20]),
)
def test_forest_and_boosting_match_reference_on_tied_designs(n, seed, n_trees, bootstrap, max_depth):
    table = _random_table(seed, n=n)
    assert rf_train(table, n_trees, seed, bootstrap).trees == _reference_forest(table, n_trees, seed, bootstrap)
    gbt = gbt_train(table, n_estimators=2, max_depth=max_depth, seed=seed)
    assert (gbt.trees, gbt.loss_history) == _reference_boosting(table, 2, max_depth)


def _grow_side_by_side_and_check(n, d, n_trees, bootstrap, max_depth, min_leaf, draw, seed):
    rng = np.random.default_rng(seed)
    X, y = _tied_design(rng, n, d)
    idx = [rng.integers(0, n, size=n) if bootstrap else np.arange(n) for _ in range(n_trees)]
    rows = np.concatenate(idx)
    n_features = max(1, d // 2) if draw else None
    seeds = rng.integers(0, 2**32, size=n_trees)
    trees, fitted = baselines._grow(
        X[rows].T.copy(), y[rows], n, max_depth, min_leaf,
        [np.random.default_rng(s) for s in seeds], n_features,
    )
    for t, (tree, rows_t, s) in enumerate(zip(trees, idx, seeds)):
        want = reference_cart_train(X[rows_t], y[rows_t], max_depth, min_leaf, np.random.default_rng(s), n_features)
        assert tree == want
        assert fitted[t * n : (t + 1) * n].tolist() == baselines.tree_predict(tree, X[rows_t]).tolist()


@settings(deadline=None, max_examples=60, derandomize=True)
@given(
    st.integers(1, 300),
    st.integers(1, 5),
    st.integers(1, 5),
    st.booleans(),
    st.sampled_from([None, 3, 20]),
    st.sampled_from([1, 2, 5]),
    st.booleans(),
    st.integers(0, 2**32 - 1),
    st.booleans(),
)
def test_trees_grown_side_by_side_match_reference(n, d, n_trees, bootstrap, max_depth, min_leaf, draw, seed, small_blocks):
    """Several trees in one buffer, with and without per-node feature
    draws, equal the reference tree by tree, and each row's fitted value
    is what ``tree_predict`` gives it.  With ``small_blocks`` no padding
    waste is allowed and a block holds 64 cells at most, so that the nodes
    of one batch spread over many blocks of mixed lengths."""
    case = (n, d, n_trees, bootstrap, max_depth, min_leaf, draw, seed)
    if small_blocks:
        with mock.patch.multiple(baselines, _BLOCK_WASTE=0, _BLOCK_CELLS=64):
            _grow_side_by_side_and_check(*case)
    else:
        _grow_side_by_side_and_check(*case)


@pytest.mark.parametrize("seed", range(5))
def test_row_sums_match_np_sum(seed):
    """The padded row sums the grower takes means with equal np.sum on each
    row's prefix bit for bit, for blocks of a few and of many rows, rows of
    up to 128 values and longer ones, and signed zeros."""
    rng = np.random.default_rng(seed)
    for rows in (1, 3, 8, 9, 40):
        m = rng.integers(1, 300 if seed % 2 else 140, size=rows)
        m[0] = max(m[0], 8)
        a = rng.standard_normal((rows, m.max() + 2)) * 10.0 ** rng.integers(-6, 7, size=(rows, m.max() + 2))
        a[rng.random(a.shape) < 0.2] = -0.0
        a[0] = -0.0  # np.sum gives +0.0
        got = baselines._sums(a, m)
        want = np.array([a[s, : m[s]].sum() for s in range(rows)])
        assert got.tobytes() == want.tobytes()


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # gbt_train's mean of no labels
def test_forest_and_boosting_reject_an_empty_table():
    table = continuous_table(("a", "b", "y"), np.zeros((0, 3)), target="y")
    for train in (lambda: rf_train(table, 2), lambda: rf_train(table, 2, bootstrap=False), lambda: gbt_train(table, 2)):
        with pytest.raises(NumericError, match="bad design shapes"):
            train()


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
