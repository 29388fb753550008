import contextlib
import re
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
    """``cart_train``, and a one-tree forest that draws ``n_features`` per
    node, equal the reference."""
    X, y, max_depth, min_leaf, n_features, seed = case
    want = reference_cart_train(X, y, max_depth, min_leaf, np.random.default_rng(seed), n_features)
    if n_features is None:
        got = cart_train(X, y, max_depth, min_leaf)
    else:
        rngs, rows = [np.random.default_rng(seed)], [np.arange(len(y))]
        got = baselines._grow_forest(X.T.copy(), y, rows, max_depth, min_leaf, rngs, n_features)[0]
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
    gbt = gbt_train(table, n_estimators=4, max_depth=5)
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
    gbt = gbt_train(table, n_estimators=2, max_depth=max_depth)
    assert (gbt.trees, gbt.loss_history) == _reference_boosting(table, 2, max_depth)


def _decisive_table(seed, n, d):
    """A design on which the split rules decide the trees: columns 0 and 1
    are one tied column twice, so two drawn features can reach the same
    SSE; column 2 holds adjacent doubles, one pair of which has a midpoint
    that rounds up to the right x; the targets take two levels that are
    not binary fractions, so equal SSEs are common and their sums depend
    on the order of tied rows."""
    rng = np.random.default_rng(seed)
    X = rng.choice(_LEVELS, size=(n, d))
    X[:, 1] = X[:, 0]
    X[:, 2] = 1 + rng.integers(0, 4, size=n) * 2.0**-52
    high = (X[:, 2] > 1 + 2.0**-52) ^ (X[:, 0] > 0.25) ^ (rng.random(n) < 0.2)
    y = np.where(high, 0.3, 0.1)
    names = tuple(f"x{k}" for k in range(d)) + ("y",)
    return continuous_table(names, np.column_stack([X, y]), target="y")


@settings(deadline=None, max_examples=60, derandomize=True)
@given(st.integers(1, 300), st.integers(0, 2**32 - 1), st.integers(1, 25), st.booleans(), st.integers(1, 7), st.booleans())
def test_forest_grown_in_lock_step_matches_reference(n, seed, n_trees, bootstrap, d, decisive):
    """Every tree of a forest grown node by node, its trees in lock-step,
    equals the reference, also where feature ties, the order of tied rows
    and the threshold rule decide the tree (``_decisive_table``, at least 4
    columns).  The forest is grown again with no padding waste allowed and
    64 cells a block at most, so that a step's nodes spread over many
    blocks of mixed lengths."""
    table = _decisive_table(seed, n, d + 3) if decisive else _random_table(seed, n=n, d=d)
    want = _reference_forest(table, n_trees, seed, bootstrap)
    assert rf_train(table, n_trees, seed, bootstrap).trees == want
    with mock.patch.multiple(baselines, _BLOCK_WASTE=0, _BLOCK_CELLS=64):
        assert rf_train(table, n_trees, seed, bootstrap).trees == want


@settings(deadline=None, max_examples=60, derandomize=True)
@given(
    st.integers(1, 300),
    st.integers(1, 5),
    st.booleans(),
    st.sampled_from([None, 3, 20]),
    st.sampled_from([1, 2, 5]),
    st.integers(0, 2**32 - 1),
    st.booleans(),
)
def test_tree_grown_depth_by_depth_matches_reference(n, d, bootstrap, max_depth, min_leaf, seed, small_blocks):
    """A tree that draws no features, grown depth by depth on its presorted
    buffer, equals the reference, and each row's fitted value is what
    ``tree_predict`` gives it.  With ``small_blocks`` no padding waste is
    allowed and a block holds 64 cells at most, so that the nodes of one
    depth spread over many blocks of mixed lengths."""
    rng = np.random.default_rng(seed)
    X, y = _tied_design(rng, n, d)
    rows = rng.integers(0, n, size=n) if bootstrap else np.arange(n)
    X, y = X[rows], y[rows]
    with mock.patch.multiple(baselines, _BLOCK_WASTE=0, _BLOCK_CELLS=64) if small_blocks else contextlib.nullcontext():
        tree, fitted = baselines._grow(X.T.copy(), y, max_depth, min_leaf)
    assert tree == reference_cart_train(X, y, max_depth, min_leaf)
    assert fitted.tolist() == baselines.tree_predict(tree, X).tolist()


def test_blocks_pad_by_repeating_the_last_entry():
    # a padded copy of x must not pass x_j < x_j+1 where a node has ended
    a, b = np.array([[1, 2, 3], [4, 5, 6]]), np.array([[7], [8]])
    assert baselines._stack([a, b]).tolist() == [[[1, 2, 3], [7, 7, 7]], [[4, 5, 6], [8, 8, 8]]]
    assert baselines._stack([a]).base is a


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
        (lambda t: gbt_train(t, n_estimators=3, max_depth=4), gbt_predict),
    ):
        assert np.array_equal(
            predict(train(table), table), predict(train(permuted), permuted)
        )


def test_forest_and_boosting_reject_an_empty_table():
    table = continuous_table(("a", "b", "y"), np.zeros((0, 3)), target="y")
    for train in (lambda: rf_train(table, 2), lambda: rf_train(table, 2, bootstrap=False), lambda: gbt_train(table, 2)):
        with pytest.raises(NumericError, match="bad design shapes"):
            train()


def test_random_skeleton_does_not_depend_on_node_order():
    # a permuted node list drew other edges with the same seed
    nodes = ("a", "b", "c", "t")
    want = random_skeleton(nodes, "t", n_edges=5, seed=3)
    assert want.nodes == nodes
    for perm in (("b", "a", "c", "t"), ("t", "c", "b", "a"), ["c", "t", "a", "b"]):
        assert random_skeleton(perm, "t", n_edges=5, seed=3) == want


def test_random_skeleton_rejects_too_many_edges():
    with pytest.raises(ConfigError):
        random_skeleton(("a", "b", "c"), "c", n_edges=7)


def test_random_skeleton_rejects_a_negative_edge_count():
    # numpy's own error here would be an untyped ValueError
    with pytest.raises(ConfigError, match="asked for -1 edges"):
        random_skeleton(("a", "b", "c"), "c", n_edges=-1)
    assert random_skeleton(("a", "b", "c"), "c", n_edges=0).edges == ()


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: _environment(n_days=2.5), "n_days must be an int >= 1, got 2.5"),
        (lambda: _environment(n_days=True), "n_days must be an int >= 1, got True"),
        (lambda: _environment(n_fields=1.5), "n_fields must be an int >= 1, got 1.5"),
        (lambda: _environment(seed=-1), "seed must be an int >= 0, got -1"),
        (lambda: random_skeleton("abc", "c", n_edges=True), "asked for True edges"),
        (lambda: random_skeleton("abc", "c", n_edges=2.5), "asked for 2.5 edges"),
        (lambda: random_skeleton("abc", "c", seed=-1, n_edges=2), "seed must be an int >= 0, got -1"),
        (lambda: rf_train(_random_table(0), seed=1.5), "seed must be an int >= 0, got 1.5"),
        (lambda: rf_train(_random_table(0), seed=-1), "seed must be an int >= 0, got -1"),
        (lambda: mlp_train(_random_table(0), seed=-1), "seed must be an int >= 0, got -1"),
        (lambda: mlp_train(_random_table(0), seed=1.5), "seed must be an int >= 0, got 1.5"),
        (lambda: _gnn_train("sage", seed=-1), "sage: seed must be an int >= 0, got -1"),
        (lambda: _gnn_train("ecc", seed=2.0), "ecc: seed must be an int >= 0, got 2.0"),
    ],
)
def test_sizes_and_seeds_raise_config_errors(build, message):
    # each of these once raised numpy's or Python's own untyped error
    with pytest.raises(ConfigError, match=re.escape(message)):
        build()


@pytest.mark.parametrize("seed", [2**64, -1, True, 1.5])
@pytest.mark.parametrize("entry", ["default_farm_benchmark", "rf_train"])
def test_master_seeds_outside_64_bits_raise_config_errors(entry, seed):
    # masked to 64 bits, 2**64 gave seed 0's streams, -1 those of 2**64 - 1
    # and True those of 1; 1.5 raised an untyped TypeError
    from soilcausal.synth import default_farm_benchmark

    run = {
        "default_farm_benchmark": lambda: default_farm_benchmark(master_seed=seed, n_days=3),
        "rf_train": lambda: rf_train(_random_table(0), n_trees=2, seed=seed),
    }[entry]
    with pytest.raises(ConfigError, match="seed must be an int"):
        run()


def test_master_seeds_at_the_ends_of_the_range_give_their_own_streams():
    from soilcausal.synth import default_farm_benchmark

    seeds = {s: tuple(e.seed for e in default_farm_benchmark(s, n_days=3)[1]) for s in (0, 1, 2**64 - 1)}
    assert len(set(seeds.values())) == 3
    assert tuple(e.seed for e in default_farm_benchmark(np.uint64(1), n_days=3)[1]) == seeds[1]


def _environment(**options):
    from soilcausal.synth import EnvironmentSpec

    return EnvironmentSpec(label="a", treatment="red", **options)


def _gnn_train(kind, seed):
    from soilcausal import gnn

    sk = gnn.GraphSkeleton(nodes=("a", "t"), edges=(("a", "t"),), target="t")
    batch = gnn.build_instances(continuous_table(sk.nodes, np.ones((3, 2)), target="t"), sk)
    return gnn.train(kind, sk, batch, epochs=1, seed=seed)


def test_rf_train_rejects_an_empty_forest():
    # zero trees would average no predictions into all-NaN ones
    for n_trees in (0, -1, 2.5, True):
        with pytest.raises(ConfigError, match="at least one tree"):
            rf_train(_random_table(0), n_trees=n_trees)
    assert rf_train(_random_table(0), n_trees=np.int64(2)).trees == rf_train(_random_table(0), n_trees=2).trees


def test_gbt_train_rejects_bad_budgets():
    # a NaN rate made every prediction NaN, a negative one diverged, and no
    # rounds gave a model of no trees, all without an error
    table = _random_table(0)
    for kwargs in ({"n_estimators": 0}, {"n_estimators": -3}, {"n_estimators": 2.5}, {"n_estimators": True}):
        with pytest.raises(ConfigError, match="at least one round"):
            gbt_train(table, **kwargs)
    for lr in (np.nan, np.inf, -1.0, True, "0.1"):
        with pytest.raises(ConfigError, match="lr must be finite and >= 0"):
            gbt_train(table, n_estimators=1, lr=lr)
    ints = gbt_train(table, n_estimators=np.int64(1), lr=0)
    assert ints.loss_history == gbt_train(table, n_estimators=1, lr=0.0).loss_history


def test_forest_tree_drawing_every_feature_is_the_cart_tree():
    # from d on, a forest's tree takes every feature at each node
    rng = np.random.default_rng(5)
    X, y = rng.standard_normal((50, 4)), rng.standard_normal(50)
    for n_features in (4, 9):
        rngs = [np.random.default_rng(0)]
        assert baselines._grow_forest(X.T.copy(), y, [np.arange(50)], None, 2, rngs, n_features)[0] == cart_train(X, y)


@pytest.mark.parametrize(
    "train",
    [lambda t: rf_train(t, n_trees=2), lambda t: gbt_train(t, n_estimators=1), lambda t: mlp_train(t, epochs=1)],
    ids=["rf", "gbt", "mlp"],
)
def test_baselines_reject_a_table_without_features(train):
    # rf divided by zero features; gbt and mlp fit a constant
    table = continuous_table(("t",), np.random.default_rng(1).standard_normal((8, 1)), target="t")
    with pytest.raises(ConfigError, match="no feature column besides its target 't'"):
        train(table)


@pytest.mark.parametrize("rows", [1, 5])
def test_cart_train_rejects_a_design_without_columns(rows):
    with pytest.raises(NumericError, match="bad design shapes"):
        cart_train(np.zeros((rows, 0)), np.zeros(rows))


@pytest.mark.parametrize(
    "train",
    [lambda d: cart_train(np.eye(6), np.arange(6.0), max_depth=d), lambda d: gbt_train(_random_table(0), 1, d)],
    ids=["cart", "gbt"],
)
@pytest.mark.parametrize("max_depth", [-1, True, 2.5, "3"])
def test_trees_reject_a_bad_max_depth(train, max_depth):
    # -1 and True were taken as depths, 2.5 grew the trees of 3, "3" raised a TypeError
    with pytest.raises(ConfigError, match="max_depth must be None or an int >= 0"):
        train(max_depth)


@pytest.mark.parametrize("min_leaf", [0, -3, 1.5, True])
def test_cart_train_rejects_a_bad_min_leaf(min_leaf):
    X, y = np.eye(6), np.arange(6.0)
    with pytest.raises(ConfigError, match="min_leaf must be an int >= 1"):
        cart_train(X, y, min_leaf=min_leaf)
    assert cart_train(X, y, np.int64(0), np.int64(1)) == cart_train(X, y, 0, 1)


@pytest.mark.parametrize(
    "train",
    [lambda t: rf_train(t, n_trees=1), lambda t: gbt_train(t, n_estimators=1), lambda t: mlp_train(t, epochs=1)],
    ids=["rf", "gbt", "mlp"],
)
@pytest.mark.parametrize("column, what", [(2, "label"), (0, "features")])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_baselines_reject_non_finite_inputs_by_row(train, column, what, bad):
    # rf and gbt returned all-NaN predictions for a NaN label; mlp reported
    # an inf feature as a divergence
    rows = np.random.default_rng(1).standard_normal((8, 3))
    rows[3, column] = bad
    table = continuous_table(("a", "b", "t"), rows, target="t")
    with pytest.raises(NumericError, match=f"non-finite {what} in row 3 .f0, 2020-06-04, obs."):
        train(table)


@pytest.mark.parametrize("where", ["label", "feature"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_cart_train_rejects_non_finite_inputs_by_row(where, bad):
    # a NaN label grew a single NaN leaf; an inf feature was split on
    rng = np.random.default_rng(2)
    X, y = rng.standard_normal((20, 3)), rng.standard_normal(20)
    if where == "label":
        y[3] = bad
    else:
        X[3, 1] = bad
    X[7, 0] = np.nan  # a later bad row is not the one named
    with pytest.raises(NumericError, match="non-finite label or features in row 3$"):
        cart_train(X, y)
