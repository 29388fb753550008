"""Micro-benchmarks of the tree layer: one depth-20 boosting-style tree
(all features, min leaf 1) on the 12-column train design at 400 days, the
size of the ``farm-long`` workload; ``gbt_train`` and ``rf_train`` with the
``farm-long`` budgets (2 depth-20 rounds, 3 trees) on that design;
``gbt_train`` and ``rf_train`` with the ``farm-narrow`` budgets (10 depth-20
rounds, 20 trees) on the 12-column train design at 60 days; and one
random-forest tree (bootstrap, sqrt(d) features per node, unlimited depth)
on the 62-column paper-width train design.

    PYTHONPATH=src python -m pytest benchmarks

They are not part of the tier-1 suite (``testpaths`` is ``tests``).
"""

import numpy as np

from soilcausal import baselines


def _count_nodes(node):
    return 1 if node.is_leaf else 1 + _count_nodes(node.left) + _count_nodes(node.right)


def test_cart_depth20_long(benchmark, long_train):
    X, y, _ = baselines._design(long_train)
    tree = benchmark.pedantic(
        baselines.cart_train, args=(X, y), kwargs={"max_depth": 20, "min_leaf": 1}, rounds=5
    )
    benchmark.extra_info["rows"], benchmark.extra_info["features"] = X.shape
    benchmark.extra_info["nodes"] = _count_nodes(tree)


def test_gbt_long(benchmark, long_train):
    model = benchmark.pedantic(
        baselines.gbt_train, args=(long_train,), kwargs={"n_estimators": 2, "max_depth": 20}, rounds=5
    )
    benchmark.extra_info["nodes"] = sum(_count_nodes(tree) for tree in model.trees)


def test_gbt_narrow(benchmark, narrow_train):
    model = benchmark.pedantic(
        baselines.gbt_train, args=(narrow_train,), kwargs={"n_estimators": 10, "max_depth": 20}, rounds=5
    )
    benchmark.extra_info["nodes"] = sum(_count_nodes(tree) for tree in model.trees)


def test_rf_long(benchmark, long_train):
    forest = benchmark.pedantic(baselines.rf_train, args=(long_train,), kwargs={"n_trees": 3}, rounds=5)
    benchmark.extra_info["nodes"] = sum(_count_nodes(tree) for tree in forest.trees)


def test_rf_narrow(benchmark, narrow_train):
    forest = benchmark.pedantic(baselines.rf_train, args=(narrow_train,), kwargs={"n_trees": 20}, rounds=5)
    benchmark.extra_info["nodes"] = sum(_count_nodes(tree) for tree in forest.trees)


def test_rf_tree_wide(benchmark, wide_train):
    forest = benchmark.pedantic(baselines.rf_train, args=(wide_train,), kwargs={"n_trees": 1}, rounds=5)
    benchmark.extra_info["features"] = len(forest.feature_names)
    benchmark.extra_info["nodes"] = _count_nodes(forest.trees[0])
    assert np.isfinite(forest.trees[0].value)
