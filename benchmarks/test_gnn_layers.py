"""Micro-benchmarks of the GNN layer on the 12-column train table at 400
days, the size of the ``farm-long`` workload: ``build_instances`` over the
whole table, and one full-batch training epoch (model init, forward,
backward and one Adam step) of SAGE and of ECC on the skeleton of the
farm's true DAG.

    PYTHONPATH=src python -m pytest benchmarks

They are not part of the tier-1 suite (``testpaths`` is ``tests``).
"""

import pytest

from soilcausal import gnn, synth


@pytest.fixture(scope="module")
def skeleton(long_train):
    scm, _ = synth.default_farm_benchmark()
    return gnn.GraphSkeleton(nodes=tuple(sorted(long_train.names)), edges=tuple(scm.dag.edges), target=scm.target)


def test_build_instances_long(benchmark, long_train, skeleton):
    batch = benchmark.pedantic(gnn.build_instances, args=(long_train, skeleton), rounds=20)
    benchmark.extra_info["rows"], benchmark.extra_info["nodes"] = batch.features.shape


@pytest.mark.parametrize("kind", ["sage", "ecc"])
def test_epoch_long(benchmark, long_train, skeleton, kind):
    batch = gnn.build_instances(long_train, skeleton)
    fit = benchmark.pedantic(gnn.train, args=(kind, skeleton, batch), kwargs={"epochs": 1}, rounds=5)
    benchmark.extra_info["rows"] = len(batch)
    assert len(fit.loss_history) == 1
