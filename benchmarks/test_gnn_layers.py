"""Micro-benchmarks of the GNN layer on the 12-column train table at 400
days, the size of the ``farm-long`` workload: ``build_instances`` over the
whole table, one fused forward and backward (``engine.Step``, one
epoch of the fit without its Adam step) of SAGE's stack (3 convolutions and
its head) and of ECC's (2 convolutions and its head), and one full-batch
training (model init, the fit's buffers, one step and one Adam step) of
SAGE and of ECC, all on the skeleton of the farm's true DAG.
The same epoch also runs on the 62-column paper-width train table with the
skeleton PC finds on it, as ``farm-wide`` trains.

    PYTHONPATH=src python -m pytest benchmarks

They are not part of the tier-1 suite (``testpaths`` is ``tests``).
"""

import pytest

from soilcausal import discovery, engine, gnn, stats, synth


@pytest.fixture(scope="module")
def skeleton(long_train):
    scm, _ = synth.default_farm_benchmark()
    return gnn.GraphSkeleton(nodes=tuple(sorted(long_train.names)), edges=tuple(scm.dag.edges), target=scm.target)


def test_build_instances_long(benchmark, long_train, skeleton):
    batch = benchmark.pedantic(gnn.build_instances, args=(long_train, skeleton), rounds=20)
    benchmark.extra_info["rows"], benchmark.extra_info["nodes"] = batch.features.shape


@pytest.mark.parametrize("kind", ["sage", "ecc"])
def test_conv_stack_long(benchmark, long_train, skeleton, kind):
    # the model's whole layer stack on the node-major input of every train
    # row, as one training epoch runs it (ECC generating its weights), with
    # the squared error and backward to every parameter's gradient
    batch = gnn.build_instances(long_train, skeleton)
    model = gnn._init_model(kind, skeleton, 0, 16)
    plan, h = gnn._node_inputs(model, skeleton, batch)
    step = engine.Step(h, gnn._stack(model, plan), batch.labels)
    benchmark.pedantic(step, rounds=30, warmup_rounds=2)
    benchmark.extra_info["in_nodes"], benchmark.extra_info["rows"], _ = h.shape


@pytest.mark.parametrize("kind", ["sage", "ecc"])
def test_epoch_long(benchmark, long_train, skeleton, kind):
    batch = gnn.build_instances(long_train, skeleton)
    fit = benchmark.pedantic(gnn.train, args=(kind, skeleton, batch), kwargs={"epochs": 1}, rounds=5)
    benchmark.extra_info["rows"] = len(batch)
    assert len(fit.loss_history) == 1


@pytest.fixture(scope="module")
def wide_skeleton(wide_train):
    pattern = discovery.pc(wide_train, warn=stats.WarningCounter())
    return gnn.skeleton_from_pattern(pattern, wide_train.names, wide_train.target)


@pytest.mark.parametrize("kind", ["sage", "ecc"])
def test_epoch_wide(benchmark, wide_train, wide_skeleton, kind):
    batch = gnn.build_instances(wide_train, wide_skeleton)
    fit = benchmark.pedantic(gnn.train, args=(kind, wide_skeleton, batch), kwargs={"epochs": 1}, rounds=5)
    benchmark.extra_info["rows"], benchmark.extra_info["nodes"] = batch.features.shape
    assert len(fit.loss_history) == 1
