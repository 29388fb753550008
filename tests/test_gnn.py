import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import soilcausal.engine as engine
from soilcausal import baselines
from soilcausal.engine import constant, mse
from soilcausal.errors import GraphError, NumericError, SchemaError
from soilcausal.gnn import (
    GraphSkeleton,
    build_instances,
    init_ecc,
    init_sage,
    layer_plan,
    load_model,
    predict,
    save_model,
    skeleton_from_pattern,
    train,
)
from soilcausal.graphs import Cpdag

from enumutil import continuous_table, finite_diff_check


def _random_skeleton(rng, n_nodes, n_edges, target_idx=0):
    nodes = tuple(f"n{k}" for k in range(n_nodes))
    pairs = [(a, b) for a in nodes for b in nodes if a != b]
    chosen = rng.choice(len(pairs), size=min(n_edges, len(pairs)), replace=False)
    return GraphSkeleton(nodes=nodes, edges=tuple(pairs[int(k)] for k in chosen), target=nodes[target_idx])


def _batch(skeleton, rows):
    """A batch from rows of values in the skeleton's node order, the
    target's value being the label."""
    return build_instances(continuous_table(skeleton.nodes, rows, target=skeleton.target), skeleton)


def _random_batch(rng, skeleton, n):
    return _batch(skeleton, rng.standard_normal((n, skeleton.n_nodes)))


def _full_graph(skeleton):
    """Every node's state from every node's: self slots 0..n-1 and the
    row-normalized in-neighbor matrix, built from ``in_neighbors``."""
    n = skeleton.n_nodes
    agg = np.zeros((n, n))
    for i, node in enumerate(skeleton.nodes):
        nbrs = skeleton.in_neighbors(node)
        for a in nbrs:
            agg[i, skeleton.index(a)] = 1.0 / len(nbrs)
    return np.arange(n), agg


# ---------------------------------------------------------------------------
# skeleton + instances


def test_skeleton_validation():
    with pytest.raises(GraphError):
        GraphSkeleton(nodes=("a", "a"), edges=(), target="a")
    with pytest.raises(GraphError):
        GraphSkeleton(nodes=("a", "b"), edges=(), target="z")
    with pytest.raises(GraphError):
        GraphSkeleton(nodes=("a", "b"), edges=(("a", "c"),), target="a")
    with pytest.raises(GraphError):
        GraphSkeleton(nodes=("a", "b"), edges=(("a", "a"),), target="a")


def test_skeleton_edges_canonicalized():
    s1 = GraphSkeleton(nodes=("a", "b", "c"), edges=(("b", "c"), ("a", "b"), ("b", "c")), target="c")
    s2 = GraphSkeleton(nodes=("a", "b", "c"), edges=(("a", "b"), ("b", "c")), target="c")
    assert s1.edges == s2.edges


def test_layer_plan_node_sets():
    sk = GraphSkeleton(
        nodes=("far", "a", "b", "t", "unrelated"),
        edges=(("far", "a"), ("a", "b"), ("b", "t"), ("far", "t"), ("t", "unrelated")),
        target="t",
    )
    # SAGE: layer k outputs the nodes within (3 - k) in-hops of t
    sage = layer_plan(sk, 3, True)
    assert sage.reads.tolist() == [0, 1, 2, 3]
    assert [layer.agg.shape for layer in sage.layers] == [(4, 4), (3, 4), (1, 3)]
    assert sage.layers[2].agg.tolist() == [[0.5, 0.5, 0.0]]  # t over (far, b, t)
    assert sage.layers[2].self_index.tolist() == [2]
    # ECC reads the in-neighbors alone: t <- (far, b) <- (a) <- ()
    ecc = layer_plan(sk, 2, False)
    assert ecc.reads.tolist() == [1]
    assert [layer.agg.tolist() for layer in ecc.layers] == [[[0.0], [1.0]], [[0.5, 0.5]]]
    assert all(layer.self_index is None for layer in ecc.layers)
    # a target with no in-neighbors reads nothing
    lone = layer_plan(GraphSkeleton(nodes=("a", "t"), edges=(("t", "a"),), target="t"), 2, False)
    assert lone.reads.size == 0 and [layer.agg.shape for layer in lone.layers] == [(0, 0), (1, 0)]


def test_skeleton_from_pattern_expands_undirected():
    pat = Cpdag(nodes=frozenset("abc"), directed=frozenset({("a", "b")}), undirected=frozenset({("b", "c")}))
    sk = skeleton_from_pattern(pat, ("a", "b", "c"), target="b")
    assert set(sk.edges) == {("a", "b"), ("b", "c"), ("c", "b")}


@pytest.mark.parametrize("kind", ["sage", "ecc"])
def test_training_from_pattern_is_bit_identical_under_column_order(kind):
    rng = np.random.default_rng(11)
    names = ("a", "b", "c", "d", "e", "t")
    rows = rng.standard_normal((40, len(names)))
    pattern = Cpdag(
        nodes=frozenset(names),
        directed=frozenset({("a", "t"), ("b", "t"), ("c", "t"), ("d", "c")}),
        undirected=frozenset({("e", "t"), ("a", "b")}),
    )
    results = []
    for perm in (names, ("t", "e", "c", "a", "d", "b")):
        cols = [names.index(n) for n in perm]
        table = continuous_table(perm, rows[:, cols], target="t")
        sk = skeleton_from_pattern(pattern, table.names, target="t")
        batch = build_instances(table, sk)
        res = train(kind, sk, batch, epochs=20, seed=5, hidden=8)
        results.append((res.loss_history, predict(res.model, sk, batch)))
    (h1, p1), (h2, p2) = results
    assert h1 == h2
    assert np.array_equal(p1, p2)


def test_build_instances_masks_target():
    t = continuous_table(("x", "y"), [[1.5, 3.2], [0.0, -1.0]], target="y")
    sk = GraphSkeleton(nodes=("x", "y"), edges=(("x", "y"),), target="y")
    batch = build_instances(t, sk)
    assert len(batch) == 2 and batch.nodes == sk.nodes
    assert batch.labels[0] == pytest.approx(3.2)
    assert batch.features[0, sk.index("y")] == 0.0
    assert batch.features[0, sk.index("x")] == pytest.approx(1.5)
    assert batch.field_id[0] == "f0" and batch.treatment[0] == "obs"


def test_build_instances_alignment_by_name():
    rows = [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]
    t1 = continuous_table(("a", "b", "y"), rows, target="y")
    # same data with shuffled column order
    t2 = continuous_table(("y", "a", "b"), [[r[2], r[0], r[1]] for r in rows], target="y")
    sk = GraphSkeleton(nodes=("a", "b", "y"), edges=(("a", "y"),), target="y")
    b1, b2 = build_instances(t1, sk), build_instances(t2, sk)
    assert np.array_equal(b1.features, b2.features)
    assert np.array_equal(b1.labels, b2.labels)


def test_build_instances_schema_mismatch():
    t = continuous_table(("a", "b"), [[1.0, 2.0]])
    sk = GraphSkeleton(nodes=("a", "c"), edges=(), target="c")
    with pytest.raises(SchemaError):
        build_instances(t, sk)


def test_build_instances_rejects_non_finite_features_by_row():
    sk = GraphSkeleton(nodes=("a", "t"), edges=(("a", "t"),), target="t")
    t = continuous_table(("a", "t"), [[1.0, 0.0], [np.inf, 0.0], [np.nan, 1.0]], target="t")
    with pytest.raises(NumericError, match="row 1 .f0, 2020-06-02, obs."):
        build_instances(t, sk)
    # the target's own value is the label, not an input
    assert np.isnan(build_instances(continuous_table(("a", "t"), [[1.0, np.nan]], target="t"), sk).labels[0])


@pytest.mark.parametrize("nodes", [("a", "c", "t"), ("t", "a", "b")])
def test_batch_fed_to_other_skeleton_raises(nodes):
    # same width: other nodes, or the same nodes in another order
    sk = GraphSkeleton(nodes=("a", "b", "t"), edges=(("a", "t"), ("b", "t")), target="t")
    batch = _batch(sk, [[1.0, 2.0, 3.0], [0.5, -1.0, 2.0]])
    other = GraphSkeleton(nodes=nodes, edges=(("a", "t"),), target="t")
    with pytest.raises(SchemaError):
        train("sage", other, batch, epochs=1)
    with pytest.raises(SchemaError):
        predict(init_ecc(other, hidden=4), other, batch)


def test_prune_to_target_closure():
    from soilcausal.gnn import prune_to_target

    sk = GraphSkeleton(
        nodes=("far", "a", "b", "t", "unrelated"),
        edges=(("far", "a"), ("a", "b"), ("b", "t"), ("t", "unrelated")),
        target="t",
    )
    p2 = prune_to_target(sk, hops=2)
    assert p2.nodes == ("a", "b", "t")  # "far" is 3 hops out, "unrelated" downstream
    assert set(p2.edges) == {("a", "b"), ("b", "t")}
    p3 = prune_to_target(sk, hops=3)
    assert p3.nodes == ("far", "a", "b", "t")
    assert prune_to_target(sk, hops=0).nodes == ("t",)
    with pytest.raises(GraphError):
        prune_to_target(sk, hops=-1)


@pytest.mark.parametrize("kind", ["sage", "ecc"])
def test_pruned_training_matches_full(kind):
    # the pruned closure must reproduce full-graph predictions: unused
    # nodes contribute nothing to the target readout or to any gradient
    from soilcausal.gnn import CONV_DEPTH, prune_to_target
    from soilcausal.ingest import select_columns

    rng = np.random.default_rng(23)
    nodes = tuple(f"n{k}" for k in range(8))
    edges = (
        ("n1", "n0"), ("n2", "n1"), ("n3", "n2"), ("n4", "n3"),
        ("n5", "n6"), ("n6", "n7"),
    )
    sk = GraphSkeleton(nodes=nodes, edges=edges, target="n0")
    rows = rng.standard_normal((40, 8))
    t = continuous_table(nodes, rows, target="n0")

    full = train(kind, sk, build_instances(t, sk), epochs=40, seed=3)

    sk_p = prune_to_target(sk, CONV_DEPTH[kind])
    t_p = select_columns(t, sk_p.nodes)
    pruned = train(kind, sk_p, build_instances(t_p, sk_p), epochs=40, seed=3)

    assert len(sk_p.nodes) < len(sk.nodes)
    assert np.allclose(full.loss_history, pruned.loss_history, rtol=1e-9)
    pf = predict(full.model, sk, build_instances(t, sk))
    pp = predict(pruned.model, sk_p, build_instances(t_p, sk_p))
    assert np.allclose(pf, pp, atol=1e-9)


# ---------------------------------------------------------------------------
# convolutions vs naive loops


def _naive_sage(feats, skeleton, params, activate):
    W, b = params.weight.values, params.bias.values
    out = []
    for i, node in enumerate(skeleton.nodes):
        nbrs = skeleton.in_neighbors(node)
        if nbrs:
            agg = np.mean([feats[skeleton.index(a)] for a in nbrs], axis=0)
        else:
            agg = np.zeros(feats.shape[1])
        z = W @ np.concatenate([feats[i], agg]) + b
        out.append(np.maximum(z, 0.0) if activate else z)
    return np.stack(out)


def _naive_ecc(feats, skeleton, layer):
    Wf, bf = layer.filter.weight.values, layer.filter.bias.values
    theta = (Wf @ np.array([1.0]) + bf).reshape(layer.out_dim, layer.in_dim)
    out = []
    for node in skeleton.nodes:
        nbrs = skeleton.in_neighbors(node)
        if not nbrs:
            out.append(layer.bias.values.copy())
            continue
        msgs = [theta @ feats[skeleton.index(j)] for j in nbrs]
        out.append(np.mean(msgs, axis=0) + layer.bias.values)
    return np.stack(out)


def test_sage_conv_zero_weights():
    sk = GraphSkeleton(nodes=("a", "b"), edges=(("a", "b"),), target="b")
    model = init_sage(sk, seed=0, hidden=4)
    model.convs[0].weight.values[...] = 0.0
    model.convs[0].bias.values[...] = 0.0
    h = constant(np.ones((2, 3, 1)))  # node-major: 2 nodes, 3 rows
    out = engine.graph_conv(h, *_full_graph(sk), *model.convs[0].tensors, relu=True)
    assert np.array_equal(out.values, np.zeros((2, 3, 4)))


def test_sage_conv_isolated_node_passthrough():
    # W = [I | I], nonneg input: self part + zero aggregate, ReLU no-op
    sk = GraphSkeleton(nodes=("a",), edges=(), target="a")
    weight = engine.parameter(np.concatenate([np.eye(3), np.eye(3)], axis=1))
    v = np.array([0.5, 0.0, 2.0]).reshape(1, 1, 3)
    out = engine.graph_conv(constant(v), *_full_graph(sk), weight, engine.parameter(np.zeros(3)), relu=True)
    assert np.allclose(out.values[0, 0], [0.5, 0.0, 2.0])


@pytest.mark.parametrize("seed", range(10))
def test_sage_conv_matches_naive_loop(seed):
    rng = np.random.default_rng(seed)
    sk = _random_skeleton(rng, 5, 7)
    model = init_sage(sk, seed=seed, hidden=3)
    feats = rng.standard_normal((4, 5, 3))
    h = constant(feats.transpose(1, 0, 2))  # node-major
    out = engine.graph_conv(h, *_full_graph(sk), *model.convs[1].tensors, relu=(seed % 2 == 0))
    for b in range(4):
        ref = _naive_sage(feats[b], sk, model.convs[1], activate=(seed % 2 == 0))
        assert np.max(np.abs(out.values[:, b] - ref)) < 1e-12


def test_ecc_conv_empty_neighborhood_is_bias():
    sk = GraphSkeleton(nodes=("a", "b"), edges=(("a", "b"),), target="b")
    model = init_ecc(sk, seed=1, hidden=4)
    layer = model.convs[1]
    layer.bias.values[...] = np.array([1.0, -2.0, 0.5, 3.0])
    h = constant(np.random.default_rng(0).standard_normal((2, 2, 4)))
    out = engine.graph_conv(h, None, _full_graph(sk)[1], layer.weight, layer.bias, relu=False)
    # node "a" has no in-neighbors
    assert np.array_equal(out.values[0], np.tile(layer.bias.values, (2, 1)))


def test_ecc_conv_identity_filter_copies_neighbor():
    sk = GraphSkeleton(nodes=("j", "i"), edges=(("j", "i"),), target="i")
    from soilcausal.gnn import EccLayer

    d = 3
    layer = EccLayer(
        filter=engine.DenseParams(
            engine.parameter(np.eye(d).reshape(d * d, 1) * 0.0),
            engine.parameter(np.eye(d).reshape(d * d)),
        ),
        bias=engine.parameter(np.zeros(d)),
        out_dim=d,
        in_dim=d,
    )
    h = np.random.default_rng(2).standard_normal((2, 5, d))
    out = engine.graph_conv(constant(h), None, _full_graph(sk)[1], layer.weight, layer.bias, relu=False)
    assert np.max(np.abs(out.values[1] - h[0])) < 1e-12


@pytest.mark.parametrize("seed", range(10))
def test_ecc_conv_matches_naive_loop(seed):
    rng = np.random.default_rng(100 + seed)
    sk = _random_skeleton(rng, 5, 8)
    model = init_ecc(sk, seed=seed, hidden=3)
    model.convs[1].bias.values[...] = rng.standard_normal(3)
    feats = rng.standard_normal((4, 5, 3))
    layer = model.convs[1]
    h = constant(feats.transpose(1, 0, 2))  # node-major
    out = engine.graph_conv(h, None, _full_graph(sk)[1], layer.weight, layer.bias, relu=False)
    for b in range(4):
        ref = _naive_ecc(feats[b], sk, layer)
        assert np.max(np.abs(out.values[:, b] - ref)) < 1e-12


def test_ecc_filter_matrix_shape():
    sk = GraphSkeleton(nodes=("a", "b"), edges=(("a", "b"),), target="b")
    model = init_ecc(sk, seed=0, hidden=4)
    assert [layer.weight.values.shape for layer in model.convs] == [(4, 1), (4, 4)]
    # the filter network's output at edge attribute 1.0, row-major
    flat = model.convs[1].filter.weight.values[:, 0] + model.convs[1].filter.bias.values
    assert np.array_equal(model.convs[1].weight.values, flat.reshape(4, 4))


def _naive_forward(model, skeleton, feats):
    """The full-graph loops over every node, read at the target."""
    h = feats[:, None]
    if model.kind == "sage":
        for k, conv in enumerate(model.convs):
            h = _naive_sage(h, skeleton, conv, activate=k < 2)
        z = h[skeleton.index(skeleton.target)]
        for k, ff in enumerate(model.head):
            z = ff.weight.values @ z + ff.bias.values
            z = np.maximum(z, 0.0) if k < 2 else z
        return z[0]
    h = np.maximum(_naive_ecc(h, skeleton, model.convs[0]), 0.0)
    h = _naive_ecc(h, skeleton, model.convs[1])
    (head,) = model.head
    z = head.weight.values @ h[skeleton.index(skeleton.target)] + head.bias.values
    return z[0]


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 6),
    edge_bits=st.integers(0, 2**30 - 1),
    target=st.integers(0, 5),
    seed=st.integers(0, 2**16),
)
def test_layer_wise_forward_matches_full_graph_loops(n, edge_bits, target, seed):
    nodes = tuple(f"n{k}" for k in range(n))
    pairs = [(a, b) for a in nodes for b in nodes if a != b]
    edges = tuple(p for k, p in enumerate(pairs) if edge_bits >> k & 1)
    sk = GraphSkeleton(nodes=nodes, edges=edges, target=nodes[target % n])
    rng = np.random.default_rng(seed)
    batch = _random_batch(rng, sk, 3)
    for init in (init_sage, init_ecc):
        model = init(sk, seed=seed, hidden=3)
        got = predict(model, sk, batch)
        ref = np.array([_naive_forward(model, sk, row) for row in batch.features])
        assert np.max(np.abs(got - ref)) <= 1e-12 * max(1.0, np.abs(ref).max())


# ---------------------------------------------------------------------------
# forward


def test_forward_zero_params_predicts_zero():
    sk = GraphSkeleton(nodes=("a", "b", "t"), edges=(("a", "t"), ("b", "t")), target="t")
    for kind, init in (("sage", init_sage), ("ecc", init_ecc)):
        model = init(sk, seed=0, hidden=4)
        for p in model.params:
            p.values[...] = 0.0
        assert predict(model, sk, _batch(sk, [[1.0, -2.0, 5.0]]))[0] == 0.0


def test_forward_hand_unrolled_trace():
    # 3 nodes a->t, b->t; hidden 2; every number recomputed by hand here
    sk = GraphSkeleton(nodes=("a", "b", "t"), edges=(("a", "t"), ("b", "t")), target="t")
    model = init_sage(sk, seed=7, hidden=2)
    feats = np.array([0.7, -1.3, 0.0])

    h = feats[:, None]  # (3, 1)
    _, A = _full_graph(sk)
    for k, conv in enumerate(model.convs):
        agg = A @ h
        z = np.concatenate([h, agg], axis=1) @ conv.weight.values.T + conv.bias.values
        h = np.maximum(z, 0.0) if k < 2 else z
    z = h[2]
    for k, ff in enumerate(model.head):
        z = z @ ff.weight.values.T + ff.bias.values
        if k < 2:
            z = np.maximum(z, 0.0)
    expected = float(z[0])

    batch = _batch(sk, [[0.7, -1.3, 2.0]])
    assert abs(predict(model, sk, batch)[0] - expected) < 1e-12


def test_forward_invariant_to_node_order():
    rng = np.random.default_rng(3)
    nodes = ("a", "b", "c", "t")
    edges = (("a", "t"), ("b", "t"), ("c", "b"))
    rows = rng.standard_normal((6, 4))
    t1 = continuous_table(nodes, rows, target="t")
    sk1 = GraphSkeleton(nodes=nodes, edges=edges, target="t")

    perm = ("c", "t", "a", "b")
    cols = {n: rows[:, nodes.index(n)] for n in nodes}
    t2 = continuous_table(perm, np.stack([cols[n] for n in perm], axis=1), target="t")
    sk2 = GraphSkeleton(nodes=perm, edges=edges, target="t")

    r1 = train("sage", sk1, build_instances(t1, sk1), epochs=5, seed=4)
    r2 = train("sage", sk2, build_instances(t2, sk2), epochs=5, seed=4)
    # same data, same graph: training histories agree even though the
    # node slots are permuted (weights are shared across nodes)
    assert r1.loss_history == pytest.approx(r2.loss_history, abs=1e-12)


def test_forward_invariant_to_edge_order():
    rng = np.random.default_rng(4)
    nodes = ("a", "b", "t")
    sk1 = GraphSkeleton(nodes=nodes, edges=(("a", "t"), ("b", "t")), target="t")
    sk2 = GraphSkeleton(nodes=nodes, edges=(("b", "t"), ("a", "t")), target="t")
    model = init_sage(sk1, seed=0, hidden=4)
    batch = _batch(sk1, [[1.0, 2.0, 1.0]])
    assert predict(model, sk1, batch)[0] == predict(model, sk2, batch)[0]


def test_masking_blocks_target_leakage_bit_exactly():
    nodes = ("x", "y")
    sk = GraphSkeleton(nodes=nodes, edges=(("x", "y"),), target="y")
    rows = [[0.3, 10.0], [0.6, -4.0]]
    rows2 = [[0.3, 99.0], [0.6, 123.0]]  # only the target column differs
    i1 = build_instances(continuous_table(nodes, rows, target="y"), sk)
    i2 = build_instances(continuous_table(nodes, rows2, target="y"), sk)
    model = init_sage(sk, seed=5)
    p1 = predict(model, sk, i1)
    p2 = predict(model, sk, i2)
    assert np.array_equal(p1, p2)


# ---------------------------------------------------------------------------
# gradients


@pytest.mark.parametrize("kind", ["sage", "ecc"])
def test_model_gradients_match_fd(kind, monkeypatch):
    from soilcausal.gnn import _forward_batch

    rng = np.random.default_rng(17)
    # target n2 reads n0 and n3, which read n1: every convolution computes
    # some node state, so every conv parameter gets a gradient
    sk = _random_skeleton(rng, 4, 5, target_idx=2)
    batch = _random_batch(rng, sk, 6)
    assert sk.in_neighbors("n2") == ("n0", "n3") and sk.in_neighbors("n0") == ()

    # screen out seeds whose ReLU preactivations sit inside the h=1e-5
    # difference stencil: the subgradient convention and the symmetric
    # difference legitimately disagree on the kink itself.  Every op that
    # applies a ReLU (the convolutions and the dense head layers) is
    # wrapped to record its preactivations in the forward pass.
    preacts = []

    def recording(op):
        def wrapped(*args, relu=False):
            if relu:
                preacts.append(np.abs(op(*args, relu=False).values).min(initial=np.inf))
            return op(*args, relu=relu)

        return wrapped

    for name in ("dense", "graph_conv"):
        monkeypatch.setattr(engine, name, recording(getattr(engine, name)))
    model = None
    for seed in range(2, 50):
        cand = (init_sage if kind == "sage" else init_ecc)(sk, seed=seed, hidden=3)
        preacts.clear()
        predict(cand, sk, batch)
        # SAGE: two ReLU convolutions and two ReLU head layers; ECC: one ReLU convolution
        assert len(preacts) == {"sage": 4, "ecc": 1}[kind]
        if min(preacts) > 1e-3:
            model = cand
            break
    monkeypatch.undo()
    assert model is not None, "no kink-free seed found"

    def loss_fn():
        return mse(_forward_batch(model, sk, batch), batch.labels)

    report = finite_diff_check(loss_fn, model.params)
    assert report.passed, report


# ---------------------------------------------------------------------------
# training


def test_train_lr_zero_keeps_params():
    rng = np.random.default_rng(0)
    sk = _random_skeleton(rng, 3, 2)
    res = train("sage", sk, _random_batch(rng, sk, 4), lr=0.0, epochs=10, seed=1)
    ref = init_sage(sk, seed=1, hidden=16)
    for p, q in zip(res.model.params, ref.params):
        assert np.array_equal(p.values, q.values)
    assert len(set(res.loss_history)) == 1


def test_train_memorizes_single_instance():
    sk = GraphSkeleton(nodes=("a", "b", "t"), edges=(("a", "t"), ("b", "t")), target="t")
    res = train("sage", sk, _batch(sk, [[0.8, -0.4, 1.7]]), lr=0.01, epochs=2000, seed=0)
    assert res.loss_history[-1] < 1e-4


def test_train_reproducible_from_seed():
    rng = np.random.default_rng(5)
    sk = _random_skeleton(rng, 4, 4)
    batch = _random_batch(rng, sk, 8)
    r1 = train("ecc", sk, batch, epochs=20, seed=9)
    r2 = train("ecc", sk, batch, epochs=20, seed=9)
    assert r1.loss_history == r2.loss_history
    for p, q in zip(r1.model.params, r2.model.params):
        assert np.array_equal(p.values, q.values)


@settings(max_examples=8, deadline=None, derandomize=True)
@given(
    n_fields=st.integers(2, 3),
    n_days=st.integers(3, 4),
    n_cols=st.integers(3, 4),
    seed=st.integers(0, 2**16),
)
def test_row_shuffle_leaves_training_and_predictions_unchanged(n_fields, n_days, n_cols, seed):
    # a train table with several fields and days, and the same rows in
    # another order: every model trains and predicts the same
    rng = np.random.default_rng(seed)
    names = tuple(f"n{k}" for k in range(n_cols))  # _random_skeleton's labels
    n = n_fields * n_days
    base = replace(
        continuous_table(names, rng.standard_normal((n, n_cols))),
        field_id=np.repeat([f"f{k}" for k in range(n_fields)], n_days),
        timestamps=np.tile(np.datetime64("2020-06-01") + np.arange(n_days), n_fields),
    )
    perm = rng.permutation(n)
    shuffled = replace(
        base,
        rows=base.rows[perm],
        timestamps=base.timestamps[perm],
        field_id=base.field_id[perm],
        treatment=base.treatment[perm],
    )
    sk = _random_skeleton(rng, n_cols, 2 * n_cols, target_idx=n_cols - 1)

    def fits(table):
        batch = build_instances(table, sk)
        graph = [train(kind, sk, batch, epochs=3, hidden=4, seed=1) for kind in ("sage", "ecc")]
        rf = baselines.rf_train(table, n_trees=2, seed=1)
        gbt = baselines.gbt_train(table, n_estimators=2, max_depth=3)
        mlp = baselines.mlp_train(table, epochs=2, seed=1)
        preds = [baselines.rf_predict(rf, base), baselines.gbt_predict(gbt, base), baselines.mlp_predict(mlp, base)]
        return [g.loss_history for g in graph], preds

    (loss_a, pred_a), (loss_b, pred_b) = fits(base), fits(shuffled)
    for a, b in zip(loss_a, loss_b):
        np.testing.assert_allclose(a, b, rtol=1e-9, atol=0)
    for a, b in zip(pred_a, pred_b):
        assert np.array_equal(a, b)


def test_train_nan_aborts_with_diagnostics():
    # a 1e200 feature overflows the squared loss to inf on the first epoch
    sk = GraphSkeleton(nodes=("a", "t"), edges=(("a", "t"),), target="t")
    batch = _batch(sk, [[1e200, 0.0]])
    with np.errstate(over="ignore"), pytest.raises(NumericError, match="diverged at epoch 0"):
        train("sage", sk, batch, epochs=5, seed=0)


def test_train_loss_decreases_on_real_split():
    from soilcausal.synth import default_farm_benchmark, sample_environments
    from dataclasses import replace

    scm, envs = default_farm_benchmark()
    t = sample_environments(scm, [replace(e, n_days=30) for e in envs[:4]])
    sk = GraphSkeleton(
        nodes=tuple(sorted(t.names)),
        edges=tuple(scm.dag.edges),
        target=scm.target,
    )
    res = train("sage", sk, build_instances(t, sk), epochs=120, seed=0)
    assert res.loss_history[-1] < 0.5 * res.loss_history[0]


@pytest.mark.parametrize("kind", ["sage", "ecc"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_train_rejects_non_finite_labels_by_row(kind, bad):
    sk = GraphSkeleton(nodes=("a", "t"), edges=(("a", "t"),), target="t")
    batch = _batch(sk, [[1.0, 0.0], [0.5, bad], [0.2, 1.0]])
    with pytest.raises(NumericError, match="label in row 1 .f0, 2020-06-02, obs."):
        train(kind, sk, batch, epochs=1)


def test_train_rejects_unknown_kind():
    sk = GraphSkeleton(nodes=("a",), edges=(), target="a")
    with pytest.raises(NumericError):
        train("transformer", sk, [], epochs=1)


def test_predict_preserves_order_and_matches_forward():
    rng = np.random.default_rng(8)
    sk = _random_skeleton(rng, 4, 5)
    rows = rng.standard_normal((5, sk.n_nodes))
    model = init_ecc(sk, seed=3, hidden=4)
    together = predict(model, sk, _batch(sk, rows))
    singles = [predict(model, sk, _batch(sk, rows[k : k + 1]))[0] for k in range(5)]
    assert np.allclose(together, singles, atol=1e-12)


def test_save_load_roundtrip(tmp_path):
    rng = np.random.default_rng(9)
    sk = _random_skeleton(rng, 4, 4)
    batch = _random_batch(rng, sk, 6)
    res = train("sage", sk, batch, epochs=15, seed=2)
    path = tmp_path / "sage.bin"
    save_model(path, res.model, sk)
    clone = load_model(path, "sage", sk)
    assert np.array_equal(predict(clone, sk, batch), predict(res.model, sk, batch))


def test_parameter_lists_keep_the_checkpoint_layout():
    # the order and shapes a checkpoint stores: the convolutions input side
    # first (SAGE: weight, bias; ECC: filter weight, filter bias, bias),
    # then the head layers (weight, bias)
    sk = GraphSkeleton(nodes=("a", "t"), edges=(("a", "t"),), target="t")
    sage = [(4, 2), (4,), (4, 8), (4,), (4, 8), (4,), (4, 4), (4,), (4, 4), (4,), (1, 4), (1,)]
    ecc = [(4, 1), (4,), (4,), (16, 1), (16,), (4,), (1, 4), (1,)]
    assert [p.values.shape for p in init_sage(sk, hidden=4).params] == sage
    assert [p.values.shape for p in init_ecc(sk, hidden=4).params] == ecc
    # and each tensor once, as the model's fields hold it
    model = init_ecc(sk, hidden=4)
    fields = [t for layer in model.convs for t in (layer.filter.weight, layer.filter.bias, layer.bias)]
    fields += [t for layer in model.head for t in (layer.weight, layer.bias)]
    assert all(p is q for p, q in zip(model.params, fields, strict=True))


def test_checkpoint_pins_its_graph(tmp_path):
    sk = GraphSkeleton(nodes=("a", "b", "t"), edges=(("a", "t"), ("b", "a")), target="t")
    path = tmp_path / "sage.bin"
    save_model(path, init_sage(sk, hidden=4), sk)
    header = json.loads(path.read_bytes().partition(b"\n")[0])
    assert header["nodes"] == ["a", "b", "t"] and header["target"] == "t"
    load_model(path, "sage", sk, hidden=4)
    # the same nodes under other edges: same parameter shapes, other layer plan
    other_edges = replace(sk, edges=(("b", "t"), ("a", "b")))
    for kind, skeleton, hidden in (
        ("sage", other_edges, 4),
        ("sage", replace(sk, target="a"), 4),
        ("sage", replace(sk, nodes=("t", "b", "a")), 4),
        ("sage", sk, 8),
        ("ecc", sk, 4),
    ):
        with pytest.raises(SchemaError):
            load_model(path, kind, skeleton, hidden=hidden)
    # raw parameters without the header are no model checkpoint
    path.write_bytes(engine.pack_params(init_sage(sk, hidden=4).params))
    with pytest.raises(SchemaError):
        load_model(path, "sage", sk, hidden=4)
    with pytest.raises(SchemaError):
        save_model(path, init_sage(sk, hidden=4), replace(sk, target="a"))


def test_load_model_names_the_header_keys_that_do_not_match(tmp_path):
    sk = GraphSkeleton(nodes=("a", "t"), edges=(("a", "t"),), target="t")
    path = tmp_path / "sage.bin"
    save_model(path, init_sage(sk, hidden=4), sk)
    line, _, payload = path.read_bytes().partition(b"\n")
    header = json.loads(line)

    def load_with(h):
        path.write_bytes(json.dumps(h).encode() + b"\n" + payload)
        with pytest.raises(SchemaError) as err:
            load_model(path, "sage", sk, hidden=4)
        return str(err.value).rpartition(": ")[2]

    # a key this version does not write, as an older checkpoint's neighborhood
    assert load_with({**header, "neighborhood": "parents"}) == "unexpected neighborhood"
    assert load_with({k: v for k, v in header.items() if k != "target"}) == "missing target"
    both = {**{k: v for k, v in header.items() if k != "nodes"}, "hidden": 8, "zz": 1}
    assert load_with(both) == "missing nodes; unexpected zz; differing hidden"


def test_load_model_rejects_unknown_kind(tmp_path):
    sk = _random_skeleton(np.random.default_rng(10), 3, 2)
    path = tmp_path / "ecc.bin"
    save_model(path, init_ecc(sk, hidden=4), sk)  # loads cleanly as "ecc"
    load_model(path, "ecc", sk, hidden=4)
    with pytest.raises(NumericError):
        load_model(path, "bogus", sk, hidden=4)
