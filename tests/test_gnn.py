import json
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import soilcausal.engine as engine
from soilcausal import baselines
from soilcausal.errors import ConfigError, GraphError, NumericError, SchemaError
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

from enumutil import continuous_table, one_layer, step_gradient_check


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


def _weight(layer):
    """The values of the one weight tensor of a dense or SAGE layer."""
    (w,) = layer.weight
    return w.values


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


def test_in_neighbors_rejects_an_unknown_node():
    # like graphs.in_neighbors: a misspelt node must not read as "no parents"
    sk = GraphSkeleton(nodes=("a", "b"), edges=(("a", "b"),), target="b")
    assert sk.in_neighbors("b") == ("a",)
    assert sk.in_neighbors("a") == ()
    with pytest.raises(GraphError, match="unknown node 'no-such-node'"):
        sk.in_neighbors("no-such-node")


def test_skeleton_edges_canonicalized():
    s1 = GraphSkeleton(nodes=("a", "b", "c"), edges=(("b", "c"), ("a", "b"), ("b", "c")), target="c")
    s2 = GraphSkeleton(nodes=("a", "b", "c"), edges=(("a", "b"), ("b", "c")), target="c")
    assert s1.edges == s2.edges


def test_skeleton_takes_lists_as_tuples():
    # lists once failed: as nodes in a hashed skeleton (unhashable), as an
    # edge in the skeleton's own edge set
    nodes, edges = ["far", "a", "b", "t"], [["far", "a"], ["a", "b"], ["b", "t"], ["far", "t"]]
    listed = GraphSkeleton(nodes=nodes, edges=edges, target="t")
    tupled = GraphSkeleton(nodes=tuple(nodes), edges=tuple(map(tuple, edges)), target="t")
    assert listed == tupled and hash(listed) == hash(tupled)
    assert type(listed.nodes) is tuple and all(type(edge) is tuple for edge in listed.edges)
    for depth in (1, 2, 3):
        got, want = layer_plan(listed, depth), layer_plan(tupled, depth)
        assert np.array_equal(got.reads, want.reads) and len(got.layers) == len(want.layers) == depth
        for a, b in zip(got.layers, want.layers):
            assert np.array_equal(a.self_index, b.self_index) and np.array_equal(a.agg, b.agg)


@pytest.mark.parametrize("depth", [-1, 1.5, None, True], ids=repr)
def test_layer_plan_rejects_a_bad_depth(depth):
    # -1 once gave a plan with no layers; 1.5 and None raised from range
    sk = GraphSkeleton(nodes=("a", "t"), edges=(("a", "t"),), target="t")
    with pytest.raises(GraphError, match=re.escape(f"a convolution depth must be an int >= 0, got {depth!r}")):
        layer_plan(sk, depth)


def test_layer_plan_node_sets():
    sk = GraphSkeleton(
        nodes=("far", "a", "b", "t", "unrelated"),
        edges=(("far", "a"), ("a", "b"), ("b", "t"), ("far", "t"), ("t", "unrelated")),
        target="t",
    )
    # layer k outputs the nodes within (depth - k) in-hops of t
    sage = layer_plan(sk, 3)
    assert sage.reads.tolist() == [0, 1, 2, 3]
    assert [layer.agg.shape for layer in sage.layers] == [(4, 4), (3, 4), (1, 3)]
    assert sage.layers[2].agg.tolist() == [[0.5, 0.5, 0.0]]  # t over (far, b, t)
    assert sage.layers[2].self_index.tolist() == [2]
    # ECC's depth 2 reads t's parents (far, b) and theirs (a) with t itself
    ecc = layer_plan(sk, 2)
    assert ecc.reads.tolist() == [0, 1, 2, 3]
    assert [layer.self_index.tolist() for layer in ecc.layers] == [[0, 2, 3], [2]]
    assert ecc.layers[0].agg.tolist() == [[0.0] * 4, [0.0, 1.0, 0.0, 0.0], [0.5, 0.0, 0.5, 0.0]]
    # a target with no in-neighbors reads its own (masked) slot alone
    lone = layer_plan(GraphSkeleton(nodes=("a", "t"), edges=(("t", "a"),), target="t"), 2)
    assert lone.reads.tolist() == [1] and [layer.agg.tolist() for layer in lone.layers] == [[[0.0]], [[0.0]]]


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
    W, b = _weight(params), params.bias.values
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


def _naive_ecc(feats, skeleton, layer, activate=False):
    Wf, bf = (t.values for t in layer.weight)  # the filter network's weight and bias
    root, theta = np.split((Wf @ np.array([1.0]) + bf).reshape(layer.shape), 2, axis=1)
    out = []
    for i, node in enumerate(skeleton.nodes):
        z = root @ feats[i] + layer.bias.values
        nbrs = skeleton.in_neighbors(node)
        if nbrs:
            z = z + np.mean([theta @ feats[skeleton.index(j)] for j in nbrs], axis=0)
        out.append(np.maximum(z, 0.0) if activate else z)
    return np.stack(out)


def test_sage_conv_zero_weights():
    sk = GraphSkeleton(nodes=("a", "b"), edges=(("a", "b"),), target="b")
    model = init_sage(sk, seed=0, hidden=4)
    _weight(model.convs[0])[...] = 0.0
    model.convs[0].bias.values[...] = 0.0
    h = np.ones((2, 3, 1))  # node-major: 2 nodes, 3 rows
    out = one_layer(h, _full_graph(sk), model.convs[0], relu=True)
    assert np.array_equal(out, np.zeros((2, 3, 4)))


def test_sage_conv_isolated_node_passthrough():
    # W = [I | I], nonneg input: self part + zero aggregate, ReLU no-op
    sk = GraphSkeleton(nodes=("a",), edges=(), target="a")
    weight = engine.parameter(np.concatenate([np.eye(3), np.eye(3)], axis=1))
    v = np.array([0.5, 0.0, 2.0]).reshape(1, 1, 3)
    out = one_layer(v, _full_graph(sk), engine.Layer((weight,), (3, 6), engine.parameter(np.zeros(3))), relu=True)
    assert np.allclose(out[0, 0], [0.5, 0.0, 2.0])


@pytest.mark.parametrize("seed", range(10))
def test_sage_conv_matches_naive_loop(seed):
    rng = np.random.default_rng(seed)
    sk = _random_skeleton(rng, 5, 7)
    model = init_sage(sk, seed=seed, hidden=3)
    feats = rng.standard_normal((4, 5, 3))
    h = feats.transpose(1, 0, 2)  # node-major
    out = one_layer(h, _full_graph(sk), model.convs[1], relu=(seed % 2 == 0))
    for b in range(4):
        ref = _naive_sage(feats[b], sk, model.convs[1], activate=(seed % 2 == 0))
        assert np.max(np.abs(out[:, b] - ref)) < 1e-12


def test_ecc_conv_empty_neighborhood_is_root_plus_bias():
    sk = GraphSkeleton(nodes=("a", "b"), edges=(("a", "b"),), target="b")
    model = init_ecc(sk, seed=1, hidden=4)
    layer = model.convs[1]
    layer.bias.values[...] = np.array([1.0, -2.0, 0.5, 3.0])
    h = np.random.default_rng(0).standard_normal((2, 2, 4))
    out = one_layer(h, _full_graph(sk), layer, relu=False)
    # node "a" has no in-neighbors: W_root x_a + b
    root = layer.matrix()[:, :4]
    assert np.max(np.abs(out[0] - (h[0] @ root.T + layer.bias.values))) < 1e-12


def test_ecc_conv_identity_filter_copies_neighbor():
    sk = GraphSkeleton(nodes=("j", "i"), edges=(("j", "i"),), target="i")
    d = 3
    copy_neighbor = np.concatenate([np.zeros((d, d)), np.eye(d)], axis=1)  # [W_root | Θ] = [0 | I]
    filter_network = (engine.parameter(np.zeros((2 * d * d, 1))), engine.parameter(copy_neighbor.reshape(2 * d * d)))
    layer = engine.Layer(filter_network, (d, 2 * d), engine.parameter(np.zeros(d)))
    h = np.random.default_rng(2).standard_normal((2, 5, d))
    out = one_layer(h, _full_graph(sk), layer, relu=False)
    assert np.max(np.abs(out[1] - h[0])) < 1e-12


@pytest.mark.parametrize("seed", range(10))
def test_ecc_conv_matches_naive_loop(seed):
    rng = np.random.default_rng(100 + seed)
    sk = _random_skeleton(rng, 5, 8)
    model = init_ecc(sk, seed=seed, hidden=3)
    model.convs[1].bias.values[...] = rng.standard_normal(3)
    feats = rng.standard_normal((4, 5, 3))
    layer = model.convs[1]
    h = feats.transpose(1, 0, 2)  # node-major
    out = one_layer(h, _full_graph(sk), layer, relu=False)
    for b in range(4):
        ref = _naive_ecc(feats[b], sk, layer)
        assert np.max(np.abs(out[:, b] - ref)) < 1e-12


@pytest.mark.parametrize("seed", range(10))
def test_two_layer_conv_stack_matches_naive_loops(seed):
    # ReLU between the layers, none after the last; ECC's weights are
    # generated from its filters' parameters in the stack
    rng = np.random.default_rng(200 + seed)
    sk = _random_skeleton(rng, 5, 7)
    feats = rng.standard_normal((4, 5, 3))
    sage = init_sage(sk, seed=seed, hidden=3)
    ecc = [init_ecc(sk, seed=seed + k, hidden=3).convs[1] for k in (0, 1)]
    for conv in (*sage.convs[1:], *ecc):
        conv.bias.values[...] = rng.standard_normal(3)
    h = feats.transpose(1, 0, 2)  # node-major
    for convs, naive in ((sage.convs[1:], _naive_sage), (ecc, _naive_ecc)):
        layers = [conv._replace(graph=_full_graph(sk), relu=k == 0) for k, conv in enumerate(convs)]
        out = engine.Step(h, layers).forward()
        assert out.shape == (5, 4, 3)
        for b in range(4):
            ref = naive(naive(feats[b], sk, convs[0], activate=True), sk, convs[1], activate=False)
            assert np.max(np.abs(out[:, b] - ref)) < 1e-12


def test_ecc_filter_matrix_shape():
    sk = GraphSkeleton(nodes=("a", "b"), edges=(("a", "b"),), target="b")
    model = init_ecc(sk, seed=0, hidden=4)
    assert [layer.matrix().shape for layer in model.convs] == [(4, 2), (4, 8)]
    # the filter network's output at edge attribute 1.0, row-major
    filter_weight, filter_bias = model.convs[1].weight
    flat = filter_weight.values[:, 0] + filter_bias.values
    assert np.array_equal(model.convs[1].matrix(), flat.reshape(4, 8))


def _naive_forward(model, skeleton, feats):
    """The full-graph loops over every node, read at the target."""
    h = feats[:, None]
    if model.kind == "sage":
        for k, conv in enumerate(model.convs):
            h = _naive_sage(h, skeleton, conv, activate=k < 2)
        z = h[skeleton.index(skeleton.target)]
        for k, ff in enumerate(model.head):
            z = _weight(ff) @ z + ff.bias.values
            z = np.maximum(z, 0.0) if k < 2 else z
        return z[0]
    h = _naive_ecc(h, skeleton, model.convs[0], activate=True)
    h = _naive_ecc(h, skeleton, model.convs[1])
    (head,) = model.head
    z = _weight(head) @ h[skeleton.index(skeleton.target)] + head.bias.values
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
        z = np.concatenate([h, agg], axis=1) @ _weight(conv).T + conv.bias.values
        h = np.maximum(z, 0.0) if k < 2 else z
    z = h[2]
    for k, ff in enumerate(model.head):
        z = z @ _weight(ff).T + ff.bias.values
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


@pytest.mark.parametrize("init", [init_sage, init_ecc])
def test_forward_holds_only_what_backward_reads(init):
    # a target with 3 parents, 9 grandparents and 18 great-grandparents:
    # 31 nodes in SAGE's 3-hop field, 13 within 2 hops, 2000 rows.  A fit's
    # step allocates once each convolution's [self | mean] input, each ReLU
    # mask, one scratch array for the convolution outputs that feed the
    # next convolution, the final states, the head's arrays and the
    # gradients: no other node state.  An epoch keeps nothing more, and
    # its peak adds no more than one convolution's mean
    from soilcausal.gnn import _node_inputs, _stack

    tiers = [["t"], [f"p{k}" for k in range(3)], [f"g{k}" for k in range(9)], [f"u{k}" for k in range(18)]]
    edges = tuple((a, hi[k * len(hi) // len(lo)]) for lo, hi in zip(tiers[1:], tiers) for k, a in enumerate(lo))
    sk = GraphSkeleton(nodes=tuple(sorted(n for tier in tiers for n in tier)), edges=edges, target="t")
    rows, hidden = 2000, 16
    model = init(sk, seed=0, hidden=hidden)
    batch = _random_batch(np.random.default_rng(5), sk, rows)
    plan, h = _node_inputs(model, sk, batch)
    assert h.shape == ({3: 31, 2: 13}[len(model.convs)], rows, 1)
    widths = [1] + [hidden] * len(plan.layers)
    outs = [len(layer.self_index) for layer in plan.layers]
    forward = 8 * max(outs[:-1]) * rows * hidden  # the scratch
    masks = 0
    for k, m_out in enumerate(outs):
        forward += 8 * m_out * rows * 2 * widths[k]  # [self | mean]
        masks += m_out * rows * hidden * (k < len(outs) - 1)  # bool mask
    forward += 8 * rows * hidden  # final states
    head = [layer.bias.values.size for layer in model.head]
    forward += sum(8 * rows * n for n in head)  # outputs
    masks += sum(rows * n for n in head[:-1])
    layers = _stack(model, plan)
    # gradients: one weight array per layer (ECC's filter weight and bias read it)
    grads = 8 * sum(np.prod(layer.shape) + layer.bias.values.size for layer in layers)
    expected = forward + masks + grads
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        predict_step = engine.Step(h, layers)
        held_forward = tracemalloc.get_traced_memory()[0] - before
        out = predict_step.forward().copy()
        before = tracemalloc.get_traced_memory()[0]
        step = engine.Step(h, layers, batch.labels)
        held = tracemalloc.get_traced_memory()[0] - before
        tracemalloc.reset_peak()
        step()
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a step without a target, as a prediction builds, holds no masks and no
    # gradients, computes the same states and cannot be trained
    assert forward <= held_forward <= forward + 64 * 1024, (held_forward, forward)
    assert step.forward().tobytes() == out.tobytes()
    with pytest.raises(NumericError, match="without a target"):
        predict_step()
    assert expected <= held <= expected + 64 * 1024, (held, expected)
    assert after - before - held <= 64 * 1024
    mean = max(8 * m_out * rows * widths[k] for k, m_out in enumerate(outs))
    assert peak - before - held <= mean + 64 * 1024, (peak - before - held, mean)


@pytest.mark.parametrize("model", ["sage", "ecc", "mlp"])
def test_fit_peak_memory_does_not_grow_with_epochs(model):
    # every epoch of a fit runs over arrays allocated once: on the 30-day
    # default farm a 10-epoch fit's tracemalloc peak exceeds a 1-epoch
    # fit's by less than 64 KiB (an autodiff graph per epoch, two of them
    # alive at once, cost 0.1 MB for SAGE and ECC and 0.95 MB for this MLP)
    from soilcausal.synth import default_farm_benchmark, sample_environments

    scm, envs = default_farm_benchmark(n_days=30)
    table = sample_environments(scm, envs)
    if model == "mlp":
        X, y, _ = baselines._design(table)
        fit = lambda epochs: baselines._mlp_fit(X, y, (128, 128, 128), 1e-3, epochs, 0)  # noqa: E731
    else:
        sk = GraphSkeleton(nodes=tuple(sorted(table.names)), edges=tuple(scm.dag.edges), target=scm.target)
        batch = build_instances(table, sk)
        fit = lambda epochs: train(model, sk, batch, epochs=epochs)  # noqa: E731
    peaks = []
    for epochs in (1, 10):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            fit(epochs)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 64 * 1024, peaks


# ---------------------------------------------------------------------------
# gradients


@pytest.mark.parametrize("kind", ["sage", "ecc"])
def test_model_gradients_match_fd(kind):
    from soilcausal.gnn import _node_inputs, _stack

    rng = np.random.default_rng(17)
    # target n2 reads n0 and n3, which read n1: every convolution computes
    # some node state, so every conv parameter gets a gradient
    sk = _random_skeleton(rng, 4, 5, target_idx=2)
    batch = _random_batch(rng, sk, 6)
    assert sk.in_neighbors("n2") == ("n0", "n3") and sk.in_neighbors("n0") == ()

    # screen out seeds whose ReLU preactivations sit inside the h=1e-5
    # difference stencil: the subgradient convention and the symmetric
    # difference legitimately disagree on the kink itself.  A ReLU layer's
    # preactivations are the output of the stack cut after that layer with
    # its ReLU off
    model = None
    for seed in range(2, 50):
        cand = (init_sage if kind == "sage" else init_ecc)(sk, seed=seed, hidden=3)
        plan, h = _node_inputs(cand, sk, batch)
        layers = _stack(cand, plan)
        preacts = [
            np.abs(engine.Step(h, [*layers[:k], layer._replace(relu=False)]).forward()).min()
            for k, layer in enumerate(layers)
            if layer.relu
        ]
        # SAGE: two ReLU convolutions and two ReLU head layers; ECC: one ReLU convolution
        assert len(preacts) == {"sage": 4, "ecc": 1}[kind]
        if min(preacts) > 1e-3:
            model = cand
            break
    assert model is not None, "no kink-free seed found"

    # one epoch of the fit, on every parameter of the model
    step = engine.Step(h, layers, batch.labels)
    assert all(p is q for p, q in zip(step.params, model.params, strict=True))
    report = step_gradient_check(step)
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


@pytest.mark.parametrize("kind", ["sage", "ecc"])
@pytest.mark.parametrize(
    "options, message",
    [
        ({"hidden": 0}, "hidden must be >= 1, got 0"),
        ({"hidden": -2}, "hidden must be >= 1, got -2"),
        ({"epochs": -1}, "epochs must be >= 0, got -1"),
        ({"lr": -0.001}, "lr must be finite and >= 0, got -0.001"),
        ({"lr": np.nan}, "lr must be finite and >= 0, got nan"),
        ({"lr": np.inf}, "lr must be finite and >= 0, got inf"),
    ],
)
def test_train_rejects_bad_options(kind, options, message):
    # a zero width, a negative epoch count or an uphill or non-finite step
    # is a configuration error, not a division by zero or a silent fit
    sk = GraphSkeleton(nodes=("a", "t"), edges=(("a", "t"),), target="t")
    batch = _batch(sk, [[1.0, 0.0], [0.5, 1.0]])
    with pytest.raises(ConfigError, match=message):
        train(kind, sk, batch, **{"epochs": 1, **options})
    if "epochs" in options:  # the MLP baseline trains through the same loop
        with pytest.raises(ConfigError, match=message):
            baselines.mlp_train(continuous_table(sk.nodes, [[1.0, 0.0], [0.5, 1.0]] * 3, target="t"), **options)


def test_ecc_reads_the_target_parents():
    # on the farm's true DAG, ph, total_n and moisture parent the target;
    # som is its child, so no stack that reads in-neighbors may see it
    from soilcausal.synth import default_farm_benchmark, sample_environments

    scm, envs = default_farm_benchmark(n_days=10)
    table = sample_environments(scm, envs)
    sk = GraphSkeleton(nodes=tuple(sorted(table.names)), edges=tuple(scm.dag.edges), target=scm.target)
    assert {"ph", "total_n", "moisture"} <= set(sk.in_neighbors(scm.target))
    assert scm.target in sk.in_neighbors("som")
    batch = build_instances(table, sk)
    model = init_ecc(sk, seed=0)
    base = predict(model, sk, batch)
    for column, moves in (("ph", True), ("total_n", True), ("moisture", True), ("som", False)):
        features = batch.features.copy()
        features[:, sk.index(column)] += 1.0
        shifted = predict(model, sk, replace(batch, features=features))
        assert (not np.array_equal(shifted, base)) == moves, column


def test_train_rejects_unknown_kind():
    sk = GraphSkeleton(nodes=("a",), edges=(), target="a")
    with pytest.raises(ConfigError):
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
    # a model keeps the graph it was built on: the same nodes and target
    # under other edges fit its parameters, not its layer plan
    rng = np.random.default_rng(9)
    sk = _random_skeleton(rng, 4, 4)
    other = replace(sk, edges=sk.edges[1:])
    batch = _random_batch(rng, sk, 6)
    res = train("sage", sk, batch, epochs=15, seed=2)
    with pytest.raises(SchemaError, match="not the graph the model was built on"):
        predict(res.model, other, batch)
    assert res.skeleton == res.model.skeleton == sk
    path = tmp_path / "sage.bin"
    save_model(path, res.model)
    clone = load_model(path, sk)
    assert np.array_equal(predict(clone, sk, batch), predict(res.model, sk, batch))
    with pytest.raises(SchemaError, match="differing edges_sha256"):
        load_model(path, other)


def test_parameter_lists_keep_the_checkpoint_layout(tmp_path):
    # the order and shapes a checkpoint stores: the convolutions input side
    # first (SAGE: weight, bias; ECC: filter weight, filter bias, bias),
    # then the head layers (weight, bias)
    sk = GraphSkeleton(nodes=("a", "t"), edges=(("a", "t"),), target="t")
    sage = [(4, 2), (4,), (4, 8), (4,), (4, 8), (4,), (4, 4), (4,), (4, 4), (4,), (1, 4), (1,)]
    ecc = [(8, 1), (8,), (4,), (32, 1), (32,), (4,), (1, 4), (1,)]
    assert [p.values.shape for p in init_sage(sk, hidden=4).params] == sage
    assert [p.values.shape for p in init_ecc(sk, hidden=4).params] == ecc
    # and each tensor once, as the model's layers hold it
    model = init_ecc(sk, hidden=4)
    fields = [t for layer in model.convs for t in (layer.weight[0], layer.weight[1], layer.bias)]
    fields += [t for layer in model.head for t in (layer.weight[0], layer.bias)]
    assert all(p is q for p, q in zip(model.params, fields, strict=True))
    assert len({id(p) for p in model.params}) == len(model.params)
    # a fit's step trains those very tensors in that order, so Adam's
    # updates land in the model that gets saved, whose header names its size
    from soilcausal.gnn import _node_inputs, _stack

    batch = _random_batch(np.random.default_rng(11), sk, 5)
    for model in (init_sage(sk, hidden=4), init_ecc(sk, hidden=4)):
        plan, h = _node_inputs(model, sk, batch)
        step = engine.Step(h, _stack(model, plan), batch.labels)
        assert all(p is q for p, q in zip(step.params, model.params, strict=True))
        before = engine.pack_params(model.params)
        engine.fit(h, _stack(model, plan), batch.labels, 0.01, 1, model.kind)
        assert engine.pack_params(model.params) != before
        save_model(tmp_path / "model.bin", model)
        header = json.loads((tmp_path / "model.bin").read_bytes().partition(b"\n")[0])
        assert model.hidden == header["hidden"] == 4
    X = np.random.default_rng(12).standard_normal((6, 3))
    layers = baselines._mlp_fit(X, X[:, 0], (5, 4), 0.01, 2, seed=0)
    fields = [t for layer in layers for t in (layer.weight[0], layer.bias)]
    assert all(p is q for p, q in zip(engine.Step(X[None], layers).params, fields, strict=True))


def test_checkpoint_pins_its_graph(tmp_path):
    sk = GraphSkeleton(nodes=("a", "b", "t"), edges=(("a", "t"), ("b", "a")), target="t")
    path = tmp_path / "sage.bin"
    save_model(path, init_sage(sk, hidden=4))
    raw = path.read_bytes()
    header = json.loads(raw.partition(b"\n")[0])
    assert header["nodes"] == ["a", "b", "t"] and header["target"] == "t"
    assert load_model(path, sk).hidden == 4
    # a payload cut in its data or shape records, or padded, is no checkpoint
    # and a header nested too deeply to decode is none
    deep = b"[" * 100_000 + raw[raw.index(b"\n") :]
    for bad in (raw[:-3], raw[:-8], raw[: raw.index(b"\n") + 7], raw + bytes(8), deep):
        path.write_bytes(bad)
        with pytest.raises(SchemaError, match="checkpoint"):
            load_model(path, sk)
    path.write_bytes(raw)
    # the same nodes under other edges: same parameter shapes, other layer plan
    other_edges = replace(sk, edges=(("b", "t"), ("a", "b")))
    for skeleton in (other_edges, replace(sk, target="a"), replace(sk, nodes=("t", "b", "a"))):
        with pytest.raises(SchemaError, match="differing"):
            load_model(path, skeleton)
    # a header naming another size or kind than its parameters
    line, _, payload = raw.partition(b"\n")
    for edit in ({"hidden": 8}, {"kind": "ecc"}):
        path.write_bytes(json.dumps({**json.loads(line), **edit}).encode() + b"\n" + payload)
        with pytest.raises(SchemaError, match="checkpoint (shape|parameter count)"):
            load_model(path, sk)
    # raw parameters without the header are no model checkpoint
    path.write_bytes(engine.pack_params(init_sage(sk, hidden=4).params))
    with pytest.raises(SchemaError):
        load_model(path, sk)


def test_load_model_names_the_header_keys_that_do_not_match(tmp_path):
    sk = GraphSkeleton(nodes=("a", "t"), edges=(("a", "t"),), target="t")
    path = tmp_path / "sage.bin"
    save_model(path, init_sage(sk, hidden=4))
    line, _, payload = path.read_bytes().partition(b"\n")
    header = json.loads(line)

    def load_with(h):
        path.write_bytes(json.dumps(h).encode() + b"\n" + payload)
        with pytest.raises(SchemaError) as err:
            load_model(path, sk)
        return str(err.value).rpartition(": ")[2]

    # a key this version does not write, as an older checkpoint's neighborhood
    assert load_with({**header, "neighborhood": "parents"}) == "unexpected neighborhood"
    assert load_with({k: v for k, v in header.items() if k != "target"}) == "missing target"
    both = {**{k: v for k, v in header.items() if k != "nodes"}, "target": "a", "zz": 1}
    assert load_with(both) == "missing nodes; unexpected zz; differing target"


def test_load_model_rejects_parameters_that_do_not_fit(tmp_path):
    # a well-formed header over another model's parameters: a hidden-8
    # payload, or one array short, is malformed data (SchemaError, exit 3)
    sk = GraphSkeleton(nodes=("a", "t"), edges=(("a", "t"),), target="t")
    path = tmp_path / "sage.bin"
    save_model(path, init_sage(sk, hidden=4))
    line = path.read_bytes().partition(b"\n")[0]
    for params in (init_sage(sk, hidden=8).params, init_sage(sk, hidden=4).params[:-1]):
        path.write_bytes(line + b"\n" + engine.pack_params(params))
        with pytest.raises(SchemaError, match="checkpoint (shape|parameter count)"):
            load_model(path, sk)


@pytest.mark.parametrize("init", [init_sage, init_ecc], ids=["sage", "ecc"])
def test_load_model_checks_header_and_size_before_drawing_the_model(tmp_path, init):
    # a header naming hidden=1000 would draw millions of weights: a
    # header-only file and a hidden-16 checkpoint whose header names 1000
    # are refused with next to no memory
    sk = GraphSkeleton(nodes=("a", "t"), edges=(("a", "t"),), target="t")
    path = tmp_path / "model.bin"
    save_model(path, init(sk, hidden=16))
    line, _, payload = path.read_bytes().partition(b"\n")
    big = json.dumps({**json.loads(line), "hidden": 1000}).encode()
    for raw in (big, big + b"\n" + payload):
        path.write_bytes(raw)
        tracemalloc.start()
        try:
            with pytest.raises(SchemaError, match="cannot hold a model of hidden size 1000"):
                load_model(path, sk)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


def test_load_model_rejects_unknown_kind(tmp_path):
    # the header names the model: an unknown kind or a size that is not an
    # int of at least 1 is malformed data (SchemaError, exit 3)
    sk = _random_skeleton(np.random.default_rng(10), 3, 2)
    path = tmp_path / "ecc.bin"
    save_model(path, init_ecc(sk, hidden=4))  # loads cleanly as "ecc"
    model = load_model(path, sk)
    assert (model.kind, model.hidden) == ("ecc", 4)
    line, _, payload = path.read_bytes().partition(b"\n")
    header = json.loads(line)
    for edit in ({"kind": "bogus"}, {"kind": ["ecc"]}, {"hidden": 0}, {"hidden": True}, {"hidden": 4.0}, {"hidden": "4"}):
        path.write_bytes(json.dumps({**header, **edit}).encode() + b"\n" + payload)
        with pytest.raises(SchemaError, match="names no model"):
            load_model(path, sk)
    for key in ("kind", "hidden"):
        path.write_bytes(json.dumps({k: v for k, v in header.items() if k != key}).encode() + b"\n" + payload)
        with pytest.raises(SchemaError, match="names no model"):
            load_model(path, sk)
