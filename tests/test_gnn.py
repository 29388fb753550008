import numpy as np
import pytest

from soilcausal.engine import constant, finite_diff_check, mse
from soilcausal.errors import GraphError, NumericError, SchemaError
from soilcausal.gnn import (
    GraphSkeleton,
    build_instances,
    ecc_conv,
    ecc_filter_matrix,
    init_ecc,
    init_sage,
    load_model,
    predict,
    sage_conv,
    save_model,
    skeleton_from_pattern,
    train,
)
from soilcausal.graphs import Cpdag

from enumutil import continuous_table


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
    with pytest.raises(GraphError):
        GraphSkeleton(nodes=("a", "b"), edges=(), target="a", neighborhood="cousins")


def test_skeleton_edges_canonicalized():
    s1 = GraphSkeleton(nodes=("a", "b", "c"), edges=(("b", "c"), ("a", "b"), ("b", "c")), target="c")
    s2 = GraphSkeleton(nodes=("a", "b", "c"), edges=(("a", "b"), ("b", "c")), target="c")
    assert s1.edges == s2.edges


def test_ancestor_neighborhood_reaches_past_parents():
    chain = GraphSkeleton(nodes=("a", "b", "c"), edges=(("a", "b"), ("b", "c")), target="c")
    assert chain.in_neighbors("c") == ("b",)
    deep = GraphSkeleton(
        nodes=("a", "b", "c"), edges=(("a", "b"), ("b", "c")), target="c", neighborhood="ancestors"
    )
    assert deep.in_neighbors("c") == ("a", "b")
    row = deep.aggregation_matrix()[2]
    assert row[0] == pytest.approx(0.5) and row[1] == pytest.approx(0.5)


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
    h = constant(np.ones((3, 2, 1)))
    out = sage_conv(h, sk, model.convs[0])
    assert np.array_equal(out.values, np.zeros((3, 2, 4)))


def test_sage_conv_isolated_node_passthrough():
    # W = [I | I], nonneg input: self part + zero aggregate, ReLU no-op
    sk = GraphSkeleton(nodes=("a",), edges=(), target="a")
    import soilcausal.engine as engine

    params = engine.DenseParams(
        engine.parameter(np.concatenate([np.eye(3), np.eye(3)], axis=1)),
        engine.parameter(np.zeros(3)),
    )
    v = np.array([[0.5, 0.0, 2.0]])[None, :, :] * 0 + np.array([0.5, 0.0, 2.0]).reshape(1, 1, 3)
    out = sage_conv(constant(v), sk, params)
    assert np.allclose(out.values[0, 0], [0.5, 0.0, 2.0])


@pytest.mark.parametrize("seed", range(10))
def test_sage_conv_matches_naive_loop(seed):
    rng = np.random.default_rng(seed)
    sk = _random_skeleton(rng, 5, 7)
    model = init_sage(sk, seed=seed, hidden=3)
    feats = rng.standard_normal((4, 5, 3))
    out = sage_conv(constant(feats), sk, model.convs[1], activate=(seed % 2 == 0))
    for b in range(4):
        ref = _naive_sage(feats[b], sk, model.convs[1], activate=(seed % 2 == 0))
        assert np.max(np.abs(out.values[b] - ref)) < 1e-12


def test_ecc_conv_empty_neighborhood_is_bias():
    sk = GraphSkeleton(nodes=("a", "b"), edges=(("a", "b"),), target="b")
    model = init_ecc(sk, seed=1, hidden=4)
    layer = model.convs[1]
    layer.bias.values[...] = np.array([1.0, -2.0, 0.5, 3.0])
    h = constant(np.random.default_rng(0).standard_normal((2, 2, 4)))
    out = ecc_conv(h, sk, layer)
    # node "a" has no in-neighbors
    assert np.array_equal(out.values[:, 0, :], np.tile(layer.bias.values, (2, 1)))


def test_ecc_conv_identity_filter_copies_neighbor():
    sk = GraphSkeleton(nodes=("j", "i"), edges=(("j", "i"),), target="i")
    import soilcausal.engine as engine
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
    h = np.random.default_rng(2).standard_normal((5, 2, d))
    out = ecc_conv(constant(h), sk, layer)
    assert np.max(np.abs(out.values[:, 1, :] - h[:, 0, :])) < 1e-12


@pytest.mark.parametrize("seed", range(10))
def test_ecc_conv_matches_naive_loop(seed):
    rng = np.random.default_rng(100 + seed)
    sk = _random_skeleton(rng, 5, 8)
    model = init_ecc(sk, seed=seed, hidden=3)
    model.convs[1].bias.values[...] = rng.standard_normal(3)
    feats = rng.standard_normal((4, 5, 3))
    out = ecc_conv(constant(feats), sk, model.convs[1])
    for b in range(4):
        ref = _naive_ecc(feats[b], sk, model.convs[1])
        assert np.max(np.abs(out.values[b] - ref)) < 1e-12


def test_ecc_filter_matrix_shape():
    sk = GraphSkeleton(nodes=("a", "b"), edges=(("a", "b"),), target="b")
    model = init_ecc(sk, seed=0, hidden=4)
    theta = ecc_filter_matrix(model.convs[1])
    assert theta.values.shape == (4, 4)


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
    A = sk.aggregation_matrix()
    for k, conv in enumerate(model.convs):
        agg = A @ h
        z = np.concatenate([h, agg], axis=1) @ conv.weight.values.T + conv.bias.values
        h = np.maximum(z, 0.0) if k < 2 else z
    z = h[2]
    for k, ff in enumerate(model.ff):
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
    import soilcausal.engine as engine
    from soilcausal.gnn import _forward_batch

    rng = np.random.default_rng(17)
    sk = _random_skeleton(rng, 4, 5)
    batch = _random_batch(rng, sk, 6)

    # screen out seeds whose ReLU preactivations sit inside the h=1e-5
    # difference stencil: the subgradient convention and the symmetric
    # difference legitimately disagree on the kink itself.  The forward
    # pass's ReLU inputs are recorded by wrapping engine.relu.
    preacts = []
    relu = engine.relu

    def recording_relu(t):
        preacts.append(np.abs(t.values).min())
        return relu(t)

    monkeypatch.setattr(engine, "relu", recording_relu)
    model = None
    for seed in range(2, 50):
        cand = (init_sage if kind == "sage" else init_ecc)(sk, seed=seed, hidden=3)
        preacts.clear()
        predict(cand, sk, batch)
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
    save_model(path, res.model)
    clone = load_model(path, "sage", sk)
    assert np.array_equal(predict(clone, sk, batch), predict(res.model, sk, batch))


def test_load_model_rejects_unknown_kind(tmp_path):
    sk = _random_skeleton(np.random.default_rng(10), 3, 2)
    path = tmp_path / "ecc.bin"
    save_model(path, init_ecc(sk, hidden=4))  # loads cleanly as "ecc"
    load_model(path, "ecc", sk, hidden=4)
    with pytest.raises(NumericError):
        load_model(path, "bogus", sk, hidden=4)
