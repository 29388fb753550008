import numpy as np
import pytest

from soilcausal.engine import constant, finite_diff_check, mse
from soilcausal.errors import GraphError, NumericError, SchemaError
from soilcausal.gnn import (
    EccModel,
    GraphInstance,
    GraphSkeleton,
    SageModel,
    build_instances,
    ecc_conv,
    ecc_filter_matrix,
    forward,
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


def _random_instances(rng, skeleton, n):
    out = []
    t_idx = skeleton.index(skeleton.target)
    for k in range(n):
        feats = rng.standard_normal(skeleton.n_nodes)
        feats[t_idx] = 0.0
        out.append(GraphInstance(features=feats, label=float(rng.standard_normal()), provenance=("f", k, "obs")))
    return out


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
        insts = build_instances(table, sk)
        res = train(kind, sk, insts, epochs=20, seed=5, hidden=8)
        results.append((res.loss_history, predict(res.model, sk, insts)))
    (h1, p1), (h2, p2) = results
    assert h1 == h2
    assert np.array_equal(p1, p2)


def test_build_instances_masks_target():
    t = continuous_table(("x", "y"), [[1.5, 3.2], [0.0, -1.0]], target="y")
    sk = GraphSkeleton(nodes=("x", "y"), edges=(("x", "y"),), target="y")
    insts = build_instances(t, sk)
    assert len(insts) == 2
    assert insts[0].label == pytest.approx(3.2)
    assert insts[0].features[sk.index("y")] == 0.0
    assert insts[0].features[sk.index("x")] == pytest.approx(1.5)
    assert insts[0].provenance[0] == "f0" and insts[0].provenance[2] == "obs"


def test_build_instances_alignment_by_name():
    rows = [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]
    t1 = continuous_table(("a", "b", "y"), rows, target="y")
    # same data with shuffled column order
    t2 = continuous_table(("y", "a", "b"), [[r[2], r[0], r[1]] for r in rows], target="y")
    sk = GraphSkeleton(nodes=("a", "b", "y"), edges=(("a", "y"),), target="y")
    for i1, i2 in zip(build_instances(t1, sk), build_instances(t2, sk)):
        assert np.array_equal(i1.features, i2.features)
        assert i1.label == i2.label


def test_build_instances_schema_mismatch():
    t = continuous_table(("a", "b"), [[1.0, 2.0]])
    sk = GraphSkeleton(nodes=("a", "c"), edges=(), target="c")
    with pytest.raises(SchemaError):
        build_instances(t, sk)


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
        inst = GraphInstance(features=np.array([1.0, -2.0, 0.0]), label=5.0, provenance=("f", 0, "o"))
        assert forward(model, sk, inst) == 0.0


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

    inst = GraphInstance(features=feats, label=2.0, provenance=("f", 0, "o"))
    assert abs(forward(model, sk, inst) - expected) < 1e-12


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
    inst = GraphInstance(features=np.array([1.0, 2.0, 0.0]), label=1.0, provenance=("f", 0, "o"))
    assert forward(model, sk1, inst) == forward(model, sk2, inst)


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
def test_model_gradients_match_fd(kind):
    from soilcausal.gnn import _forward_batch, relu_kink_margin

    rng = np.random.default_rng(17)
    sk = _random_skeleton(rng, 4, 5)
    insts = _random_instances(rng, sk, 6)
    feats = np.stack([i.features for i in insts])
    labels = np.array([i.label for i in insts])

    # screen out seeds whose ReLU preactivations sit inside the h=1e-5
    # difference stencil: the subgradient convention and the symmetric
    # difference legitimately disagree on the kink itself
    model = None
    for seed in range(2, 50):
        cand = (init_sage if kind == "sage" else init_ecc)(sk, seed=seed, hidden=3)
        if relu_kink_margin(cand, sk, feats) > 1e-3:
            model = cand
            break
    assert model is not None, "no kink-free seed found"

    def loss_fn():
        return mse(_forward_batch(model, sk, feats), labels)

    report = finite_diff_check(loss_fn, model.params)
    assert report.passed, report


# ---------------------------------------------------------------------------
# training


def test_train_lr_zero_keeps_params():
    rng = np.random.default_rng(0)
    sk = _random_skeleton(rng, 3, 2)
    insts = _random_instances(rng, sk, 4)
    res = train("sage", sk, insts, lr=0.0, epochs=10, seed=1)
    ref = init_sage(sk, seed=1, hidden=16)
    for p, q in zip(res.model.params, ref.params):
        assert np.array_equal(p.values, q.values)
    assert len(set(res.loss_history)) == 1


def test_train_memorizes_single_instance():
    sk = GraphSkeleton(nodes=("a", "b", "t"), edges=(("a", "t"), ("b", "t")), target="t")
    inst = GraphInstance(features=np.array([0.8, -0.4, 0.0]), label=1.7, provenance=("f", 0, "o"))
    res = train("sage", sk, [inst], lr=0.01, epochs=2000, seed=0)
    assert res.loss_history[-1] < 1e-4


def test_train_reproducible_from_seed():
    rng = np.random.default_rng(5)
    sk = _random_skeleton(rng, 4, 4)
    insts = _random_instances(rng, sk, 8)
    r1 = train("ecc", sk, insts, epochs=20, seed=9)
    r2 = train("ecc", sk, insts, epochs=20, seed=9)
    assert r1.loss_history == r2.loss_history
    for p, q in zip(r1.model.params, r2.model.params):
        assert np.array_equal(p.values, q.values)


def test_train_nan_aborts_with_diagnostics():
    # a 1e200 feature overflows the squared loss to inf on the first epoch
    sk = GraphSkeleton(nodes=("a", "t"), edges=(("a", "t"),), target="t")
    inst = GraphInstance(features=np.array([1e200, 0.0]), label=0.0, provenance=("f", 0, "o"))
    with np.errstate(over="ignore"), pytest.raises(NumericError, match="diverged at epoch 0"):
        train("sage", sk, [inst], epochs=5, seed=0)


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
    insts = _random_instances(rng, sk, 5)
    model = init_ecc(sk, seed=3, hidden=4)
    batch = predict(model, sk, insts)
    singles = [forward(model, sk, i) for i in insts]
    assert np.allclose(batch, singles, atol=1e-12)


def test_save_load_roundtrip(tmp_path):
    rng = np.random.default_rng(9)
    sk = _random_skeleton(rng, 4, 4)
    insts = _random_instances(rng, sk, 6)
    res = train("sage", sk, insts, epochs=15, seed=2)
    path = tmp_path / "sage.bin"
    save_model(path, res.model)
    clone = load_model(path, "sage", sk)
    assert np.array_equal(predict(clone, sk, insts), predict(res.model, sk, insts))
