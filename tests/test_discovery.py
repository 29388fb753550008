import itertools
import json
import random
from collections import Counter
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from soilcausal import discovery, stats
from soilcausal.discovery import (
    DiscoveryConfig,
    _apply_delete,
    _apply_insert,
    _backward_phase,
    _Inserts,
    _local_inserts,
    _Scorer,
    _State,
    _subsets,
    _turning_phase,
    ges,
    gies,
    pc,
    per_row_targets,
)
from soilcausal.errors import ConfigError, GraphError, NumericError
from soilcausal.graphs import (
    Cpdag,
    Dag,
    consistent_extension,
    cpdag_of,
    shd,
)
from soilcausal.ingest import Table, add_field_onehots, concat_tables, select_columns
from soilcausal.stats import WarningCounter, suff_stat
from soilcausal.synth import (
    EnvironmentSpec,
    Mechanism,
    SCMSpec,
    default_farm_benchmark,
    sample_environment,
    sample_environments,
    TRAIN_TREATMENTS,
    targets_by_treatment,
    true_cpdag,
)

from enumutil import (
    LABELS4,
    all_dags,
    analytic_covariance,
    ancestral_subsets,
    colliders,
    complete,
    continuous_table,
    exact_pattern,
    induced_subdag,
    is_clique,
    neighbour_maps,
    pc_oracle,
    random_dag,
    random_pattern,
    reach,
    reference_best_insert,
    reference_consistent_extension,
    reference_local_inserts,
    sequential_pc_skeleton,
)


def _linear_scm(nodes, edges, weight=1.0, sd=0.5):
    mechs = []
    for n in nodes:
        parents = tuple(sorted(a for a, b in edges if b == n))
        mechs.append(
            Mechanism(
                node=n,
                kind="linear_gaussian",
                parents=parents,
                weights=(weight,) * len(parents),
                noise_sd=sd,
            )
        )
    return SCMSpec(mechs, target=nodes[-1])


def _pooled(n_days, envs=None, scm=None):
    if scm is None:
        scm, all_envs = default_farm_benchmark()
        envs = all_envs if envs is None else envs
    from dataclasses import replace

    return scm, [replace(e, n_days=n_days) for e in envs]


def test_config_validation():
    with pytest.raises(ConfigError):
        DiscoveryConfig(alpha=0.0)
    with pytest.raises(ConfigError):
        DiscoveryConfig(max_cond_size=-1)
    with pytest.raises(ConfigError):
        DiscoveryConfig(max_parents=0)
    # budgets are counts: a float or a bool is refused, not used as one
    for bad in ({"max_cond_size": 2.5}, {"max_cond_size": True}, {"max_parents": True}, {"max_parents": 2.0}):
        with pytest.raises(ConfigError):
            DiscoveryConfig(**bad)
    assert DiscoveryConfig(max_cond_size=np.int64(2), max_parents=np.int64(4)).max_parents == 4


@pytest.mark.parametrize("alpha", ["0.05", None, True, 0.0, 1.0, float("nan"), -0.1])
def test_alpha_must_be_a_level(alpha):
    with pytest.raises(ConfigError, match="alpha must be a number in"):
        DiscoveryConfig(alpha=alpha)
    stat = stats.suff_stat(np.random.default_rng(0).normal(size=(50, 3)))
    with pytest.raises(ConfigError, match="alpha must be a number in"):
        stats.CIBatch(stat, [[0, 1, 2]]).independent(alpha)
    with pytest.raises(ConfigError, match="alpha must be a number in"):
        stats.fisher_z_test(0, 1, (2,), stat, alpha=alpha, warn=WarningCounter())
    assert DiscoveryConfig(alpha=np.float64(0.01)).alpha == 0.01


# --- oracle-driven PC -------------------------------------------------------


def test_pc_oracle_chain_is_undirected():
    scm = _linear_scm(("a", "b", "c"), {("a", "b"), ("b", "c")})
    pat = pc_oracle(analytic_covariance(scm), scm.dag.nodes, warn=WarningCounter())
    assert pat.directed == frozenset()
    assert pat.undirected == frozenset({("a", "b"), ("b", "c")})
    assert pat.meta["sepsets"][("a", "c")] == ("b",)


def test_pc_oracle_collider_is_directed():
    scm = _linear_scm(("a", "b", "c"), {("a", "c"), ("b", "c")})
    pat = pc_oracle(analytic_covariance(scm), scm.dag.nodes, warn=WarningCounter())
    assert pat.directed == frozenset({("a", "c"), ("b", "c")})
    assert pat.undirected == frozenset()
    assert pat.meta["sepsets"][("a", "b")] == ()


def test_pc_oracle_recovers_benchmark_exactly():
    scm, _ = default_farm_benchmark()
    pat = pc_oracle(analytic_covariance(scm), scm.dag.nodes, warn=WarningCounter())
    truth = true_cpdag(scm)
    assert shd(pat, truth) == 0
    assert pat.directed == truth.directed


def test_pc_oracle_on_every_small_ancestral_subgraph():
    scm, _ = default_farm_benchmark()
    sigma = analytic_covariance(scm)
    idx = {n: k for k, n in enumerate(scm.dag.nodes)}
    subsets = ancestral_subsets(scm.dag, 5)
    assert len(subsets) > 100
    for nodes in subsets:
        cols = [idx[n] for n in nodes]
        pat = pc_oracle(sigma[np.ix_(cols, cols)], nodes, warn=WarningCounter())
        want = cpdag_of(induced_subdag(scm.dag, nodes))
        assert shd(pat, want) == 0, f"mismatch on {nodes}"


def test_pc_oracle_shape_mismatch():
    with pytest.raises(ConfigError):
        pc_oracle(np.eye(3), ("a", "b"), warn=WarningCounter())


def test_pc_oracle_degenerate_column():
    scm, _ = default_farm_benchmark()
    sigma = analytic_covariance(scm, {"plough": 0.0})  # plough variance 0
    warn = WarningCounter()
    pat = pc_oracle(sigma, scm.dag.nodes, warn=warn)
    assert warn.singular_fallbacks == 1  # the one zero-variance column
    assert not any("plough" in e for e in pat.directed | pat.undirected)
    # everything away from plough is still right
    keep = [n for n in scm.dag.nodes if n != "plough"]
    want = cpdag_of(induced_subdag(scm.dag, keep))
    got_dir = {e for e in pat.directed if "plough" not in e}
    got_und = {e for e in pat.undirected if "plough" not in e}
    assert got_dir == set(want.directed)
    assert got_und == set(want.undirected)


# --- sample-based PC --------------------------------------------------------


def test_pc_sample_collider():
    scm = _linear_scm(("a", "b", "c"), {("a", "c"), ("b", "c")}, weight=1.2, sd=0.6)
    t = sample_environment(
        scm, EnvironmentSpec(label="e", treatment="x", n_days=4000, seed=2)
    )
    pat = pc(t, DiscoveryConfig(alpha=0.01), warn=WarningCounter())
    assert pat.directed == frozenset({("a", "c"), ("b", "c")})


def test_pc_pooled_benchmark_close_to_truth():
    scm, envs = _pooled(500)
    t = sample_environments(scm, envs)
    pat = pc(t, DiscoveryConfig(alpha=0.01), warn=WarningCounter())
    assert shd(pat, true_cpdag(scm)) <= 1


def test_pc_train_only_drops_constant_plough():
    scm, envs = _pooled(300)
    train = [e for e in envs if e.treatment != "green"]
    t = sample_environments(scm, train)
    warn = WarningCounter()
    pat = pc(t, DiscoveryConfig(alpha=0.01), warn=warn)
    assert warn.singular_fallbacks > 0
    assert not any("plough" in e for e in pat.directed | pat.undirected)
    # the carbon neighborhood survives without the ploughing signal
    assert ("ph", "total_c") in pat.directed
    assert ("total_n", "total_c") in pat.directed


def test_pc_column_order_invariance():
    scm, envs = _pooled(200)
    t = sample_environments(scm, envs[:6])
    rng = np.random.default_rng(0)
    perm = rng.permutation(len(t.names))
    t2 = Table(
        schema=tuple(t.schema[k] for k in perm),
        rows=t.rows[:, perm],
        timestamps=t.timestamps,
        field_id=t.field_id,
        treatment=t.treatment,
        target=t.target,
    )
    a = pc(t, DiscoveryConfig(alpha=0.05), warn=WarningCounter())
    b = pc(t2, DiscoveryConfig(alpha=0.05), warn=WarningCounter())
    assert a.nodes == b.nodes  # both name-sorted
    assert a.directed == b.directed
    assert a.undirected == b.undirected


def test_pc_counters_match_a_sequential_loop():
    # a duplicated column makes conditioning sets holding both copies
    # singular, and a constant column takes the constant-column fallback
    rng = np.random.default_rng(21)
    n = 400
    a = rng.normal(size=n)
    b = a + 0.5 * rng.normal(size=n)
    c = b + 0.5 * rng.normal(size=n)
    e = a + c + 0.5 * rng.normal(size=n)
    names = ("a", "b", "c", "c_copy", "const", "e")
    data = np.column_stack([a, b, c, c, np.full(n, 2.0), e])
    table = continuous_table(names, data)
    warn = WarningCounter()
    got = pc(table, warn=warn)

    stat = suff_stat(table, sorted(names))
    ref_warn = WarningCounter()
    adj, sepset, tests, skipped_fallbacks = sequential_pc_skeleton(stat, 0.05, 3, ref_warn)
    # the batches also evaluate triples past a pair's separating set, some
    # of which would count a fallback: those must not reach the counter
    assert skipped_fallbacks > 0
    assert got.meta["ci_tests"] == tests
    assert warn.singular_fallbacks == ref_warn.singular_fallbacks > 0
    col = stat.columns
    assert got.meta["sepsets"] == {
        (col[i], col[j]): tuple(sorted(col[k] for k in S)) for (i, j), S in sepset.items()
    }
    skeleton = {frozenset(p) for p in got.directed | got.undirected}
    assert skeleton == {frozenset((col[i], col[j])) for i in range(len(col)) for j in adj[i]}


def _huge_correlated_pair(n):
    # two columns near 1e160 whose covariance overflows: the partial
    # correlation of the pair is NaN, read at level 0 after the constant
    # column's fallbacks of a, b and c and before those of h1 and h2
    rng = np.random.default_rng(3)
    a = rng.normal(size=n)
    b = a + rng.normal(size=n)
    h = rng.normal(size=n)
    cols = [a, b, b + rng.normal(size=n), 1e160 * h, 1e160 * (h + 0.5 * rng.normal(size=n)), np.full(n, 1.0)]
    return ("a", "b", "c", "h1", "h2", "zconst"), np.column_stack(cols), ()


def _four_rows(n):
    # near-copies stay dependent at level 0 (dof 1); level 1 has dof 0
    rng = np.random.default_rng(3)
    x = rng.normal(size=n)
    cols = [x + 0.001 * rng.normal(size=n) for _ in range(4)]
    return ("a", "b", "c", "const", "d"), np.column_stack(cols[:3] + [np.full(n, 1.0), cols[3]]), ()


def _noisy_copies(n):
    # five noisy copies of one latent stay dependent given any one other
    # copy, so every pair of them reaches level 1 and is tested there on
    # each of its three conditioning sets; the constant column's level-0
    # fallbacks are counted before the level-1 failure.  The (i, j, *S)
    # triples returned diverge: (0, 1 | 4) is pair (0, 1)'s third triple,
    # past its first round, and (2, 3 | 0) is pair (2, 3)'s first, in the
    # first round, so reading round by round would raise at the later pair
    rng = np.random.default_rng(4)
    z = rng.normal(size=n)
    cols = [z + 0.5 * rng.normal(size=n) for _ in range(5)]
    return ("a", "b", "c", "d", "e", "zconst"), np.column_stack(cols + [np.full(n, 1.0)]), ((0, 1, 4), (2, 3, 0))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "case, n, message",
    [
        (_huge_correlated_pair, 300, r"diverged for \(3, 4 \| \(\)\)"),
        (_four_rows, 4, r"need n > \|S\| \+ 3 .*\|S\|=1"),
        (_noisy_copies, 300, r"diverged for \(0, 1 \| \(4,\)\)"),
    ],
)
def test_pc_raises_where_a_sequential_loop_does(monkeypatch, case, n, message):
    names, data, diverging = case(n)
    table = continuous_table(names, data)
    if diverging:
        # the listed (i, j, *S) triples' partial correlations diverge, for
        # the batches and the one-test-at-a-time loop alike
        real = stats._partial_correlations

        def patched(cov, idx):
            r, fallback = real(cov, idx)
            for triple in diverging:
                if idx.shape[1] == len(triple):
                    r[(idx == triple).all(axis=1)] = np.nan
            return r, fallback

        monkeypatch.setattr(stats, "_partial_correlations", patched)
    warn, ref_warn = WarningCounter(), WarningCounter()
    with pytest.raises(NumericError, match=message) as got:
        pc(table, warn=warn)
    with pytest.raises(NumericError) as want:
        sequential_pc_skeleton(suff_stat(table, sorted(names)), 0.05, 3, ref_warn)
    assert str(got.value) == str(want.value)
    assert warn == ref_warn and warn.singular_fallbacks > 0


def test_discovery_at_width_matches_recorded_outputs():
    """pc, ges and gies on 34 columns (the farm plus its 22 field one-hots,
    train rows only, so the 7 held-out fields' one-hots are constant)
    reproduce the outputs recorded from the one-test-at-a-time, rescore-
    everything implementation: patterns, sepsets, CI test count, sweeps and
    warning counts.  ``ges`` and ``gies`` no longer score the inserts whose
    base is not a clique, so their ridged-inverse counts are those of the
    sets they still score (392 and 385 when every set was scored)."""
    want = json.loads((Path(__file__).parent / "data" / "discovery_golden.json").read_text())
    scm, envs = default_farm_benchmark(n_days=60)
    table = add_field_onehots(sample_environments(scm, envs))
    keep = np.isin(table.treatment, TRAIN_TREATMENTS)
    table = replace(
        table,
        rows=table.rows[keep],
        timestamps=table.timestamps[keep],
        field_id=table.field_id[keep],
        treatment=table.treatment[keep],
    )
    assert (table.n, len(table.names)) == (want["rows"], want["columns"])
    targets = {t: sorted(nodes) for t, nodes in targets_by_treatment(envs).items()}
    learners = {
        "pc": lambda w: pc(table, warn=w),
        "ges": lambda w: ges(table, warn=w),
        "gies": lambda w: gies(table, DiscoveryConfig(use_interventions=True), targets, warn=w),
    }
    for name, learn in learners.items():
        warn = WarningCounter()
        pat = learn(warn)
        got = {
            "directed": sorted(map(list, pat.directed)),
            "undirected": sorted(map(list, pat.undirected)),
            "singular_fallbacks": warn.singular_fallbacks,
            "empty_interventional": warn.empty_interventional,
        }
        if name == "pc":
            got["ci_tests"] = pat.meta["ci_tests"]
            got["sepsets"] = sorted([list(p), list(s)] for p, s in pat.meta["sepsets"].items())
        else:
            got["sweeps"] = pat.meta["sweeps"]
        assert got == want[name], name


# --- GES --------------------------------------------------------------------


def test_ges_two_node_dependence():
    scm = _linear_scm(("x", "y"), {("x", "y")}, weight=2.0, sd=0.3)
    t = sample_environment(
        scm, EnvironmentSpec(label="e", treatment="x", n_days=2000, seed=4)
    )
    pat = ges(t, warn=WarningCounter())
    assert pat.undirected == frozenset({("x", "y")})
    assert pat.directed == frozenset()


def test_ges_collider():
    scm = _linear_scm(("a", "b", "c"), {("a", "c"), ("b", "c")}, weight=1.2, sd=0.6)
    t = sample_environment(
        scm, EnvironmentSpec(label="e", treatment="x", n_days=4000, seed=5)
    )
    pat = ges(t, warn=WarningCounter())
    assert pat.directed == frozenset({("a", "c"), ("b", "c")})


def test_ges_independent_nodes_stay_empty():
    # a pair of independent columns clears the BIC bar with prob ~ n^-1 at
    # this size, so almost every seed yields the empty pattern; seed 9 is a
    # known noise-floor exception
    rng = np.random.default_rng(0)
    data = rng.standard_normal((5000, 4))
    from soilcausal.ingest import ColumnSpec

    t = Table(
        schema=tuple(ColumnSpec(name=n, kind="continuous") for n in "abcd"),
        rows=data,
        timestamps=np.repeat(np.datetime64("2020-01-01"), 5000) + np.arange(5000),
        field_id=np.repeat("f", 5000),
        treatment=np.repeat("t", 5000),
    )
    pat = ges(t, warn=WarningCounter())
    assert pat.directed == frozenset() and pat.undirected == frozenset()


def test_ges_pooled_benchmark_close_to_truth():
    # max_parents needs headroom above the true max in-degree (3): the
    # backward phase can only peel a transient hub once the forward phase
    # was allowed to finish building an independence map around it.
    scm, envs = _pooled(500)
    t = sample_environments(scm, envs)
    pat = ges(t, DiscoveryConfig(max_parents=8), warn=WarningCounter())
    assert shd(pat, true_cpdag(scm)) <= 2


def test_ges_respects_max_parents():
    nodes = ("p1", "p2", "p3", "y")
    edges = {("p1", "y"), ("p2", "y"), ("p3", "y")}
    scm = _linear_scm(nodes, edges, weight=1.0, sd=0.4)
    t = sample_environment(
        scm, EnvironmentSpec(label="e", treatment="x", n_days=3000, seed=6)
    )
    pat = ges(t, DiscoveryConfig(max_parents=2), warn=WarningCounter())
    y_parents = {a for a, b in pat.directed if b == "y"}
    y_links = y_parents | {a for a, b in pat.undirected if b == "y"}
    y_links |= {b for a, b in pat.undirected if a == "y"}
    assert len(y_parents) <= 2
    assert len(y_links) <= 3  # skeleton may keep an undirected spare


def test_ges_column_order_invariance():
    scm, envs = _pooled(200)
    t = sample_environments(scm, envs[:6])
    rng = np.random.default_rng(1)
    perm = rng.permutation(len(t.names))
    t2 = Table(
        schema=tuple(t.schema[k] for k in perm),
        rows=t.rows[:, perm],
        timestamps=t.timestamps,
        field_id=t.field_id,
        treatment=t.treatment,
        target=t.target,
    )
    a = ges(t, warn=WarningCounter())
    b = ges(t2, warn=WarningCounter())
    assert a.directed == b.directed
    assert a.undirected == b.undirected


@settings(deadline=None, max_examples=60, derandomize=True)
@given(st.integers(0, 10**6), st.integers(2, 9), st.integers(1, 5))
def test_grouped_inserts_match_one_x_at_a_time(seed, d, max_parents):
    # a random PDAG state over mixed Gaussian columns (one column a copy,
    # so some scores take the ridge): every node's candidate list, the
    # scores computed and the counters equal the one-x-at-a-time ones
    rng = random.Random(seed)
    nodes = tuple(range(d))
    np_rng = np.random.default_rng(seed)
    data = np_rng.normal(size=(150, d)) @ np_rng.normal(size=(d, d))
    data[:, -1] = data[:, 0]
    names = tuple(f"c{k}" for k in nodes)
    pattern = random_pattern(rng, nodes)
    state = _State(d, (), pattern.directed, pattern.undirected)
    got_sc = _Scorer(continuous_table(names, data), names, None, WarningCounter())
    want_sc = _Scorer(continuous_table(names, data), names, None, WarningCounter())
    for y in nodes:
        # a candidate's base NA(y, x) | T follows from (x, y, T) and the state
        got = [cand[:4] for cand in _local_inserts(state, got_sc, y, max_parents)]
        assert got == [cand[:4] for cand in reference_local_inserts(state, want_sc, y, max_parents)]
    assert got_sc.cache == want_sc.cache
    assert got_sc.warn == want_sc.warn
    got, want = consistent_extension(pattern), reference_consistent_extension(pattern)
    assert (got, got.meta) == (want, want.meta)


@settings(deadline=None, max_examples=60, derandomize=True)
@given(st.integers(0, 10**6), st.integers(2, 7), st.integers(1, 4), st.booleans())
def test_kept_inserts_choose_the_reference_move(seed, d, max_parents, interventional):
    # GES or GIES sweeps on a random small table (one column a copy, so
    # some scores take the ridge): at every forward step the move chosen
    # from the kept lists and reach sets, after inserts, deletes and turns,
    # is the one chosen afresh from every list and a fresh reach search
    rng = np.random.default_rng(seed)
    n = 120
    data = rng.normal(size=(n, d)) @ np.triu(rng.normal(size=(d, d)))
    data[:, -1] = data[:, 0]
    names = tuple(f"c{k}" for k in range(d))
    rows, intervened = None, ()
    if interventional:
        k = seed % d
        data[n // 2 :, k] = rng.normal(size=n - n // 2)
        rows = [frozenset()] * (n // 2) + [frozenset({names[k]})] * (n - n // 2)
        intervened = (k,)
    table = continuous_table(names, data)
    sc = _Scorer(table, names, rows, WarningCounter())
    ref_sc = _Scorer(table, names, rows, WarningCounter())
    cfg = DiscoveryConfig(max_parents=max_parents)
    inserts, state, steps = _Inserts(sc, max_parents), _State(d, intervened), 0
    for _ in range(3):
        while True:
            got = inserts.best(state)
            assert got == reference_best_insert(state, ref_sc, max_parents)
            if got is None:
                break
            state, steps = _apply_insert(state, *got[1:]), steps + 1
        state = _backward_phase(state, sc)
        if interventional:
            state = _turning_phase(state, sc, cfg)
    assert steps > 0


class _RoundingScorer:
    """Local scores that make reversing 0 -> 1 "gain" 2e-9, just above
    the gain tolerance, as rounding can; it gives up after 10,000 calls."""

    calls = 0

    def __init__(self):
        self.warn = WarningCounter()

    def local(self, y, parents):
        self.calls += 1
        if self.calls > 10_000:
            raise RuntimeError("the turning phase did not end")
        return 2e-9 if (y, parents) == (0, 0b10) else 0.0


def test_turning_phase_ends_when_a_turn_projects_back_onto_its_pattern():
    # the turn of the covered edge in 0 - 1 projects back onto 0 - 1, so
    # every pass would extend the same pattern and pick the same turn
    state = _State(2, (), (), [(0, 1)])
    got = _turning_phase(state, _RoundingScorer(), DiscoveryConfig(max_parents=3))
    assert (got.directed(), got.undirected()) == (set(), {(0, 1)})


@settings(deadline=None, max_examples=60, derandomize=True)
@given(st.integers(0, 10**6), st.integers(2, 8))
def test_moves_complete_a_copy_and_leave_the_state(seed, d):
    # every insert and delete on the interventional pattern of a random DAG,
    # with random T/H sets and pinned nodes: a valid move returns its own
    # completed graph, equal to extending and projecting the edited edge
    # sets through the validated types without a fallback, and an invalid
    # one raises; either way the state it copied keeps every neighbour set
    # (a shallow copy would share them)
    rng = random.Random(seed)
    pinned = frozenset(v for v in range(d) if rng.random() < 0.3)
    pattern = cpdag_of(random_dag(rng, tuple(range(d))), pinned)
    state = _State(d, pinned, pattern.directed, pattern.undirected)
    m = neighbour_maps(range(d), pattern.directed, pattern.undirected)
    before = _maps(state)
    semi = lambda v: m.und[v] | m.ch[v]  # noqa: E731
    for x, y in itertools.permutations(range(d), 2):
        directed, undirected = set(pattern.directed), set(pattern.undirected)
        na = m.und[y] & m.adj[x]
        if x not in m.adj[y]:
            t = tuple(n for n in sorted(m.und[y] - m.adj[x]) if rng.random() < 0.5)
            move, sets = _apply_insert, t
            valid = is_clique(na | set(t), m.adj) and x not in reach(semi, y, na | set(t))
            directed |= {(x, y)} | {(n, y) for n in t}
            undirected -= {(min(n, y), max(n, y)) for n in t}
        elif x in m.pa[y] or x in m.und[y]:
            h = tuple(n for n in sorted(na) if rng.random() < 0.5)
            move, sets = _apply_delete, h
            valid = is_clique(na - set(h), m.adj)
            directed.discard((x, y))
            undirected.discard((min(x, y), max(x, y)))
            for n in h:
                for a in (y, x):
                    if (min(n, a), max(n, a)) in undirected:
                        undirected.remove((min(n, a), max(n, a)))
                        directed.add((a, n))
        else:
            continue
        if not valid:
            with pytest.raises(GraphError, match="is not a valid move"):
                move(state, x, y, sets)
            assert _maps(state) == before
            continue
        got = move(state, x, y, sets)
        assert _maps(state) == before
        ext = consistent_extension(Cpdag(state.nodes, directed, undirected))
        want = cpdag_of(ext, pinned)
        assert (got.directed(), got.undirected()) == (want.directed, want.undirected)
        assert not ext.meta["extension_fallback"]


def test_local_recompletion_is_the_whole_graph_completion():
    # GES and GIES on random linear-Gaussian tables, GIES with one or two
    # blocks of rows that intervene on random columns: every insert and
    # delete re-completes its copy locally, and every turn projects its
    # extension, with ``recomplete``; the result is the whole-graph
    # reference completion of the same edited edges, whose extension does
    # not fall back.  The moves seen include deletes, moves next to a
    # pinned node, moves after a turn, and moves that shield a collider or
    # create one
    seen, turned = Counter(), [False]  # turned: in the search running now
    recomplete = discovery.recomplete

    def checked_recomplete(g, pinned, pairs):
        whole = g.copy()
        assert not complete(whole, {v for v in g.nodes if pinned >> v & 1})
        recomplete(g, pinned, pairs)
        assert (g.directed(), g.undirected()) == (whole.directed(), whole.undirected())
        seen["pinned"] += any(pinned >> v & 1 for p in pairs for v in p)

    def counted(move, kind):
        def run(state, *args):
            out = move(state, *args)
            before = colliders(state.nodes, state.directed(), state.undirected())
            seen["shield"] += any(out.adj[a] >> b & 1 for a, _, b in before)
            seen["create"] += bool(colliders(out.nodes, out.directed(), out.undirected()) - before)
            seen["after turn"] += turned[0] and kind != "turned"
            seen[kind] += out is not state
            turned[0] |= kind == "turned" and out is not state
            return out

        return run

    @settings(deadline=None, max_examples=80, derandomize=True)
    @given(st.integers(0, 10**6), st.integers(3, 8), st.integers(1, 4), st.integers(0, 2))
    @example(276, 3, 3, 1)  # GIES turns an edge
    @example(279, 6, 3, 2)  # and here too, with two blocks of targets
    def search(seed, d, max_parents, blocks):
        turned[0] = False
        rng = np.random.default_rng(seed)
        n = 60 * (blocks + 2)
        weights = np.triu(rng.normal(size=(d, d)) * (rng.random((d, d)) < 0.5), 1)
        data = rng.normal(size=(n, d)) @ np.linalg.inv(np.eye(d) - weights)
        names = tuple(f"c{k}" for k in range(d))
        rows = None
        if blocks:
            rows = [frozenset()] * 120
            for _ in range(blocks):
                hit = rng.choice(d, size=int(rng.integers(1, 3)), replace=False)
                data[len(rows) : len(rows) + 60, hit] = rng.normal(size=(60, len(hit)))
                rows += [frozenset(names[k] for k in hit)] * 60
        warn = WarningCounter()
        discovery._greedy_search(continuous_table(names, data), DiscoveryConfig(max_parents=max_parents), rows, warn)
        assert warn.extension_fallbacks == 0

    with (
        mock.patch.object(discovery, "recomplete", checked_recomplete),
        mock.patch.object(discovery, "_apply_insert", counted(_apply_insert, "insert")),
        mock.patch.object(discovery, "_apply_delete", counted(_apply_delete, "delete")),
        mock.patch.object(discovery, "_turning_phase", counted(_turning_phase, "turned")),
    ):
        search()
    assert all(seen[k] for k in ("pinned", "shield", "create", "turned", "after turn", "delete")), seen


def _maps(s):
    """Copies of a state's neighbour masks."""
    return [list(m) for m in (s.pa, s.ch, s.und, s.adj)]


@settings(deadline=None, max_examples=60, derandomize=True)
@given(st.integers(0, 10**6), st.integers(3, 8))
def test_every_valid_move_from_a_pattern_recompletes_locally(seed, d):
    # the interventional pattern of a random DAG with random pinned nodes:
    # every insert and delete that meets Chickering's conditions (T or H of
    # up to three nodes) completes a copy locally, and equals the
    # whole-graph completion of the same edited edges, whose extension does
    # not fall back, and the state it copied keeps every neighbour set (a
    # shallow copy would share them)
    rng = random.Random(seed)
    pinned = frozenset(v for v in range(d) if rng.random() < 0.3)
    pattern = cpdag_of(random_dag(rng, tuple(range(d)), p=rng.uniform(0.2, 0.7)), pinned)
    state = _State(d, pinned, pattern.directed, pattern.undirected)
    m = neighbour_maps(range(d), pattern.directed, pattern.undirected)
    before = _maps(state)
    moves = []
    for x, y in itertools.permutations(range(d), 2):
        na = m.und[y] & m.adj[x]
        if x not in m.adj[y]:
            for t in _subsets(m.und[y] - m.adj[x], 3):
                base = na | set(t)
                semi = lambda v: m.und[v] | m.ch[v]  # noqa: E731
                if is_clique(base, m.adj) and x not in reach(semi, y, base):
                    moves.append((_apply_insert, x, y, t, [(x, y)] + [(n, y) for n in t]))
        elif x in m.pa[y] or x in m.und[y]:
            for h in _subsets(na, 3):
                if is_clique(na - set(h), m.adj):
                    moves.append((_apply_delete, x, y, h, [(y, n) for n in h] + [(x, n) for n in h if n in m.und[x]]))
    for move, x, y, sets, oriented in moves:
        got = move(state, x, y, sets)
        assert _maps(state) == before
        want = state.copy()
        want.cut(x, y)
        for a, b in oriented:
            want.orient(a, b)
        if move is _apply_insert:
            want.orient(x, y)
        assert not complete(want, pinned)
        assert (got.directed(), got.undirected()) == (want.directed(), want.undirected())


def test_moves_from_the_searched_patterns_recomplete_locally():
    # 0 - 2, then Insert(1, 2, {0}) creates the collider 0 -> 2 <- 1,
    # Insert(0, 1, {}) shields it, and Delete(0, 1, {2}) creates it again,
    # each completed locally
    state = _apply_insert(_State(3, ()), 0, 2, ())
    assert (state.directed(), state.undirected()) == (set(), {(0, 2)})
    collider = _apply_insert(state, 1, 2, (0,))
    assert (collider.directed(), collider.undirected()) == ({(0, 2), (1, 2)}, set())
    shielded = _apply_insert(collider, 0, 1, ())
    assert (shielded.directed(), shielded.undirected()) == (set(), {(0, 1), (0, 2), (1, 2)})
    again = _apply_delete(shielded, 0, 1, (2,))
    assert (again.directed(), again.undirected()) == ({(0, 2), (1, 2)}, set())


@pytest.mark.parametrize(
    "move, x, y, sets",
    [
        (_apply_insert, 0, 3, ()),  # the semi-directed path 3 - 2 - 1 - 0 avoids NA(3, 0) = {}
        (_apply_insert, 0, 1, ()),  # 0 and 1 are adjacent
        (_apply_delete, 1, 2, (3,)),  # 3 is not in NA(2, 1) = {}
    ],
    ids=["insert-across-a-path", "insert-between-adjacent", "delete-outside-na"],
)
def test_invalid_moves_raise_and_leave_the_state(move, x, y, sets):
    # a move that fails Chickering's conditions has no local completion,
    # and the search never makes one: it raises before editing anything.
    # The state is the chain 0 - 1 - 2 - 3 that inserts make
    chain = _State(4, ())
    for a, b in ((0, 1), (1, 2), (2, 3)):
        chain = _apply_insert(chain, a, b, ())
    before = _maps(chain)
    with pytest.raises(GraphError, match="is not a valid move"):
        move(chain, x, y, sets)
    assert _maps(chain) == before


def test_each_learner_validates_one_pattern_per_call(monkeypatch):
    # the learners edit one graph in place and name their result once
    built = {Dag: 0, Cpdag: 0}
    for cls in built:
        check = cls.__post_init__

        def counted(self, cls=cls, check=check):
            built[cls] += 1
            check(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    scm, envs = _pooled(200)
    t = sample_environments(scm, envs)
    cfg = DiscoveryConfig(use_interventions=True)
    for learn in (
        lambda: pc(t, warn=WarningCounter()),
        lambda: ges(t, warn=WarningCounter()),
        lambda: gies(t, cfg, intervention_targets=_benchmark_tags(envs), warn=WarningCounter()),
    ):
        built.update({Dag: 0, Cpdag: 0})
        out = learn()
        assert built == {Dag: 0, Cpdag: 1}
    assert out.meta["sweeps"] >= 2  # GIES ran a turning phase


# --- GIES -------------------------------------------------------------------


def _benchmark_tags(envs):
    return targets_by_treatment(envs)


def test_gies_without_interventions_is_ges():
    scm, envs = _pooled(300)
    t = sample_environments(scm, envs[:8])
    base = ges(t, warn=WarningCounter())
    for pat in (
        gies(t, DiscoveryConfig(use_interventions=True), intervention_targets={}, warn=WarningCounter()),
        gies(t, DiscoveryConfig(use_interventions=False), intervention_targets=_benchmark_tags(envs), warn=WarningCounter()),
    ):
        assert pat.directed == base.directed
        assert pat.undirected == base.undirected


def test_gies_orients_chain_by_intervention():
    # x -> y with x intervened in one treatment: only the true direction
    # explains why y's conditional stays put while x's marginal moves.
    scm = _linear_scm(("x", "y"), {("x", "y")}, weight=1.5, sd=0.5)
    shift = Mechanism(node="x", kind="linear_gaussian", intercept=2.0, noise_sd=0.5)
    obs = EnvironmentSpec(label="o", treatment="obs", n_days=3000, seed=8)
    cut = EnvironmentSpec(
        label="c", treatment="cut", interventions=(shift,), n_days=3000, seed=9
    )
    t = sample_environments(scm, [obs, cut])
    pat = gies(
        t,
        DiscoveryConfig(use_interventions=True),
        intervention_targets={"cut": ("x",)},
        warn=WarningCounter(),
    )
    assert pat.directed == frozenset({("x", "y")})
    assert pat.undirected == frozenset()
    assert pat.meta["intervened"] == ("x",)


def test_gies_pooled_benchmark_orients_plough():
    scm, envs = _pooled(500)
    t = sample_environments(scm, envs)
    pat = gies(
        t,
        DiscoveryConfig(use_interventions=True, max_parents=8),
        intervention_targets=_benchmark_tags(envs),
        warn=WarningCounter(),
    )
    truth = true_cpdag(scm)
    assert ("plough", "ph") in pat.directed
    assert shd(pat, truth) <= 2
    base = ges(t, DiscoveryConfig(max_parents=8), warn=WarningCounter())
    assert len(pat.directed) >= len(base.directed)


def _two_target_table(seed):
    """The default farm's SCM, and 200 days each of an observational
    environment, one that shifts ph and one that shifts total_n (both
    replace the node's mechanism, cutting its parents), seeded ``seed``,
    ``seed + 1`` and ``seed + 2``; with their treatment -> intervened-
    columns mapping."""
    scm, _ = default_farm_benchmark()
    mech = {m.node: m for m in scm.mechanisms}

    def shifted(node):
        m = mech[node]
        shift = m.intercept + 3 * m.noise_sd
        return Mechanism(node=node, kind="linear_gaussian", intercept=shift, noise_sd=m.noise_sd)

    envs = [
        EnvironmentSpec(label="o", treatment="obs", n_days=200, seed=seed),
        EnvironmentSpec(label="p", treatment="t_ph", interventions=(shifted("ph"),), n_days=200, seed=seed + 1),
        EnvironmentSpec(label="n", treatment="t_n", interventions=(shifted("total_n"),), n_days=200, seed=seed + 2),
    ]
    return scm, sample_environments(scm, envs), {"t_ph": ("ph",), "t_n": ("total_n",)}


def test_gies_two_differently_intervened_nodes_use_their_own_rows():
    # each node must be scored on the rows where it, not the other, was
    # left alone
    scm, t, tags = _two_target_table(1)
    pat = gies(t, DiscoveryConfig(use_interventions=True), intervention_targets=tags, warn=WarningCounter())
    assert pat.meta["intervened"] == ("ph", "total_n")
    into = {("fertilize", "total_n"), ("graze", "total_n"), ("manure", "total_n")}
    assert into | {("lime", "ph"), ("plough", "ph")} <= pat.directed
    assert shd(pat, true_cpdag(scm)) <= 1


def test_greedy_search_finds_the_exact_optimum():
    """``ges`` on the default 60-day farm's red/blue train rows, and
    ``gies`` on the two-target scenario at two seeds, return the pattern of
    a DAG of highest (interventional) BIC with at most ``max_parents``
    parents per node, which ``exact_pattern`` finds over every sink order.
    This checks the whole search, whatever its insert lists, reach sets and
    re-completion keep.  Each 12-column table costs the oracle about 0.12 s
    and the search about 5 ms; the test takes about 0.4 s on two cores."""
    max_parents = DiscoveryConfig().max_parents
    scm, envs = default_farm_benchmark(n_days=60)
    train = sample_environments(scm, [e for e in envs if e.treatment in TRAIN_TREATMENTS])
    got, want = ges(train, warn=WarningCounter()), exact_pattern(train, None, max_parents)
    assert (got.directed, got.undirected) == (want.directed, want.undirected)
    for seed in (1, 4):
        _, t, tags = _two_target_table(seed)
        got = gies(t, DiscoveryConfig(use_interventions=True), tags, warn=WarningCounter())
        want = exact_pattern(t, per_row_targets(t, tags), max_parents)  # pins ph and total_n
        assert got.meta["intervened"] == ("ph", "total_n")
        assert (got.directed, got.undirected) == (want.directed, want.undirected)


@pytest.mark.parametrize("max_parents", [1, 3])
def test_exact_pattern_is_the_best_dag_by_enumeration(max_parents):
    rng = np.random.default_rng(5)
    a, c = rng.standard_normal((2, 300))
    b = a + 0.5 * rng.standard_normal(300)
    d = b - c + 0.5 * rng.standard_normal(300)
    table = continuous_table(LABELS4, np.column_stack([a, b, c, d]))
    sc = _Scorer(table, LABELS4, None, WarningCounter())
    idx = {v: k for k, v in enumerate(LABELS4)}

    def bic(edges):
        return sum(sc.local(idx[y], sum(1 << idx[x] for x, z in edges if z == y)) for y in LABELS4)

    capped = [e for e in all_dags(LABELS4) if max(Counter(y for _, y in e).values(), default=0) <= max_parents]
    best = max(capped, key=bic)
    assert exact_pattern(table, None, max_parents) == cpdag_of(Dag(LABELS4, best))


def test_gies_without_intervened_columns_is_ges():
    # a caller narrows the table and drops the removed columns from the
    # targets; with plough gone no row is intervened
    scm, envs = _pooled(60)
    full = sample_environments(scm, envs[:8])
    t = select_columns(full, [n for n in full.names if n != "plough"])
    tags = {k: [n for n in v if n in t.names] for k, v in _benchmark_tags(envs).items()}
    cfg = DiscoveryConfig(use_interventions=True)
    warn_gies, warn_ges = WarningCounter(), WarningCounter()
    pat = gies(t, cfg, intervention_targets=tags, warn=warn_gies)
    base = ges(t, cfg, warn=warn_ges)
    assert "intervened" not in pat.meta
    assert (pat.directed, pat.undirected, pat.meta) == (base.directed, base.undirected, base.meta)
    assert warn_gies == warn_ges
    with pytest.raises(ConfigError, match="unknown columns"):
        gies(t, cfg, intervention_targets=_benchmark_tags(envs), warn=WarningCounter())


def test_gies_requires_tags_when_interventional():
    scm, envs = _pooled(60)
    t = sample_environments(scm, envs[:2])
    with pytest.raises(ConfigError):
        gies(t, DiscoveryConfig(use_interventions=True), warn=WarningCounter())


def test_gies_all_rows_intervened_scores_zero_for_node():
    # every row manipulates x: edges into x can never pay their penalty
    scm = _linear_scm(("x", "y"), {("x", "y")}, weight=1.5, sd=0.5)
    on = Mechanism(node="x", kind="linear_gaussian", intercept=2.0, noise_sd=0.5)
    envs = [
        EnvironmentSpec(label="a", treatment="c1", interventions=(on,), n_days=2000, seed=1),
        EnvironmentSpec(label="b", treatment="c2", interventions=(on,), n_days=2000, seed=2),
    ]
    t = sample_environments(scm, envs)
    warn = WarningCounter()
    pat = gies(
        t,
        DiscoveryConfig(use_interventions=True),
        intervention_targets={"c1": ("x",), "c2": ("x",)},
        warn=warn,
    )
    assert warn.empty_interventional == 1  # x, counted once
    assert pat.directed == frozenset({("x", "y")})


def test_per_row_targets_validation():
    scm, envs = _pooled(30)
    t = sample_environments(scm, envs[:2])
    rows = per_row_targets(t, {"red": ("plough",)})
    assert all(s == frozenset({"plough"}) for s in rows)
    with pytest.raises(ConfigError):
        per_row_targets(t, {"red": ("not_a_column",)})


@pytest.mark.parametrize(
    "targets, message",
    [
        (["plough"], "must map treatment"),
        ({"red": "plough"}, "treatment 'red' must name a collection"),
        ({"red": None}, "treatment 'red' must name a collection"),
        ({"red": [["plough"]]}, "treatment 'red' must name a collection"),
    ],
)
def test_per_row_targets_rejects_malformed_targets(targets, message):
    # a string is one column name, not the characters of one; a list is
    # no column name
    scm, envs = _pooled(30)
    t = sample_environments(scm, envs[:2])
    with pytest.raises(ConfigError, match=message):
        per_row_targets(t, targets)
    with pytest.raises(ConfigError, match=message):
        gies(t, DiscoveryConfig(use_interventions=True), intervention_targets=targets, warn=WarningCounter())


def test_gies_column_order_invariance():
    scm, envs = _pooled(250)
    pick = [e for e in envs if e.label in ("red00", "blue00", "green00")]
    t = sample_environments(scm, pick)
    perm = np.random.default_rng(3).permutation(len(t.names))
    t2 = Table(
        schema=tuple(t.schema[k] for k in perm),
        rows=t.rows[:, perm],
        timestamps=t.timestamps,
        field_id=t.field_id,
        treatment=t.treatment,
        target=t.target,
    )
    tags = _benchmark_tags(pick)
    cfg = DiscoveryConfig(use_interventions=True)
    a = gies(t, cfg, intervention_targets=tags, warn=WarningCounter())
    b = gies(t2, cfg, intervention_targets=tags, warn=WarningCounter())
    assert a.directed == b.directed
    assert a.undirected == b.undirected
