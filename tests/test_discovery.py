import json
import random
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from soilcausal.discovery import (
    DiscoveryConfig,
    _local_inserts,
    _Scorer,
    _State,
    ges,
    gies,
    pc,
    per_row_targets,
)
from soilcausal.errors import ConfigError, NumericError
from soilcausal.graphs import Cpdag, Dag, consistent_extension, cpdag_of, shd
from soilcausal.ingest import Table, add_field_onehots, concat_tables
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
    analytic_covariance,
    ancestral_subsets,
    continuous_table,
    induced_subdag,
    pc_oracle,
    random_pattern,
    reference_consistent_extension,
    reference_local_inserts,
    sequential_pc_skeleton,
)


def _linear_scm(nodes, edges, weight=1.0, sd=0.5):
    dag = Dag(nodes, edges)
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
    roles = {n: "soil" for n in nodes}
    roles[nodes[-1]] = "target"
    return SCMSpec(dag=dag, mechanisms=tuple(mechs), roles=roles)


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
    return ("a", "b", "c", "h1", "h2", "zconst"), np.column_stack(cols)


def _four_rows(n):
    # near-copies stay dependent at level 0 (dof 1); level 1 has dof 0
    rng = np.random.default_rng(3)
    x = rng.normal(size=n)
    cols = [x + 0.001 * rng.normal(size=n) for _ in range(4)]
    return ("a", "b", "c", "const", "d"), np.column_stack(cols[:3] + [np.full(n, 1.0), cols[3]])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "case, n, message",
    [
        (_huge_correlated_pair, 300, r"diverged for \(3, 4 \| \(\)\)"),
        (_four_rows, 4, r"need n > \|S\| \+ 3 .*\|S\|=1"),
    ],
)
def test_pc_raises_where_a_sequential_loop_does(case, n, message):
    names, data = case(n)
    table = continuous_table(names, data)
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
    warning counts."""
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
    state = _State(d, ())
    state.load(pattern)
    got_sc = _Scorer(continuous_table(names, data), names, None, WarningCounter())
    want_sc = _Scorer(continuous_table(names, data), names, None, WarningCounter())
    for y in nodes:
        assert _local_inserts(state, got_sc, y, max_parents) == reference_local_inserts(
            state, want_sc, y, max_parents
        )
    assert got_sc.cache == want_sc.cache
    assert got_sc.warn == want_sc.warn
    got, want = consistent_extension(pattern), reference_consistent_extension(pattern)
    assert (got, got.meta) == (want, want.meta)


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


def test_gies_two_differently_intervened_nodes_use_their_own_rows():
    # one environment shifts ph, one shifts total_n (both replace the
    # node's mechanism, cutting its parents): each node must be scored on
    # the rows where it, not the other, was left alone
    scm, _ = default_farm_benchmark()
    mech = {m.node: m for m in scm.mechanisms}

    def shifted(node):
        m = mech[node]
        shift = m.intercept + 3 * m.noise_sd
        return Mechanism(node=node, kind="linear_gaussian", intercept=shift, noise_sd=m.noise_sd)

    envs = [
        EnvironmentSpec(label="o", treatment="obs", n_days=200, seed=1),
        EnvironmentSpec(label="p", treatment="t_ph", interventions=(shifted("ph"),), n_days=200, seed=2),
        EnvironmentSpec(label="n", treatment="t_n", interventions=(shifted("total_n"),), n_days=200, seed=3),
    ]
    t = sample_environments(scm, envs)
    pat = gies(
        t,
        DiscoveryConfig(use_interventions=True),
        intervention_targets={"t_ph": ("ph",), "t_n": ("total_n",)},
        warn=WarningCounter(),
    )
    assert pat.meta["intervened"] == ("ph", "total_n")
    into = {("fertilize", "total_n"), ("graze", "total_n"), ("manure", "total_n")}
    assert into | {("lime", "ph"), ("plough", "ph")} <= pat.directed
    assert shd(pat, true_cpdag(scm)) <= 1


def test_gies_without_intervened_columns_is_ges():
    scm, envs = _pooled(60)
    t = sample_environments(scm, envs[:8])
    cols = [n for n in t.names if n != "plough"]
    cfg = DiscoveryConfig(use_interventions=True)
    pat = gies(t, cfg, intervention_targets=_benchmark_tags(envs), columns=cols, warn=WarningCounter())
    base = ges(t, cfg, columns=cols, warn=WarningCounter())
    assert "intervened" not in pat.meta
    assert (pat.directed, pat.undirected, pat.meta) == (base.directed, base.undirected, base.meta)


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
