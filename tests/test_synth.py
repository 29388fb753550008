import re

import numpy as np
import pytest
from scipy import stats as spstats

from soilcausal.errors import ConfigError, GraphError
from soilcausal.graphs import Dag, cpdag_of
from soilcausal.ingest import validate_model_ready
from soilcausal.synth import (
    EVENT_RATES,
    EnvironmentSpec,
    Mechanism,
    SCMSpec,
    default_farm_benchmark,
    sample_environment,
    sample_environments,
    targets_by_treatment,
    true_cpdag,
)

from enumutil import analytic_covariance, ancestral_subsets, induced_subdag, is_ancestrally_closed


def _chain_scm(weight=2.0, sd=0.01):
    mechs = (
        Mechanism(node="x", kind="linear_gaussian", intercept=0.0, noise_sd=1.0),
        Mechanism(
            node="y",
            kind="linear_gaussian",
            parents=("x",),
            weights=(weight,),
            intercept=0.3,
            noise_sd=sd,
        ),
    )
    return SCMSpec(mechs, target="y")


# --- dataclass validation ---------------------------------------------------


def test_mechanism_validation():
    with pytest.raises(ConfigError):
        Mechanism(node="x", kind="mystery")
    with pytest.raises(ConfigError):
        Mechanism(node="x", kind="linear_gaussian", parents=("a",), weights=(), noise_sd=1.0)
    with pytest.raises(ConfigError):
        Mechanism(node="x", kind="linear_gaussian", noise_sd=0.0)
    with pytest.raises(ConfigError):
        Mechanism(node="x", kind="bernoulli_event", base_rate=1.5)
    with pytest.raises(ConfigError):
        Mechanism(
            node="x", kind="linear_gaussian", parents=("a", "a"), weights=(1.0, 2.0), noise_sd=1.0
        )
    with pytest.raises(ConfigError):
        Mechanism(node="x", kind="linear_gaussian", parents=("x",), weights=(1.0,), noise_sd=1.0)
    # boundary rates are legal at the mechanism level (intervention replacements)
    Mechanism(node="x", kind="bernoulli_event", base_rate=0.0)
    Mechanism(node="x", kind="bernoulli_event", base_rate=1.0)


def test_scm_validation_strict_observational_rate():
    with pytest.raises(ConfigError):
        SCMSpec((Mechanism(node="e", kind="bernoulli_event", base_rate=1.0),), target="e")


def _gauss(node, *parents):
    return Mechanism(
        node=node, kind="linear_gaussian", parents=parents, weights=(1.0,) * len(parents), noise_sd=1.0
    )


@pytest.mark.parametrize(
    "mechanisms, target, error, message",
    [
        ((_gauss("x"), _gauss("y", "x"), _gauss("x")), "y", ConfigError, "two mechanisms for node 'x'"),
        ((_gauss("x"), _gauss("y", "x")), "z", ConfigError, "target 'z' has no mechanism"),
        ((_gauss("x"), _gauss("y", "x", "w")), "y", ConfigError, "names parents without a mechanism: ['w']"),
        (
            (Mechanism(node="e", kind="bernoulli_event", base_rate=0.0), _gauss("y", "e")),
            "y",
            ConfigError,
            "observational event rate for 'e' must lie strictly inside (0, 1), got 0.0",
        ),
        ((_gauss("x", "z"), _gauss("y", "x"), _gauss("z", "y")), "y", GraphError, "directed cycle"),
    ],
    ids=["two-mechanisms", "target-without-mechanism", "unknown-parent", "event-rate", "cycle"],
)
def test_scm_validation(mechanisms, target, error, message):
    # the graph is read off the mechanisms, so each fault is one of theirs
    with pytest.raises(error, match=re.escape(message)):
        SCMSpec(mechanisms, target)


def test_scm_graph_is_read_off_the_mechanisms():
    scm = SCMSpec((_gauss("b", "c"), _gauss("a", "b", "c"), _gauss("c")), target="a")
    # nodes in the given order, which is not a topological one
    assert scm.dag == Dag(("b", "a", "c"), {("c", "b"), ("b", "a"), ("c", "a")})
    assert scm.target == "a"


def test_environment_validation():
    with pytest.raises(ConfigError):
        EnvironmentSpec(label="a", treatment="red", n_fields=0)
    rep = Mechanism(node="plough", kind="bernoulli_event", base_rate=0.0)
    with pytest.raises(ConfigError):
        EnvironmentSpec(label="a", treatment="red", interventions=(rep, rep))


# --- benchmark shape --------------------------------------------------------


def test_benchmark_composition():
    scm, envs = default_farm_benchmark()
    # the mechanisms' order is the column order of every sampled table
    assert scm.dag.nodes == (
        "fertilize", "manure", "lime", "graze", "mow", "pesticide", "plough",
        "moisture", "ph", "total_n", "total_c", "som",
    )
    assert scm.dag.edges == frozenset({
        ("plough", "ph"), ("lime", "ph"),
        ("fertilize", "total_n"), ("manure", "total_n"), ("graze", "total_n"),
        ("ph", "total_c"), ("total_n", "total_c"), ("moisture", "total_c"),
        ("total_c", "som"), ("mow", "som"), ("plough", "som"),
    })
    assert scm.target == "total_c"
    by_treatment = {}
    for e in envs:
        by_treatment.setdefault(e.treatment, []).append(e)
    assert {t: len(v) for t, v in by_treatment.items()} == {"red": 7, "blue": 8, "green": 7}
    assert len({e.label for e in envs}) == 22
    assert len({e.seed for e in envs}) == 22
    for e in envs:
        assert e.intervened == frozenset({"plough"})
        (rep,) = e.interventions
        assert rep.base_rate == (0.0 if e.treatment == "green" else 1.0)


def test_benchmark_edges_present():
    scm, _ = default_farm_benchmark()
    need = {
        ("plough", "ph"),
        ("lime", "ph"),
        ("fertilize", "total_n"),
        ("manure", "total_n"),
        ("graze", "total_n"),
        ("ph", "total_c"),
        ("total_n", "total_c"),
        ("moisture", "total_c"),
        ("total_c", "som"),
        ("mow", "som"),
        ("plough", "som"),
    }
    assert scm.dag.edges == frozenset(need)
    # pesticide is deliberate noise: no edges at all
    assert not any("pesticide" in e for e in scm.dag.edges)


def test_targets_by_treatment():
    _, envs = default_farm_benchmark()
    tags = targets_by_treatment(envs)
    assert tags == {
        "red": frozenset({"plough"}),
        "blue": frozenset({"plough"}),
        "green": frozenset({"plough"}),
    }
    bad = [
        EnvironmentSpec(label="a", treatment="red"),
        EnvironmentSpec(
            label="b",
            treatment="red",
            interventions=(Mechanism(node="plough", kind="bernoulli_event", base_rate=0.5),),
        ),
    ]
    with pytest.raises(ConfigError):
        targets_by_treatment(bad)


# --- sampling ---------------------------------------------------------------


def test_sampling_deterministic():
    scm, envs = default_farm_benchmark()
    a = sample_environment(scm, envs[0])
    b = sample_environment(scm, envs[0])
    assert a.equals(b)


def test_sampling_field_stream_independent_of_sibling_count():
    scm, envs = default_farm_benchmark()
    solo = EnvironmentSpec(
        label="z", treatment="red", interventions=envs[0].interventions, n_fields=1,
        n_days=30, seed=123,
    )
    pair = EnvironmentSpec(
        label="z", treatment="red", interventions=envs[0].interventions, n_fields=2,
        n_days=30, seed=123,
    )
    t1 = sample_environment(scm, solo)
    t2 = sample_environment(scm, pair)
    first = t2.rows[t2.field_id == "z-0"]
    np.testing.assert_array_equal(t1.rows, first)


def test_sampling_seed_changes_output():
    scm, envs = default_farm_benchmark()
    from dataclasses import replace

    a = sample_environment(scm, envs[0])
    b = sample_environment(scm, replace(envs[0], seed=envs[0].seed + 1))
    assert not np.array_equal(a.rows, b.rows)


def test_intervention_pins_plough():
    scm, envs = default_farm_benchmark()
    table = sample_environments(scm, envs)
    plough = table.column("plough")
    green = table.treatment == "green"
    assert np.all(plough[green] == 0.0)
    assert np.all(plough[~green] == 1.0)


def test_samples_are_model_ready():
    scm, envs = default_farm_benchmark()
    table = sample_environments(scm, envs[:3])
    validate_model_ready(table)
    kinds = {s.name: s.kind for s in table.schema}
    assert kinds["plough"] == "event_count"
    assert kinds["ph"] == "continuous"
    assert table.target == "total_c"


def test_sample_environments_rejects_duplicate_labels():
    scm, envs = default_farm_benchmark()
    with pytest.raises(ConfigError):
        sample_environments(scm, [envs[0], envs[0]])


def test_replacement_cannot_create_cycle():
    scm = _chain_scm()
    loop = Mechanism(
        node="x", kind="linear_gaussian", parents=("y",), weights=(1.0,), noise_sd=1.0
    )
    env = EnvironmentSpec(label="a", treatment="red", interventions=(loop,), n_days=5)
    with pytest.raises(GraphError):
        sample_environment(scm, env)


def test_unknown_intervention_target_rejected():
    scm = _chain_scm()
    rogue = Mechanism(node="zz", kind="bernoulli_event", base_rate=0.5)
    env = EnvironmentSpec(label="a", treatment="red", interventions=(rogue,), n_days=5)
    with pytest.raises(ConfigError):
        sample_environment(scm, env)


# --- statistical ground truth ----------------------------------------------


def test_linear_mechanism_slope_recovered():
    scm = _chain_scm(weight=2.0, sd=0.01)
    env = EnvironmentSpec(label="a", treatment="red", n_days=10_000, seed=7)
    t = sample_environment(scm, env)
    x, y = t.column("x"), t.column("y")
    slope = np.cov(x, y, ddof=1)[0, 1] / np.var(x, ddof=1)
    assert 1.98 <= slope <= 2.02


def test_root_moments_converge():
    scm, _ = default_farm_benchmark()
    env = EnvironmentSpec(
        label="obs", treatment="obs", interventions=(), n_days=10_000, seed=11
    )
    t = sample_environment(scm, env)
    m = t.column("moisture")
    assert abs(m.mean() - 0.5) < 3 * 0.08 / np.sqrt(t.n)
    assert abs(m.std(ddof=1) - 0.08) < 0.003
    for name in ("fertilize", "plough"):
        p = EVENT_RATES[name]
        se = np.sqrt(p * (1 - p) / t.n)
        assert abs(t.column(name).mean() - p) < 4 * se


def test_logistic_event_conditional_rates():
    mechs = (
        Mechanism(node="x", kind="bernoulli_event", base_rate=0.5),
        Mechanism(
            node="y",
            kind="bernoulli_event",
            parents=("x",),
            weights=(3.0,),
            base_rate=0.2,
        ),
    )
    scm = SCMSpec(mechs, target="y")
    env = EnvironmentSpec(label="a", treatment="red", n_days=20_000, seed=3)
    t = sample_environment(scm, env)
    x, y = t.column("x"), t.column("y")
    p0 = y[x == 0].mean()
    p1 = y[x == 1].mean()
    want1 = 1.0 / (1.0 + np.exp(-(np.log(0.2 / 0.8) + 3.0)))
    assert abs(p0 - 0.2) < 0.015
    assert abs(p1 - want1) < 0.015


def test_do_plough_zero_leaves_nondescendants_invariant():
    scm, _ = default_farm_benchmark()
    n = 5000
    obs = sample_environment(
        scm, EnvironmentSpec(label="o", treatment="obs", n_days=n, seed=21)
    )
    off = Mechanism(node="plough", kind="bernoulli_event", base_rate=0.0)
    cut = sample_environment(
        scm,
        EnvironmentSpec(label="c", treatment="cut", interventions=(off,), n_days=n, seed=22),
    )
    crit = 1.6276 * np.sqrt(2.0 / n)
    for name in ("moisture", "total_n", "graze"):
        d = spstats.ks_2samp(obs.column(name), cut.column(name)).statistic
        assert d < crit, f"{name}: KS={d:.4f} crit={crit:.4f}"
    # and the descendants DO move, clearly
    for name in ("ph", "total_c", "som"):
        d = spstats.ks_2samp(obs.column(name), cut.column(name)).statistic
        assert d > crit


def test_green_carbon_shift_matches_path_product():
    scm, envs = default_farm_benchmark()
    from dataclasses import replace

    big = [replace(e, n_days=2000) for e in envs if e.label in ("red00", "green00")]
    t = sample_environments(scm, big)
    tc = t.column("total_c")
    green = t.treatment == "green"
    shift = tc[green].mean() - tc[~green].mean()
    # plough 1 -> 0 lifts ph by 0.8, which lifts carbon by 0.8 * 0.6
    assert abs(shift - 0.48) < 0.05


def test_analytic_covariance_matches_sampling():
    scm, _ = default_farm_benchmark()
    sigma = analytic_covariance(scm)
    env = EnvironmentSpec(label="o", treatment="obs", n_days=50_000, seed=5)
    t = sample_environment(scm, env)
    hat = np.cov(t.rows, rowvar=False, ddof=1)
    d = np.sqrt(np.diag(sigma))
    corr = sigma / np.outer(d, d)
    dh = np.sqrt(np.diag(hat))
    corr_hat = hat / np.outer(dh, dh)
    assert np.max(np.abs(corr - corr_hat)) < 0.02
    # spot-check a closed form: var(ph) = .8^2 p(1-p) + .5^2 q(1-q) + .1^2
    p, q = EVENT_RATES["plough"], EVENT_RATES["lime"]
    i = scm.dag.nodes.index("ph")
    want = 0.64 * p * (1 - p) + 0.25 * q * (1 - q) + 0.01
    assert abs(sigma[i, i] - want) < 1e-12


def test_analytic_covariance_overrides_and_errors():
    scm, _ = default_farm_benchmark()
    sigma = analytic_covariance(scm, {"plough": 0.0})
    i = scm.dag.nodes.index("plough")
    j = scm.dag.nodes.index("ph")
    assert sigma[i, i] == 0.0
    assert abs(sigma[j, j] - (0.25 * 0.03 * 0.97 + 0.01)) < 1e-12
    with pytest.raises(ConfigError):
        analytic_covariance(scm, {"nope": 0.5})
    with pytest.raises(ConfigError):
        analytic_covariance(scm, {"ph": 0.5})
    mechs = (
        Mechanism(node="x", kind="bernoulli_event", base_rate=0.5),
        Mechanism(
            node="y", kind="bernoulli_event", parents=("x",), weights=(1.0,), base_rate=0.2
        ),
    )
    scm2 = SCMSpec(mechs, target="y")
    with pytest.raises(ConfigError):
        analytic_covariance(scm2)


# --- ground-truth graph helpers ---------------------------------------------


def test_true_cpdag_fully_oriented_on_benchmark():
    scm, _ = default_farm_benchmark()
    pat = true_cpdag(scm)
    assert pat.undirected == frozenset()
    assert pat.directed == scm.dag.edges


def test_true_cpdag_chain_stays_undirected():
    mechs = (
        Mechanism(node="a", kind="linear_gaussian", noise_sd=1.0),
        Mechanism(
            node="b", kind="linear_gaussian", parents=("a",), weights=(1.0,), noise_sd=1.0
        ),
        Mechanism(
            node="c", kind="linear_gaussian", parents=("b",), weights=(1.0,), noise_sd=1.0
        ),
    )
    scm = SCMSpec(mechs, target="c")
    pat = true_cpdag(scm)
    assert pat.directed == frozenset()
    assert pat.undirected == frozenset({("a", "b"), ("b", "c")})


def test_ancestral_subsets_against_brute_force():
    scm, _ = default_farm_benchmark()
    dag = scm.dag
    got = set(ancestral_subsets(dag, 5))
    from itertools import combinations

    want = set()
    for r in range(1, 6):
        for combo in combinations(dag.nodes, r):
            if is_ancestrally_closed(dag, combo):
                want.add(combo)
    assert got == want
    assert all(is_ancestrally_closed(dag, s) for s in got)
    # ph needs both its parents before it can appear
    assert ("ph",) not in got
    assert ("lime", "ph", "plough") in {tuple(sorted(s)) for s in got}


def test_induced_subdag_and_closure():
    scm, _ = default_farm_benchmark()
    sub = induced_subdag(scm.dag, ("plough", "lime", "ph"))
    assert set(sub.nodes) == {"plough", "lime", "ph"}
    assert sub.edges == frozenset({("plough", "ph"), ("lime", "ph")})
    assert not is_ancestrally_closed(scm.dag, ("ph",))
    with pytest.raises(GraphError):
        is_ancestrally_closed(scm.dag, ("ph", "zzz"))
