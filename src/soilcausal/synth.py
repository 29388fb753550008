"""Synthetic farm benchmark with known causal ground truth.

A structural causal model over daily management events and soil state,
sampled per field under per-treatment interventions on the ploughing
regime.  The generating graph and its equivalence-class pattern are
available to tests and benchmarks, so recovered structure and downstream
predictive claims can be checked against truth rather than eyeballed.

Sampling is ancestral: each node draws once per field in topological
order from a field-specific generator, which makes output byte-identical
for a fixed (environment seed, field index) regardless of how many other
environments are sampled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, require_count
from .graphs import Cpdag, Dag, cpdag_of, in_neighbors, topological_sort
from .ingest import ColumnSpec, Table, concat_tables
from .seeding import derive_seed

MECHANISM_KINDS = ("linear_gaussian", "bernoulli_event")
ROLES = ("management", "soil", "target")

_EPOCH = np.datetime64("2020-01-01")


@dataclass(frozen=True)
class Mechanism:
    """Generating equation for one node.

    linear_gaussian:  x = intercept + weights . parents + noise_sd * eps
    bernoulli_event:  x ~ Bern(sigmoid(logit(base_rate) + weights . parents)),
                      collapsing to a constant rate when there are no parents.

    ``base_rate`` may sit on the closed interval here because intervention
    replacements legitimately pin an event on (1.0) or off (0.0); the
    observational model itself is validated more strictly by SCMSpec.
    """

    node: str
    kind: str
    parents: tuple[str, ...] = ()
    weights: tuple[float, ...] = ()
    intercept: float = 0.0
    noise_sd: float = 0.0
    base_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in MECHANISM_KINDS:
            raise ConfigError(f"unknown mechanism kind {self.kind!r}")
        object.__setattr__(self, "parents", tuple(str(p) for p in self.parents))
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        if len(self.parents) != len(self.weights):
            raise ConfigError(
                f"mechanism for {self.node!r}: {len(self.parents)} parents "
                f"but {len(self.weights)} weights"
            )
        if len(set(self.parents)) != len(self.parents):
            raise ConfigError(f"mechanism for {self.node!r} repeats a parent")
        if self.node in self.parents:
            raise ConfigError(f"mechanism for {self.node!r} lists itself as parent")
        if self.kind == "linear_gaussian":
            if not self.noise_sd > 0.0:
                raise ConfigError(
                    f"mechanism for {self.node!r}: noise_sd must be > 0"
                )
        else:
            if not 0.0 <= self.base_rate <= 1.0:
                raise ConfigError(
                    f"mechanism for {self.node!r}: base_rate outside [0, 1]"
                )


@dataclass(eq=False)
class SCMSpec:
    """A DAG plus one mechanism per node and a role for each node."""

    dag: Dag
    mechanisms: tuple[Mechanism, ...]
    roles: dict[str, str]

    def __post_init__(self) -> None:
        self.mechanisms = tuple(self.mechanisms)
        by_node = {}
        for m in self.mechanisms:
            if m.node in by_node:
                raise ConfigError(f"two mechanisms for node {m.node!r}")
            by_node[m.node] = m
        if set(by_node) != set(self.dag.nodes):
            raise ConfigError("mechanisms do not cover the DAG nodes exactly")
        for node in self.dag.nodes:
            m = by_node[node]
            want = tuple(sorted(in_neighbors(self.dag, node)))
            if tuple(sorted(m.parents)) != want:
                raise ConfigError(
                    f"mechanism parents for {node!r} disagree with the graph: "
                    f"{sorted(m.parents)} vs {list(want)}"
                )
            if m.kind == "bernoulli_event" and not 0.0 < m.base_rate < 1.0:
                raise ConfigError(
                    f"observational event rate for {node!r} must lie strictly "
                    f"inside (0, 1), got {m.base_rate}"
                )
        if set(self.roles) != set(self.dag.nodes):
            raise ConfigError("roles do not cover the DAG nodes exactly")
        bad = sorted(v for v in set(self.roles.values()) if v not in ROLES)
        if bad:
            raise ConfigError(f"unknown roles {bad}; expected one of {ROLES}")
        targets = [n for n in self.dag.nodes if self.roles[n] == "target"]
        if len(targets) != 1:
            raise ConfigError(f"expected exactly one target node, got {targets}")
        self.target = targets[0]


@dataclass(frozen=True)
class EnvironmentSpec:
    """One sampled farm system: a label, interventions, and a size."""

    label: str
    treatment: str
    interventions: tuple[Mechanism, ...] = ()
    n_fields: int = 1
    n_days: int = 60
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "interventions", tuple(self.interventions))
        for name, least in (("n_fields", 1), ("n_days", 1), ("seed", 0)):
            value = getattr(self, name)
            require_count(value, least, f"{self.label!r}: {name} must be an int >= {least}, got {value!r}")
        seen = set()
        for m in self.interventions:
            if m.node in seen:
                raise ConfigError(f"environment {self.label!r} intervenes twice on {m.node!r}")
            seen.add(m.node)

    @property
    def intervened(self) -> frozenset:
        return frozenset(m.node for m in self.interventions)


def _resolved_mechanisms(scm: SCMSpec, env: EnvironmentSpec) -> dict[str, Mechanism]:
    """Observational mechanisms with the environment's replacements applied."""
    out = {m.node: m for m in scm.mechanisms}
    for m in env.interventions:
        if m.node not in out:
            raise ConfigError(
                f"environment {env.label!r} intervenes on unknown node {m.node!r}"
            )
        missing = sorted(set(m.parents) - set(scm.dag.nodes))
        if missing:
            raise ConfigError(
                f"replacement mechanism for {m.node!r} references unknown parents {missing}"
            )
        out[m.node] = m
    # A replacement may rewire parents; the mutilated graph must stay acyclic.
    edges = frozenset(
        (p, node) for node, m in out.items() for p in m.parents
    )
    Dag(scm.dag.nodes, edges)
    return out


def _sample_node(mech: Mechanism, cols: dict, n: int, rng: np.random.Generator) -> np.ndarray:
    if mech.kind == "linear_gaussian":
        vals = np.full(n, mech.intercept, dtype=np.float64)
        for p, w in zip(mech.parents, mech.weights):
            vals += w * cols[p]
        vals += mech.noise_sd * rng.standard_normal(n)
        return vals
    if mech.base_rate <= 0.0:
        p = np.zeros(n)
    elif mech.base_rate >= 1.0:
        p = np.ones(n)
    else:
        logit = np.log(mech.base_rate) - np.log1p(-mech.base_rate)
        eta = np.full(n, logit, dtype=np.float64)
        for par, w in zip(mech.parents, mech.weights):
            eta += w * cols[par]
        p = 1.0 / (1.0 + np.exp(-eta))
    return (rng.random(n) < p).astype(np.float64)


def _field_label(env: EnvironmentSpec, k: int) -> str:
    return env.label if env.n_fields == 1 else f"{env.label}-{k}"


def sample_environment(scm: SCMSpec, env: EnvironmentSpec) -> Table:
    """Draw every field of one environment into a model-ready table."""
    mechs = _resolved_mechanisms(scm, env)
    order = topological_sort(scm.dag)
    # Columns keep the SCM's declared node order, not the sampling order.
    specs = []
    for node in scm.dag.nodes:
        kind = "event_count" if mechs[node].kind == "bernoulli_event" else "continuous"
        specs.append(ColumnSpec(name=node, kind=kind))

    days = _EPOCH + np.arange(env.n_days)
    blocks, stamps, fids, trts = [], [], [], []
    for k in range(env.n_fields):
        rng = np.random.default_rng(derive_seed(env.seed, k))
        cols: dict[str, np.ndarray] = {}
        for node in order:
            cols[node] = _sample_node(mechs[node], cols, env.n_days, rng)
        blocks.append(np.column_stack([cols[n] for n in scm.dag.nodes]))
        stamps.append(days)
        fids.extend([_field_label(env, k)] * env.n_days)
        trts.extend([env.treatment] * env.n_days)

    return Table(
        schema=tuple(specs),
        rows=np.vstack(blocks),
        timestamps=np.concatenate(stamps),
        field_id=np.asarray(fids),
        treatment=np.asarray(trts),
        target=scm.target,
    )


def sample_environments(scm: SCMSpec, envs) -> Table:
    """Sample several environments and stack them into one table."""
    envs = list(envs)
    if not envs:
        raise ConfigError("no environments to sample")
    labels = [e.label for e in envs]
    if len(set(labels)) != len(labels):
        raise ConfigError("environment labels must be unique")
    return concat_tables([sample_environment(scm, e) for e in envs])


def true_cpdag(scm: SCMSpec) -> Cpdag:
    """Equivalence-class pattern of the generating DAG."""
    return cpdag_of(scm.dag)


def targets_by_treatment(envs) -> dict[str, frozenset]:
    """Which nodes each treatment intervenes on; errors on disagreement."""
    out: dict[str, frozenset] = {}
    for e in envs:
        hit = e.intervened
        if e.treatment in out and out[e.treatment] != hit:
            raise ConfigError(
                f"treatment {e.treatment!r} has inconsistent intervention sets"
            )
        out[e.treatment] = hit
    return out


# --- the default farm benchmark --------------------------------------------

EVENT_RATES = {
    "fertilize": 0.08,
    "manure": 0.05,
    "lime": 0.03,
    "graze": 0.12,
    "mow": 0.06,
    "pesticide": 0.04,
    "plough": 0.35,
}

BENCHMARK_NODES = (
    "fertilize",
    "manure",
    "lime",
    "graze",
    "mow",
    "pesticide",
    "plough",
    "moisture",
    "ph",
    "total_n",
    "total_c",
    "som",
)

TRAIN_TREATMENTS = ("red", "blue")
TEST_TREATMENT = "green"


def _event(node: str, rate: float) -> Mechanism:
    return Mechanism(node=node, kind="bernoulli_event", base_rate=rate)


def _linear(node: str, intercept: float, parents: dict, sd: float) -> Mechanism:
    names = tuple(sorted(parents))
    return Mechanism(
        node=node,
        kind="linear_gaussian",
        parents=names,
        weights=tuple(parents[p] for p in names),
        intercept=intercept,
        noise_sd=sd,
    )


def default_farm_benchmark(
    master_seed: int = 20200101, n_days: int = 60
) -> tuple[SCMSpec, list[EnvironmentSpec]]:
    """The 12-node grassland system and its 22 sampled environments.

    Management events act same-day on soil chemistry; organic carbon is the
    prediction target, and organic matter sits downstream of it (a child,
    not a cause - models that lean on it inherit a shifted relationship once
    ploughing stops).  The 15 training systems plough daily by intervention,
    the 7 held-out systems never plough, so test-time carbon runs roughly
    half a unit above anything seen in training.
    """
    mechanisms = [_event(n, r) for n, r in EVENT_RATES.items()]
    mechanisms.append(
        Mechanism(node="moisture", kind="linear_gaussian", intercept=0.5, noise_sd=0.08)
    )
    mechanisms.append(_linear("ph", 6.5, {"plough": -0.8, "lime": 0.5}, 0.10))
    mechanisms.append(
        _linear("total_n", 0.30, {"fertilize": 0.20, "manure": 0.15, "graze": 0.05}, 0.03)
    )
    mechanisms.append(
        _linear("total_c", 1.2, {"ph": 0.6, "total_n": 2.0, "moisture": 0.8}, 0.08)
    )
    mechanisms.append(
        _linear("som", 0.5, {"total_c": 1.6, "mow": 0.4, "plough": -0.5}, 0.05)
    )

    edges = frozenset(
        (p, m.node) for m in mechanisms for p in m.parents
    )
    dag = Dag(BENCHMARK_NODES, edges)
    roles = {n: ("management" if n in EVENT_RATES else "soil") for n in BENCHMARK_NODES}
    roles["total_c"] = "target"
    scm = SCMSpec(dag=dag, mechanisms=tuple(mechanisms), roles=roles)

    plough_on = Mechanism(node="plough", kind="bernoulli_event", base_rate=1.0)
    plough_off = Mechanism(node="plough", kind="bernoulli_event", base_rate=0.0)

    envs: list[EnvironmentSpec] = []
    counts = {"red": 7, "blue": 8, TEST_TREATMENT: 7}
    k = 0
    for treatment, n_envs in counts.items():
        repl = plough_off if treatment == TEST_TREATMENT else plough_on
        for j in range(n_envs):
            envs.append(
                EnvironmentSpec(
                    label=f"{treatment}{j:02d}",
                    treatment=treatment,
                    interventions=(repl,),
                    n_fields=1,
                    n_days=n_days,
                    seed=derive_seed(master_seed, k),
                )
            )
            k += 1
    return scm, envs
