"""Constraint- and score-based structure learning over tabular data.

Three learners share one vocabulary: ``pc`` prunes a complete graph with
conditional-independence tests, ``ges`` grows and prunes a DAG greedily
under a Gaussian BIC, and ``gies`` extends the greedy search with
interventional scores, an edge-turning phase, and orientations forced by
which nodes each treatment manipulated.

All three canonicalize to name-sorted column order internally, so the
result is bit-identical under any permutation of the input columns.

PC freezes the adjacencies of each level (PC-stable), so every test of a
level is known before any result is read: the level is evaluated as one
batch and its verdicts are read as arrays.  Each pair's first separating
set is found by a search on the mask of independent triples, and the
triples a sequential loop would run, each pair's up to that set, are read
as one mask.  ``ci_tests`` and the warning counters count only those
triples, and an error is raised at the first of them that fails, so every
number and error is the sequential loop's.

``ges`` and ``gies`` share one greedy core.  It runs on the index labels
0..d-1 of the name-sorted columns, so the graph algebra breaks ties exactly
as it would on the names, and names the final pattern once.  One scorer
serves both: a node's local BIC comes from the rows where that node was not
manipulated (every row for ``ges``).  The core keeps, per node, the sorted
insertions that pass every check local to that node and rebuilds a node's
list only when its neighbourhood changes (as in fGES); the global
semi-directed-path check runs lazily along the merged order.  A node's
list is enumerated by groups: the candidate parents x with one set of
neighbours NA(y, x) share every (T, base) and its score and clique check,
and each x adds only its own grown parent set.  Patterns, sepsets, counts,
sweeps and scores are those of evaluating everything afresh, one candidate
at a time, at every step.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .graphs import (
    Cpdag,
    Dag,
    _neighbour_maps,
    consistent_extension,
    cpdag_of,
    meek_closure,
    reachable,
)
from .stats import (
    CIBatch,
    GaussianSuffStat,
    WarningCounter,
    bic_local_stats,
    suff_stat,
)

_GAIN_TOL = 1e-9
_MAX_SWEEPS = 50


@dataclass(frozen=True)
class DiscoveryConfig:
    alpha: float = 0.05
    max_cond_size: int = 3
    max_parents: int = 5
    use_interventions: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError("alpha must lie in (0, 1)")
        if self.max_cond_size < 0:
            raise ConfigError("max_cond_size must be >= 0")
        if self.max_parents < 1:
            raise ConfigError("max_parents must be >= 1")


# ---------------------------------------------------------------------------
# PC
# ---------------------------------------------------------------------------


def _pc_core(names, level_tests, max_cond_size):
    """Edge pruning with level-frozen adjacencies (PC-stable), then collider
    orientation and closure.

    Each level's (i, j, S) triples are gathered in the sequential order:
    pairs in index order, S over i's side then j's, each S once per pair.
    ``level_tests(triples)`` evaluates them in one batch and returns
    ``(stop, read)``: the mask of triples that separate their pair, and
    ``read(mask)``, which reads the masked triples in order, counting their
    fallbacks and raising at the first that fails.  The triples read are
    those a sequential loop would run, each pair's up to its first
    separating set (the first stop at or after the pair's first triple), so
    the test count, the fallback counters and any error are the sequential
    ones.
    """
    d = len(names)
    adj = [set(range(d)) - {k} for k in range(d)]
    sepset: dict[tuple[int, int], frozenset] = {}
    tests = 0

    for level in range(max_cond_size + 1):
        frozen = [sorted(a) for a in adj]
        triples, spans = [], []
        for i in range(d):
            for j in frozen[i]:
                if j < i:
                    continue
                start, seen = len(triples), set()
                for side, other in ((i, j), (j, i)):
                    pool = [k for k in frozen[side] if k != other]
                    for S in itertools.combinations(pool, level):
                        if S not in seen:
                            seen.add(S)
                            triples.append((i, j, *S))
                spans.append((start, len(triples)))
        if not triples:
            break
        stop, read = level_tests(triples)
        starts, ends = np.array(spans, dtype=np.intp).T
        stops = np.append(np.flatnonzero(stop), len(triples))
        first = stops[np.searchsorted(stops, starts)]
        found = first < ends
        last = np.where(found, first, ends - 1)
        # triple k is read when it does not lie past its pair's last read
        mask = np.arange(len(triples)) <= np.repeat(last, ends - starts)
        read(mask)
        tests += int(np.count_nonzero(mask))
        for k in first[found].tolist():
            i, j, *S = triples[k]
            sepset[(i, j)] = frozenset(S)
            adj[i].discard(j)
            adj[j].discard(i)

    # v-structures: a - c - b with a, b non-adjacent and c outside their
    # separating set.  Proposals applied in sorted order; an orientation is
    # skipped rather than allowed to contradict an earlier one or close a
    # directed cycle.
    proposals = []
    for c in range(d):
        for a, b in itertools.combinations(sorted(adj[c]), 2):
            if b in adj[a]:
                continue
            if c not in sepset.get((min(a, b), max(a, b)), frozenset()):
                proposals.append((a, c))
                proposals.append((b, c))
    directed: set[tuple[int, int]] = set()
    children = [set() for _ in range(d)]
    for x, y in sorted(set(proposals)):
        if (y, x) in directed or x in reachable(children.__getitem__, y):
            continue
        directed.add((x, y))
        children[x].add(y)

    directed_named = frozenset((names[x], names[y]) for x, y in directed)
    skeleton = {(min(i, j), max(i, j)) for i in range(d) for j in adj[i]}
    undirected_named = frozenset(
        (names[i], names[j])
        for i, j in skeleton
        if (i, j) not in directed and (j, i) not in directed
    )
    sep_named = {
        (names[i], names[j]): tuple(sorted(names[k] for k in S))
        for (i, j), S in sepset.items()
    }
    pat = Cpdag(
        tuple(names),
        directed_named,
        undirected_named,
        meta={"sepsets": sep_named, "ci_tests": tests},
    )
    out = meek_closure(pat)
    out.meta.update(pat.meta)
    return out


def pc(
    table,
    config: DiscoveryConfig | None = None,
    columns=None,
    *,
    warn: WarningCounter,
) -> Cpdag:
    """PC over Fisher-z tests on the table's Gaussian statistic."""
    cfg = config or DiscoveryConfig()
    names = tuple(sorted(columns if columns is not None else table.names))
    stat = suff_stat(table, names)

    def level_tests(triples):
        batch = CIBatch(stat, triples)
        return batch.independent(cfg.alpha), lambda mask: batch.read(mask, warn=warn)

    return _pc_core(names, level_tests, cfg.max_cond_size)


# ---------------------------------------------------------------------------
# greedy BIC search (observational and interventional)
# ---------------------------------------------------------------------------


class _Scorer:
    """Cached local scores, one sufficient statistic per scored node.

    Node i's statistic comes from the rows where i was not manipulated
    (Hauser & Buehlmann 2012); without ``row_targets`` that is every row.
    Nodes with the same rows share one statistic.  A node left with fewer
    than 2 rows scores 0 and is counted once on ``warn``.
    """

    def __init__(self, table, names, row_targets, warn: WarningCounter):
        data = table.matrix(names)
        if row_targets is not None and len(row_targets) != len(data):
            raise ConfigError("one intervention-target set required per row")
        self.warn = warn
        self.cache: dict[tuple[int, frozenset], float] = {}
        self.stats: list[GaussianSuffStat | None] = []
        shared: dict[bytes | None, GaussianSuffStat | None] = {}
        if row_targets is not None:
            # one mask per distinct target set, indexed by row
            target_sets = {t: k for k, t in enumerate(dict.fromkeys(row_targets))}
            row_set = np.array([target_sets[t] for t in row_targets], dtype=np.intp)
        for name in names:
            keep = None
            if row_targets is not None:
                keep = np.array([name not in t for t in target_sets], dtype=bool)[row_set]
            key = None if keep is None or keep.all() else keep.tobytes()
            if key not in shared:
                rows = data if key is None else data[keep]
                shared[key] = suff_stat(rows, names) if key is None or len(rows) >= 2 else None
            if shared[key] is None:
                warn.empty_interventional += 1
            self.stats.append(shared[key])

    def local(self, y: int, parents: frozenset) -> float:
        key = (y, parents)
        if key not in self.cache:
            self.prefetch(y, [parents])
        return self.cache[key]

    def prefetch(self, y: int, parent_sets) -> None:
        """Score the parent sets of y that are not cached yet, in one batch."""
        missing = [p for p in dict.fromkeys(parent_sets) if (y, p) not in self.cache]
        if missing:
            st = self.stats[y]
            scores = [0.0] * len(missing) if st is None else bic_local_stats(y, missing, st, warn=self.warn)
            self.cache.update(zip([(y, p) for p in missing], scores))


_NEIGHBOR_SET_CAP = 3  # largest T/H subset tried per insert/delete candidate


class _State:
    """Mutable view of the current equivalence-class pattern over the index
    labels 0..d-1.  ``pa`` holds directed in-neighbors only, ``ch`` directed
    out-neighbors, ``und`` the undirected neighborhoods, ``adj`` their
    union."""

    def __init__(self, d: int, intervened):
        self.nodes = tuple(range(d))
        self.intervened = frozenset(intervened)
        self.pa = [set() for _ in range(d)]
        self.ch = [set() for _ in range(d)]
        self.und = [set() for _ in range(d)]
        self.adj = [set() for _ in range(d)]
        # y -> (insert_key(y), y's sorted locally valid insertions)
        self.inserts: dict[int, tuple[tuple, list]] = {}

    def load(self, pattern: Cpdag):
        for s in (*self.pa, *self.ch, *self.und, *self.adj):
            s.clear()
        for i, j in pattern.directed:
            self.pa[j].add(i)
            self.ch[i].add(j)
            self.adj[i].add(j)
            self.adj[j].add(i)
        for i, j in pattern.undirected:
            self.und[i].add(j)
            self.und[j].add(i)
            self.adj[i].add(j)
            self.adj[j].add(i)

    def insert_key(self, y: int) -> tuple:
        """Everything y's candidate insertions Insert(x, y, T) and their
        local checks read: y's parents, neighbours and adjacencies, and the
        adjacencies of y's neighbours."""
        return (
            frozenset(self.pa[y]),
            frozenset(self.adj[y]),
            tuple((n, frozenset(self.adj[n])) for n in sorted(self.und[y])),
        )

    def pattern(self) -> Cpdag:
        return Cpdag(self.nodes, *self.edge_sets())

    def complete(self, directed, undirected) -> Cpdag:
        """Orient a PDAG into a class member, then re-project to the
        (interventional) pattern of that member's class."""
        ext = consistent_extension(Cpdag(self.nodes, directed, undirected))
        return cpdag_of(ext, self.intervened)

    def edge_sets(self):
        directed = {(i, j) for j in self.nodes for i in self.pa[j]}
        undirected = {(min(i, j), max(i, j)) for i in self.nodes for j in self.und[i]}
        return directed, undirected


def _is_clique(nodes, adj) -> bool:
    members = sorted(nodes)
    return all(
        b in adj[a] for a, b in itertools.combinations(members, 2)
    )


def _subsets(pool, cap):
    pool = sorted(pool)
    for size in range(0, min(len(pool), cap) + 1):
        yield from itertools.combinations(pool, size)


def _local_inserts(st: _State, sc: _Scorer, y: int, max_parents) -> list:
    """Insert(x, y, T) candidates that pass every check local to y, as
    sorted (-gain, x, y, T, base) tuples: gain above tolerance, at most
    ``max_parents`` parents, and base = NA(y, x) | T a clique.

    NA(y, x), the neighbours of y adjacent to x, fixes the pool of T (y's
    other neighbours), so the x with one NA share every (base, T): each
    such pair builds its sets, scores its base and checks its clique once,
    and only ``scored | {x}`` varies per x."""
    pa_y, und_y = frozenset(st.pa[y]), st.und[y]
    by_na: dict[frozenset, list] = {}
    for x in st.nodes:
        if x != y and x not in st.adj[y]:
            by_na.setdefault(frozenset(und_y & st.adj[x]), []).append(x)
    groups, wanted = [], []
    for na, xs in by_na.items():
        for t in _subsets(und_y - na, _NEIGHBOR_SET_CAP):
            base = na | set(t)
            scored = pa_y | base
            if len(scored) + 1 <= max_parents:
                grown = [scored | {x} for x in xs]
                groups.append((t, base, scored, xs, grown))
                wanted += grown
                wanted.append(scored)
    sc.prefetch(y, wanted)
    out = []
    for t, base, scored, xs, grown in groups:
        score = sc.local(y, scored)
        clique = None
        for x, g in zip(xs, grown):
            gain = sc.local(y, g) - score
            if gain > _GAIN_TOL:
                if clique is None:
                    clique = _is_clique(base, st.adj)
                if clique:
                    out.append((-gain, x, y, t, base))
    out.sort()
    return out


def _insert_candidates(st: _State, sc: _Scorer, max_parents):
    """Best valid single-edge insertion, Chickering-style: Insert(x, y, T).

    Each node's locally valid candidates are kept sorted and recomputed only
    when its ``insert_key`` changes (as in fGES).  The global check, that
    every semi-directed path y ~> x (directed edges forward, undirected
    either way) passes through base, is applied along the merged order, so
    the first candidate that passes is the minimum of (-gain, x, y, T) over
    all valid insertions."""
    per_node = []
    for y in st.nodes:
        key = st.insert_key(y)
        cached = st.inserts.get(y)
        if cached is None or cached[0] != key:
            cached = st.inserts[y] = (key, _local_inserts(st, sc, y, max_parents))
        per_node.append(cached[1])

    def semi(u):
        return itertools.chain(st.und[u], st.ch[u])

    reach = {}
    for cand in heapq.merge(*per_node):
        _, x, y, t, base = cand
        if (y, base) not in reach:
            reach[(y, base)] = reachable(semi, y, base)
        if x not in reach[(y, base)]:
            return cand[:4], x, y, t
    return None


def _delete_candidates(st: _State, sc: _Scorer):
    """Valid single-edge deletions: Delete(x, y, H)."""
    best = None
    pairs = []
    for y in st.nodes:
        for x in st.pa[y]:
            pairs.append((x, y))
        for x in st.und[y]:
            pairs.append((x, y))  # both roles of an undirected edge appear
    for x, y in sorted(pairs):
        pa_y = frozenset(st.pa[y])
        na = frozenset(n for n in st.und[y] if n in st.adj[x])
        for h in _subsets(na, _NEIGHBOR_SET_CAP):
            keep = na - set(h)
            scored = (pa_y | keep) - {x}
            gain = sc.local(y, scored) - sc.local(y, scored | {x})
            if gain <= _GAIN_TOL:
                continue
            cand = (-gain, x, y, h)
            if best is not None and cand >= best[0]:
                continue
            if not _is_clique(keep, st.adj):
                continue
            best = (cand, x, y, h)
    return best


def _apply_insert(st: _State, x, y, t):
    directed, undirected = st.edge_sets()
    directed.add((x, y))
    for n in t:
        undirected.discard((min(n, y), max(n, y)))
        directed.add((n, y))
    return st.complete(directed, undirected)


def _apply_delete(st: _State, x, y, h):
    directed, undirected = st.edge_sets()
    directed.discard((x, y))
    undirected.discard((min(x, y), max(x, y)))
    for n in h:
        if (min(n, y), max(n, y)) in undirected:
            undirected.discard((min(n, y), max(n, y)))
            directed.add((y, n))
        if (min(n, x), max(n, x)) in undirected:
            undirected.discard((min(n, x), max(n, x)))
            directed.add((x, n))
    return st.complete(directed, undirected)


def _forward_phase(st: _State, sc, cfg) -> bool:
    changed = False
    while True:
        got = _insert_candidates(st, sc, cfg.max_parents)
        if got is None:
            return changed
        _, x, y, t = got
        st.load(_apply_insert(st, x, y, t))
        changed = True


def _backward_phase(st: _State, sc) -> bool:
    changed = False
    while True:
        got = _delete_candidates(st, sc)
        if got is None:
            return changed
        _, x, y, h = got
        st.load(_apply_delete(st, x, y, h))
        changed = True


def _turning_phase(st: _State, sc, cfg) -> bool:
    """Reverse directed edges of a class representative whenever the swap
    strictly improves the (interventional) score and keeps acyclicity."""
    changed = False
    while True:
        ext = consistent_extension(st.pattern())
        _, pa, ch, _ = _neighbour_maps(ext.edges, ())

        best = None
        for a, b in sorted(ext.edges):
            if len(pa[a]) + 1 > cfg.max_parents:
                continue
            # reversing a -> b closes a cycle when another parent of b
            # descends from a
            if (pa[b] - {a}) & reachable(ch.__getitem__, a):
                continue
            pa_b, pa_a = frozenset(pa[b]), frozenset(pa[a])
            gain = (
                sc.local(b, pa_b - {a})
                + sc.local(a, pa_a | {b})
                - sc.local(b, pa_b)
                - sc.local(a, pa_a)
            )
            if gain > _GAIN_TOL:
                cand = (-gain, a, b)
                if best is None or cand < best:
                    best = cand
        if best is None:
            return changed
        _, a, b = best
        edges = (ext.edges - {(a, b)}) | {(b, a)}
        st.load(cpdag_of(Dag(ext.nodes, edges), st.intervened))
        changed = True


def _greedy_search(table, columns, cfg, row_targets, warn) -> Cpdag:
    """The search behind ``ges`` (no ``row_targets``) and ``gies``.

    It runs on the index labels of the name-sorted columns and names the
    final pattern once; index order is name order, so every label-order
    tie-break of the graph algebra is the one over names.  With row targets
    the score is interventional, edges at manipulated nodes keep their
    orientation, and a turning phase follows the forward and backward
    phases until a sweep changes nothing."""
    names = tuple(sorted(columns if columns is not None else table.names))
    sc = _Scorer(table, names, row_targets, warn)
    turning = row_targets is not None
    intervened = frozenset().union(*row_targets) if turning else frozenset()
    st = _State(len(names), (k for k, n in enumerate(names) if n in intervened))
    sweeps = 0
    for sweeps in range(1, _MAX_SWEEPS + 1):
        before = st.edge_sets()
        moved = _forward_phase(st, sc, cfg)
        moved |= _backward_phase(st, sc)
        if turning:
            moved |= _turning_phase(st, sc, cfg)
        if not turning or not moved or st.edge_sets() == before:
            break
    directed, undirected = st.edge_sets()
    return Cpdag(
        names,
        {(names[i], names[j]) for i, j in directed},
        {(names[i], names[j]) for i, j in undirected},
        meta={"sweeps": sweeps},
    )


def ges(
    table,
    config: DiscoveryConfig | None = None,
    columns=None,
    *,
    warn: WarningCounter,
) -> Cpdag:
    """Greedy DAG-space grow/prune under the Gaussian BIC, reported as the
    pattern of the final graph's equivalence class."""
    return _greedy_search(table, columns, config or DiscoveryConfig(), None, warn)


def per_row_targets(table, intervention_targets) -> list[frozenset]:
    """Expand a treatment -> intervened-nodes mapping to one set per row."""
    mapping = {
        str(t): frozenset(nodes) for t, nodes in (intervention_targets or {}).items()
    }
    unknown = sorted(
        n for s in mapping.values() for n in s if n not in set(table.names)
    )
    if unknown:
        raise ConfigError(f"intervention targets name unknown columns {unknown}")
    return [mapping.get(t, frozenset()) for t in table.treatment]


def gies(
    table,
    config: DiscoveryConfig | None = None,
    intervention_targets=None,
    columns=None,
    *,
    warn: WarningCounter,
) -> Cpdag:
    """Greedy search under per-node interventional scores with a turning
    phase, iterated to a fixed point.  Without any interventions on the
    searched columns this is exactly ``ges``."""
    cfg = config or DiscoveryConfig()
    if cfg.use_interventions and intervention_targets is None:
        raise ConfigError(
            "use_interventions=True needs a treatment -> manipulated-columns "
            "mapping; pass {} when no rows were manipulated"
        )
    rows = per_row_targets(table, intervention_targets)
    intervened = frozenset().union(*rows) & set(columns if columns is not None else table.names)
    if not cfg.use_interventions or not intervened:
        return ges(table, cfg, columns=columns, warn=warn)

    out = _greedy_search(table, columns, cfg, rows, warn)
    out.meta["intervened"] = tuple(sorted(intervened))
    return out
