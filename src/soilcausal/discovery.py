"""Constraint- and score-based structure learning over tabular data.

Three learners share one vocabulary: ``pc`` prunes a complete graph with
conditional-independence tests, ``ges`` grows and prunes a DAG greedily
under a Gaussian BIC, and ``gies`` extends the greedy search with
interventional scores, an edge-turning phase, and orientations forced by
which nodes each treatment manipulated.

All three search every column of the table they are given; a caller who
wants fewer narrows the table with ``ingest.select_columns``.  They
canonicalize to name-sorted column order internally, so the result is
bit-identical under any permutation of the input columns.

PC freezes the adjacencies of each level (PC-stable), so every test of a
level is known before any result is read.  The level's (i, j, S) triples
are built as one index array in the sequential order and evaluated in
rounds: each round is one batch holding the next 2, 6, 18, ... triples of
every pair whose separating set is not found yet, and its verdicts are
read as arrays.  A pair is so evaluated up to its first separating set and
at most twice as far again, not to the end of its list.  After the level,
the triples a sequential loop would run, each pair's up to that set, are
read in that loop's order.  ``ci_tests`` and the warning counters count
only those triples, and an error is raised at the first of them that
fails, even when a later pair failed in an earlier round, so every number
and error is the sequential loop's.

PC and the greedy core hold their graph as one ``graphs._Pdag``, whose
neighbour sets are bitmasks over the index labels 0..d-1 of the
name-sorted columns, and edit it in place; ``graphs.reachable`` is their
one reachability search.  PC prunes a boolean adjacency matrix level by
level, then builds the ``_Pdag`` of what is left, orients the colliders
and runs the Meek rules on it.  The greedy state is a pattern that pins
the columns some row intervenes on.  Each move edits a copy of it and
completes that copy in place with ``graphs.recomplete``, which re-reads
only the edges at the ends of the pairs that change.  A move checks
Chickering's validity conditions again first and raises ``GraphError``
when they fail.  The turning phase projects its turned extension with the
same ``recomplete``, over every edge.  No ``Dag`` or ``Cpdag`` is built on
the way; each learner names its result with ``graphs._labelled`` and
validates one ``Cpdag``.

``ges`` and ``gies`` share one greedy core.  It runs on the index labels,
so the graph algebra breaks ties exactly as it would on the names.  One
scorer serves both: a node's local BIC comes from the rows where that node
was not manipulated (every row for ``ges``).  Its one cache, which the
forward, backward and turning phases share, keys a score by (node,
bitmask of the parent set), and every phase passes its parent sets as
such bitmasks.  The forward phase keeps, per node, the sorted insertions
that pass every check local to that node (as in fGES), and the
semi-directed reach set of every (y, base) its global check met.  Each
step compares the state with the one the step before saw, node by node,
and drops only what the difference invalidates: the lists of the nodes
whose neighbourhood changed, and the reach sets holding a node whose
children or undirected neighbours changed.  The global check then runs
lazily along the merged order.  A node's list is enumerated by groups:
the candidate parents x with one set of neighbours NA(y, x) share every
(T, base) and its clique check and score, and each x adds only its own
grown parent set; a group whose base is not a clique is not scored.
Patterns, sepsets, counts, sweeps and scores are those of evaluating
every insert with a clique base afresh, one candidate at a time, at every
step.
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, GraphError, require_count, require_labels, require_level
from .graphs import (
    Cpdag,
    _canon,
    _extend,
    _indexed,
    _is_clique,
    _labelled,
    _mask,
    _meek,
    _members,
    _Pdag,
    reachable,
    recomplete,
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
        require_level(self.alpha, f"alpha must be a number in (0, 1), got {self.alpha!r}")
        for name, least in (("max_cond_size", 0), ("max_parents", 1)):
            value = getattr(self, name)
            require_count(value, least, f"{name} must be an int >= {least}, got {value!r}")


# ---------------------------------------------------------------------------
# PC
# ---------------------------------------------------------------------------


def _level_triples(adj: np.ndarray, level: int):
    """The (i, j, *S) rows of one level over the frozen adjacency matrix
    ``adj``, in the sequential order: pairs i < j in index order, S over the
    combinations of i's other neighbours and then of j's, each S once per
    pair.  Also returns each row's pair and each pair's row count."""
    pi, pj = np.nonzero(np.triu(adj, 1))
    combos = [list(itertools.combinations(np.flatnonzero(row).tolist(), level)) for row in adj]
    count = np.array([len(c) for c in combos], dtype=np.intp)
    combos = np.array([S for c in combos for S in c], dtype=np.intp).reshape(count.sum(), level)
    offset = np.cumsum(count) - count
    # the rows of i's combinations, then j's, for every pair
    seg_start = np.column_stack([offset[pi], offset[pj]]).ravel()
    seg_len = np.column_stack([count[pi], count[pj]]).ravel()
    seg_end = np.cumsum(seg_len)
    k = np.arange(seg_end[-1] if seg_end.size else 0) + np.repeat(seg_start - seg_end + seg_len, seg_len)
    S = combos[k]
    pair = np.repeat(np.arange(pi.size).repeat(2), seg_len)
    j_side = np.repeat(np.tile([False, True], pi.size), seg_len)
    i, j = pi[pair], pj[pair]
    # S leaves out the other end of the pair, and j's side drops the S that
    # i's side already holds: those inside i's neighbours
    keep = ~(S == np.where(j_side, i, j)[:, None]).any(axis=1)
    keep &= ~(j_side & adj[i[:, None], S].all(axis=1))
    triples = np.column_stack([i, j, S])[keep]
    return triples, pair[keep], np.bincount(pair[keep], minlength=pi.size)


def _pc_core(names, stat, separates, max_cond_size, warn):
    """Edge pruning with level-frozen adjacencies (PC-stable), then collider
    orientation and closure.

    Each level's (i, j, S) triples are gathered in the sequential order (see
    ``_level_triples``) and evaluated as ``CIBatch``es in rounds: round r
    takes the next 2 * 3^r triples of every pair whose separating set is
    not found yet, and ``separates(batch)`` marks the triples that separate
    their pair.  So a pair is evaluated up to its first separating set and
    at most twice as far again.  After the level the triples a sequential
    loop would run, each pair's up to its first separating set, are read in
    that loop's order: their fallbacks are counted on ``warn``, and the
    first of them that fails raises after the fallbacks before it.  The
    test count, the fallback counters and any error are the sequential
    ones.
    """
    d = len(names)
    adj = ~np.eye(d, dtype=bool)
    sepset: dict[tuple[int, int], frozenset] = {}
    tests = 0

    for level in range(max_cond_size + 1):
        triples, pair, count = _level_triples(adj, level)
        if not triples.size:
            break
        start = np.cumsum(count) - count
        rank = np.arange(len(pair)) - start[pair]  # a triple's place in its pair
        first = np.full(count.size, -1)  # each pair's first separating triple
        rounds, lo = [], 0
        while True:
            hi = 3 * lo + 2
            k = np.flatnonzero((first[pair] < 0) & (rank >= lo) & (rank < hi))
            if not k.size:
                break
            batch = CIBatch(stat, triples[k])
            hits = k[separates(batch)]
            pairs, at = np.unique(pair[hits], return_index=True)
            first[pairs] = hits[at]
            rounds.append((k, batch))
            lo = hi
        last = np.where(first >= 0, first, start + count - 1)
        read = np.arange(len(pair)) <= last[pair]
        fails = [k[read[k] & ~np.isfinite(batch.r)] for k, batch in rounds]
        stop = min((f[0] for f in fails if f.size), default=len(pair))
        # the round holding the first failure reads last, and raises
        for k, batch in sorted(rounds, key=lambda kb: stop in kb[0]):
            batch.read(read[k] & (k <= stop), warn=warn)
        tests += int(np.count_nonzero(read))
        for i, j, *S in triples[first[first >= 0]].tolist():
            sepset[(i, j)] = frozenset(S)
            adj[i, j] = adj[j, i] = False

    g = _Pdag(d, undirected=np.argwhere(np.triu(adj, 1)).tolist())

    # v-structures: a - c - b with a, b non-adjacent and c outside their
    # separating set.  Proposals applied in sorted order; an orientation is
    # skipped rather than allowed to contradict an earlier one or close a
    # directed cycle.
    proposals = set()
    for c in range(d):
        for a, b in itertools.combinations(_members(g.adj[c]), 2):
            if not g.adj[a] >> b & 1 and c not in sepset.get((a, b), ()):
                proposals.update(((a, c), (b, c)))
    for x, y in sorted(proposals):
        if not reachable(g.ch, y) >> x & 1:
            g.orient(x, y)
    _meek(g)

    sep_named = {
        (names[i], names[j]): tuple(sorted(names[k] for k in S))
        for (i, j), S in sepset.items()
    }
    return Cpdag(names, *_labelled(g, names), meta={"sepsets": sep_named, "ci_tests": tests})


def pc(table, config: DiscoveryConfig | None = None, *, warn: WarningCounter) -> Cpdag:
    """PC over Fisher-z tests on the Gaussian statistic of the table's columns."""
    cfg = config or DiscoveryConfig()
    names = tuple(sorted(table.names))
    stat = suff_stat(table, names)
    return _pc_core(names, stat, lambda batch: batch.independent(cfg.alpha), cfg.max_cond_size, warn)


# ---------------------------------------------------------------------------
# greedy BIC search (observational and interventional)
# ---------------------------------------------------------------------------


class _Scorer:
    """Cached local scores, one sufficient statistic per scored node.  The
    cache keys a score by (node, bitmask of its parents), and ``local`` and
    ``prefetch`` take parent sets as such bitmasks.

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
        self.cache: dict[tuple[int, int], float] = {}
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

    def local(self, y: int, parents: int) -> float:
        """The local score of y with the parent set (bitmask) ``parents``."""
        key = (y, parents)
        if key not in self.cache:
            self.prefetch(y, [parents])
        return self.cache[key]

    def prefetch(self, y: int, parent_sets) -> None:
        """Score the parent sets (bitmasks) of y that are not cached yet, in
        one batch."""
        missing = [p for p in dict.fromkeys(parent_sets) if (y, p) not in self.cache]
        if missing:
            st = self.stats[y]
            sets = [_members(p) for p in missing]
            scores = [0.0] * len(missing) if st is None else bic_local_stats(y, sets, st, warn=self.warn)
            self.cache.update(zip([(y, p) for p in missing], scores))


_NEIGHBOR_SET_CAP = 3  # largest T/H subset tried per insert/delete candidate


def _semi(g: _Pdag) -> list:
    """Each node's semi-directed successors, its children and undirected
    neighbours, as bitmasks."""
    return [c | u for c, u in zip(g.ch, g.und)]


def _subsets(pool, cap):
    pool = sorted(pool)
    for size in range(0, min(len(pool), cap) + 1):
        yield from itertools.combinations(pool, size)


def _local_inserts(st: _Pdag, sc: _Scorer, y: int, max_parents) -> list:
    """Insert(x, y, T) candidates that pass every check local to y, as
    sorted (-gain, x, y, T, base) tuples, base a bitmask: gain above
    tolerance, at most ``max_parents`` parents, and base = NA(y, x) | T a
    clique.

    NA(y, x), the neighbours of y adjacent to x, fixes the pool of T (y's
    other neighbours), so the x with one NA share every (base, T): each
    such pair builds its sets and checks its clique once, and only the
    pairs whose base is a clique score their base and ``scored | {x}``."""
    pa_y, und_y, adj_y = st.pa[y], st.und[y], st.adj[y]
    by_na: dict[int, list] = {}
    for x in st.nodes:
        if x != y and not adj_y >> x & 1:
            by_na.setdefault(und_y & st.adj[x], []).append(x)
    groups, wanted = [], []
    for na, xs in by_na.items():
        for t in _subsets(_members(und_y & ~na), _NEIGHBOR_SET_CAP):
            base = na | _mask(t)
            scored = pa_y | base
            if scored.bit_count() + 1 <= max_parents and _is_clique(base, st.adj):
                grown = [scored | 1 << x for x in xs]
                groups.append((t, base, scored, xs, grown))
                wanted += grown
                wanted.append(scored)
    sc.prefetch(y, wanted)
    cache, out = sc.cache, []
    for t, base, scored, xs, grown in groups:
        score = cache[y, scored]
        for x, g in zip(xs, grown):
            gain = cache[y, g] - score
            if gain > _GAIN_TOL:
                out.append((-gain, x, y, t, base))
    out.sort()
    return out


class _Inserts:
    """Best valid single-edge insertion, Chickering-style: Insert(x, y, T).

    Each node's locally valid candidates are kept sorted (as in fGES).  The
    global check, that every semi-directed path y ~> x (directed edges
    forward, undirected either way) passes through base, is applied along
    the merged order, so the first candidate that passes is the minimum of
    (-gain, x, y, T) over all valid insertions.  The reach set of each
    (y, base) met on the way is kept as a bitmask.

    Each call compares the state with the one the call before saw, node by
    node, and drops only what the difference invalidates: the list of a
    node whose edges changed or whose undirected neighbour gained or lost
    an adjacency, and the reach sets that hold a node whose children or
    undirected neighbours changed (a search from y reads the successors of
    the nodes it reaches, and no others)."""

    def __init__(self, sc: _Scorer, max_parents):
        self.sc, self.max_parents = sc, max_parents
        self.seen: _Pdag | None = None
        self.lists: dict[int, list] = {}
        self.reach: dict[tuple[int, int], int] = {}

    def _catch_up(self, st: _Pdag) -> None:
        old, self.seen = self.seen, st
        if old is None:  # nothing is kept yet
            return
        edges = adj = succ = 0  # the nodes whose edges, adjacency, successors changed
        for v in st.nodes:
            if (old.pa[v], old.ch[v], old.und[v]) != (st.pa[v], st.ch[v], st.und[v]):
                edges |= 1 << v
                adj |= (old.adj[v] != st.adj[v]) << v
                succ |= ((old.ch[v] | old.und[v]) != (st.ch[v] | st.und[v])) << v
        for y in list(self.lists):
            if edges >> y & 1 or adj & st.und[y]:
                del self.lists[y]
        if succ:
            self.reach = {k: r for k, r in self.reach.items() if not r & succ}

    def best(self, st: _Pdag):
        self._catch_up(st)
        for y in st.nodes:
            if y not in self.lists:
                self.lists[y] = _local_inserts(st, self.sc, y, self.max_parents)
        succ = _semi(st)
        for cand in heapq.merge(*(self.lists[y] for y in st.nodes)):
            _, x, y, t, base = cand
            reach = self.reach.get((y, base))
            if reach is None:
                reach = self.reach[(y, base)] = reachable(succ, y, base)
            if not reach >> x & 1:
                return cand[:4], x, y, t
        return None


def _delete_candidates(st: _Pdag, sc: _Scorer):
    """Valid single-edge deletions: Delete(x, y, H)."""
    best = None
    # both roles of an undirected edge appear
    pairs = sorted((x, y) for y in st.nodes for x in _members(st.pa[y] | st.und[y]))
    for x, y in pairs:
        na = st.und[y] & st.adj[x]
        for h in _subsets(_members(na), _NEIGHBOR_SET_CAP):
            keep = na & ~_mask(h)
            scored = (st.pa[y] | keep) & ~(1 << x)
            gain = sc.local(y, scored) - sc.local(y, scored | 1 << x)
            if gain <= _GAIN_TOL:
                continue
            cand = (-gain, x, y, h)
            if best is not None and cand >= best[0]:
                continue
            if not _is_clique(keep, st.adj):
                continue
            best = (cand, x, y, h)
    return best


def _apply_insert(st: _Pdag, x, y, t) -> _Pdag:
    """Insert(x, y, T): x->y, and T's undirected edges at y oriented into
    y.  It is valid (Chickering 2002, Theorem 15) when x and y are not
    adjacent, T holds neighbours of y not adjacent to x, NA(y, x) | T is a
    clique, and every semi-directed path y ~> x passes through it; else
    GraphError."""
    base = st.und[y] & st.adj[x] | _mask(t)
    if not (
        not st.adj[y] >> x & 1
        and not _mask(t) & ~(st.und[y] & ~st.adj[x])
        and _is_clique(base, st.adj)
        and not reachable(_semi(st), y, base) >> x & 1
    ):
        raise GraphError(f"Insert({x}, {y}, {t}) is not a valid move")
    g = st.copy()
    g.orient(x, y)
    for n in t:
        g.orient(n, y)
    recomplete(g, {_canon(x, y), *(_canon(n, y) for n in t)})
    return g


def _apply_delete(st: _Pdag, x, y, h) -> _Pdag:
    """Delete(x, y, H): cut x->y or x-y and orient y-n and x-n as y->n and
    x->n for n in H.  It is valid (Chickering 2002, Theorem 17) when H holds
    neighbours of y adjacent to x and the rest of those is a clique; else
    GraphError."""
    na = st.und[y] & st.adj[x]
    if not ((st.pa[y] | st.und[y]) >> x & 1 and not _mask(h) & ~na and _is_clique(na & ~_mask(h), st.adj)):
        raise GraphError(f"Delete({x}, {y}, {h}) is not a valid move")
    g = st.copy()
    g.cut(x, y)
    for n in h:
        g.orient(y, n)
        if g.und[x] >> n & 1:
            g.orient(x, n)
    recomplete(g, {_canon(x, y), *(_canon(a, n) for n in h for a in (x, y))})
    return g


def _forward_phase(st: _Pdag, inserts: _Inserts) -> _Pdag:
    while (got := inserts.best(st)) is not None:
        st = _apply_insert(st, *got[1:])
    return st


def _backward_phase(st: _Pdag, sc) -> _Pdag:
    while (got := _delete_candidates(st, sc)) is not None:
        st = _apply_delete(st, *got[1:])
    return st


def _turning_phase(st: _Pdag, sc, cfg) -> _Pdag:
    """Reverse directed edges of a class representative whenever the swap
    strictly improves the (interventional) score and keeps acyclicity.
    The phase ends when a turn projects back onto the pattern it started
    from: the next pass would pick the same turn again."""
    while True:
        ext = st.copy()
        _extend(ext)  # every pattern has an extension; a state that is none raises
        pa = ext.pa

        best = None
        for a, b in sorted(ext.directed()):
            if pa[a].bit_count() + 1 > cfg.max_parents:
                continue
            # reversing a -> b closes a cycle when another parent of b
            # descends from a
            others = pa[b] & ~(1 << a)
            if others & reachable(ext.ch, a):
                continue
            gain = (
                sc.local(b, others)
                + sc.local(a, pa[a] | 1 << b)
                - sc.local(b, pa[b])
                - sc.local(a, pa[a])
            )
            if gain > _GAIN_TOL:
                cand = (-gain, a, b)
                if best is None or cand < best:
                    best = cand
        if best is None:
            return st
        _, a, b = best
        ext.cut(a, b)
        ext.orient(b, a)
        recomplete(ext, {_canon(u, v) for u, v in ext.directed()})
        if (ext.pa, ext.und) == (st.pa, st.und):  # parents and lines fix every edge
            return st
        st = ext


def _greedy_search(table, cfg, row_targets, warn) -> Cpdag:
    """The search behind ``ges`` (no ``row_targets``) and ``gies``.

    It runs on the index labels of the name-sorted columns and names the
    final pattern once; index order is name order, so every label-order
    tie-break of the graph algebra is the one over names.  With row targets
    the score is interventional, edges at manipulated nodes keep their
    orientation, and a turning phase follows the forward and backward
    phases until a sweep changes nothing."""
    names = tuple(sorted(table.names))
    sc = _Scorer(table, names, row_targets, warn)
    turning = row_targets is not None
    st = _indexed(names, pinned=frozenset().union(*row_targets) if turning else ())[1]
    inserts = _Inserts(sc, cfg.max_parents)
    sweeps = 0
    for sweeps in range(1, _MAX_SWEEPS + 1):
        before = st  # moves edit copies, so this stays the sweep's start
        st = _backward_phase(_forward_phase(st, inserts), sc)
        if turning:
            st = _turning_phase(st, sc, cfg)
        if not turning or (st.pa, st.und) == (before.pa, before.und):
            break
    return Cpdag(names, *_labelled(st, names), meta={"sweeps": sweeps})


def ges(table, config: DiscoveryConfig | None = None, *, warn: WarningCounter) -> Cpdag:
    """Greedy DAG-space grow/prune over the table's columns under the Gaussian
    BIC, reported as the pattern of the final graph's equivalence class."""
    return _greedy_search(table, config or DiscoveryConfig(), None, warn)


def per_row_targets(table, intervention_targets) -> list[frozenset]:
    """Expand a treatment -> intervened-columns mapping (None for no
    treatment) to one set per row.  Each treatment names a collection of
    column names, not one string."""
    targets = {} if intervention_targets is None else intervention_targets
    if not isinstance(targets, Mapping):
        raise ConfigError(f"intervention targets must map treatment -> columns, got {targets!r}")
    mapping = {
        str(t): require_labels(nodes, ConfigError(f"treatment {t!r} must name a collection of columns, got {nodes!r}"))
        for t, nodes in targets.items()
    }
    # repr orders labels of any types, which need not compare with each other
    unknown = sorted(set().union(*mapping.values()) - set(table.names), key=repr)
    if unknown:
        raise ConfigError(f"intervention targets name unknown columns {unknown}")
    return [mapping.get(t, frozenset()) for t in table.treatment]


def gies(
    table,
    config: DiscoveryConfig | None = None,
    intervention_targets=None,
    *,
    warn: WarningCounter,
) -> Cpdag:
    """Greedy search over the table's columns under per-node interventional
    scores with a turning phase, iterated to a fixed point; exactly ``ges``
    when no row is intervened.  The targets name columns of the table: to
    search fewer, narrow the table with ``ingest.select_columns`` and drop
    the removed columns from the targets."""
    cfg = config or DiscoveryConfig()
    if cfg.use_interventions and intervention_targets is None:
        raise ConfigError(
            "use_interventions=True needs a treatment -> manipulated-columns "
            "mapping; pass {} when no rows were manipulated"
        )
    rows = per_row_targets(table, intervention_targets)
    intervened = frozenset().union(*rows)
    if not cfg.use_interventions or not intervened:
        return ges(table, cfg, warn=warn)

    out = _greedy_search(table, cfg, rows, warn)
    out.meta["intervened"] = tuple(sorted(intervened))
    return out
