"""Shared brute-force oracles for the test suite: labeled-DAG enumeration,
(interventional) Markov-equivalence classes, extension sets, a whole-graph
pattern projection and completion, random graph generators, a sorted-scan
sink elimination, set-based neighbour maps, clique check and reachability
search, the exact covariance of a linear SCM and its
ancestral subgraphs, PC answered exactly from that covariance, a
one-test-at-a-time PC skeleton search, a one-x-at-a-time enumeration of
GES insertions and a move chooser that keeps nothing between steps, a
per-node-argsort CART grower, a central-difference gradient check, a
builder for small all-continuous tables, and the exact score optimum that
the greedy search should find."""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

import soilcausal.graphs as G
from soilcausal.baselines import _SPLIT_EPS, TreeNode
from soilcausal.discovery import (
    _GAIN_TOL,
    _NEIGHBOR_SET_CAP,
    DiscoveryConfig,
    _pc_core,
    _Scorer,
    _subsets,
)
from soilcausal.errors import ConfigError, GraphError
from soilcausal.ingest import ColumnSpec, Table
from soilcausal.stats import GaussianSuffStat, WarningCounter, fisher_z_test

LABELS4 = ("A", "B", "C", "D")


def continuous_table(names, rows, target=None):
    """One field, one treatment, consecutive days; the target defaults to
    the last column."""
    rows = np.asarray(rows, dtype=np.float64)
    return Table(
        schema=tuple(ColumnSpec(name=n, kind="continuous") for n in names),
        rows=rows,
        timestamps=np.repeat(np.datetime64("2020-06-01"), rows.shape[0]) + np.arange(rows.shape[0]),
        field_id=np.repeat("f0", rows.shape[0]),
        treatment=np.repeat("obs", rows.shape[0]),
        target=target or names[-1],
    )


def all_dags(labels: tuple[str, ...]) -> list[frozenset[tuple[str, str]]]:
    """Every labeled DAG edge set over `labels` (pair-state enumeration)."""
    pairs = list(combinations(labels, 2))
    out = []
    for states in product((0, 1, 2), repeat=len(pairs)):
        edges = set()
        for state, (a, b) in zip(states, pairs):
            if state == 1:
                edges.add((a, b))
            elif state == 2:
                edges.add((b, a))
        if G._kahn(labels, edges) is not None:
            out.append(frozenset(edges))
    return out


@dataclass
class Maps:
    """A graph's neighbour sets, per label: parents ``pa``, children
    ``ch``, undirected neighbours ``und`` and adjacent nodes ``adj``."""

    pa: dict
    ch: dict
    und: dict
    adj: dict


def neighbour_maps(nodes, directed=(), undirected=()) -> Maps:
    m = Maps(*({v: set() for v in nodes} for _ in range(4)))
    for a, b in directed:
        m.ch[a].add(b)
        m.pa[b].add(a)
    for a, b in undirected:
        m.und[a].add(b)
        m.und[b].add(a)
    for a, b in (*directed, *undirected):
        m.adj[a].add(b)
        m.adj[b].add(a)
    return m


def is_clique(nodes, adj) -> bool:
    return all(b in adj[a] for a, b in combinations(nodes, 2))


def reach(succ, src, blocked=()) -> set:
    """Labels reachable from ``src`` along ``succ`` (a label's successors)
    through labels outside ``blocked``; ``src`` itself unless blocked."""
    if src in blocked:
        return set()
    seen, stack = {src}, [src]
    while stack:
        for v in succ(stack.pop()):
            if v not in seen and v not in blocked:
                seen.add(v)
                stack.append(v)
    return seen


def colliders(nodes, directed, undirected=()) -> frozenset[tuple]:
    """Triples (a, c, b), a < b, with a->c<-b directed and a, b non-adjacent."""
    m = neighbour_maps(nodes, directed, undirected)
    return frozenset(
        (a, c, b)
        for c in nodes
        for a, b in combinations(sorted(m.pa[c]), 2)
        if b not in m.adj[a]
    )


def project(g: G._Pdag, pinned=frozenset()) -> None:
    """Turn the DAG g in place into the (interventional) pattern of its
    class over the whole graph: every arrow that is neither in a collider
    nor at a node of ``pinned`` becomes a line, then the Meek rules close
    it.  ``graphs.recomplete`` reaches the same graph by
    ReplaceUnprotected."""
    forced: set = set()
    for a, c, b in colliders(g.nodes, g.directed(), g.undirected()):
        forced.update(((a, c), (b, c)))
    for a, b in g.directed():
        if (a, b) not in forced and a not in pinned and b not in pinned:
            g.cut(a, b)
            g.join(a, b)
    G._meek(g)


def complete(g: G._Pdag, pinned=frozenset()) -> bool:
    """Chickering's completion in place, over the whole graph: orient the
    PDAG g into a member of its class by sink elimination, then ``project``
    that member.  True when the extension fell back."""
    fallback = G._extend(g)
    project(g, pinned)
    return fallback


def equivalence_classes(labels, dags, pinned=frozenset()):
    """Group DAG edge sets by skeleton, v-structures and the orientation of
    every edge at a ``pinned`` node: the interventional classes, which are
    the Markov-equivalence classes when nothing is pinned."""
    classes: dict[tuple, list[frozenset]] = {}
    for edges in dags:
        skel = frozenset(tuple(sorted(e)) for e in edges)
        at_pinned = frozenset(e for e in edges if not pinned.isdisjoint(e))
        key = (skel, colliders(labels, edges), at_pinned)
        classes.setdefault(key, []).append(edges)
    return classes


def class_cpdag(labels, members) -> G.Cpdag:
    """Oracle CPDAG: direction kept only where every class member agrees."""
    skeleton = sorted({tuple(sorted(e)) for e in members[0]})
    directed, undirected = set(), set()
    for a, b in skeleton:
        forward = {(a, b) in m for m in members}
        if forward == {True}:
            directed.add((a, b))
        elif forward == {False}:
            directed.add((b, a))
        else:
            undirected.add((a, b))
    return G.Cpdag(labels, frozenset(directed), frozenset(undirected))


def extension_set(pattern: G.Cpdag) -> set[frozenset]:
    """All DAGs with the pattern's skeleton, directed edges, and colliders."""
    und = sorted(pattern.undirected)
    want = colliders(pattern.nodes, pattern.directed, pattern.undirected)
    out = set()
    for bits in range(2 ** len(und)):
        edges = set(pattern.directed)
        for k, (a, b) in enumerate(und):
            edges.add((a, b) if (bits >> k) & 1 else (b, a))
        if G._kahn(pattern.nodes, edges) is None:
            continue
        if colliders(pattern.nodes, edges) == want:
            out.add(frozenset(edges))
    return out


def random_dag(rng: random.Random, labels, p=0.45) -> G.Dag:
    order = list(labels)
    rng.shuffle(order)
    edges = {
        (order[i], order[j])
        for i, j in combinations(range(len(order)), 2)
        if rng.random() < p
    }
    return G.Dag(tuple(labels), frozenset(edges))


def random_pattern(rng: random.Random, labels) -> G.Cpdag:
    """Random PDAG whose directed part comes from a DAG (hence acyclic)."""
    dag = random_dag(rng, labels)
    directed, undirected = set(), set()
    for a, b in dag.edges:
        if rng.random() < 0.5:
            directed.add((a, b))
        else:
            undirected.add(tuple(sorted((a, b))))
    return G.Cpdag(labels, frozenset(directed), frozenset(undirected))


def reference_consistent_extension(g: G.Cpdag) -> G.Dag:
    """``graphs.consistent_extension`` by rescanning: each round sorts the
    remaining nodes and takes the first, largest label, that qualifies as a
    sink, testing every remaining node again."""
    remaining = set(g.nodes)
    oriented = set(g.directed)
    undirected = set(g.undirected)
    maps = neighbour_maps(g.nodes, g.directed, g.undirected)
    adj, children, und = maps.adj, maps.ch, maps.und

    def qualifies(x):
        if children[x]:
            return False
        return all(z == y or z in adj[y] for y in und[x] for z in adj[x])

    while remaining:
        x = next((v for v in sorted(remaining, reverse=True) if qualifies(v)), None)
        if x is None:
            order = G._kahn(g.nodes, oriented)
            pos = {v: i for i, v in enumerate(order)}
            for a, b in sorted(undirected):
                oriented.add((a, b) if pos[a] < pos[b] else (b, a))
            return G.Dag(g.nodes, frozenset(oriented), meta={"extension_fallback": True})
        oriented.update((y, x) for y in und[x])
        remaining.discard(x)
        for y in adj.pop(x, set()):
            adj[y].discard(x)
            und[y].discard(x)
            children[y].discard(x)
            undirected.discard(G._canon(x, y))
        und.pop(x, None)
        children.pop(x, None)
    return G.Dag(g.nodes, frozenset(oriented), meta={"extension_fallback": False})


def analytic_covariance(scm, rate_overrides: dict[str, float] | None = None) -> np.ndarray:
    """Exact covariance of the induced linear system, in ``dag.nodes`` order.

    Every event node must be a root (a logistic link with parents has no
    linear reduction).  Root events contribute exogenous variance p(1-p);
    ``rate_overrides`` substitutes intervened rates without resampling.
    """
    nodes = scm.dag.nodes
    idx = {n: i for i, n in enumerate(nodes)}
    d = len(nodes)
    w = np.zeros((d, d))
    var = np.zeros(d)
    overrides = dict(rate_overrides or {})
    unknown = sorted(set(overrides) - set(nodes))
    if unknown:
        raise ConfigError(f"rate overrides for unknown nodes {unknown}")
    for m in scm.mechanisms:
        i = idx[m.node]
        if m.kind == "bernoulli_event":
            if m.parents:
                raise ConfigError(
                    f"analytic covariance needs event node {m.node!r} to be a root"
                )
            p = overrides.get(m.node, m.base_rate)
            if not 0.0 <= p <= 1.0:
                raise ConfigError(f"override rate for {m.node!r} outside [0, 1]")
            var[i] = p * (1.0 - p)
        else:
            if m.node in overrides:
                raise ConfigError(f"rate override for non-event node {m.node!r}")
            var[i] = m.noise_sd**2
            for par, wt in zip(m.parents, m.weights):
                w[idx[par], i] = wt
    a = np.linalg.inv(np.eye(d) - w.T)
    return a @ np.diag(var) @ a.T


def is_ancestrally_closed(dag: G.Dag, nodes) -> bool:
    """True when every parent of a member is itself a member."""
    keep = set(nodes)
    unknown = keep - set(dag.nodes)
    if unknown:
        raise GraphError(f"unknown nodes {sorted(unknown)}")
    return all(a in keep for a, b in dag.edges if b in keep)


def induced_subdag(dag: G.Dag, nodes) -> G.Dag:
    keep = [n for n in dag.nodes if n in set(nodes)]
    edges = frozenset((a, b) for a, b in dag.edges if a in set(keep) and b in set(keep))
    return G.Dag(tuple(keep), edges)


def ancestral_subsets(dag: G.Dag, max_size: int):
    """All ancestrally closed node subsets of size 1..max_size, sorted."""
    order = G.topological_sort(dag)
    parents = {n: frozenset(G.in_neighbors(dag, n)) for n in dag.nodes}
    found = {frozenset()}
    for n in order:
        fresh = set()
        for s in found:
            if parents[n] <= s and len(s) < max_size:
                fresh.add(s | {n})
        found |= fresh
    out = [tuple(n for n in dag.nodes if n in s) for s in found if s]
    return sorted(out, key=lambda t: (len(t), t))


_ORACLE_TOL = 1e-9


def pc_oracle(cov: np.ndarray, names, *, warn: WarningCounter) -> G.Cpdag:
    """PC with tests answered exactly from a model covariance matrix: the
    library's PC core with ``|partial correlation| < _ORACLE_TOL`` as its
    test, at the default conditioning-set bound."""
    names = tuple(names)
    cov = np.asarray(cov, dtype=np.float64)
    if cov.shape != (len(names), len(names)):
        raise ConfigError("covariance shape does not match the name list")
    order = sorted(range(len(names)), key=lambda k: names[k])
    sorted_names = tuple(names[k] for k in order)
    cov = cov[np.ix_(order, order)]
    # Degenerate (zero-variance) columns carry no signal; give them unit
    # variance so the precision stays finite, their correlations are 0.
    dead = np.diag(cov) <= 0.0
    if dead.any():
        warn.singular_fallbacks += int(dead.sum())
        cov = cov.copy()
        for k in np.flatnonzero(dead):
            cov[k, k] = 1.0
    stat = GaussianSuffStat(
        n=2, mean=np.zeros(len(names)), cov=cov, columns=sorted_names
    )
    return _pc_core(
        sorted_names, stat, lambda batch: np.abs(batch.r) < _ORACLE_TOL, DiscoveryConfig().max_cond_size, warn
    )


def sequential_pc_skeleton(stat, alpha, max_cond_size, warn):
    """Reference PC-stable edge pruning: one scalar ``fisher_z_test`` per
    (i, j, S) triple in the sequential order, stopping at each pair's first
    separating set, removals applied after each level.

    Returns the adjacency sets, the sepsets keyed by index pairs, the number
    of tests run, and the singular fallbacks that the triples after each
    pair's first separating set would have counted had they been run (they
    are evaluated on a separate counter, so ``warn`` sees only the run tests).
    """
    d = len(stat.columns)
    adj = [set(range(d)) - {k} for k in range(d)]
    sepset, tests, skipped_fallbacks = {}, 0, 0
    for level in range(max_cond_size + 1):
        frozen = [sorted(a) for a in adj]
        testable, removals = False, []
        for i in range(d):
            for j in (j for j in frozen[i] if j > i):
                order = []
                for side, other in ((i, j), (j, i)):
                    pool = [k for k in frozen[side] if k != other]
                    testable |= len(pool) >= level
                    order += [S for S in combinations(pool, level) if S not in order]
                found = None
                for S in order:
                    if found is None:
                        tests += 1
                        if fisher_z_test(i, j, S, stat, alpha, warn=warn).independent:
                            found = frozenset(S)
                    else:
                        skipped = WarningCounter()
                        fisher_z_test(i, j, S, stat, alpha, warn=skipped)
                        skipped_fallbacks += skipped.singular_fallbacks
                if found is not None:
                    sepset[(i, j)] = found
                    removals.append((i, j))
        for i, j in removals:
            adj[i].discard(j)
            adj[j].discard(i)
        if not testable:
            break
    return adj, sepset, tests, skipped_fallbacks


def reference_local_inserts(st, sc, y, max_parents) -> list:
    """``discovery._local_inserts`` one x at a time on set-based neighbour
    maps of the state's edges: every x not adjacent to y builds its own
    NA(y, x), T pool, sets and clique checks, and each set whose base is a
    clique is scored on its own."""
    m = neighbour_maps(st.nodes, st.directed(), st.undirected())
    pa_y = frozenset(m.pa[y])
    moves = []
    for x in st.nodes:
        if x == y or x in m.adj[y]:
            continue
        na = frozenset(n for n in m.und[y] if n in m.adj[x])
        t_pool = [n for n in m.und[y] if n not in m.adj[x] and n != x]
        for t in _subsets(t_pool, _NEIGHBOR_SET_CAP):
            base = na | set(t)
            scored = pa_y | base
            if len(scored) + 1 <= max_parents:
                moves.append((x, t, base, scored, scored | {x}))
    out = []
    for x, t, base, scored, grown in moves:
        if not is_clique(base, m.adj):  # such an insert is never valid, so it is not scored
            continue
        gain = sc.local(y, sum(1 << v for v in grown)) - sc.local(y, sum(1 << v for v in scored))
        if gain > _GAIN_TOL:
            out.append((-gain, x, y, t, base))
    out.sort()
    return out


def reference_best_insert(st, sc, max_parents):
    """``discovery._Inserts.best`` with nothing kept between calls: every
    node's list from ``reference_local_inserts``, and every candidate, in
    (-gain, x, y, T) order, checked with a fresh ``reach``."""
    candidates = sorted(c for y in st.nodes for c in reference_local_inserts(st, sc, y, max_parents))
    m = neighbour_maps(st.nodes, st.directed(), st.undirected())

    def semi(u):
        return [*m.und[u], *m.ch[u]]

    for gain, x, y, t, base in candidates:
        if x not in reach(semi, y, base):
            return (gain, x, y, t), x, y, t
    return None


def reference_cart_train(X, y, max_depth=None, min_leaf=2, rng=None, n_features=None):
    """Reference CART with ``cart_train``'s signature: every node re-sorts
    each candidate feature with a stable argsort of its ascending row ids
    and scores the features one at a time."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if rng is None:
        rng = np.random.default_rng(0)
    return _reference_grow(X, y, np.arange(X.shape[0]), 0, max_depth, min_leaf, rng, n_features)


def _reference_split(X, y, idx, features, min_leaf):
    m = idx.size
    best_sse, best = np.inf, None
    for f in features:
        xv = X[idx, f]
        order = np.argsort(xv, kind="stable")
        xs = xv[order]
        ys = y[idx][order]
        csum = np.cumsum(ys)
        csq = np.cumsum(ys * ys)
        total, total_sq = csum[-1], csq[-1]
        k = np.arange(1, m, dtype=np.float64)
        left_sse = csq[:-1] - csum[:-1] ** 2 / k
        right_sse = (total_sq - csq[:-1]) - (total - csum[:-1]) ** 2 / (m - k)
        sse = left_sse + right_sse
        valid = (xs[1:] > xs[:-1]) & (k >= min_leaf) & ((m - k) >= min_leaf)
        if not valid.any():
            continue
        sse = np.where(valid, sse, np.inf)
        j = int(np.argmin(sse))
        if sse[j] < best_sse - _SPLIT_EPS:
            best_sse = sse[j]
            mid = 0.5 * (xs[j] + xs[j + 1])
            best = (f, mid if mid < xs[j + 1] else xs[j])
    if best is None:
        return None
    parent_sse = float(((y[idx] - y[idx].mean()) ** 2).sum())
    if best_sse >= parent_sse - _SPLIT_EPS:
        return None
    return best


def _reference_grow(X, y, idx, depth, max_depth, min_leaf, rng, n_features):
    value = float(y[idx].mean())
    if idx.size < 2 * min_leaf or (max_depth is not None and depth >= max_depth):
        return TreeNode(None, 0.0, None, None, value)
    d = X.shape[1]
    if n_features is not None and n_features < d:
        features = np.sort(rng.choice(d, size=n_features, replace=False))
    else:
        features = np.arange(d)
    split = _reference_split(X, y, idx, features, min_leaf)
    if split is None:
        return TreeNode(None, 0.0, None, None, value)
    f, thr = split
    mask = X[idx, f] <= thr
    left = _reference_grow(X, y, idx[mask], depth + 1, max_depth, min_leaf, rng, n_features)
    right = _reference_grow(X, y, idx[~mask], depth + 1, max_depth, min_leaf, rng, n_features)
    return TreeNode(int(f), float(thr), left, right, value)


@dataclass(frozen=True)
class FiniteDiffReport:
    max_rel_err: float
    worst_param: int
    worst_entry: int
    n_entries: int
    passed: bool


def finite_diff_check(loss_fn, params, tol: float = 1e-4, h: float = 1e-5) -> FiniteDiffReport:
    """Compare reverse-mode gradients against central differences.

    ``loss_fn`` rebuilds the forward graph from the current parameter
    values and returns the scalar loss tensor.
    """
    for p in params:
        p.zero_grad()
    loss_fn().backward()
    analytic = [np.zeros(p.values.shape) if p.grad is None else p.grad.copy() for p in params]
    return _compare(lambda: float(loss_fn().values), params, analytic, tol, h)


def step_gradient_check(step, tol: float = 1e-4, h: float = 1e-5) -> FiniteDiffReport:
    """Compare the gradients one ``engine.Step`` call leaves in
    ``step.grads`` against central differences of the step's loss in each
    of ``step.params``."""
    step()
    analytic = [g.copy() for g in step.grads]
    return _compare(step, step.params, analytic, tol, h)


def _compare(loss, params, analytic, tol, h) -> FiniteDiffReport:
    """Relative error uses max(|analytic|, |numeric|, 1e-5) as the
    denominator, so entries whose gradient sits below 1e-5 are effectively
    compared absolutely — the cancellation noise of the central difference
    itself (~1e-11 per unit of loss) lives far under that floor."""
    worst = (0.0, -1, -1)
    n_entries = 0
    for k, p in enumerate(params):
        flat = p.values.reshape(-1)
        for j in range(flat.size):
            n_entries += 1
            keep = flat[j]
            flat[j] = keep + h
            up = loss()
            flat[j] = keep - h
            down = loss()
            flat[j] = keep
            fd = (up - down) / (2.0 * h)
            a = analytic[k].reshape(-1)[j]
            rel = abs(a - fd) / max(abs(a), abs(fd), 1e-5)
            if rel > worst[0]:
                worst = (rel, k, j)
    return FiniteDiffReport(
        max_rel_err=worst[0],
        worst_param=worst[1],
        worst_entry=worst[2],
        n_entries=n_entries,
        passed=worst[0] < tol,
    )


def one_layer(h, graph, layer, relu):
    """``layer`` (an ``engine.Layer``) alone, dense (``graph`` None) or a
    convolution (a (self_index, agg) pair), with or without its ReLU, on
    the node-major states ``h``: a one-layer step's forward half."""
    from soilcausal.engine import Step

    return Step(h, [layer._replace(graph=graph, relu=relu)]).forward()


def exact_pattern(table, row_targets, max_parents) -> G.Cpdag:
    """The pattern of a DAG of highest (interventional) BIC over the table's
    columns, with at most ``max_parents`` parents per node: the dynamic
    program over sink orders of Silander & Myllymaki (UAI 2006), scored by
    its own ``discovery._Scorer``.  ``row_targets`` (one set of intervened
    columns per row, or None) makes the score interventional and pins the
    intervened nodes' edges, as ``gies`` does.  It takes about 2^d * d
    steps, so it is for a dozen columns, not for paper width."""
    names = tuple(sorted(table.names))
    d = len(names)
    sc = _Scorer(table, names, row_targets, WarningCounter())
    size = 1 << d
    # best[y][c]: the best (score, parent set) of y with its parents inside
    # the set c; a set's subsets one member smaller come before it
    best = []
    for y in range(d):
        small = [c for c in range(size) if not c >> y & 1 and c.bit_count() <= max_parents]
        sc.prefetch(y, small)
        b = [None] * size
        for c in range(size):
            if c >> y & 1:
                continue
            top = (sc.local(y, c), c) if c.bit_count() <= max_parents else (float("-inf"), 0)
            b[c] = max([top, *(b[c & ~(1 << v)] for v in G._members(c))], key=lambda t: t[0])
        best.append(b)
    # sink[w]: the best (score, last node) of an order of the set w
    sink = [(0.0, None)] + [None] * (size - 1)
    for w in range(1, size):
        sink[w] = max((sink[w & ~(1 << y)][0] + best[y][w & ~(1 << y)][0], y) for y in G._members(w))
    edges, w = set(), size - 1
    while w:
        y = sink[w][1]
        w &= ~(1 << y)
        edges.update((names[p], names[y]) for p in G._members(best[y][w][1]))
    pinned = frozenset().union(*row_targets) if row_targets is not None else frozenset()
    return G.cpdag_of(G.Dag(names, frozenset(edges)), pinned)
