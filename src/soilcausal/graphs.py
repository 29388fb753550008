"""Graph algebra for causal structure learning.

DAGs and CPDAGs over hashable, totally ordered node labels:
equivalence-class projection, Meek orientation propagation, consistent
extensions, reachability and structural Hamming distance.  Results depend on
the labels only through their order, so relabelling by an order-preserving
map commutes with every operation; the greedy searches rely on this and run
on column indices.

Every edit goes through one editable graph, ``_Pdag``: Meek closure and
sink elimination orient and extend it in place, and so do the learners in
``discovery``.  One projection, ``recomplete``, turns it into the pattern
of its class: it serves ``cpdag_of``, GIES's turning phase and every
greedy move.  The validated frozen types ``Dag`` and ``Cpdag`` are built
only at the boundary, once per public result.

Conventions
-----------
* An edge is a non-string pair, a 2-tuple or 2-list, of known and distinct
  labels; ``checked_graph`` checks the labels and edges of ``Dag``,
  ``Cpdag`` and ``gnn.GraphSkeleton`` in this one place.
* Directed edges are ordered ``(src, dst)`` pairs.
* Undirected edges are stored canonically as ``(min, max)`` pairs and are
  never represented as two opposing directed edges.
* Everything is pure and deterministic; ties break by label order.
"""

from __future__ import annotations

import copy
import heapq
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable

from .errors import GraphError


def _canon(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a <= b else (b, a)


def _kahn(nodes: Iterable[str], edges: Iterable[tuple[str, str]]) -> list[str] | None:
    """Topological order with lexicographic tie-breaking, or None on a cycle."""
    nodes = list(nodes)
    indeg = {v: 0 for v in nodes}
    out: dict[str, list[str]] = {v: [] for v in nodes}
    for a, b in edges:
        indeg[b] += 1
        out[a].append(b)
    ready = [v for v in nodes if indeg[v] == 0]
    heapq.heapify(ready)
    order: list[str] = []
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for w in out[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(ready, w)
    return order if len(order) == len(nodes) else None


def checked_graph(nodes, *edge_sets):
    """The labels ``nodes`` as a tuple, then each of ``edge_sets`` as a
    frozenset of ``(a, b)`` tuples.  GraphError on a repeated label, an edge
    that is not a tuple or list of two labels, a self-loop or an endpoint
    outside ``nodes``."""
    nodes = tuple(nodes)
    known = set(nodes)
    if len(known) != len(nodes):
        raise GraphError("duplicate node labels")

    def pair(e):
        if not isinstance(e, (tuple, list)) or len(e) != 2:
            raise GraphError(f"edge {e!r} is not an (a, b) pair")
        a, b = e
        if a == b:
            raise GraphError(f"self-loop at {a!r}")
        if a not in known or b not in known:
            raise GraphError(f"edge ({a!r}, {b!r}) references unknown node")
        return a, b

    return (nodes, *(frozenset(map(pair, edges)) for edges in edge_sets))


@dataclass(frozen=True)
class Dag:
    """Directed acyclic graph.  ``meta`` is ignored by equality and hashing."""

    nodes: tuple[str, ...]
    edges: frozenset[tuple[str, str]]
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        nodes, edges = checked_graph(self.nodes, self.edges)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "edges", edges)
        if _kahn(self.nodes, self.edges) is None:
            raise GraphError("directed cycle")


@dataclass(frozen=True)
class Cpdag:
    """Partially directed graph with an acyclic directed part.

    ``directed`` holds ordered pairs, ``undirected`` canonical (min, max)
    pairs; the two sets must cover disjoint node pairs.
    """

    nodes: tuple[str, ...]
    directed: frozenset[tuple[str, str]]
    undirected: frozenset[tuple[str, str]]
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        nodes, directed, undirected = checked_graph(self.nodes, self.directed, self.undirected)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "directed", directed)
        object.__setattr__(self, "undirected", frozenset(_canon(a, b) for a, b in undirected))
        dir_pairs = {_canon(a, b) for a, b in self.directed}
        if len(dir_pairs) != len(self.directed):
            raise GraphError("pair directed in both directions")
        if dir_pairs & self.undirected:
            raise GraphError("pair both directed and undirected")
        if _kahn(self.nodes, self.directed) is None:
            raise GraphError("cycle in directed part")


class _Pdag:
    """The one editable partially directed graph: per node its parents
    ``pa``, children ``ch``, undirected neighbours ``und`` and their union
    ``adj``.  Meek closure, sink elimination, class projection and the
    learners edit it in place.  It is not validated; ``Dag`` and ``Cpdag``
    are built from it where a result leaves the graph algebra."""

    def __init__(self, nodes, directed=(), undirected=()):
        self.nodes = tuple(nodes)
        self.pa = {v: set() for v in self.nodes}
        self.ch = {v: set() for v in self.nodes}
        self.und = {v: set() for v in self.nodes}
        self.adj = {v: set() for v in self.nodes}
        for a, b in directed:
            self.orient(a, b)
        for a, b in undirected:
            self.join(a, b)

    def copy(self):
        """A copy whose edits leave this graph as it is; any other
        attribute (of a subclass) is shared."""
        g = copy.copy(self)
        g.pa, g.ch, g.und, g.adj = (
            {v: set(s) for v, s in m.items()} for m in (self.pa, self.ch, self.und, self.adj)
        )
        return g

    def join(self, a, b) -> None:
        """Add the undirected edge a-b."""
        self.und[a].add(b)
        self.und[b].add(a)
        self.adj[a].add(b)
        self.adj[b].add(a)

    def orient(self, a, b) -> None:
        """Make the edge a->b, replacing an undirected a-b."""
        self.und[a].discard(b)
        self.und[b].discard(a)
        self.ch[a].add(b)
        self.pa[b].add(a)
        self.adj[a].add(b)
        self.adj[b].add(a)

    def cut(self, a, b) -> None:
        """Remove the edge between a and b, whichever kind it is."""
        for m in (self.pa, self.ch, self.und, self.adj):
            m[a].discard(b)
            m[b].discard(a)

    def directed(self) -> set:
        return {(a, b) for a in self.nodes for b in self.ch[a]}

    def undirected(self) -> set:
        """Undirected edges as (min, max) pairs."""
        return {(a, b) for a in self.nodes for b in self.und[a] if a < b}


def topological_sort(g: Dag) -> tuple[str, ...]:
    """Deterministic topological order, ties broken by label."""
    return tuple(_kahn(g.nodes, g.edges))


def in_neighbors(g: Dag, node: str) -> frozenset[str]:
    """The parents of ``node`` in g, a ``Dag`` or a ``gnn.GraphSkeleton``."""
    if node not in g.nodes:
        raise GraphError(f"unknown node {node!r}")
    return frozenset(a for a, b in g.edges if b == node)


def reachable(succ, src, blocked=()) -> set:
    """Nodes reachable from ``src`` by following ``succ`` (a callable giving
    a node's successors) through nodes outside ``blocked``.  Includes
    ``src`` itself unless it is blocked."""
    if src in blocked:
        return set()
    seen, stack = {src}, [src]
    while stack:
        for v in succ(stack.pop()):
            if v not in seen and v not in blocked:
                seen.add(v)
                stack.append(v)
    return seen


def _meek_rule(g: _Pdag, a, b) -> bool:
    """Whether a Meek rule orients the undirected edge a-b as a->b."""
    pa, ch, und, adj = g.pa, g.ch, g.und, g.adj
    # R1
    for c in pa[a]:
        if c != b and b not in adj[c]:
            return True
    # R2
    if ch[a] & pa[b]:
        return True
    # R3
    shared = sorted(und[a] & pa[b])
    for c, d in combinations(shared, 2):
        if d not in adj[c]:
            return True
    # R4
    for c in sorted(adj[a]):
        if c == b or b in adj[c]:
            continue
        if ch[c] & pa[b]:
            return True
    return False


def _meek(g: _Pdag) -> None:
    """Close g under the Meek rules in place (see ``meek_closure``)."""
    pa, ch, und, adj = g.pa, g.ch, g.und, g.adj

    def allowed(a: str, b: str) -> bool:
        if a in reachable(ch.__getitem__, b):  # would close a directed cycle
            return False
        for z in pa[b]:  # would create a collider z->b<-a not in the pattern
            if z != a and z not in adj[a]:
                return False
        return True

    changed = True
    while changed:
        changed = False
        for a, b in sorted(g.undirected()):
            for x, y in ((a, b), (b, a)):
                if y not in und[x]:
                    break
                if _meek_rule(g, x, y) and allowed(x, y):
                    g.orient(x, y)
                    changed = True
                    break


def _extend(g: _Pdag) -> bool:
    """Orient every undirected edge of g in place by sink elimination (see
    ``consistent_extension``).  True when no node qualified as a sink and
    the fallback oriented the rest."""
    # Every edge between a removed node and the rest points into the removed
    # node, and edges among the rest are never edited, so g itself, read
    # around ``removed``, is the graph over the nodes not yet eliminated.
    removed: set = set()

    def qualifies(x: str) -> bool:
        if not g.ch[x] <= removed:
            return False
        for y in g.und[x]:
            for z in g.adj[x]:
                if z != y and z not in removed and z not in g.adj[y]:
                    return False
        return True

    sinks = {v for v in g.nodes if qualifies(v)}
    while sinks:
        x = max(sinks)
        for y in list(g.und[x]):
            g.orient(y, x)
        removed.add(x)
        sinks.discard(x)
        sinks.update(y for y in g.adj[x] if y not in removed and qualifies(y))
    if len(removed) == len(g.nodes):
        return False
    order = _kahn(g.nodes, g.directed())
    if order is None:  # sinks add no cycle, so the input had one
        raise GraphError("cycle in directed part")
    pos = {v: i for i, v in enumerate(order)}
    for a, b in sorted(g.undirected()):
        g.orient(*((a, b) if pos[a] < pos[b] else (b, a)))
    return True


def _protected(g: _Pdag, a, b, pinned) -> bool:
    """Whether the arrow a->b is strongly protected in g: it touches a
    pinned node, or it sits in one of the configurations c->a->b (c, b
    non-adjacent), a->b<-c (c, a non-adjacent), a->c->b, or a-c->b, a-d->b
    (c, d non-adjacent)."""
    if a in pinned or b in pinned:
        return True
    pa_b, adj = g.pa[b], g.adj
    if any(b not in adj[c] for c in g.pa[a]) or any(c != a and c not in adj[a] for c in pa_b):
        return True
    if g.ch[a] & pa_b:
        return True
    return any(d not in adj[c] for c, d in combinations(sorted(g.und[a] & pa_b), 2))


def recomplete(g: _Pdag, pinned, pairs) -> set:
    """Turn g in place into the (interventional) pattern of its class, for
    a graph g that was such a pattern until the edges of the node pairs
    ``pairs`` were edited, and whose edited form has a consistent
    extension, as every valid greedy move's has.  A DAG is the empty
    pattern with every adjacent pair edited (see ``cpdag_of``).  Returns
    the pairs, as (min, max), whose edges it changed.

    Every consistent extension of g has g's skeleton, its colliders and its
    arrows at pinned nodes, and the pattern is the Meek closure of those
    alone, so it does not depend on the extension.  Two local passes reach
    it.  The Meek rules first orient everything that every extension of g
    shares; the pattern's arrows are among those.  Then every arrow that is
    not strongly protected becomes a line again, one at a time, which
    leaves exactly the pattern's arrows (the ``ReplaceUnprotected`` step of
    Hauser & Buehlmann 2012).  In the old pattern no rule applied and every
    arrow was protected, so each pass only re-reads the edges that a
    changed pair can concern: those at its two ends, and those for which
    it is the non-adjacent pair of R3 or of the protecting configuration
    a-c->b, a-d->b, or the middle arrow c->d of R4."""
    changed, todo = set(), set(pairs)
    while todo:  # Meek closure
        check = set()
        for p, q in todo:
            for a in (p, q):
                check.update((a, b) for b in g.und[a])
            if q not in g.adj[p]:  # R3: p->b<-q, a-p, a-q
                for a in g.und[p] & g.und[q]:
                    check.update((a, b) for b in g.und[a] & g.ch[p] & g.ch[q])
            for c, d in ((p, q), (q, p)):  # R4: a~c, c->d, d->b
                if d in g.ch[c]:
                    for a in g.adj[c]:
                        check.update((a, b) for b in g.und[a] & g.ch[d])
        todo = set()
        for a, b in check:
            for u, v in ((a, b), (b, a)):
                if v in g.und[u] and _meek_rule(g, u, v):
                    g.orient(u, v)
                    todo.add(_canon(u, v))
        changed |= todo
    todo = set(pairs) | changed
    while todo:  # undo the arrows that are not strongly protected
        check = set()
        for p, q in todo:
            for a in (p, q):
                check.update((a, b) for b in g.ch[a])
                check.update((b, a) for b in g.pa[a])
            if q in g.adj[p]:  # a-p->b, a-q->b no longer protects a->b
                for a in g.und[p] & g.und[q]:
                    check.update((a, b) for b in g.ch[a] & g.ch[p] & g.ch[q])
        todo = set()
        for u, v in check:
            if v in g.ch[u] and not _protected(g, u, v, pinned):
                g.cut(u, v)
                g.join(u, v)
                todo.add(_canon(u, v))
        changed |= todo
    return changed


def cpdag_of(dag: Dag, pinned=frozenset()) -> Cpdag:
    """Project a DAG onto its Markov equivalence class representative:
    skeleton + compelled v-structure edges, closed under the Meek rules.
    Edges touching a node in ``pinned`` keep their orientation as well: an
    intervention on a node fixes the direction of its edges (the
    interventional class of Hauser & Buehlmann 2012).  On a DAG the Meek
    pass of ``recomplete`` finds no line to orient, and its second pass is
    ReplaceUnprotected over every arrow."""
    g = _Pdag(dag.nodes, dag.edges)
    recomplete(g, pinned, {_canon(a, b) for a, b in dag.edges})
    return Cpdag(dag.nodes, g.directed(), g.undirected())


def meek_closure(g: Cpdag) -> Cpdag:
    """Propagate orientations with rules R1-R4 until no rule fires.

    Each rule orients an undirected edge a-b as a->b only when every DAG
    completing the pattern must contain a->b:

      R1: c->a, a-b, c and b non-adjacent          => a->b
      R2: a->c->b with a-b                         => a->b
      R3: a-b, a-c, a-d, c->b, d->b, c,d non-adj   => a->b
      R4: a-b, a~c, c->d, d->b, c and b non-adj    => a->b

    Orientations that would close a directed cycle or manufacture a collider
    absent from the input pattern are refused, so malformed inputs (e.g.
    sample-based skeletons with conflicting colliders) degrade gracefully
    instead of corrupting the graph.  The closure never un-orients an edge.
    """
    out = _Pdag(g.nodes, g.directed, g.undirected)
    _meek(out)
    return Cpdag(g.nodes, out.directed(), out.undirected(), meta=dict(g.meta))


def consistent_extension(g: Cpdag) -> Dag:
    """Orient all undirected edges into a DAG with the same skeleton and the
    same colliders, via sink elimination.

    Each round removes the largest-label node x that (a) has no outgoing
    directed edge and (b) whose undirected neighbours are adjacent to every
    other neighbour of x, orienting x's undirected edges into x.  For a lone
    undirected edge this yields the label-order orientation a->b.  The set
    of qualifying nodes is kept across rounds: removing x changes only its
    neighbours' edges, and a node not adjacent to x keeps its verdict, so
    only x's neighbours are tested again.

    If no node qualifies the pattern admits no consistent extension; the
    leftover undirected edges are then oriented along a topological order of
    the already-directed part (label ties first) and the result is flagged
    with ``meta["extension_fallback"] = True``.
    """
    out = _Pdag(g.nodes, g.directed, g.undirected)
    fallback = _extend(out)
    return Dag(g.nodes, out.directed(), meta={"extension_fallback": fallback})


def _edge_status(g: Cpdag) -> dict[tuple[str, str], tuple[str, str | None]]:
    st: dict[tuple[str, str], tuple[str, str | None]] = {}
    for a, b in g.directed:
        st[_canon(a, b)] = ("dir", a)
    for p in g.undirected:
        st[p] = ("und", None)
    return st


def shd(a: Cpdag, b: Cpdag) -> int:
    """Structural Hamming distance: node pairs whose edge status (absent,
    undirected, or directed incl. direction) differs between the graphs."""
    if set(a.nodes) != set(b.nodes):
        raise GraphError("graphs compare over different node sets")
    sa, sb = _edge_status(a), _edge_status(b)
    return sum(1 for k in set(sa) | set(sb) if sa.get(k) != sb.get(k))
