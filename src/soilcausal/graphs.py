"""Graph algebra for causal structure learning.

DAGs and CPDAGs over hashable, totally ordered node labels:
equivalence-class projection, Meek orientation propagation, consistent
extensions, reachability and structural Hamming distance.  Results depend on
the labels only through their order, so relabelling by an order-preserving
map commutes with every operation.

Every edit goes through one editable graph, ``_Pdag``, over the index
labels 0..d-1, which keeps each node's parents, children, undirected
neighbours and adjacent nodes, and its pinned nodes, as int bitmasks: Meek
closure and sink elimination orient and extend it in place, and so do the
learners in ``discovery``.  This module owns that format, with ``_mask``
and ``_members`` to convert a bitmask, ``reachable``, the one reachability
search, and ``_order``, the one topological order.  The public functions map
their labels to the indices of the sorted labels and back, through
``_indexed`` and ``_labelled``; the learners name their results with the
same ``_labelled``.  One projection, ``recomplete``, turns the graph into
the pattern of its class, re-reading only the edges at the ends of the
pairs that changed: it serves ``cpdag_of``, GIES's turning phase and every
greedy move.  The validated frozen types ``Dag`` and ``Cpdag`` are built
only at the boundary, once per public result.

Conventions
-----------
* An edge is a non-string pair, a 2-tuple or 2-list, of known and distinct
  labels; ``checked_graph`` checks the labels and edges of ``Dag``,
  ``Cpdag`` and ``gnn.GraphSkeleton`` in this one place, and
  ``sorted_labels`` the labels' order.
* Directed edges are ordered ``(src, dst)`` pairs.
* Undirected edges are stored canonically as ``(min, max)`` pairs and are
  never represented as two opposing directed edges.
* Everything is pure and deterministic; ties break by label order.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

from .errors import GraphError, require_labels


def _canon(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a <= b else (b, a)


def sorted_labels(nodes) -> list:
    """The labels ``nodes`` in ascending order; GraphError for labels that
    cannot be sorted against each other, such as 1 and "a"."""
    try:
        return sorted(nodes)
    except TypeError as exc:
        raise GraphError(f"node labels cannot be sorted against each other ({exc})") from exc


def checked_graph(nodes, *edge_sets):
    """The labels ``nodes`` as a tuple, then each of ``edge_sets`` as a
    frozenset of ``(a, b)`` tuples.  GraphError on a repeated label, labels
    that cannot be sorted against each other, an edge that is not a tuple or
    list of two labels, a self-loop or an endpoint outside ``nodes``."""
    nodes = tuple(nodes)
    known = set(nodes)
    if len(known) != len(nodes):
        raise GraphError("duplicate node labels")
    sorted_labels(nodes)

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
        if _order(_indexed(nodes, edges)[1]) is None:
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
        if _order(_indexed(nodes, directed)[1]) is None:
            raise GraphError("cycle in directed part")


def _mask(nodes) -> int:
    """The bitmask of a set of index labels."""
    m = 0
    for v in nodes:
        m |= 1 << v
    return m


def _members(mask: int) -> list:
    """The index labels of a bitmask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class _Pdag:
    """The one editable partially directed graph, over the index labels
    0..d-1: per node the bitmasks of its parents ``pa``, children ``ch``,
    undirected neighbours ``und`` and their union ``adj`` (bit w of
    ``pa[v]`` is set when w->v), and the bitmask ``pinned`` of the nodes
    whose edges keep their orientation.  Meek closure, sink elimination,
    class projection and the learners edit it in place, unvalidated; the
    ``Dag`` or ``Cpdag`` of a result that leaves the algebra validates it."""

    def __init__(self, d: int, directed=(), undirected=(), pinned: int = 0):
        self.nodes = range(d)
        self.pinned = pinned
        self.pa, self.ch, self.und, self.adj = ([0] * d for _ in range(4))
        for a, b in directed:
            self.orient(a, b)
        for a, b in undirected:
            self.join(a, b)

    def copy(self):
        """A copy whose edits leave this graph as it is."""
        g = copy.copy(self)
        g.pa, g.ch, g.und, g.adj = list(self.pa), list(self.ch), list(self.und), list(self.adj)
        return g

    def join(self, a, b) -> None:
        """Add the undirected edge a-b."""
        self.und[a] |= 1 << b
        self.und[b] |= 1 << a
        self.adj[a] |= 1 << b
        self.adj[b] |= 1 << a

    def orient(self, a, b) -> None:
        """Make the edge a->b, replacing an undirected a-b."""
        self.und[a] &= ~(1 << b)
        self.und[b] &= ~(1 << a)
        self.ch[a] |= 1 << b
        self.pa[b] |= 1 << a
        self.adj[a] |= 1 << b
        self.adj[b] |= 1 << a

    def cut(self, a, b) -> None:
        """Remove the edge between a and b, whichever kind it is."""
        for m in (self.pa, self.ch, self.und, self.adj):
            m[a] &= ~(1 << b)
            m[b] &= ~(1 << a)

    def directed(self) -> set:
        return {(a, b) for a in self.nodes for b in _members(self.ch[a])}

    def undirected(self) -> set:
        """Undirected edges as (min, max) pairs."""
        return {(a, b) for a in self.nodes for b in _members(self.und[a] >> a + 1 << a + 1)}


def _indexed(nodes, directed=(), undirected=(), pinned=()) -> tuple[list, _Pdag]:
    """The labels ``nodes`` sorted, and the ``_Pdag`` of the given edges and
    pinned labels over their indices.  Index k is the k-th smallest label,
    so every tie that the algebra breaks by index is the one over labels."""
    names = sorted(nodes)
    index = {v: k for k, v in enumerate(names)}
    return names, _Pdag(
        len(names),
        [(index[a], index[b]) for a, b in directed],
        [(index[a], index[b]) for a, b in undirected],
        _mask(index[v] for v in pinned),
    )


def _order(g: _Pdag) -> list | None:
    """The topological order of g's arrows, lowest ready index first (the
    smallest by label, over ``_indexed``), or None on a directed cycle."""
    order, done = [], 0
    ready = _mask(v for v in g.nodes if not g.pa[v])
    while ready:
        v = (ready & -ready).bit_length() - 1
        order.append(v)
        done |= 1 << v
        ready = ready & ~done | _mask(w for w in _members(g.ch[v]) if not g.pa[w] & ~done)
    return order if len(order) == len(g.nodes) else None


def _labelled(g: _Pdag, names) -> tuple[set, set]:
    """The directed and the undirected edges of g on the labels ``names``
    (index k is ``names[k]``)."""
    return (
        {(names[a], names[b]) for a, b in g.directed()},
        {(names[a], names[b]) for a, b in g.undirected()},
    )


def topological_sort(g: Dag) -> tuple[str, ...]:
    """Deterministic topological order, ties broken by label."""
    names, h = _indexed(g.nodes, g.edges)
    return tuple(names[k] for k in _order(h))


def in_neighbors(g: Dag, node: str) -> frozenset[str]:
    """The parents of ``node`` in g, a ``Dag`` or a ``gnn.GraphSkeleton``."""
    if node not in g.nodes:
        raise GraphError(f"unknown node {node!r}")
    return frozenset(a for a, b in g.edges if b == node)


def reachable(succ, src: int, blocked: int = 0) -> int:
    """The bitmask of the nodes reachable from ``src`` along ``succ`` (each
    node's successors as a bitmask, such as a ``_Pdag``'s ``ch``) through
    nodes outside the bitmask ``blocked``; ``src`` itself unless it is
    blocked."""
    seen = frontier = 1 << src & ~blocked
    while frontier:
        step = 0
        while frontier:
            low = frontier & -frontier
            step |= succ[low.bit_length() - 1]
            frontier ^= low
        frontier = step & ~seen & ~blocked
        seen |= frontier
    return seen


def _is_clique(nodes: int, adj) -> bool:
    """Whether the nodes of the bitmask ``nodes`` are pairwise adjacent."""
    return not any(nodes & ~(adj[c] | 1 << c) for c in _members(nodes))


def _meek_rule(g: _Pdag, a, b) -> bool:
    """Whether a Meek rule orients the undirected edge a-b as a->b."""
    pa, ch, und, adj = g.pa, g.ch, g.und, g.adj
    # R1
    if pa[a] & ~(adj[b] | 1 << b):
        return True
    # R2
    if ch[a] & pa[b]:
        return True
    # R3
    if not _is_clique(und[a] & pa[b], adj):
        return True
    # R4
    return any(ch[c] & pa[b] for c in _members(adj[a] & ~(adj[b] | 1 << b)))


def _meek(g: _Pdag) -> None:
    """Close g under the Meek rules in place (see ``meek_closure``)."""
    pa, ch, und, adj = g.pa, g.ch, g.und, g.adj

    def allowed(a: int, b: int) -> bool:
        # no directed cycle, and no collider z->b<-a absent from the pattern
        return not reachable(ch, b) >> a & 1 and not pa[b] & ~(adj[a] | 1 << a)

    changed = True
    while changed:
        changed = False
        for a, b in sorted(g.undirected()):
            for x, y in ((a, b), (b, a)):
                if not und[x] >> y & 1:
                    break
                if _meek_rule(g, x, y) and allowed(x, y):
                    g.orient(x, y)
                    changed = True
                    break


def _extend(g: _Pdag) -> None:
    """Orient every undirected edge of g in place by sink elimination, or
    raise GraphError (see ``consistent_extension``)."""
    # Every edge between a removed node and the rest points into the removed
    # node, and edges among the rest are never edited, so g itself, read
    # around ``removed``, is the graph over the nodes not yet eliminated.
    removed = 0

    def qualifies(x: int) -> bool:
        if g.ch[x] & ~removed:
            return False
        rest = g.adj[x] & ~removed
        return not any(rest & ~(g.adj[y] | 1 << y) for y in _members(g.und[x]))

    sinks = _mask(v for v in g.nodes if qualifies(v))
    while sinks:
        x = sinks.bit_length() - 1
        for y in _members(g.und[x]):
            g.orient(y, x)
        removed |= 1 << x
        sinks &= ~(1 << x)
        sinks |= _mask(y for y in _members(g.adj[x] & ~removed) if qualifies(y))
    if removed.bit_count() != len(g.nodes):
        raise GraphError("the pattern has no consistent extension")


def _protected(g: _Pdag, a, b) -> bool:
    """Whether the arrow a->b is strongly protected in g: it touches a
    pinned node, or it sits in one of the configurations
    c->a->b (c, b non-adjacent), a->b<-c (c, a non-adjacent), a->c->b, or
    a-c->b, a-d->b (c, d non-adjacent)."""
    if (g.pinned >> a | g.pinned >> b) & 1:
        return True
    pa_b, adj = g.pa[b], g.adj
    if g.pa[a] & ~adj[b] or pa_b & ~(adj[a] | 1 << a) or g.ch[a] & pa_b:
        return True
    return not _is_clique(g.und[a] & pa_b, adj)


def recomplete(g: _Pdag, pairs) -> None:
    """Turn g in place into the (interventional) pattern of its class, for
    a graph g that was such a pattern until the edges of the node pairs
    ``pairs`` were edited, and whose edited form has a consistent
    extension, as every valid greedy move's has.  The edges at the nodes
    of ``g.pinned`` keep their orientation.  A DAG is the empty pattern
    with every adjacent pair edited (see ``cpdag_of``).

    Every consistent extension of g has g's skeleton, its colliders and its
    arrows at pinned nodes, and the pattern is the Meek closure of those
    alone, so it does not depend on the extension.  Two local passes reach
    it.  The Meek rules first orient everything that every extension of g
    shares; the pattern's arrows are among those.  Then every arrow that is
    not strongly protected becomes a line again, one at a time, which
    leaves exactly the pattern's arrows (the ``ReplaceUnprotected`` step of
    Hauser & Buehlmann 2012).

    Each pass re-reads only the edges at the two ends of each pair on its
    worklist: the edited pairs, then the pairs it changed.  In the old
    pattern no rule applied and every arrow was protected, so a rule or a
    protection that holds at the end involves a changed pair, and an edge
    is read again after each change at one of its ends.  Adjacency changes
    only in the edit, no line is made before the undo pass, and in an
    (interventional) pattern a->b and b-c imply a->c; so R3's arrows c->b,
    d->b are new.  An R4 left at the end with the earliest middle arrow
    c->d would need a cycle, a reversed arrow or, by the rule that set
    c->d, another such R4 with an earlier middle arrow.  If an insert c->d
    shields the protection a-c->b, a-d->b and nothing at a or b changes,
    its T is empty (else R3 orients a-d), and d->b is left unprotected
    too; its undo re-reads a->b."""
    pa, ch, und = g.pa, g.ch, g.und
    oriented, todo = set(), set(pairs)
    while todo:  # Meek closure
        check = {(a, b) for pair in todo for a in pair for b in _members(und[a])}
        todo = set()
        for a, b in check:
            for u, v in ((a, b), (b, a)):
                if und[u] >> v & 1 and _meek_rule(g, u, v):
                    g.orient(u, v)
                    todo.add(_canon(u, v))
        oriented |= todo
    todo = set(pairs) | oriented
    while todo:  # undo the arrows that are not strongly protected
        ends = {a for pair in todo for a in pair}
        check = {(a, b) for a in ends for b in _members(ch[a])} | {(b, a) for a in ends for b in _members(pa[a])}
        todo = set()
        for u, v in check:
            if ch[u] >> v & 1 and not _protected(g, u, v):
                g.cut(u, v)
                g.join(u, v)
                todo.add(_canon(u, v))


def cpdag_of(dag: Dag, pinned=frozenset()) -> Cpdag:
    """Project a DAG onto its Markov equivalence class representative:
    skeleton + compelled v-structure edges, closed under the Meek rules.
    Edges touching a node in ``pinned``, a collection of the DAG's labels,
    keep their orientation as well: an intervention on a node fixes the
    direction of its edges (the interventional class of Hauser & Buehlmann
    2012).  On a DAG the Meek pass of ``recomplete`` finds no line to
    orient, and its second pass is ReplaceUnprotected over every arrow."""
    error = GraphError(f"pinned must be a collection of the DAG's node labels, got {pinned!r}")
    pinned = require_labels(pinned, error)
    if not pinned <= set(dag.nodes):
        raise error
    names, g = _indexed(dag.nodes, dag.edges, pinned=pinned)
    recomplete(g, {_canon(a, b) for a, b in g.directed()})
    return Cpdag(dag.nodes, *_labelled(g, names))


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
    names, out = _indexed(g.nodes, g.directed, g.undirected)
    _meek(out)
    return Cpdag(g.nodes, *_labelled(out, names), meta=dict(g.meta))


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

    A node qualifies whenever the remaining graph has a consistent
    extension, and removing it leaves a graph that still has one (Dor &
    Tarsi 1992), so elimination stalls only on a pattern without one, such
    as a chordless cycle of lines, and then raises ``GraphError``.
    """
    names, out = _indexed(g.nodes, g.directed, g.undirected)
    _extend(out)
    return Dag(g.nodes, _labelled(out, names)[0])


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
