"""Graph algebra for causal structure learning.

DAGs and CPDAGs over hashable, totally ordered node labels: v-structure
detection, equivalence-class projection, Meek orientation propagation,
consistent extensions and structural Hamming distance.  Results depend on
the labels only through their order, so relabelling by an order-preserving
map commutes with every operation; the greedy searches rely on this and run
on column indices.

Conventions
-----------
* Directed edges are ordered ``(src, dst)`` pairs.
* Undirected edges are stored canonically as ``(min, max)`` pairs and are
  never represented as two opposing directed edges.
* Everything is pure and deterministic; ties break by label order.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
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


@dataclass(frozen=True)
class Dag:
    """Directed acyclic graph.  ``meta`` is ignored by equality and hashing."""

    nodes: tuple[str, ...]
    edges: frozenset[tuple[str, str]]
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "edges", frozenset((a, b) for a, b in self.edges))
        if len(set(self.nodes)) != len(self.nodes):
            raise GraphError("duplicate node labels")
        known = set(self.nodes)
        for a, b in self.edges:
            if a == b:
                raise GraphError(f"self-loop at {a!r}")
            if a not in known or b not in known:
                raise GraphError(f"edge ({a!r}, {b!r}) references unknown node")
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
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "directed", frozenset((a, b) for a, b in self.directed))
        object.__setattr__(
            self, "undirected", frozenset(_canon(a, b) for a, b in self.undirected)
        )
        if len(set(self.nodes)) != len(self.nodes):
            raise GraphError("duplicate node labels")
        known = set(self.nodes)
        for a, b in self.directed | self.undirected:
            if a == b:
                raise GraphError(f"self-loop at {a!r}")
            if a not in known or b not in known:
                raise GraphError(f"edge ({a!r}, {b!r}) references unknown node")
        dir_pairs = {_canon(a, b) for a, b in self.directed}
        if len(dir_pairs) != len(self.directed):
            raise GraphError("pair directed in both directions")
        if dir_pairs & self.undirected:
            raise GraphError("pair both directed and undirected")
        if _kahn(self.nodes, self.directed) is None:
            raise GraphError("cycle in directed part")


def is_acyclic(nodes: Iterable[str], edges: Iterable[tuple[str, str]]) -> bool:
    return _kahn(nodes, edges) is not None


def topological_sort(g: Dag) -> tuple[str, ...]:
    """Deterministic topological order, ties broken by label."""
    order = _kahn(g.nodes, g.edges)
    if order is None:  # unreachable for a validated Dag; kept for raw callers
        raise GraphError("cannot topologically sort a cyclic graph")
    return tuple(order)


def in_neighbors(g: Dag, node: str) -> frozenset[str]:
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


def ancestors(g: Dag, node: str) -> frozenset[str]:
    """All proper ancestors of ``node`` (excludes the node itself)."""
    if node not in g.nodes:
        raise GraphError(f"unknown node {node!r}")
    par: dict[str, set[str]] = defaultdict(set)
    for a, b in g.edges:
        par[b].add(a)
    return frozenset(reachable(par.__getitem__, node) - {node})


def _colliders(
    directed: Iterable[tuple[str, str]], adjacent: set[tuple[str, str]]
) -> frozenset[tuple[str, str, str]]:
    """Triples (a, c, b), a < b, with a->c<-b directed and a, b non-adjacent."""
    par: dict[str, set[str]] = defaultdict(set)
    for a, b in directed:
        par[b].add(a)
    out = set()
    for c, ps in par.items():
        for a, b in combinations(sorted(ps), 2):
            if (a, b) not in adjacent:
                out.add((a, c, b))
    return frozenset(out)


def v_structures(g: Dag) -> frozenset[tuple[str, str, str]]:
    adjacent = {_canon(a, b) for a, b in g.edges}
    return _colliders(g.edges, adjacent)


def pattern_v_structures(g: Cpdag) -> frozenset[tuple[str, str, str]]:
    """Colliders formed by the *directed* part of a partially directed graph."""
    adjacent = {_canon(a, b) for a, b in g.directed} | set(g.undirected)
    return _colliders(g.directed, adjacent)


def cpdag_of(dag: Dag, pinned=frozenset()) -> Cpdag:
    """Project a DAG onto its Markov equivalence class representative:
    skeleton + compelled v-structure edges, closed under the Meek rules.
    Edges touching a node in ``pinned`` keep their orientation as well: an
    intervention on a node fixes the direction of its edges (the
    interventional class of Hauser & Buehlmann 2012)."""
    forced: set[tuple[str, str]] = set()
    for a, c, b in v_structures(dag):
        forced.add((a, c))
        forced.add((b, c))
    forced.update((a, b) for a, b in dag.edges if a in pinned or b in pinned)
    undirected = {_canon(a, b) for a, b in dag.edges if (a, b) not in forced}
    return meek_closure(Cpdag(dag.nodes, frozenset(forced), frozenset(undirected)))


def _neighbour_maps(directed, undirected):
    """Adjacency, parent, child and undirected-neighbour sets per node of
    a graph with the given directed and undirected edges."""
    adj: dict[str, set[str]] = defaultdict(set)
    parents: dict[str, set[str]] = defaultdict(set)
    children: dict[str, set[str]] = defaultdict(set)
    und: dict[str, set[str]] = defaultdict(set)
    for a, b in directed:
        adj[a].add(b)
        adj[b].add(a)
        children[a].add(b)
        parents[b].add(a)
    for a, b in undirected:
        adj[a].add(b)
        adj[b].add(a)
        und[a].add(b)
        und[b].add(a)
    return adj, parents, children, und


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
    directed = set(g.directed)
    undirected = set(g.undirected)
    adj, parents, children, und = _neighbour_maps(directed, undirected)

    def orient(a: str, b: str) -> bool:
        if a in reachable(children.__getitem__, b):  # would close a directed cycle
            return False
        for z in parents[b]:  # would create a collider z->b<-a not in the pattern
            if z != a and z not in adj[a]:
                return False
        undirected.discard(_canon(a, b))
        und[a].discard(b)
        und[b].discard(a)
        directed.add((a, b))
        children[a].add(b)
        parents[b].add(a)
        return True

    def rule_applies(a: str, b: str) -> bool:
        # R1
        for c in parents[a]:
            if c != b and b not in adj[c]:
                return True
        # R2
        if children[a] & parents[b]:
            return True
        # R3
        shared = sorted(und[a] & parents[b])
        for c, d in combinations(shared, 2):
            if d not in adj[c]:
                return True
        # R4
        for c in sorted(adj[a]):
            if c == b or b in adj[c]:
                continue
            if children[c] & parents[b]:
                return True
        return False

    changed = True
    while changed:
        changed = False
        for a, b in sorted(undirected):
            for x, y in ((a, b), (b, a)):
                if _canon(x, y) not in undirected:
                    break
                if rule_applies(x, y) and orient(x, y):
                    changed = True
                    break
    return Cpdag(g.nodes, frozenset(directed), frozenset(undirected), meta=dict(g.meta))


def consistent_extension(g: Cpdag) -> Dag:
    """Orient all undirected edges into a DAG with the same skeleton and the
    same colliders, via sink elimination.

    Each round removes the largest-label node x that (a) has no outgoing
    directed edge and (b) whose undirected neighbours are adjacent to every
    other neighbour of x, orienting x's undirected edges into x.  For a lone
    undirected edge this yields the label-order orientation a->b.

    If no node qualifies the pattern admits no consistent extension; the
    leftover undirected edges are then oriented along a topological order of
    the already-directed part (label ties first) and the result is flagged
    with ``meta["extension_fallback"] = True``.
    """
    remaining = set(g.nodes)
    oriented: set[tuple[str, str]] = set(g.directed)
    undirected = set(g.undirected)
    adj, parents, children, und = _neighbour_maps(g.directed, undirected)

    def qualifies(x: str) -> bool:
        if children[x]:
            return False
        for y in und[x]:
            for z in adj[x]:
                if z != y and z not in adj[y]:
                    return False
        return True

    def drop(x: str) -> None:
        remaining.discard(x)
        for y in list(adj[x]):
            adj[y].discard(x)
            und[y].discard(x)
            children[y].discard(x)
            parents[y].discard(x)
            undirected.discard(_canon(x, y))
        adj.pop(x, None)
        und.pop(x, None)
        children.pop(x, None)
        parents.pop(x, None)

    while remaining:
        x = next((v for v in sorted(remaining, reverse=True) if qualifies(v)), None)
        if x is None:
            order = _kahn(g.nodes, oriented)
            assert order is not None  # oriented grows only by sink insertion
            pos = {v: i for i, v in enumerate(order)}
            for a, b in sorted(undirected):
                oriented.add((a, b) if pos[a] < pos[b] else (b, a))
            return Dag(g.nodes, frozenset(oriented), meta={"extension_fallback": True})
        for y in und[x]:
            oriented.add((y, x))
        drop(x)
    return Dag(g.nodes, frozenset(oriented), meta={"extension_fallback": False})


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
