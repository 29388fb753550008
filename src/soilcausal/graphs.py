"""Graph algebra for causal structure learning.

DAGs and CPDAGs over string-labelled nodes: v-structure detection,
equivalence-class projection, Meek orientation propagation, consistent
extensions, structural Hamming distance, and DOT / edge-list export.

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
from typing import Iterable, Mapping

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


def descendants(g: Dag, node: str) -> frozenset[str]:
    """All proper descendants of ``node``."""
    if node not in g.nodes:
        raise GraphError(f"unknown node {node!r}")
    ch: dict[str, set[str]] = defaultdict(set)
    for a, b in g.edges:
        ch[a].add(b)
    return frozenset(reachable(ch.__getitem__, node) - {node})


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


def cpdag_of(dag: Dag) -> Cpdag:
    """Project a DAG onto its Markov equivalence class representative:
    skeleton + compelled v-structure edges, closed under the Meek rules."""
    skeleton = {_canon(a, b) for a, b in dag.edges}
    forced: set[tuple[str, str]] = set()
    for a, c, b in v_structures(dag):
        forced.add((a, c))
        forced.add((b, c))
    undirected = skeleton - {_canon(a, b) for a, b in forced}
    return meek_closure(Cpdag(dag.nodes, frozenset(forced), frozenset(undirected)))


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
    adj: dict[str, set[str]] = defaultdict(set)
    parents: dict[str, set[str]] = defaultdict(set)
    children: dict[str, set[str]] = defaultdict(set)
    und: dict[str, set[str]] = defaultdict(set)
    for a, b in g.directed:
        adj[a].add(b)
        adj[b].add(a)
        children[a].add(b)
        parents[b].add(a)
    for a, b in undirected:
        adj[a].add(b)
        adj[b].add(a)
        und[a].add(b)
        und[b].add(a)

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


# ---------------------------------------------------------------------------
# export / serial formats
# ---------------------------------------------------------------------------

_ROLE_STYLE = {
    "management": 'shape=box style=filled fillcolor="#d6e4f0"',
    "soil": 'shape=ellipse style=filled fillcolor="#dff0d8"',
    "target": 'shape=doubleoctagon style=filled fillcolor="#f5deb3"',
}


def _dot_quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(g: Dag | Cpdag, roles: Mapping[str, str] | None = None) -> str:
    """Render as a DOT digraph; undirected edges use ``dir=none``.
    Output ordering is canonical so identical graphs render identically."""
    roles = roles or {}
    lines = ["digraph G {"]
    for v in g.nodes:
        style = _ROLE_STYLE.get(roles.get(v, ""), "shape=ellipse")
        lines.append(f"  {_dot_quote(v)} [{style}];")
    if isinstance(g, Dag):
        directed, undirected = sorted(g.edges), []
    else:
        directed, undirected = sorted(g.directed), sorted(g.undirected)
    for a, b in directed:
        lines.append(f"  {_dot_quote(a)} -> {_dot_quote(b)};")
    for a, b in undirected:
        lines.append(f"  {_dot_quote(a)} -> {_dot_quote(b)} [dir=none];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def write_edge_list(dag: Dag, path: str) -> None:
    """One ``src<TAB>dst<TAB>attr`` line per directed edge, attr fixed at 1.0."""
    lines = [f"{a}\t{b}\t1.0" for a, b in sorted(dag.edges)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + ("\n" if lines else ""))


def read_edge_list(path: str) -> tuple[tuple[str, str, float], ...]:
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for ln, raw in enumerate(fh, 1):
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise GraphError(f"{path}:{ln}: expected 'src<TAB>dst<TAB>attr'")
            try:
                attr = float(parts[2])
            except ValueError as exc:
                raise GraphError(f"{path}:{ln}: bad edge attribute {parts[2]!r}") from exc
            out.append((parts[0], parts[1], attr))
    return tuple(out)


def write_cpdag_list(g: Cpdag, path: str) -> None:
    """Sectioned plain-text form: node labels, then directed, then undirected."""
    lines = ["# nodes"]
    lines += list(g.nodes)
    lines.append("# directed")
    lines += [f"{a}\t{b}" for a, b in sorted(g.directed)]
    lines.append("# undirected")
    lines += [f"{a}\t{b}" for a, b in sorted(g.undirected)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_cpdag_list(path: str) -> Cpdag:
    nodes: list[str] = []
    directed: list[tuple[str, str]] = []
    undirected: list[tuple[str, str]] = []
    section = None
    with open(path, "r", encoding="utf-8") as fh:
        for ln, raw in enumerate(fh, 1):
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            if line.startswith("#"):
                section = line[1:].strip()
                continue
            if section == "nodes":
                nodes.append(line)
            elif section in ("directed", "undirected"):
                parts = line.split("\t")
                if len(parts) != 2:
                    raise GraphError(f"{path}:{ln}: expected 'src<TAB>dst'")
                (directed if section == "directed" else undirected).append(
                    (parts[0], parts[1])
                )
            else:
                raise GraphError(f"{path}:{ln}: content before a section header")
    return Cpdag(tuple(nodes), frozenset(directed), frozenset(undirected))
