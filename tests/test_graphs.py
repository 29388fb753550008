"""Graph-algebra tests.

The load-bearing oracles here are brute-force enumerations: all labeled DAGs
on up to 4 nodes, their (interventional) Markov equivalence classes (same
skeleton, colliders and arrows at pinned nodes), and exhaustive orientation
enumeration for extension sets.  The library must agree with these
independent recomputations exactly.
"""

from __future__ import annotations

import random
from itertools import combinations, permutations

import pytest
from hypothesis import example, given, settings, strategies as st

import soilcausal.graphs as G
from soilcausal.errors import GraphError
from soilcausal.baselines import random_skeleton
from soilcausal.gnn import GraphSkeleton, skeleton_from_pattern

from enumutil import (
    LABELS4,
    all_dags,
    class_cpdag,
    colliders,
    complete,
    equivalence_classes,
    extension_set,
    outcome,
    random_dag,
    random_pattern,
    reference_consistent_extension,
)


# ---------------------------------------------------------------------------
# enumeration-backed checks
# ---------------------------------------------------------------------------


def test_dag_enumeration_counts():
    assert len(all_dags(("A", "B"))) == 3
    assert len(all_dags(("A", "B", "C"))) == 25
    assert len(all_dags(LABELS4)) == 543


@pytest.mark.parametrize("labels", [("A", "B"), ("A", "B", "C"), LABELS4])
def test_cpdag_of_matches_class_enumeration(labels):
    # every DAG with every pinned subset (8,900 cases over the three label
    # sets): the pattern keeps an arrow only where every DAG of its
    # interventional class agrees
    dags = all_dags(labels)
    for size in range(len(labels) + 1):
        for pinned in map(frozenset, combinations(labels, size)):
            for members in equivalence_classes(labels, dags, pinned).values():
                oracle = class_cpdag(labels, members)
                for edges in members:
                    assert G.cpdag_of(G.Dag(labels, edges), pinned) == oracle


def test_cpdag_of_keeps_the_edges_of_pinned_nodes():
    # a -> b -> c: pinning c fixes b -> c only; pinning a fixes a -> b,
    # and Meek's R1 then orients b -> c
    dag = G.Dag(("a", "b", "c"), {("a", "b"), ("b", "c")})
    assert G.cpdag_of(dag) == G.Cpdag(dag.nodes, frozenset(), {("a", "b"), ("b", "c")})
    assert G.cpdag_of(dag, frozenset({"c"})) == G.Cpdag(dag.nodes, {("b", "c")}, {("a", "b")})
    assert G.cpdag_of(dag, frozenset({"a"})) == G.Cpdag(dag.nodes, dag.edges, frozenset())
    # any iterable of labels, read once
    assert G.cpdag_of(dag, iter(["c"])) == G.cpdag_of(dag, frozenset({"c"}))


def test_cpdag_of_rejects_pinned_labels_that_are_not_nodes():
    # a label outside the DAG, a string, which would be read as its
    # characters ("ph" names the nodes h and p), an unhashable label and
    # no collection at all
    with pytest.raises(GraphError, match="pinned"):
        G.cpdag_of(G.Dag(("a", "b", "c"), {("a", "b")}), {"B"})
    with pytest.raises(GraphError, match="pinned"):
        G.cpdag_of(G.Dag(("h", "p", "x"), {("h", "p"), ("p", "x")}), "ph")
    for pinned in ([["a"]], 5, None):
        with pytest.raises(GraphError, match="pinned"):
            G.cpdag_of(G.Dag(("a", "b", "c"), {("a", "b")}), pinned)


def test_consistent_extension_lands_inside_the_class():
    classes = equivalence_classes(LABELS4, all_dags(LABELS4))
    for members in classes.values():
        cp = class_cpdag(LABELS4, members)
        ext = G.consistent_extension(cp)
        assert ext.edges in set(members)
        assert colliders(ext.nodes, ext.edges) == colliders(cp.nodes, cp.directed, cp.undirected)


def test_v_structures_match_triple_scan():
    rng = random.Random(7)
    for _ in range(50):
        dag = random_dag(rng, ("a", "b", "c", "d", "e"))
        adj = {tuple(sorted(e)) for e in dag.edges}
        oracle = {
            (x, z, y)
            for x, y in combinations(sorted(dag.nodes), 2)
            for z in dag.nodes
            if (x, z) in dag.edges and (y, z) in dag.edges and tuple(sorted((x, y))) not in adj
        }
        assert colliders(dag.nodes, dag.edges) == frozenset(oracle)


# ---------------------------------------------------------------------------
# Meek closure
# ---------------------------------------------------------------------------


def test_meek_r1_orients_away_from_collider_shadow():
    # a->b, b-c, a and c non-adjacent: every completion must use b->c.
    cp = G.Cpdag(("a", "b", "c"), {("a", "b")}, {("b", "c")})
    out = G.meek_closure(cp)
    assert ("b", "c") in out.directed and not out.undirected


def test_meek_r2_closes_transitive_triangle():
    cp = G.Cpdag(("a", "b", "c"), {("a", "c"), ("c", "b")}, {("a", "b")})
    out = G.meek_closure(cp)
    assert ("a", "b") in out.directed


def test_meek_r3_and_r4_fire():
    # R3: a-b, a-c, a-d, c->b, d->b with c,d non-adjacent.
    cp3 = G.Cpdag(
        ("a", "b", "c", "d"),
        {("c", "b"), ("d", "b")},
        {("a", "b"), ("a", "c"), ("a", "d")},
    )
    assert ("a", "b") in G.meek_closure(cp3).directed
    # R4: a-b, a-c, c->d, d->b with c,b non-adjacent.
    cp4 = G.Cpdag(
        ("a", "b", "c", "d"),
        {("c", "d"), ("d", "b")},
        {("a", "b"), ("a", "c"), ("a", "d")},
    )
    assert ("a", "b") in G.meek_closure(cp4).directed


@settings(deadline=None, max_examples=120, derandomize=True)
@given(st.integers(0, 10**6))
def test_meek_closure_preserves_extension_set(seed):
    rng = random.Random(seed)
    pattern = random_pattern(rng, LABELS4)
    before = extension_set(pattern)
    closed = G.meek_closure(pattern)
    # Closure only ever commits orientations shared by every completion, so
    # the completion set must survive unchanged (when one exists at all).
    if before:
        assert extension_set(closed) == before
    assert pattern.directed <= closed.directed
    assert colliders(closed.nodes, closed.directed, closed.undirected) == colliders(
        pattern.nodes, pattern.directed, pattern.undirected
    )
    assert G.meek_closure(closed) == closed


@settings(deadline=None, max_examples=150, derandomize=True)
@given(
    st.integers(0, 10**6),
    st.sets(st.text(alphabet="abz_0", min_size=1, max_size=4), min_size=2, max_size=7),
)
def test_algebra_commutes_with_index_relabelling(seed, labels):
    # the greedy searches run the algebra on the indices of name-sorted
    # columns: every result, mapped back to names, must be the named one.
    # The same graphs over a shuffled node tuple give the same edges and
    # keep the tuple as it was given: ties break by label, not by position
    names = tuple(sorted(labels))
    index = {v: k for k, v in enumerate(names)}
    nodes = tuple(range(len(names)))

    def to_index(pairs):
        return {(index[a], index[b]) for a, b in pairs}

    def to_names(pairs):
        return frozenset((names[a], names[b]) for a, b in pairs)

    rng = random.Random(seed)
    named = random_pattern(rng, names)
    indexed = G.Cpdag(nodes, to_index(named.directed), to_index(named.undirected))
    got, want = G.meek_closure(indexed), G.meek_closure(named)
    assert (to_names(got.directed), to_names(got.undirected)) == (want.directed, want.undirected)
    # a pattern without a consistent extension raises in every labelling
    ext, got = outcome(G.consistent_extension, named), outcome(G.consistent_extension, indexed)
    assert (got == ext) if isinstance(ext, str) else (to_names(got.edges) == ext.edges)
    dag = random_dag(rng, names)
    got, want = G.cpdag_of(G.Dag(nodes, to_index(dag.edges))), G.cpdag_of(dag)
    assert (to_names(got.directed), to_names(got.undirected)) == (want.directed, want.undirected)
    shuffled = tuple(rng.sample(names, len(names)))
    mixed = G.Cpdag(shuffled, named.directed, named.undirected)
    got, want = G.meek_closure(mixed), G.meek_closure(named)
    assert (got.nodes, got.directed, got.undirected) == (shuffled, want.directed, want.undirected)
    got = outcome(G.consistent_extension, mixed)
    assert (got == ext) if isinstance(ext, str) else ((got.nodes, got.edges) == (shuffled, ext.edges))
    got, want = G.cpdag_of(G.Dag(shuffled, dag.edges)), G.cpdag_of(dag)
    assert (got.nodes, got.directed, got.undirected) == (shuffled, want.directed, want.undirected)


def test_consistent_extension_raises_without_an_extension():
    # An undirected chain is extendable: sanity-check the happy path first.
    cp = G.Cpdag(("a", "b", "c"), frozenset(), {("a", "b"), ("b", "c")})
    assert G.consistent_extension(cp).edges in extension_set(cp)

    # A chordless undirected 4-cycle admits no completion: every acyclic
    # orientation puts two in-edges from non-adjacent nodes on some corner.
    stuck = G.Cpdag(
        ("a", "b", "c", "d"),
        frozenset(),
        {("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")},
    )
    assert extension_set(stuck) == set()
    with pytest.raises(GraphError, match="the pattern has no consistent extension"):
        G.consistent_extension(stuck)


@settings(deadline=None, max_examples=200, derandomize=True)
@given(st.integers(0, 10**6), st.integers(1, 12))
def test_consistent_extension_matches_the_sorted_scan(seed, n):
    # random PDAGs, most of them no CPDAG and many with no extension, and
    # their Meek closures: the kept sink set picks the scan's node each
    # round, and both raise where no node qualifies
    rng = random.Random(seed)
    pattern = random_pattern(rng, tuple(f"v{k:02d}" for k in range(n)))
    for g in (pattern, G.meek_closure(pattern)):
        assert outcome(G.consistent_extension, g) == outcome(reference_consistent_extension, g)


@settings(deadline=None, max_examples=200, derandomize=True)
@given(st.integers(0, 10**6), st.integers(1, 12))
@example(0, 3)  # every node is eliminated as a sink
@example(0, 12)  # no sink is left: both raise
def test_complete_in_place_equals_the_public_composition(seed, n):
    # the whole-graph reference completion on one editable graph, with a
    # random pinned set, equals extending to a validated Dag and projecting
    # that with ``cpdag_of`` (``recomplete`` over every edge), or raises
    # with it
    rng = random.Random(seed)
    pattern = random_pattern(rng, tuple(range(n)))
    pinned = frozenset(v for v in pattern.nodes if rng.random() < 0.3)
    g = G._Pdag(n, pattern.directed, pattern.undirected, G._mask(pinned))

    def completed():
        complete(g)
        return g.directed(), g.undirected()

    def composed():
        want = G.cpdag_of(G.consistent_extension(pattern), pinned)
        return want.directed, want.undirected

    assert outcome(completed) == outcome(composed)


def test_extension_rejects_a_directed_cycle():
    # the editable graph is not validated; sink elimination finds no sink
    # on a cycle, which has no consistent extension
    g = G._Pdag(3, {(0, 1), (1, 2), (2, 0)})
    with pytest.raises(GraphError, match="no consistent extension"):
        G._extend(g)


def test_single_undirected_edge_orients_by_label():
    ext = G.consistent_extension(G.Cpdag(("X", "Y"), frozenset(), {("X", "Y")}))
    assert ext.edges == frozenset({("X", "Y")})


# ---------------------------------------------------------------------------
# traversals
# ---------------------------------------------------------------------------


def test_chain_ancestors_and_parents():
    # A -> B -> C as indices 0 -> 1 -> 2: reachability over the parents
    dag = G.Dag(("A", "B", "C"), {("A", "B"), ("B", "C")})
    names, g = G._indexed(dag.nodes, dag.edges)
    assert names == ["A", "B", "C"]
    assert G.reachable(g.pa, 2) == 0b111
    assert G.reachable(g.pa, 0) == 0b001
    assert G.in_neighbors(dag, "C") == {"B"}


def test_empty_graph_ancestors():
    assert G.reachable(G._Pdag(2).pa, 0) == 0b01


def test_reachable_stops_at_blocked_nodes():
    # a -> b, c; b -> d; c -> d; e -> a, as indices 0..4
    succ = [0b00110, 0b01000, 0b01000, 0, 0b00001]
    assert G.reachable(succ, 0) == 0b01111
    assert G.reachable(succ, 0, blocked=0b00010) == 0b01101
    assert G.reachable(succ, 0, blocked=0b00110) == 0b00001
    assert G.reachable(succ, 0, blocked=0b00001) == 0


@settings(deadline=None, max_examples=60, derandomize=True)
@given(st.integers(0, 10**6))
def test_ancestors_equal_reachability_closure(seed):
    import numpy as np

    rng = random.Random(seed)
    labels = tuple(f"n{i}" for i in range(10))
    dag = random_dag(rng, labels, p=0.25)
    idx = {v: i for i, v in enumerate(labels)}
    m = np.zeros((10, 10), dtype=bool)
    for a, b in dag.edges:
        m[idx[a], idx[b]] = True
    parents = [sum(1 << idx[a] for a in G.in_neighbors(dag, v)) for v in labels]
    # ancestors through unblocked nodes: reachability over the parents
    for blocked in (set(), set(rng.sample(labels, 3))):
        free = np.array([v not in blocked for v in labels])
        reach = m & free[:, None] & free[None, :]
        for _ in range(4):  # repeated squaring covers paths up to length 16 > n
            reach = reach | (reach @ reach)
        for v in labels:
            oracle = set() if v in blocked else {v} | {labels[i] for i in range(10) if reach[i, idx[v]]}
            got = G.reachable(parents, idx[v], sum(1 << idx[u] for u in blocked))
            assert got == sum(1 << idx[u] for u in oracle)


def test_topological_sort_is_deterministic_and_valid():
    dag = G.Dag(("d", "c", "b", "a"), {("d", "b"), ("c", "b"), ("b", "a")})
    order = G.topological_sort(dag)
    assert order == ("c", "d", "b", "a")  # ties by label
    pos = {v: i for i, v in enumerate(order)}
    assert all(pos[x] < pos[y] for x, y in dag.edges)
    # every DAG on 4 labels, its nodes given in reverse: the order is the
    # smallest topological permutation by label, which ``synth`` samples in
    for edges in all_dags(LABELS4):
        valid = [p for p in permutations(LABELS4) if all(p.index(x) < p.index(y) for x, y in edges)]
        assert G.topological_sort(G.Dag(LABELS4[::-1], edges)) == min(valid)


def test_validation_errors():
    with pytest.raises(GraphError):
        G.Dag(("a", "a"), frozenset())
    with pytest.raises(GraphError):
        G.Dag(("a", "b"), {("a", "a")})
    with pytest.raises(GraphError):
        G.Dag(("a", "b"), {("a", "z")})
    with pytest.raises(GraphError):
        G.Dag(("a", "b"), {("a", "b"), ("b", "a")})
    with pytest.raises(GraphError):
        G.Cpdag(("a", "b"), {("a", "b")}, {("a", "b")})
    with pytest.raises(GraphError):
        G.Cpdag(("a", "b", "c"), {("a", "b"), ("b", "c"), ("c", "a")}, frozenset())
    assert G._order(G._Pdag(2, {(0, 1), (1, 0)})) is None


# each graph type's edge input, as a function of one edge set over a, b, c
EDGE_INPUTS = {
    "Dag.edges": lambda edges: G.Dag(("a", "b", "c"), edges),
    "Cpdag.directed": lambda edges: G.Cpdag(("a", "b", "c"), edges, frozenset()),
    "Cpdag.undirected": lambda edges: G.Cpdag(("a", "b", "c"), frozenset(), edges),
    "GraphSkeleton.edges": lambda edges: GraphSkeleton(("a", "b", "c"), edges, target="c"),
}


@pytest.mark.parametrize("make", EDGE_INPUTS.values(), ids=EDGE_INPUTS.keys())
@pytest.mark.parametrize("edge", ["ab", ("a",), ("a", "b", "c"), 1, ("a", "a"), ("a", "z")], ids=repr)
def test_every_edge_input_rejects_a_malformed_edge(make, edge):
    # a string such as 'ab' is one label, not the edge a -> b
    with pytest.raises(GraphError):
        make([("b", "c"), edge])


@pytest.mark.parametrize("make", EDGE_INPUTS.values(), ids=EDGE_INPUTS.keys())
def test_every_edge_input_reads_list_pairs_as_tuples(make):
    assert make([["a", "b"], ["b", "c"]]) == make({("a", "b"), ("b", "c")})


# each call that takes node labels, as a function of the labels
LABEL_INPUTS = {
    "Dag": lambda nodes: G.Dag(nodes, ()),
    "Cpdag": lambda nodes: G.Cpdag(nodes, (), ()),
    "GraphSkeleton": lambda nodes: GraphSkeleton(nodes, (), target="a"),
    "skeleton_from_pattern": lambda nodes: skeleton_from_pattern(G.Cpdag(("a",), (), ()), nodes, "a"),
    "random_skeleton": lambda nodes: random_skeleton(nodes, "a", 1),
}


@pytest.mark.parametrize("make", LABEL_INPUTS.values(), ids=LABEL_INPUTS.keys())
def test_every_label_input_rejects_labels_that_do_not_sort(make):
    # the labels' order breaks every tie; 1 and "a" once raised a bare
    # TypeError from the sort, and GraphSkeleton accepted them
    with pytest.raises(GraphError, match="cannot be sorted against each other"):
        make((1, "a"))


# ---------------------------------------------------------------------------
# structural Hamming distance
# ---------------------------------------------------------------------------


def test_shd_small_cases():
    a = G.Cpdag(("x", "y", "z"), {("x", "y")}, {("y", "z")})
    assert G.shd(a, a) == 0
    flipped = G.Cpdag(("x", "y", "z"), {("y", "x")}, {("y", "z")})
    assert G.shd(a, flipped) == 1
    absent = G.Cpdag(("x", "y", "z"), frozenset(), {("y", "z")})
    assert G.shd(a, absent) == 1
    undir = G.Cpdag(("x", "y", "z"), frozenset(), {("x", "y"), ("y", "z")})
    assert G.shd(a, undir) == 1


@settings(deadline=None, max_examples=60, derandomize=True)
@given(st.integers(0, 10**6))
def test_shd_is_a_metric(seed):
    rng = random.Random(seed)
    labels = tuple("uvwxyz")
    g1, g2, g3 = (G.cpdag_of(random_dag(rng, labels)) for _ in range(3))
    assert G.shd(g1, g1) == 0
    assert G.shd(g1, g2) == G.shd(g2, g1)
    assert G.shd(g1, g3) <= G.shd(g1, g2) + G.shd(g2, g3)
    # cross-check against a direct pairwise scan
    direct = 0
    for a, b in combinations(sorted(labels), 2):
        def status(g):
            if (a, b) in g.directed:
                return ">"
            if (b, a) in g.directed:
                return "<"
            if (a, b) in g.undirected:
                return "-"
            return "."
        direct += status(g1) != status(g2)
    assert G.shd(g1, g2) == direct


def test_shd_rejects_mismatched_nodes():
    with pytest.raises(GraphError):
        G.shd(G.Cpdag(("a",), frozenset(), frozenset()), G.Cpdag(("b",), frozenset(), frozenset()))
