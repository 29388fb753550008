"""Graph-algebra tests.

The load-bearing oracles here are brute-force enumerations: all labeled DAGs
on up to 4 nodes, their Markov equivalence classes (same skeleton + same
colliders), and exhaustive orientation enumeration for extension sets.  The
library must agree with these independent recomputations exactly.
"""

from __future__ import annotations

import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import soilcausal.graphs as G
from soilcausal.errors import GraphError

from enumutil import (
    LABELS4,
    all_dags,
    class_cpdag,
    equivalence_classes,
    extension_set,
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
    classes = equivalence_classes(labels, all_dags(labels))
    for members in classes.values():
        oracle = class_cpdag(labels, members)
        for edges in members:
            assert G.cpdag_of(G.Dag(labels, edges)) == oracle


def test_cpdag_of_keeps_the_edges_of_pinned_nodes():
    # a -> b -> c: pinning c fixes b -> c only; pinning a fixes a -> b,
    # and Meek's R1 then orients b -> c
    dag = G.Dag(("a", "b", "c"), {("a", "b"), ("b", "c")})
    assert G.cpdag_of(dag) == G.Cpdag(dag.nodes, frozenset(), {("a", "b"), ("b", "c")})
    assert G.cpdag_of(dag, frozenset({"c"})) == G.Cpdag(dag.nodes, {("b", "c")}, {("a", "b")})
    assert G.cpdag_of(dag, frozenset({"a"})) == G.Cpdag(dag.nodes, dag.edges, frozenset())


def test_consistent_extension_lands_inside_the_class():
    classes = equivalence_classes(LABELS4, all_dags(LABELS4))
    for members in classes.values():
        cp = class_cpdag(LABELS4, members)
        ext = G.consistent_extension(cp)
        assert ext.meta["extension_fallback"] is False
        assert ext.edges in set(members)
        assert G.v_structures(ext) == G.pattern_v_structures(cp)


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
        assert G.v_structures(dag) == frozenset(oracle)


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
    assert G.pattern_v_structures(closed) == G.pattern_v_structures(pattern)
    assert G.meek_closure(closed) == closed


@settings(deadline=None, max_examples=150, derandomize=True)
@given(
    st.integers(0, 10**6),
    st.sets(st.text(alphabet="abz_0", min_size=1, max_size=4), min_size=2, max_size=7),
)
def test_algebra_commutes_with_index_relabelling(seed, labels):
    # the greedy searches run the algebra on the indices of name-sorted
    # columns: every result, mapped back to names, must be the named one
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
    got, want = G.consistent_extension(indexed), G.consistent_extension(named)
    assert to_names(got.edges) == want.edges
    assert got.meta == want.meta
    dag = random_dag(rng, names)
    got, want = G.cpdag_of(G.Dag(nodes, to_index(dag.edges))), G.cpdag_of(dag)
    assert (to_names(got.directed), to_names(got.undirected)) == (want.directed, want.undirected)


def test_consistent_extension_fallback_is_flagged_and_acyclic():
    # An undirected chain is extendable: sanity-check the happy path first.
    cp = G.Cpdag(("a", "b", "c"), frozenset(), {("a", "b"), ("b", "c")})
    assert G.consistent_extension(cp).meta["extension_fallback"] is False

    # A chordless undirected 4-cycle admits no completion: every acyclic
    # orientation puts two in-edges from non-adjacent nodes on some corner.
    stuck = G.Cpdag(
        ("a", "b", "c", "d"),
        frozenset(),
        {("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")},
    )
    assert extension_set(stuck) == set()
    ext = G.consistent_extension(stuck)
    assert ext.meta["extension_fallback"] is True
    assert ext.edges == frozenset({("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")})


@settings(deadline=None, max_examples=200, derandomize=True)
@given(st.integers(0, 10**6), st.integers(1, 12))
def test_consistent_extension_matches_the_sorted_scan(seed, n):
    # random PDAGs, most of them no CPDAG and many with no extension, and
    # their Meek closures: the kept sink set picks the scan's node each round
    rng = random.Random(seed)
    pattern = random_pattern(rng, tuple(f"v{k:02d}" for k in range(n)))
    for g in (pattern, G.meek_closure(pattern)):
        got, want = G.consistent_extension(g), reference_consistent_extension(g)
        assert got == want
        assert got.meta == want.meta


def test_single_undirected_edge_orients_by_label():
    ext = G.consistent_extension(G.Cpdag(("X", "Y"), frozenset(), {("X", "Y")}))
    assert ext.edges == frozenset({("X", "Y")})


# ---------------------------------------------------------------------------
# traversals
# ---------------------------------------------------------------------------


def test_chain_ancestors_and_parents():
    dag = G.Dag(("A", "B", "C"), {("A", "B"), ("B", "C")})
    assert G.ancestors(dag, "C") == {"A", "B"}
    assert G.ancestors(dag, "A") == frozenset()
    assert G.in_neighbors(dag, "C") == {"B"}


def test_empty_graph_ancestors():
    dag = G.Dag(("x", "y"), frozenset())
    assert G.ancestors(dag, "x") == frozenset()


def test_reachable_stops_at_blocked_nodes():
    succ = {"a": "bc", "b": "d", "c": "d", "d": "", "e": "a"}.__getitem__
    assert G.reachable(succ, "a") == {"a", "b", "c", "d"}
    assert G.reachable(succ, "a", blocked={"b"}) == {"a", "c", "d"}
    assert G.reachable(succ, "a", blocked={"b", "c"}) == {"a"}
    assert G.reachable(succ, "a", blocked={"a"}) == set()


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
    reach = m.copy()
    for _ in range(4):  # repeated squaring covers paths up to length 16 > n
        reach = reach | (reach @ reach)
    for v in labels:
        oracle = {labels[i] for i in range(10) if reach[i, idx[v]]}
        assert G.ancestors(dag, v) == frozenset(oracle)


def test_topological_sort_is_deterministic_and_valid():
    dag = G.Dag(("d", "c", "b", "a"), {("d", "b"), ("c", "b"), ("b", "a")})
    order = G.topological_sort(dag)
    assert order == ("c", "d", "b", "a")  # ties by label
    pos = {v: i for i, v in enumerate(order)}
    assert all(pos[x] < pos[y] for x, y in dag.edges)


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
    assert not G.is_acyclic(("a", "b"), {("a", "b"), ("b", "a")})


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
