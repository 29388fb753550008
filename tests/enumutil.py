"""Shared brute-force oracles for the test suite: labeled-DAG enumeration,
Markov-equivalence classes, extension sets, random graph generators, and a
one-test-at-a-time PC skeleton search."""

from __future__ import annotations

import random
from itertools import combinations, product

import soilcausal.graphs as G
from soilcausal.stats import WarningCounter, fisher_z_test

LABELS4 = ("A", "B", "C", "D")


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
        if G.is_acyclic(labels, edges):
            out.append(frozenset(edges))
    return out


def equivalence_classes(labels, dags):
    """Group DAG edge sets by (skeleton, v-structures)."""
    classes: dict[tuple, list[frozenset]] = {}
    for edges in dags:
        dag = G.Dag(labels, edges)
        skel = frozenset(tuple(sorted(e)) for e in edges)
        key = (skel, G.v_structures(dag))
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
    want = G.pattern_v_structures(pattern)
    out = set()
    for bits in range(2 ** len(und)):
        edges = set(pattern.directed)
        for k, (a, b) in enumerate(und):
            edges.add((a, b) if (bits >> k) & 1 else (b, a))
        if not G.is_acyclic(pattern.nodes, edges):
            continue
        if G.v_structures(G.Dag(pattern.nodes, frozenset(edges))) == want:
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
                        if fisher_z_test(i, j, S, stat, alpha, warn).independent:
                            found = frozenset(S)
                    else:
                        skipped = WarningCounter()
                        fisher_z_test(i, j, S, stat, alpha, skipped)
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
