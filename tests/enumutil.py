"""Shared brute-force oracles for the test suite: labeled-DAG enumeration,
Markov-equivalence classes, extension sets, random graph generators, a
one-test-at-a-time PC skeleton search, a per-node-argsort CART grower, and
a builder for small all-continuous tables."""

from __future__ import annotations

import random
from itertools import combinations, product

import numpy as np

import soilcausal.graphs as G
from soilcausal.baselines import _SPLIT_EPS, TreeNode
from soilcausal.ingest import ColumnSpec, Table
from soilcausal.stats import WarningCounter, fisher_z_test

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
            best = (f, 0.5 * (xs[j] + xs[j + 1]))
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
