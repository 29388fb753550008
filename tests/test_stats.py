"""Tests for the Gaussian CI-test and BIC-score layer.

Oracles: textbook two-pass covariance, explicit double-regression residual
correlation, analytic covariances with known zero partial correlations,
Monte-Carlo calibration under the null, and least-squares rescoring of the
BIC scores, which run through the scorer ``ges`` and ``gies`` use, on all
rows and on the rows an intervention leaves.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

import soilcausal.graphs as G
import soilcausal.stats as S
from soilcausal.discovery import _Scorer
from soilcausal.errors import ConfigError, NumericError

from enumutil import all_dags, continuous_table, equivalence_classes


def fresh_counter():
    return S.WarningCounter()


# ---------------------------------------------------------------------------
# sufficient statistics
# ---------------------------------------------------------------------------


def test_suff_stat_matches_two_pass_formula():
    rng = np.random.default_rng(0)
    data = rng.normal(size=(1000, 4))
    st = S.suff_stat(data, ("a", "b", "c", "d"))
    mean = data.mean(axis=0)
    oracle = np.zeros((4, 4))
    for i in range(4):
        for j in range(4):
            oracle[i, j] = ((data[:, i] - mean[i]) * (data[:, j] - mean[j])).sum() / 999
    assert np.abs(st.cov - oracle).max() < 1e-10
    assert np.abs(st.mean - mean).max() == 0.0
    assert st.n == 1000


def test_suff_stat_perfect_correlation_geometric_mean():
    x = np.linspace(0.0, 1.0, 50)
    data = np.stack([x, 3.0 * x], axis=1)
    st = S.suff_stat(data)
    assert math.isclose(
        st.cov[0, 1], math.sqrt(st.cov[0, 0] * st.cov[1, 1]), rel_tol=1e-12
    )


def test_suff_stat_needs_two_rows():
    with pytest.raises(NumericError):
        S.suff_stat(np.zeros((1, 3)))


# ---------------------------------------------------------------------------
# partial correlation
# ---------------------------------------------------------------------------


def test_empty_conditioning_set_is_pearson():
    rng = np.random.default_rng(1)
    x = rng.normal(size=500)
    y = 0.6 * x + rng.normal(size=500)
    st = S.suff_stat(np.stack([x, y], axis=1))
    r = S.CIBatch(st, [[0, 1]]).partial_correlation(0, warn=fresh_counter())
    assert math.isclose(r, float(np.corrcoef(x, y)[0, 1]), abs_tol=1e-12)


def test_chain_partial_correlation_vanishes_analytically():
    # X -> Y -> Z with unit weights and unit noise: Sigma below, and the
    # precision matrix has a structural zero between X and Z.
    cov = np.array([[1.0, 1.0, 1.0], [1.0, 2.0, 2.0], [1.0, 2.0, 3.0]])
    st = S.GaussianSuffStat(n=100, mean=np.zeros(3), cov=cov, columns=("x", "y", "z"))
    assert abs(S.CIBatch(st, [[0, 2, 1]]).partial_correlation(0, warn=fresh_counter())) < 1e-12


def test_partial_correlation_matches_double_regression():
    rng = np.random.default_rng(2)
    data = rng.normal(size=(400, 5)) @ rng.normal(size=(5, 5))
    st = S.suff_stat(data)
    for i, j, cond in [(0, 1, (2, 3)), (2, 4, (0,)), (1, 3, (0, 2, 4))]:
        design = np.column_stack([data[:, list(cond)], np.ones(len(data))])
        ri = data[:, i] - design @ np.linalg.lstsq(design, data[:, i], rcond=None)[0]
        rj = data[:, j] - design @ np.linalg.lstsq(design, data[:, j], rcond=None)[0]
        oracle = float(np.corrcoef(ri, rj)[0, 1])
        r = S.CIBatch(st, [[i, j, *cond]]).partial_correlation(0, warn=fresh_counter())
        assert abs(r - oracle) < 1e-8


def test_partial_correlation_symmetry():
    rng = np.random.default_rng(3)
    data = rng.normal(size=(300, 4))
    st = S.suff_stat(data)
    a = S.CIBatch(st, [[0, 3, 1, 2]]).partial_correlation(0, warn=fresh_counter())
    b = S.CIBatch(st, [[3, 0, 1, 2]]).partial_correlation(0, warn=fresh_counter())
    assert abs(a - b) < 1e-12


def test_singular_submatrix_falls_back_with_warning():
    x = np.linspace(0, 1, 60)
    data = np.stack([x, x.copy(), np.linspace(5, 6, 60)], axis=1)  # col0 == col1
    st = S.suff_stat(data)
    warn = fresh_counter()
    r = S.CIBatch(st, [[0, 2, 1]]).partial_correlation(0, warn=warn)
    assert warn.singular_fallbacks >= 1
    assert -1.0 <= r <= 1.0


# Cholesky accepts this matrix (its last pivot rounds to about 1.5e-8) while
# the LU factorisation behind np.linalg.inv meets an exact zero pivot: the
# shape two identical lag columns give on a table shorter than the window.
CHOL_OK_INV_SINGULAR = np.array([[1.0, 0.25, 0.25], [0.25, 1.0, 1.0], [0.25, 1.0, 1.0]])


def test_inverse_failure_after_cholesky_takes_counted_ridge():
    np.linalg.cholesky(CHOL_OK_INV_SINGULAR)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(CHOL_OK_INV_SINGULAR)
    st = S.GaussianSuffStat(n=100, mean=np.zeros(3), cov=CHOL_OK_INV_SINGULAR, columns=("a", "b", "c"))
    warn = fresh_counter()
    res = S.fisher_z_test(0, 1, (2,), st, warn=warn)
    assert warn.singular_fallbacks == 1
    assert math.isfinite(res.p_value)
    cov = np.eye(4)
    cov[:3, :3] = CHOL_OK_INV_SINGULAR
    cov[3, :3] = cov[:3, 3] = 0.1
    st4 = S.GaussianSuffStat(n=100, mean=np.zeros(4), cov=cov, columns=("a", "b", "c", "y"))
    warn = fresh_counter()
    assert math.isfinite(S.bic_local_stat(3, (0, 1, 2), st4, warn=warn))
    assert warn.singular_fallbacks == 1


def test_batch_ridges_and_counts_only_the_failing_member():
    cov = np.eye(4)
    cov[:3, :3] = CHOL_OK_INV_SINGULAR
    cov[0, 3] = cov[3, 0] = 0.3
    st = S.GaussianSuffStat(n=100, mean=np.zeros(4), cov=cov, columns=("a", "b", "c", "d"))
    batch = S.CIBatch(st, [[0, 3, 1], [0, 1, 2], [0, 3, 2]])
    warn = fresh_counter()
    assert batch.test(0, warn=warn) == S.fisher_z_test(0, 3, (1,), st, warn=fresh_counter())
    assert warn.singular_fallbacks == 0  # evaluating the batch counted nothing
    assert batch.test(1, warn=warn) == S.fisher_z_test(0, 1, (2,), st, warn=fresh_counter())
    assert warn.singular_fallbacks == 1
    assert batch.test(2, warn=warn) == S.fisher_z_test(0, 3, (2,), st, warn=fresh_counter())
    assert warn.singular_fallbacks == 1


def test_batch_members_equal_scalar_tests_bit_for_bit():
    rng = np.random.default_rng(13)
    data = rng.normal(size=(300, 7)) @ rng.normal(size=(7, 7))
    data[:, 6] = data[:, 5]  # a duplicate, so some members take the ridge
    st = S.suff_stat(data)
    triples = [
        [i, j, *cond]
        for i in range(7)
        for j in range(i + 1, 7)
        for cond in [(k, m) for k in range(7) for m in range(k + 1, 7) if {k, m}.isdisjoint((i, j))]
    ]
    batch = S.CIBatch(st, triples)
    for k, (i, j, *cond) in enumerate(triples):
        one, many = fresh_counter(), fresh_counter()
        assert batch.test(k, warn=many) == S.fisher_z_test(i, j, cond, st, warn=one)
        assert many == one


def test_batch_reports_small_samples_only_when_read():
    st = S.GaussianSuffStat(n=5, mean=np.zeros(4), cov=np.eye(4), columns=("a", "b", "c", "d"))
    batch = S.CIBatch(st, [[0, 1, 2, 3]])  # n - |S| - 3 = 0
    with pytest.raises(NumericError):
        batch.test(0, warn=fresh_counter())
    assert batch.partial_correlation(0, warn=fresh_counter()) == 0.0


def test_partial_correlation_argument_validation():
    st = S.suff_stat(np.random.default_rng(0).normal(size=(50, 4)))
    with pytest.raises(ConfigError):
        S.fisher_z_test(1, 1, (), st, warn=fresh_counter())
    with pytest.raises(ConfigError):
        S.fisher_z_test(0, 1, (1,), st, warn=fresh_counter())
    # S = (2, 2) counted the duplicate in the dof and shifted z
    for cond in ((2, 2), [3, 2, 3]):
        with pytest.raises(ConfigError, match="repeats a column"):
            S.fisher_z_test(0, 1, cond, st, warn=fresh_counter())


# ---------------------------------------------------------------------------
# Fisher z test
# ---------------------------------------------------------------------------


def test_fisher_z_zero_correlation():
    cov = np.eye(2)
    st = S.GaussianSuffStat(n=200, mean=np.zeros(2), cov=cov, columns=("a", "b"))
    res = S.fisher_z_test(0, 1, (), st, alpha=0.05, warn=fresh_counter())
    assert res.statistic == 0.0
    assert res.p_value == 1.0
    assert res.independent


def test_fisher_z_known_value():
    # r = 0.5, n = 103, empty conditioning set: z = 0.5 * 10 * ln 3.
    cov = np.array([[1.0, 0.5], [0.5, 1.0]])
    st = S.GaussianSuffStat(n=103, mean=np.zeros(2), cov=cov, columns=("a", "b"))
    res = S.fisher_z_test(0, 1, (), st, alpha=0.05, warn=fresh_counter())
    assert math.isclose(res.statistic, 0.5 * 10.0 * math.log(3.0), rel_tol=1e-12)
    assert not res.independent


def test_fisher_z_perfect_correlation_is_dependent():
    x = np.linspace(0, 1, 80)
    st = S.suff_stat(np.stack([x, 2 * x], axis=1))
    res = S.fisher_z_test(0, 1, (), st, warn=fresh_counter())
    assert math.isinf(res.statistic)
    assert res.p_value == 0.0
    assert not res.independent


def test_fisher_z_insufficient_sample():
    # n - |S| - 3 must stay positive: n = 4 with one conditioning column is 0.
    st3 = S.GaussianSuffStat(n=4, mean=np.zeros(3), cov=np.eye(3), columns=("a", "b", "c"))
    with pytest.raises(NumericError):
        S.fisher_z_test(0, 1, (2,), st3, warn=fresh_counter())


def test_fisher_z_null_calibration_quick():
    rng = np.random.default_rng(7)
    repeats, n = 400, 2000
    rejections = 0
    for _ in range(repeats):
        data = rng.normal(size=(n, 2))
        res = S.fisher_z_test(0, 1, (), S.suff_stat(data), alpha=0.05, warn=fresh_counter())
        rejections += not res.independent
    rate = rejections / repeats
    assert 0.02 <= rate <= 0.09  # tight calibration is asserted at n=1000 repeats


def test_fisher_z_p_matches_scipy_ndtr():
    # p = erfc(|z|/√2) against scipy's 2 * ndtr(-|z|) for z over [0, 45],
    # through the subnormal range, where scipy underflows to 0 first
    from scipy.special import ndtr

    rng = np.random.default_rng(11)
    for dof in (5, 400):
        r = np.concatenate([
            np.tanh(np.linspace(0.0, 45.0, 1_000_001) / math.sqrt(dof)),
            rng.uniform(-1.0, 1.0, 200_000),
        ])
        z, p = S._fisher_z(r, dof)
        want = 2.0 * ndtr(-np.abs(z))
        pos = want > 0.0
        assert (~pos).any() and np.abs(z[pos]).max() > 37.0
        np.testing.assert_allclose(p[pos], want[pos], rtol=1e-12, atol=0.0)
        assert (p[~pos] < 1e-300).all()
    z, p = S._fisher_z(np.array([0.0, -0.0, 1.0, -1.0, np.nan]), 100)
    assert p.tolist() == [1.0, 1.0, 0.0, 0.0, 0.0]
    assert np.isinf(z[2:]).all()


def test_importing_soilcausal_does_not_load_scipy():
    src = str(Path(S.__file__).resolve().parents[1])
    code = (
        "import importlib, json, pkgutil, sys, soilcausal\n"
        "names = [m.name for m in pkgutil.iter_modules(soilcausal.__path__)]\n"
        "for name in names:\n"
        "    importlib.import_module('soilcausal.' + name)\n"
        "print(json.dumps([names, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    names, scipy_modules = json.loads(out.stdout)
    assert {"stats", "discovery", "ingest", "gnn", "engine", "baselines", "synth"} <= set(names)
    assert scipy_modules == []


def test_spd_inverses_skip_bisection_for_non_positive_diagonals(monkeypatch):
    dead = np.eye(3)
    dead[1, 1] = 0.0  # a constant column's zero variance
    spd = np.array([[2.0, 0.5, 0.1], [0.5, 1.0, 0.2], [0.1, 0.2, 1.5]])
    stack = np.stack([spd, dead, CHOL_OK_INV_SINGULAR, 2.0 * spd, -dead])
    alone = [S._spd_inverses(m[None]) for m in stack]
    calls = []
    real = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda m: calls.append(len(m)) or real(m))
    inverted = []
    real_inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda m: inverted.append(len(m)) or real_inv(m))
    inv, ridge = S._spd_inverses(stack)
    assert calls == [3]  # one call on the three members that may pass
    # the stack fails once; the bisection of its three unridged members
    # finds the one whose plain inverse fails, and the stack, now ridged
    # there too, is inverted again
    assert inverted == [5, 3, 1, 2, 1, 1, 5]
    assert ridge.tolist() == [False, True, True, False, True]
    for k, (inv_k, ridge_k) in enumerate(alone):
        assert inv[k].tobytes() == inv_k[0].tobytes() and ridge[k] == ridge_k[0]
    # with no plain inverse failing, each member is inverted once, ridged
    # or not, in one call
    inverted.clear()
    inv, ridge = S._spd_inverses(stack[[0, 1, 3, 4]])
    assert inverted == [4]
    assert ridge.tolist() == [False, True, False, True]
    for k, m in zip((0, 1, 3, 4), inv):
        assert m.tobytes() == alone[k][0][0].tobytes()


# ---------------------------------------------------------------------------
# BIC scores, through the greedy searches' scorer
# ---------------------------------------------------------------------------


def _sim_xy(n, rng, slope=2.0, noise=0.1):
    x = rng.normal(size=n)
    y = slope * x + noise * rng.normal(size=n)
    return np.stack([x, y], axis=1)


def _scorer(data, labels, targets=None, warn=None):
    """The scorer ``ges``/``gies`` build, over columns named ``labels``."""
    table = continuous_table(labels, data)
    return _Scorer(table, labels, targets, warn or fresh_counter())


def _oracle_local(data, y, parents):
    """BIC of column y regressed on ``parents`` by least squares."""
    n = len(data)
    design = np.column_stack([data[:, list(parents)], np.ones(n)])
    beta = np.linalg.lstsq(design, data[:, y], rcond=None)[0]
    rss = float(((data[:, y] - design @ beta) ** 2).sum())
    return -(n / 2) * math.log(rss / n) - ((len(parents) + 2) / 2) * math.log(n)


def _dag_score(sc, dag):
    """Sum of the scorer's local scores over the DAG's parent sets."""
    idx = {v: k for k, v in enumerate(dag.nodes)}
    return sum(
        sc.local(idx[v], sum(1 << idx[a] for a, b in dag.edges if b == v)) for v in dag.nodes
    )


def _one_by_one_local(y, parents, stat):
    """One parent set's BIC from its own inverse and a per-member product."""
    idx = sorted(parents)
    prec = np.linalg.inv(stat.cov[np.ix_(idx, idx)])
    spy = stat.cov[idx, y]
    rss = max((stat.n - 1) * (float(stat.cov[y, y]) - float(spy @ prec @ spy)), S._RSS_FLOOR)
    return -(stat.n / 2) * math.log(rss / stat.n) - ((len(idx) + 2) / 2) * math.log(stat.n)


@settings(deadline=None, max_examples=40, derandomize=True)
@given(hst.integers(1, 6), hst.integers(1, 400), hst.integers(0, 2**32 - 1))
def test_stacked_bic_equals_per_member_products_bit_for_bit(size, members, seed):
    # one stack of ``members`` parent sets of one size over an SPD
    # covariance: every score equals its own inverse and vector products
    rng = np.random.default_rng(seed)
    d = 8
    a = rng.normal(size=(d, d))
    stat = S.GaussianSuffStat(n=500, mean=np.zeros(d), cov=a @ a.T + 0.1 * np.eye(d), columns=tuple("abcdefgh"))
    y = int(rng.integers(d))
    others = [k for k in range(d) if k != y]
    sets = [frozenset(rng.choice(others, size, replace=False).tolist()) for _ in range(members)]
    warn = fresh_counter()
    got = S.bic_local_stats(y, sets, stat, warn=warn)
    assert got == [_one_by_one_local(y, p, stat) for p in sets]
    assert warn.singular_fallbacks == 0


def test_bic_rejects_a_parent_that_is_the_child_or_repeated():
    # parents [1, 1, 2] scored a singular 3x3 block and counted a fallback
    st = S.suff_stat(np.random.default_rng(3).normal(size=(40, 4)))
    warn = fresh_counter()
    with pytest.raises(ConfigError, match="cannot parent itself"):
        S.bic_local_stat(0, (0, 1), st, warn=warn)
    for sets in ([[1, 1, 2]], [[1, 2], (3, 2, 3)]):
        with pytest.raises(ConfigError, match="repeats a column"):
            S.bic_local_stats(0, sets, st, warn=warn)
    with pytest.raises(ConfigError, match="repeats a column"):
        S.bic_local_stat(0, [2, 2], st, warn=warn)
    assert warn.singular_fallbacks == 0


def test_bic_parentless_rss_is_total_sum_of_squares():
    rng = np.random.default_rng(4)
    y = rng.normal(size=300)
    score = _scorer(y.reshape(-1, 1), ("y",)).local(0, 0)
    n = 300
    tss = float(((y - y.mean()) ** 2).sum())
    oracle = -(n / 2) * math.log(tss / n) - (2 / 2) * math.log(n)
    assert math.isclose(score, oracle, rel_tol=1e-12)


def test_bic_prefers_true_parent():
    rng = np.random.default_rng(5)
    sc = _scorer(_sim_xy(2000, rng), ("x", "y"))
    assert sc.local(1, 0b1) > sc.local(1, 0)


def test_bic_rejects_spurious_parent():
    rng = np.random.default_rng(6)
    wins = 0
    for _ in range(20):
        sc = _scorer(rng.normal(size=(10_000, 2)), ("x", "y"))
        wins += sc.local(1, 0) > sc.local(1, 0b1)
    assert wins >= 19


def test_bic_graph_decomposes_and_is_class_invariant():
    rng = np.random.default_rng(8)
    data = _sim_xy(1500, rng)
    sc = _scorer(data, ("x", "y"))
    empty = G.Dag(("x", "y"), frozenset())
    fwd = G.Dag(("x", "y"), {("x", "y")})
    rev = G.Dag(("x", "y"), {("y", "x")})
    oracle = {
        empty: _oracle_local(data, 0, ()) + _oracle_local(data, 1, ()),
        fwd: _oracle_local(data, 0, ()) + _oracle_local(data, 1, (0,)),
        rev: _oracle_local(data, 0, (1,)) + _oracle_local(data, 1, ()),
    }
    for dag, want in oracle.items():
        assert math.isclose(_dag_score(sc, dag), want, rel_tol=1e-9)
    assert abs(_dag_score(sc, fwd) - _dag_score(sc, rev)) < 1e-8
    assert _dag_score(sc, fwd) > _dag_score(sc, empty)


def test_bic_score_equivalence_across_4node_classes():
    rng = np.random.default_rng(9)
    labels = ("A", "B", "C", "D")
    classes = equivalence_classes(labels, all_dags(labels))
    for trial in range(3):
        sc = _scorer(rng.normal(size=(500, 4)) @ rng.normal(size=(4, 4)), labels)
        for members in classes.values():
            if len(members) < 2:
                continue
            scores = [_dag_score(sc, G.Dag(labels, m)) for m in members]
            assert max(scores) - min(scores) < 1e-8


# ---------------------------------------------------------------------------
# interventional score
# ---------------------------------------------------------------------------


def test_interventional_reduces_to_observational_bitwise():
    rng = np.random.default_rng(10)
    data = _sim_xy(800, rng)
    a = _scorer(data, ("x", "y")).local(1, 0b1)
    b = _scorer(data, ("x", "y"), [frozenset()] * 800).local(1, 0b1)
    assert a == b  # bit-for-bit


def test_interventional_all_rows_intervened_scores_zero():
    rng = np.random.default_rng(11)
    warn = fresh_counter()
    sc = _scorer(_sim_xy(100, rng), ("x", "y"), [frozenset({"y"})] * 100, warn)
    assert sc.local(1, 0b1) == 0.0
    assert sc.local(1, 0) == 0.0
    assert warn.empty_interventional == 1  # once per node, not per score


def test_interventional_equals_manual_row_partition():
    rng = np.random.default_rng(12)
    data = _sim_xy(600, rng)
    targets = [frozenset({"y"}) if i % 3 == 0 else frozenset() for i in range(600)]
    keep = np.array([("y" not in t) for t in targets])
    got = _scorer(data, ("x", "y"), targets).local(1, 0b1)
    assert math.isclose(got, _oracle_local(data[keep], 1, (0,)), rel_tol=1e-9)


def test_scorer_shares_one_statistic_per_row_mask():
    rng = np.random.default_rng(14)
    data = rng.normal(size=(90, 4))
    targets = [frozenset({"a", "c"}) if i % 2 else frozenset({"d"}) for i in range(90)]
    sc = _scorer(data, ("a", "b", "c", "d"), targets)
    assert sc.stats[0] is sc.stats[2]  # a and c lose the same rows
    assert sc.stats[0].n == sc.stats[3].n == 45 and sc.stats[1].n == 90
    assert len({id(st) for st in sc.stats}) == 3


def test_interventional_requires_target_per_row():
    with pytest.raises(ConfigError):
        _scorer(np.zeros((10, 2)), ("x", "y"), [frozenset()] * 9)


def test_rss_floor_keeps_duplicate_columns_finite():
    x = np.linspace(0, 1, 200)
    score = _scorer(np.stack([x, x], axis=1), ("a", "b")).local(1, 0b1)
    assert math.isfinite(score)
