"""Tests for the Gaussian CI-test and BIC-score layer.

Oracles: textbook two-pass covariance, explicit double-regression residual
correlation, analytic covariances with known zero partial correlations,
Monte-Carlo calibration under the null, and manual row-partition rescoring
for the interventional score.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

import soilcausal.graphs as G
import soilcausal.stats as S
from soilcausal.errors import ConfigError, NumericError

from enumutil import all_dags, equivalence_classes


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
    r = S.partial_correlation(0, 1, (), st)
    assert math.isclose(r, float(np.corrcoef(x, y)[0, 1]), abs_tol=1e-12)


def test_chain_partial_correlation_vanishes_analytically():
    # X -> Y -> Z with unit weights and unit noise: Sigma below, and the
    # precision matrix has a structural zero between X and Z.
    cov = np.array([[1.0, 1.0, 1.0], [1.0, 2.0, 2.0], [1.0, 2.0, 3.0]])
    st = S.GaussianSuffStat(n=100, mean=np.zeros(3), cov=cov, columns=("x", "y", "z"))
    assert abs(S.partial_correlation(0, 2, (1,), st)) < 1e-12


def test_partial_correlation_matches_double_regression():
    rng = np.random.default_rng(2)
    data = rng.normal(size=(400, 5)) @ rng.normal(size=(5, 5))
    st = S.suff_stat(data)
    for i, j, cond in [(0, 1, (2, 3)), (2, 4, (0,)), (1, 3, (0, 2, 4))]:
        design = np.column_stack([data[:, list(cond)], np.ones(len(data))])
        ri = data[:, i] - design @ np.linalg.lstsq(design, data[:, i], rcond=None)[0]
        rj = data[:, j] - design @ np.linalg.lstsq(design, data[:, j], rcond=None)[0]
        oracle = float(np.corrcoef(ri, rj)[0, 1])
        assert abs(S.partial_correlation(i, j, cond, st) - oracle) < 1e-8


def test_partial_correlation_symmetry():
    rng = np.random.default_rng(3)
    data = rng.normal(size=(300, 4))
    st = S.suff_stat(data)
    a = S.partial_correlation(0, 3, (1, 2), st)
    b = S.partial_correlation(3, 0, (1, 2), st)
    assert abs(a - b) < 1e-12


def test_singular_submatrix_falls_back_with_warning():
    x = np.linspace(0, 1, 60)
    data = np.stack([x, x.copy(), np.linspace(5, 6, 60)], axis=1)  # col0 == col1
    st = S.suff_stat(data)
    warn = fresh_counter()
    r = S.partial_correlation(0, 2, (1,), st, warn=warn)
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
    assert batch.test(0, warn=warn) == S.fisher_z_test(0, 3, (1,), st)
    assert warn.singular_fallbacks == 0  # evaluating the batch counted nothing
    assert batch.test(1, warn=warn) == S.fisher_z_test(0, 1, (2,), st)
    assert warn.singular_fallbacks == 1
    assert batch.test(2, warn=warn) == S.fisher_z_test(0, 3, (2,), st)
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
        batch.test(0)
    assert batch.partial_correlation(0) == 0.0


def test_partial_correlation_argument_validation():
    st = S.suff_stat(np.random.default_rng(0).normal(size=(50, 3)))
    with pytest.raises(ConfigError):
        S.partial_correlation(1, 1, (), st)
    with pytest.raises(ConfigError):
        S.partial_correlation(0, 1, (1,), st)


# ---------------------------------------------------------------------------
# Fisher z test
# ---------------------------------------------------------------------------


def test_fisher_z_zero_correlation():
    cov = np.eye(2)
    st = S.GaussianSuffStat(n=200, mean=np.zeros(2), cov=cov, columns=("a", "b"))
    res = S.fisher_z_test(0, 1, (), st, alpha=0.05)
    assert res.statistic == 0.0
    assert res.p_value == 1.0
    assert res.independent


def test_fisher_z_known_value():
    # r = 0.5, n = 103, empty conditioning set: z = 0.5 * 10 * ln 3.
    cov = np.array([[1.0, 0.5], [0.5, 1.0]])
    st = S.GaussianSuffStat(n=103, mean=np.zeros(2), cov=cov, columns=("a", "b"))
    res = S.fisher_z_test(0, 1, (), st, alpha=0.05)
    assert math.isclose(res.statistic, 0.5 * 10.0 * math.log(3.0), rel_tol=1e-12)
    assert not res.independent


def test_fisher_z_perfect_correlation_is_dependent():
    x = np.linspace(0, 1, 80)
    st = S.suff_stat(np.stack([x, 2 * x], axis=1))
    res = S.fisher_z_test(0, 1, (), st)
    assert math.isinf(res.statistic)
    assert res.p_value == 0.0
    assert not res.independent


def test_fisher_z_insufficient_sample():
    # n - |S| - 3 must stay positive: n = 4 with one conditioning column is 0.
    st3 = S.GaussianSuffStat(n=4, mean=np.zeros(3), cov=np.eye(3), columns=("a", "b", "c"))
    with pytest.raises(NumericError):
        S.fisher_z_test(0, 1, (2,), st3)


def test_fisher_z_null_calibration_quick():
    rng = np.random.default_rng(7)
    repeats, n = 400, 2000
    rejections = 0
    for _ in range(repeats):
        data = rng.normal(size=(n, 2))
        res = S.fisher_z_test(0, 1, (), S.suff_stat(data), alpha=0.05)
        rejections += not res.independent
    rate = rejections / repeats
    assert 0.02 <= rate <= 0.09  # tight calibration is asserted at n=1000 repeats


# ---------------------------------------------------------------------------
# BIC scores
# ---------------------------------------------------------------------------


def _sim_xy(n, rng, slope=2.0, noise=0.1):
    x = rng.normal(size=n)
    y = slope * x + noise * rng.normal(size=n)
    return np.stack([x, y], axis=1)


def test_bic_parentless_rss_is_total_sum_of_squares():
    rng = np.random.default_rng(4)
    y = rng.normal(size=300)
    table = (y.reshape(-1, 1), ("y",))
    score = S.bic_local("y", (), table)
    n = 300
    tss = float(((y - y.mean()) ** 2).sum())
    oracle = -(n / 2) * math.log(tss / n) - (2 / 2) * math.log(n)
    assert math.isclose(score, oracle, rel_tol=1e-12)


def test_bic_prefers_true_parent():
    rng = np.random.default_rng(5)
    data = _sim_xy(2000, rng)
    table = (data, ("x", "y"))
    assert S.bic_local("y", ("x",), table) > S.bic_local("y", (), table)


def test_bic_rejects_spurious_parent():
    rng = np.random.default_rng(6)
    wins = 0
    for _ in range(20):
        data = rng.normal(size=(10_000, 2))
        table = (data, ("x", "y"))
        wins += S.bic_local("y", (), table) > S.bic_local("y", ("x",), table)
    assert wins >= 19


def test_bic_graph_decomposes_and_is_class_invariant():
    rng = np.random.default_rng(8)
    data = _sim_xy(1500, rng)
    table = (data, ("x", "y"))
    empty = G.Dag(("x", "y"), frozenset())
    assert math.isclose(
        S.bic_graph(empty, table),
        S.bic_local("x", (), table) + S.bic_local("y", (), table),
        rel_tol=1e-12,
    )
    fwd = G.Dag(("x", "y"), {("x", "y")})
    rev = G.Dag(("x", "y"), {("y", "x")})
    assert abs(S.bic_graph(fwd, table) - S.bic_graph(rev, table)) < 1e-8
    assert S.bic_graph(fwd, table) > S.bic_graph(empty, table)


def test_bic_score_equivalence_across_4node_classes():
    rng = np.random.default_rng(9)
    labels = ("A", "B", "C", "D")
    classes = equivalence_classes(labels, all_dags(labels))
    for trial in range(3):
        data = rng.normal(size=(500, 4)) @ rng.normal(size=(4, 4))
        table = (data, labels)
        for members in classes.values():
            if len(members) < 2:
                continue
            scores = [S.bic_graph(G.Dag(labels, m), table) for m in members]
            assert max(scores) - min(scores) < 1e-8


# ---------------------------------------------------------------------------
# interventional score
# ---------------------------------------------------------------------------


def test_interventional_reduces_to_observational_bitwise():
    rng = np.random.default_rng(10)
    data = _sim_xy(800, rng)
    table = (data, ("x", "y"))
    targets = [frozenset()] * 800
    a = S.bic_local("y", ("x",), table)
    b = S.bic_local_interventional("y", ("x",), table, targets)
    assert a == b  # bit-for-bit


def test_interventional_all_rows_intervened_scores_zero():
    rng = np.random.default_rng(11)
    data = _sim_xy(100, rng)
    table = (data, ("x", "y"))
    warn = fresh_counter()
    targets = [frozenset({"y"})] * 100
    assert S.bic_local_interventional("y", ("x",), table, targets, warn=warn) == 0.0
    assert warn.empty_interventional == 1


def test_interventional_equals_manual_row_partition():
    rng = np.random.default_rng(12)
    data = _sim_xy(600, rng)
    table = (data, ("x", "y"))
    targets = [frozenset({"y"}) if i % 3 == 0 else frozenset() for i in range(600)]
    keep = np.array([("y" not in t) for t in targets])
    sub = data[keep]
    # manual rescoring on the eligible partition
    n = int(keep.sum())
    design = np.column_stack([sub[:, 0], np.ones(n)])
    beta = np.linalg.lstsq(design, sub[:, 1], rcond=None)[0]
    rss = float(((sub[:, 1] - design @ beta) ** 2).sum())
    oracle = -(n / 2) * math.log(rss / n) - (3 / 2) * math.log(n)
    got = S.bic_local_interventional("y", ("x",), table, targets)
    assert math.isclose(got, oracle, rel_tol=1e-9)


def test_interventional_requires_target_per_row():
    data = np.zeros((10, 2))
    with pytest.raises(ConfigError):
        S.bic_local_interventional("y", ("x",), (data, ("x", "y")), [frozenset()] * 9)


def test_rss_floor_keeps_duplicate_columns_finite():
    x = np.linspace(0, 1, 200)
    table = (np.stack([x, x], axis=1), ("a", "b"))
    warn = fresh_counter()
    score = S.bic_local("b", ("a",), table, warn=warn)
    assert math.isfinite(score)
