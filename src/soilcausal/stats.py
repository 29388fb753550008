"""Gaussian conditional-independence tests and structure scores.

Everything runs off a (n, mean, covariance) sufficient statistic, so the
constraint-based and score-based searches never touch raw rows more than
once.  Singular covariance submatrices (expected under one-hot collinearity
and duplicated lag columns) fall back to a tiny ridge and are counted on
the ``WarningCounter`` that the caller passes in.

Every test and score here is a function of column indices into one
statistic; none reads rows.  Which rows a statistic summarises is the
caller's choice: the greedy searches' interventional score, a node's BIC
on the rows where it was not manipulated, is built once, in
``discovery._Scorer``, from the statistics of the masked rows.

Tests and scores are evaluated in stacks.  ``CIBatch`` gathers the
correlation submatrices of many (i, j, S) triples of one conditioning-set
size, as PC's level-batched evaluation hands them over, into one
(k, |S|+2, |S|+2) array and inverts them with one stacked call;
``bic_local_stats`` does the same for one node's parent sets of each size.
Every member of a stack gets what evaluating it alone gives, bit for bit,
and the scalar functions (``partial_correlation``, ``fisher_z_test``,
``bic_local_stat``) are stacks of one.  Evaluating a stack of tests counts
nothing; reading a mask of members counts their fallbacks and raises the
first error among them, so a caller that reads only the tests a sequential
loop would have run reports that loop's counters.

Fisher-z p-values come from ``_ndtr``, a numpy port of the Cephes normal
CDF that ``scipy.special.ndtr`` evaluates.  It returns scipy's values bit
for bit, so the package runs on numpy alone and importing it does not load
scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, NumericError

RIDGE = 1e-10
_RSS_FLOOR = 1e-12  # keeps log-likelihoods finite under exact collinearity


@dataclass
class WarningCounter:
    """Mutable tally of the numerical fallbacks of one run."""

    singular_fallbacks: int = 0
    empty_interventional: int = 0


@dataclass(frozen=True, eq=False)
class GaussianSuffStat:
    """Second-moment summary of a set of columns (covariance uses ddof=1)."""

    n: int
    mean: np.ndarray
    cov: np.ndarray
    columns: tuple[str, ...]


def suff_stat(table, columns: Sequence[str] | None = None) -> GaussianSuffStat:
    """Mean and unbiased covariance of the named columns of an ingest Table,
    or of a bare (n, d) matrix whose columns ``columns`` names (default
    c0, c1, ...)."""
    if hasattr(table, "matrix"):
        names = tuple(columns) if columns is not None else table.names
        data = np.asarray(table.matrix(names), dtype=np.float64)
    else:
        data = np.asarray(table, dtype=np.float64)
        names = tuple(columns) if columns is not None else tuple(f"c{i}" for i in range(data.shape[1]))
        if len(names) != data.shape[1]:
            raise ConfigError("column name count does not match matrix width")
    n = data.shape[0]
    if n < 2:
        raise NumericError("sufficient statistic needs at least 2 rows")
    mean = data.mean(axis=0)
    xc = data - mean
    cov = (xc.T @ xc) / (n - 1)
    cov = (cov + cov.T) / 2.0
    return GaussianSuffStat(n=n, mean=mean, cov=cov, columns=names)


def _failing(fn, stack: np.ndarray) -> np.ndarray:
    """Mask of the members of a (k, p, p) stack on which ``fn`` raises
    LinAlgError.  A stacked ``numpy.linalg`` call raises for the whole stack
    when one member fails, so a failing stack is halved until every failing
    member stands alone."""
    try:
        fn(stack)
    except np.linalg.LinAlgError:
        if len(stack) == 1:
            return np.ones(1, dtype=bool)
        half = len(stack) // 2
        return np.concatenate((_failing(fn, stack[:half]), _failing(fn, stack[half:])))
    return np.zeros(len(stack), dtype=bool)


def _spd_inverses(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverses of a (k, p, p) stack of symmetric matrices, and the mask of
    the members that were inverted with a ridge because their Cholesky
    factorisation or their plain inverse failed.  Each member's result is
    what inverting it alone gives, bit for bit."""
    # a non-positive diagonal entry (a constant column of a covariance)
    # makes a non-positive Cholesky pivot: those members fail for certain
    # and skip the bisection
    ridge = (np.diagonal(m, axis1=1, axis2=2) <= 0.0).any(axis=1)
    rest = ~ridge
    ridge[rest] = _failing(np.linalg.cholesky, m[rest] if ridge.any() else m)
    if not ridge.any():
        try:
            return np.linalg.inv(m), ridge
        except np.linalg.LinAlgError:
            pass
    ok = ~ridge
    ridge[ok] = _failing(np.linalg.inv, m[ok])
    m = m.copy()
    m[ridge] += RIDGE * np.eye(m.shape[-1])
    return np.linalg.inv(m), ridge


def _partial_correlations(cov: np.ndarray, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Partial correlation of columns ``idx[k, 0]`` and ``idx[k, 1]`` given
    the columns ``idx[k, 2:]``, for every row k, read off the precision of
    the correlation submatrix; NaN where it diverged.  Also returns the mask
    of rows that took a counted fallback: a constant tested column, or a
    ridged inverse."""
    sub = cov[idx[:, :, None], idx[:, None, :]]
    d = np.sqrt(np.clip(np.diagonal(sub, axis1=1, axis2=2), 0.0, None))
    dead = (d[:, 0] == 0.0) | (d[:, 1] == 0.0)  # constant column: no linear signal
    live = ~dead
    sub, d = sub[live], d[live]
    # Work on the correlation scale: partial correlation is invariant to
    # per-column scaling and the ridge fallback then has a scale-free effect.
    dsafe = np.where(d > 0.0, d, 1.0)
    corr = sub / (dsafe[:, :, None] * dsafe[:, None, :])
    diag = np.arange(idx.shape[1])
    corr[:, diag, diag] = 1.0
    prec, ridge = _spd_inverses(corr)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = -prec[:, 0, 1] / np.sqrt(prec[:, 0, 0] * prec[:, 1, 1])
    finite = np.isfinite(r)
    r = np.clip(r, -1.0, 1.0)
    # collapse ridge-sized fuzz at the boundary so exact proportionality
    # reports |r| = 1
    r = np.where(np.abs(r) > 1.0 - 1e-8, np.copysign(1.0, r), r)
    out = np.zeros(len(idx))
    out[live] = np.where(finite, r, np.nan)
    fallback = dead.copy()
    fallback[live] = ridge
    return out, fallback


# ---------------------------------------------------------------------------
# The standard normal CDF, ported from the Cephes ``ndtr``/``erf``/``erfc``
# that ``scipy.special.ndtr`` evaluates: the same coefficients, Horner order,
# branch points and libm ``exp``.

_SQRT1_2 = 7.07106781186547524401e-1
_MAXLOG = 7.09782712893383996843e2
# One row per polynomial, highest power first: erf's T / U, erfc's P / Q
# below 8 and R / S from 8 up.  Cephes' ``p1evl`` has an implicit leading 1,
# written out here, and the shorter rows are padded with leading zeros,
# which change no bit (0 * x + c == c).
_NDTR_POLYS = np.array([
    [0.0, 0.0, 0.0, 0.0,
     9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
     7.00332514112805075473e3, 5.55923013010394962768e4],
    [0.0, 0.0, 0.0, 1.0,
     3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
     2.26290000613890934246e4, 4.92673942608635921086e4],
    [2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
     4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
     9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2],
    [1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
     9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
     1.65666309194161350182e3, 5.57535340817727675546e2],
    [0.0, 0.0, 0.0,
     5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
     6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0],
    [0.0, 0.0, 1.0,
     2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
     1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0],
])
_NDTR_STEPS = tuple(_NDTR_POLYS.T[:, :, None])  # Horner step k: column k of every row


def _ndtr(a: np.ndarray) -> np.ndarray:
    """P(N(0, 1) <= a) elementwise, equal to ``scipy.special.ndtr`` bit for
    bit.  ``math.exp`` per element, not ``np.exp``: numpy's SIMD exp differs
    from libm's in the last bit for some arguments."""
    x = np.asarray(a, dtype=np.float64) * _SQRT1_2
    z = np.abs(x)
    zz = z * z
    args = np.array((zz, zz, z, z, z, z))
    acc = np.zeros_like(args)
    with np.errstate(invalid="ignore", over="ignore"):  # inf arguments: rows unused
        for coef in _NDTR_STEPS:
            acc *= args
            acc += coef
        t, u, p, q, r, s = acc
        # erfc(z): 1 - erf(z) below 1, e^-z² P/Q below 8, e^-z² R/S from 8,
        # 0 once e^-z² < e^-MAXLOG; products before quotients, as in Cephes
        under = -zz < -_MAXLOG
        tail = (z >= 1.0) & ~under
        e = np.zeros_like(z)
        e[tail] = np.fromiter(map(math.exp, (-zz[tail]).tolist()), float, int(tail.sum()))
        erfc = np.where(under, 0.0, np.where(z < 8.0, e * p / q, e * r / s))
        erfc = np.where(z < 1.0, 1.0 - z * t / u, erfc)
        # ndtr(a): 0.5 + 0.5 erf(x) for |x| < √½, else 0.5 erfc(|x|),
        # reflected for x > 0
        y = 0.5 * erfc
        y = np.where(x > 0.0, 1.0 - y, y)
        return np.where(z < _SQRT1_2, 0.5 + 0.5 * (x * t / u), y)


def _fisher_z(r: np.ndarray, dof: int) -> tuple[np.ndarray, np.ndarray]:
    """z = 0.5 * sqrt(dof) * ln((1+r)/(1-r)) and its two-sided p-value;
    |r| = 1 gives z = +-inf and p = 0."""
    z = np.copysign(np.inf, r)
    inside = np.abs(r) < 1.0
    ratio = (1.0 + r[inside]) / (1.0 - r[inside])
    # math.log per element, not np.log: numpy's SIMD log differs from it in
    # the last bit for some arguments, which would move p-values off the
    # one-test-at-a-time values
    z[inside] = 0.5 * math.sqrt(dof) * np.fromiter(map(math.log, ratio.tolist()), float, len(ratio))
    return z, 2.0 * _ndtr(-np.abs(z))


@dataclass(frozen=True)
class CITestResult:
    statistic: float
    p_value: float
    independent: bool


class CIBatch:
    """Partial correlations and Fisher-z tests of a stack of (i, j, S)
    triples that share one conditioning-set size, evaluated together.

    ``idx`` has one row ``(i, j, *S)`` per triple, S sorted and excluding i
    and j.  Evaluation counts nothing and defers every NumericError to the
    read.  ``r`` holds every member's partial correlation (NaN where it
    diverged) and ``p`` its two-sided p-value.  ``read(mask)`` reads the
    masked members in index order as one scalar call each would: it counts
    their fallbacks on ``warn`` and raises NumericError at the first whose
    partial correlation diverged, after counting up to it.  ``independent``
    gives every member's verdict and raises, before anything is read, when
    the sample is too small for the z-test or ``alpha`` is out of range.  A
    caller that reads exactly the members a sequential loop would have
    tested therefore sees that loop's results, counters and errors.
    """

    def __init__(self, stat: GaussianSuffStat, idx):
        self.idx = np.asarray(idx, dtype=np.intp)
        self.n = stat.n
        self.dof = stat.n - (self.idx.shape[1] - 2) - 3
        self.r, self._fallback = _partial_correlations(stat.cov, self.idx)
        if self.dof > 0:
            self.z, self.p = _fisher_z(self.r, self.dof)

    def read(self, mask: np.ndarray, *, warn: WarningCounter) -> None:
        bad = np.flatnonzero(mask & ~np.isfinite(self.r))
        upto = len(mask) if not bad.size else bad[0] + 1
        warn.singular_fallbacks += int(np.count_nonzero(self._fallback[:upto] & mask[:upto]))
        if bad.size:
            i, j, *S = self.idx[bad[0]].tolist()
            raise NumericError(f"partial correlation diverged for ({i}, {j} | {tuple(S)})")

    def independent(self, alpha: float = 0.05) -> np.ndarray:
        if self.dof <= 0:
            raise NumericError(
                f"need n > |S| + 3 for the z-test (n={self.n}, |S|={self.idx.shape[1] - 2})"
            )
        if not 0.0 < alpha < 1.0:
            raise ConfigError("alpha must lie in (0, 1)")
        return self.p > alpha

    def partial_correlation(self, k: int, *, warn: WarningCounter) -> float:
        self.read(np.arange(len(self.r)) == k, warn=warn)
        return float(self.r[k])

    def test(self, k: int, alpha: float = 0.05, *, warn: WarningCounter) -> CITestResult:
        independent = bool(self.independent(alpha)[k])
        self.partial_correlation(k, warn=warn)
        return CITestResult(float(self.z[k]), float(self.p[k]), independent)


def _triple(i: int, j: int, S: Iterable[int]) -> list[list[int]]:
    S = sorted(S)
    if i == j:
        raise ConfigError("partial correlation needs two distinct columns")
    if i in S or j in S:
        raise ConfigError("conditioning set must exclude the tested pair")
    return [[i, j, *S]]


def partial_correlation(
    i: int,
    j: int,
    S: Iterable[int],
    stat: GaussianSuffStat,
    *,
    warn: WarningCounter,
) -> float:
    """Correlation of the residuals of columns i and j after linearly
    removing the columns in S, read off the precision of the covariance
    submatrix on {i, j} | S."""
    return CIBatch(stat, _triple(i, j, S)).partial_correlation(0, warn=warn)


def fisher_z_test(
    i: int,
    j: int,
    S: Iterable[int],
    stat: GaussianSuffStat,
    alpha: float = 0.05,
    *,
    warn: WarningCounter,
) -> CITestResult:
    """Two-sided test of zero partial correlation via the z-transform
    z = 0.5 * sqrt(n - |S| - 3) * ln((1+r)/(1-r))."""
    return CIBatch(stat, _triple(i, j, S)).test(0, alpha, warn=warn)


# ---------------------------------------------------------------------------
# Gaussian BIC structure scores (higher is better)
# ---------------------------------------------------------------------------


def bic_local_stats(
    y: int,
    parent_sets: Sequence[Iterable[int]],
    stat: GaussianSuffStat,
    *,
    warn: WarningCounter,
) -> list[float]:
    """Local score of column y under each parent set, from the statistic:
    -(n/2) ln(RSS/n) - (k/2) ln(n) with k = |parents| + 2.  Sets of one size
    share one stacked inverse of their covariance blocks and one stacked
    quadratic form s' P s for the variance the parents explain (s the
    parents' covariances with y, P the block's inverse); each score is what
    scoring its set alone gives, bit for bit, and each ridged inverse is
    counted once."""
    sets = [sorted(p) for p in parent_sets]
    by_size: dict[int, list[int]] = {}
    for k, parents in enumerate(sets):
        if y in parents:
            raise ConfigError("a column cannot parent itself")
        by_size.setdefault(len(parents), []).append(k)
    n = stat.n
    syy = float(stat.cov[y, y])
    out = [0.0] * len(sets)
    for size, members in by_size.items():
        if size:
            idx = np.array([sets[k] for k in members])
            spy = stat.cov[idx, y]
            prec, ridge = _spd_inverses(stat.cov[idx[:, :, None], idx[:, None, :]])
            warn.singular_fallbacks += int(ridge.sum())
            explained = ((spy[:, None, :] @ prec) @ spy[:, :, None])[:, 0, 0].tolist()
        else:
            explained = [0.0] * len(members)
        for k, e in zip(members, explained):
            rss = max((n - 1) * (syy - e), _RSS_FLOOR)
            out[k] = -(n / 2.0) * math.log(rss / n) - ((size + 2) / 2.0) * math.log(n)
    return out


def bic_local_stat(
    y: int,
    parents: Iterable[int],
    stat: GaussianSuffStat,
    *,
    warn: WarningCounter,
) -> float:
    """Local score of column y given one parent set (see ``bic_local_stats``)."""
    return bic_local_stats(y, [parents], stat, warn=warn)[0]
