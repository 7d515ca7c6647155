"""Distance estimators between sample sets of flattened action sequences.

All estimators operate on n x d arrays of flattened overlap slices. The RBF
kernel used by the MMD estimator is exp(-||a-b||^2 / b1) (no factor 2 in the
denominator), while the KDE kernel is a normalized Gaussian with standard
deviation b2 per dimension; the two conventions differ on purpose. The
bandwidths follow one fixed rule per overlap pair: b1 is the median
heuristic and b2 the max-eigenvalue bandwidth, both of the pooled set.

The median-heuristic bandwidth, the MMD and both KDE-KL directions read one
pooled squared-distance matrix of [x; y], a numpy Gram product: the median of
its strict upper triangle comes from one in-place partition, and each kernel
reads its x-x, y-y or x-y block through one division into a fresh array.

`PooledDistances` is the one distance surface: the STAC scoring step builds
it from an overlap pair cut from checked records, and checks nothing again.
The five module-level functions are the checked boundary for outside input,
kept as functions so that a tracer can wrap each by name: each refuses,
through `_checked`, an empty, ragged or non-finite set, and two sets of
different dimension, and then runs the arithmetic the scoring step runs.
"""

from __future__ import annotations

import functools
import math

import numpy as np

BANDWIDTH_FALLBACK = 1e-8
GRAM_ROUNDING = 8 * np.finfo(np.float64).eps
KERNEL_SLACK = 1e-10


def _checked(*sets) -> list[np.ndarray]:
    """Each of `sets` as an (n, d) float64 array, a 1-D set as n points of one
    dimension; refused unless each has a point and no non-finite value, and
    all have one d."""
    checked = []
    for points in sets:
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2:
            raise ValueError(f"sample set must be 2-D (n x d), got shape {pts.shape}")
        if pts.shape[0] < 1:
            raise ValueError("sample set needs at least one point")
        if not np.isfinite(pts).all():
            raise ValueError("sample set contains non-finite values")
        if checked and pts.shape[1] != checked[0].shape[1]:
            raise ValueError(f"dimension mismatch: {checked[0].shape[1]} vs {pts.shape[1]}")
        checked.append(pts)
    return checked


def _check_bandwidth(bandwidth: float) -> None:
    if not bandwidth > 0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth}")


@functools.lru_cache(maxsize=8)
def _strict_upper(n: int) -> np.ndarray:
    """Read-only boolean mask of the strict upper triangle of an n x n matrix."""
    mask = np.triu(np.ones((n, n), dtype=bool), 1)
    mask.flags.writeable = False
    return mask


class PooledDistances:
    """Squared Euclidean distances over [x; y], from one Gram product.

    With c the pooled points less the first of them, so that cancellation is
    bounded by the set's spread, entry (i, j) is |c_i|^2 + |c_j|^2 - 2 c_i.c_j,
    rounded by less than `slack` = `GRAM_ROUNDING` * (d + 1) * max |c_i|^2.
    Entries up to `slack` are set to 0, so the diagonal and identical points
    are exactly 0 apart on any BLAS, and each entry is within 2 * `slack` of
    the float64 pairwise difference: 1e-12 of the largest entry while d < 280.
    A kernel at scale s reads its block over -s, from exact differences where
    `slack` exceeds `KERNEL_SLACK` * s.

    `x` and `y` are (n, d) float64 arrays that are already checked: by
    `_checked`, or as an overlap pair cut from checked records. Nothing here
    checks them again. `pooled` is [x; y] if the caller holds it already.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray, pooled: np.ndarray | None = None):
        self.pooled = np.concatenate((x, y)) if pooled is None else pooled
        centred = self.pooled - self.pooled[0]
        sq = centred @ centred.T
        norms = sq.diagonal().copy()
        sq *= -2.0
        sq += norms
        sq += norms[:, None]
        self.slack = GRAM_ROUNDING * (x.shape[1] + 1) * norms.max()
        np.copyto(sq, 0.0, where=sq <= self.slack)
        self.sq = sq
        self.n = {"x": x.shape[0], "y": y.shape[0]}
        self.dim = x.shape[1]
        self._half = {"x": slice(None, x.shape[0]), "y": slice(x.shape[0], None)}

    def _negated_block(self, rows: str, cols: str, scale: float) -> np.ndarray:
        """`rows` by `cols` block (each "x" or "y") over -`scale`, as a fresh contiguous array."""
        r, c = self._half[rows], self._half[cols]
        if self.slack <= KERNEL_SLACK * scale:
            return np.divide(self.sq[r, c], -scale)
        diff = self.pooled[r, None, :] - self.pooled[None, c, :]
        return np.divide(np.square(diff).sum(axis=-1), -scale)

    def median_heuristic(self) -> float:
        """`np.median` of the strict upper triangle, from one in-place partition:
        the `mid` smallest values then lie below `mid`, and their maximum is the lower middle."""
        upper = self.sq[_strict_upper(self.sq.shape[0])]
        mid = upper.size // 2
        upper.partition(mid)
        if upper.size % 2:
            med = float(upper[mid])
        else:
            med = float((upper[:mid].max() + upper[mid]) / 2.0)
        return med if med > 0.0 else BANDWIDTH_FALLBACK

    def kde_bandwidth_max_eig(self) -> float:
        """`kde_bandwidth_max_eig` of x and y, from the pooled set built here."""
        return _max_eig_bandwidth(self.pooled)

    def _kernel_mean(self, rows: str, cols: str, bandwidth: float) -> np.floating:
        """Mean RBF kernel value over one block: `.mean()`'s pairwise sum, without its wrapper."""
        k = self._negated_block(rows, cols, bandwidth)
        return np.add.reduce(np.exp(k, out=k), axis=None) / k.size

    def mmd_rbf(self, bandwidth: float) -> float:
        _check_bandwidth(bandwidth)
        kxx = self._kernel_mean("x", "x", bandwidth)
        kyy = self._kernel_mean("y", "y", bandwidth)
        kxy = self._kernel_mean("x", "y", bandwidth)
        return max(float(kxx + kyy - 2.0 * kxy), 0.0)

    def kde_log_density(self, fit: str, queries: str, bandwidth: float) -> np.ndarray:
        """Log density of the KDE on the `fit` set at the `queries` set ("x" or "y")."""
        _check_bandwidth(bandwidth)
        scaled = self._negated_block(queries, fit, 2.0 * bandwidth ** 2)
        log_norm = math.log(self.n[fit]) + 0.5 * self.dim * math.log(2.0 * math.pi * bandwidth ** 2)
        return logsumexp_rows(scaled)[:, 0] - log_norm

    def kl_forward(self, bandwidth: float) -> float:
        """Plug-in KDE estimate of KL(y || x) averaged over y's points, self terms included;
        the raw estimate can dip below 0, so it is clamped there to keep scores monotone."""
        log_p = self.kde_log_density("y", "y", bandwidth)
        log_q = self.kde_log_density("x", "y", bandwidth)
        return max(float(np.mean(log_p - log_q)), 0.0)

    def kl_reverse(self, bandwidth: float) -> float:
        """KL(x || y) averaged over x's points, clamped at 0: `kl_forward` with the roles swapped."""
        log_p = self.kde_log_density("x", "x", bandwidth)
        log_q = self.kde_log_density("y", "x", bandwidth)
        return max(float(np.mean(log_p - log_q)), 0.0)


def median_heuristic(x, y) -> float:
    """Median of pairwise squared distances over the pooled set.

    All unordered pairs i != j contribute: the strict upper triangle of the
    pooled squared-distance matrix. Falls back to 1e-8 when the median is
    zero (e.g. a constant-output policy), so downstream kernels stay finite.
    """
    return PooledDistances(*_checked(x, y)).median_heuristic()


def kde_bandwidth_max_eig(x, y) -> float:
    """Square root of the largest eigenvalue of the pooled sample covariance."""
    return _max_eig_bandwidth(np.concatenate(_checked(x, y)))


def _max_eig_bandwidth(pooled: np.ndarray) -> float:
    # `np.cov(pooled, rowvar=False, ddof=1)`'s own arithmetic, without its wrapper.
    centred = pooled - pooled.mean(axis=0)
    cov = np.dot(centred.T, centred) * np.true_divide(1, pooled.shape[0] - 1)
    top = float(np.linalg.eigvalsh(cov)[-1])
    bw = math.sqrt(max(top, 0.0))
    return bw if bw > 0.0 else BANDWIDTH_FALLBACK


def mmd_rbf(x, y, bandwidth: float) -> float:
    """Biased V-statistic of squared MMD under the RBF kernel.

    Uses means over all n_x^2, n_y^2 and n_x*n_y kernel evaluations
    (diagonal terms included), which keeps the estimate nonnegative; the
    result is additionally clamped at 0 against floating-point dust.
    """
    return PooledDistances(*_checked(x, y)).mmd_rbf(bandwidth)


def logsumexp_rows(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a))) of each row of a 2-D float64 array, as an (n, 1) column.

    Repeats the arithmetic of `scipy.special.logsumexp(a, axis=1,
    keepdims=True)`, so results are bit-identical: the maxima are taken out of
    the sum and counted, and the rest is shifted by the maximum before
    exponentiating. scipy's array-API dispatch costs several times this
    arithmetic on the small arrays scored here.
    """
    top = a.max(axis=1, keepdims=True)
    is_top = a == top
    count = is_top.sum(axis=1, keepdims=True, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):  # rows of -inf or nan, as in scipy
        rest = np.exp(np.where(is_top, -np.inf, a) - top).sum(axis=1, keepdims=True)
        rest /= count  # count is 0 only where the maximum is nan, and so is rest
        out = np.log1p(rest) + np.log(count) + top
    # A row of -inf sums to exp(-inf) = 0, whose log scipy returns as -inf.
    return np.where(top == -np.inf, top, out)


def kde_log_density(fit, queries, bandwidth: float) -> np.ndarray:
    """Log density of an equal-weight Gaussian KDE at each query point.

    The mixture has one component per fit point with stddev `bandwidth` in
    every dimension, normalizing constant included. Evaluation goes through
    log-sum-exp, so extremely distant queries underflow gracefully to very
    negative (still finite) values.
    """
    return PooledDistances(*_checked(fit, queries)).kde_log_density("x", "y", bandwidth)


def min_l2(executed_overlap, curr) -> float:
    """Minimum Euclidean distance from the executed overlap to any sampled row."""
    executed = np.asarray(executed_overlap, dtype=np.float64).ravel()
    (points,) = _checked(curr)
    if executed.shape[0] != points.shape[1]:
        raise ValueError(f"dimension mismatch: {executed.shape[0]} vs {points.shape[1]}")
    if not np.isfinite(executed).all():
        raise ValueError("executed overlap contains non-finite values")
    return _min_l2(executed, points)


def _min_l2(executed: np.ndarray, points: np.ndarray) -> float:
    """`min_l2` of an executed overlap (d,) and checked (n, d) points, which nothing checks again."""
    return float(np.min(np.linalg.norm(points - executed, axis=1)))
