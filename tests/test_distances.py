import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from sentinel.distances import (BANDWIDTH_FALLBACK, KERNEL_SLACK, PooledDistances, _checked,
                                kde_bandwidth_max_eig, kde_log_density, logsumexp_rows,
                                median_heuristic, min_l2, mmd_rbf)

# The pooled matrix's tolerance against brute-force differences, relative to its largest entry.
REL_TOL = 1e-12


def _sets(rng, n_max=50, d_max=4):
    n1 = int(rng.integers(1, n_max + 1))
    n2 = int(rng.integers(1, n_max + 1))
    d = int(rng.integers(1, d_max + 1))
    scale = 10.0 ** rng.uniform(-1, 1)
    x = rng.standard_normal((n1, d)) * scale
    y = rng.standard_normal((n2, d)) * scale + rng.uniform(-1, 1)
    return x, y


def brute_mmd(x, y, bandwidth):
    """Direct double-sum V-statistic, no vectorization tricks."""
    def kernel(a, b):
        return math.exp(-float(np.sum((a - b) ** 2)) / bandwidth)

    def block(pts_a, pts_b):
        total = 0.0
        for a in pts_a:
            for b in pts_b:
                total += kernel(a, b)
        return total / (len(pts_a) * len(pts_b))

    value = block(x, x) + block(y, y) - 2 * block(x, y)
    return max(value, 0.0)


def brute_kde_log_density(queries, support, bandwidth):
    d = support.shape[1]
    log_norm = math.log(len(support)) + 0.5 * d * math.log(2 * math.pi * bandwidth ** 2)
    out = []
    for q in queries:
        exponents = [-float(np.sum((q - p) ** 2)) / (2 * bandwidth ** 2)
                     for p in support]
        peak = max(exponents)
        total = sum(math.exp(e - peak) for e in exponents)
        out.append(peak + math.log(total) - log_norm)
    return np.array(out)


# Each module function with a good one-dimensional set beside the set under test.
_GOOD = np.zeros((2, 1))
_CHECKED_CALLS = {
    "median_heuristic": lambda s: median_heuristic(_GOOD, s),
    "kde_bandwidth_max_eig": lambda s: kde_bandwidth_max_eig(_GOOD, s),
    "mmd_rbf": lambda s: mmd_rbf(_GOOD, s, 1.0),
    "kde_log_density": lambda s: kde_log_density(_GOOD, s, 1.0),
    "min_l2": lambda s: min_l2(np.zeros(1), s),
}


class TestCheckedSets:
    def test_coerces_one_dim(self):
        assert _checked(np.array([1.0, 2.0, 3.0]))[0].shape == (3, 1)
        assert median_heuristic(np.array([1.0, 2.0]), np.array([[4.0]])) == 4.0
        assert min_l2(np.array([2.5]), np.array([1.0, 2.0, 3.0])) == 0.5

    @pytest.mark.parametrize("call", sorted(_CHECKED_CALLS))
    @pytest.mark.parametrize("bad, message", [
        (np.zeros((0, 1)), "^sample set needs at least one point$"),
        (np.array([[np.inf]]), "^sample set contains non-finite values$"),
        (np.array([[0.0], [np.nan]]), "^sample set contains non-finite values$"),
        (np.zeros((2, 1, 1)), r"^sample set must be 2-D \(n x d\), got shape \(2, 1, 1\)$"),
        (np.zeros((2, 3)), "^dimension mismatch: 1 vs 3$"),
    ])
    def test_every_function_refuses_a_bad_set(self, call, bad, message):
        with pytest.raises(ValueError, match=message):
            _CHECKED_CALLS[call](bad)

    def test_either_set_of_a_pair_is_checked(self):
        with pytest.raises(ValueError, match="^sample set contains non-finite values$"):
            mmd_rbf(np.array([[np.inf]]), _GOOD, 1.0)
        with pytest.raises(ValueError, match="^dimension mismatch: 3 vs 1$"):
            kde_log_density(np.zeros((2, 3)), _GOOD, 1.0)

    def test_min_l2_refuses_a_non_finite_executed_overlap(self):
        with pytest.raises(ValueError, match="^executed overlap contains non-finite values$"):
            min_l2(np.array([np.nan, 0.0]), np.zeros((3, 2)))


def test_median_heuristic_single_pair():
    assert median_heuristic(np.array([[0.0]]), np.array([[2.0]])) == 4.0


def test_median_heuristic_three_pairs():
    # pooled {0, 1, 3}: squared gaps {1, 9, 4}, median 4
    x = np.array([[0.0], [1.0]])
    y = np.array([[3.0]])
    assert median_heuristic(x, y) == 4.0


def test_median_heuristic_degenerate_fallback():
    s = np.array([[0.0], [0.0]])
    assert median_heuristic(s, s) == BANDWIDTH_FALLBACK


def test_kde_bandwidth_is_sqrt_max_eigenvalue():
    rng = np.random.default_rng(7)
    pts = rng.standard_normal((40, 3)) @ np.diag([3.0, 1.0, 0.2])
    x = pts[:25]
    y = pts[25:]
    expected = math.sqrt(np.linalg.eigvalsh(np.cov(pts.T, ddof=1)).max())
    assert kde_bandwidth_max_eig(x, y) == pytest.approx(expected, rel=1e-12)


def test_kde_bandwidth_degenerate_fallback():
    s = np.zeros((3, 2))
    assert kde_bandwidth_max_eig(s, s) == BANDWIDTH_FALLBACK


def test_mmd_identical_sets_zero():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((20, 3))
    assert abs(mmd_rbf(x, x, 2.0)) < 1e-12


def test_mmd_two_singletons_closed_form():
    x = np.array([[0.0]])
    y = np.array([[1.0]])
    assert mmd_rbf(x, y, 1.0) == pytest.approx(2 - 2 * math.exp(-1), abs=1e-12)


def test_mmd_matches_brute_force():
    rng = np.random.default_rng(42)
    for _ in range(200):
        x, y = _sets(rng)
        bandwidth = 10.0 ** rng.uniform(-1, 1)
        assert mmd_rbf(x, y, bandwidth) == pytest.approx(
            brute_mmd(x, y, bandwidth), abs=1e-9)


def test_kde_log_density_single_point():
    # density of N(0, 1) at its center: 1/sqrt(2*pi)
    support = np.array([[0.0]])
    value = kde_log_density(np.array([[0.0]]), support, 1.0)
    assert value[0] == pytest.approx(math.log(1 / math.sqrt(2 * math.pi)), abs=1e-12)


def test_kde_log_density_matches_brute_force():
    rng = np.random.default_rng(99)
    for _ in range(200):
        x, y = _sets(rng, n_max=30)
        bandwidth = 10.0 ** rng.uniform(-0.5, 0.5)
        got = kde_log_density(y, x, bandwidth)
        want = brute_kde_log_density(x, y, bandwidth)
        np.testing.assert_allclose(got, want, atol=1e-9, rtol=1e-9)


def brute_sq(pooled):
    """Squared distances between the rows of `pooled`, from float64 pairwise differences."""
    diff = pooled[:, None, :] - pooled[None, :, :]
    return (diff ** 2).sum(axis=-1)


def _kernel_matrix(pooled, scale):
    """The matrix a kernel at `scale` reads: the Gram form, or exact differences
    where the Gram form's rounding could move its exponent by over KERNEL_SLACK."""
    return pooled.sq if pooled.slack <= KERNEL_SLACK * scale else brute_sq(pooled.pooled)


def test_kde_log_density_is_the_scipy_logsumexp_form_exactly():
    """Fed the same distances, the KDE is scipy's logsumexp form bit for bit."""
    rng = np.random.default_rng(7)
    for _ in range(100):
        x, y = _sets(rng, n_max=40)
        bandwidth = 10.0 ** rng.uniform(-1, 1)
        pooled = PooledDistances(x, y)
        sq = _kernel_matrix(pooled, 2.0 * bandwidth ** 2)[len(x):, :len(x)]
        log_norm = math.log(len(x)) + 0.5 * x.shape[1] * math.log(2.0 * math.pi * bandwidth ** 2)
        want = logsumexp(-sq / (2.0 * bandwidth ** 2), axis=1) - log_norm
        assert np.array_equal(kde_log_density(x, y, bandwidth), want)


def _block_median_heuristic(sq):
    """`np.median` of the strict upper triangle, with the fallback."""
    med = float(np.median(sq[np.triu_indices(len(sq), 1)]))
    return med if med > 0.0 else BANDWIDTH_FALLBACK


def _block_mmd_rbf(sq, n_x, bandwidth):
    """The MMD from the x-x, y-y and x-y blocks of a pooled matrix, one mean each."""
    x, y = slice(None, n_x), slice(n_x, None)
    kxx = np.exp(-sq[x, x] / bandwidth).mean()
    kyy = np.exp(-sq[y, y] / bandwidth).mean()
    kxy = np.exp(-sq[x, y] / bandwidth).mean()
    return max(float(kxx + kyy - 2.0 * kxy), 0.0)


def _block_kde_log_density(sq, fit, queries, dim, bandwidth):
    """The KDE on the `fit` rows at the `queries` rows (slices) of a pooled matrix
    of `dim`-dimensional points."""
    n_fit = len(range(*fit.indices(len(sq))))
    log_norm = math.log(n_fit) + 0.5 * dim * math.log(2.0 * math.pi * bandwidth ** 2)
    return logsumexp_rows(-sq[queries, fit] / (2.0 * bandwidth ** 2))[:, 0] - log_norm


def _block_kl(sq, p_rows, q_rows, dim, bandwidth):
    """KL(p || q) from the KDEs on two row ranges of a pooled matrix, at p's rows."""
    log_p = _block_kde_log_density(sq, p_rows, p_rows, dim, bandwidth)
    log_q = _block_kde_log_density(sq, q_rows, p_rows, dim, bandwidth)
    return max(float(np.mean(log_p - log_q)), 0.0)


def _parent_kde_bandwidth_max_eig(x, y):
    """The max-eigenvalue bandwidth from a stack of its own."""
    cov = np.atleast_2d(np.cov(np.vstack([x, y]), rowvar=False, ddof=1))
    bw = math.sqrt(max(float(np.linalg.eigvalsh(cov)[-1]), 0.0))
    return bw if bw > 0.0 else BANDWIDTH_FALLBACK


def _assert_matches_reference(x, y, kde_bandwidth):
    """The pooled matrix against brute-force differences, and each estimator against
    the per-block arithmetic on the matrix its kernel reads.

    The matrix is within REL_TOL of its largest entry from the brute-force one,
    never negative, and exactly 0 on its diagonal and between identical points.
    The median heuristic is within that tolerance of the brute-force median, and
    exactly `np.median` of the matrix. Every kernel estimator is its per-block
    form bit for bit, and the max-eigenvalue bandwidth its `np.cov` form.
    """
    px, py = _checked(x, y)
    pooled = PooledDistances(px, py)
    n_x, dim, x_rows, y_rows = len(px), px.shape[1], slice(None, len(px)), slice(len(px), None)
    ref = brute_sq(pooled.pooled)
    atol = REL_TOL * ref.max()
    assert pooled.slack <= atol
    assert np.all(np.abs(pooled.sq - ref) <= atol)
    assert (pooled.sq >= 0.0).all()
    identical = (pooled.pooled[:, None, :] == pooled.pooled[None, :, :]).all(axis=-1)
    assert (pooled.sq[identical] == 0.0).all()
    bandwidth = _parent_kde_bandwidth_max_eig(px, py)
    assert kde_bandwidth_max_eig(x, y) == bandwidth
    assert pooled.kde_bandwidth_max_eig() == bandwidth
    median = median_heuristic(x, y)
    assert median == _block_median_heuristic(pooled.sq)
    ref_median = _block_median_heuristic(ref)
    assert median == ref_median or abs(median - ref_median) <= atol
    for bandwidth in (median, kde_bandwidth):
        assert mmd_rbf(x, y, bandwidth) == _block_mmd_rbf(
            _kernel_matrix(pooled, bandwidth), n_x, bandwidth)
    sq = _kernel_matrix(pooled, 2.0 * kde_bandwidth ** 2)
    assert np.array_equal(kde_log_density(x, y, kde_bandwidth),
                          _block_kde_log_density(sq, x_rows, y_rows, dim, kde_bandwidth))
    assert np.array_equal(pooled.kde_log_density("y", "x", kde_bandwidth),
                          _block_kde_log_density(sq, y_rows, x_rows, dim, kde_bandwidth))
    assert pooled.kl_forward(kde_bandwidth) == _block_kl(sq, y_rows, x_rows, dim, kde_bandwidth)
    # The reverse direction reads the pooled matrix of (x, y) as it is.
    assert pooled.kl_reverse(kde_bandwidth) == _block_kl(sq, x_rows, y_rows, dim, kde_bandwidth)


@st.composite
def _set_pairs(draw):
    """Two sets of 1-40 points in 1-10 dims: gaussian, rows drawn from a pool
    of 1-3 points (duplicates), or all zeros (the fallback bandwidth); 1-D
    arrays in some 1-dim draws. One-point sets are drawn often, so pools of
    exactly 2 points come up."""
    sizes = st.one_of(st.just(1), st.integers(1, 40))
    n_x, n_y, d = draw(sizes), draw(sizes), draw(st.integers(1, 10))
    kind = draw(st.sampled_from(("gaussian", "duplicates", "zeros")))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "zeros":
        x, y = np.zeros((n_x, d)), np.zeros((n_y, d))
    else:
        scale = 10.0 ** draw(st.floats(-3, 3))
        x = rng.standard_normal((n_x, d)) * scale
        y = rng.standard_normal((n_y, d)) * scale + draw(st.floats(-1, 1))
        if kind == "duplicates":
            pool = np.vstack([x, y])[:draw(st.integers(1, 3))]
            x = pool[rng.integers(0, len(pool), n_x)]
            y = pool[rng.integers(0, len(pool), n_y)]
    if d == 1 and draw(st.booleans()):
        x, y = x[:, 0], y[:, 0]
    return x, y, 10.0 ** draw(st.floats(-1, 1))


@settings(max_examples=300, deadline=None)
@given(_set_pairs())
def test_pooled_matrix_is_the_per_block_arithmetic_exactly(pair):
    _assert_matches_reference(*pair)


@settings(max_examples=150, deadline=None)
@given(_set_pairs(), st.integers(0, 2 ** 32 - 1))
def test_pooled_matrix_far_from_the_origin_matches_brute_force(pair, seed):
    """Moved off the origin by 1e3 times its spread, in a random direction, a set
    keeps every property: the Gram product is taken about a point of the set."""
    x, y, bandwidth = pair
    x, y = _checked(x, y)
    points = np.vstack([x, y])
    spread = float(np.max(np.abs(points - points.mean(axis=0)))) or 1.0
    direction = np.random.default_rng(seed).standard_normal(points.shape[1])
    offset = 1e3 * spread * direction / np.linalg.norm(direction)
    _assert_matches_reference(x + offset, y + offset, bandwidth)


def test_narrow_kernel_on_far_clusters_reads_exact_differences():
    """Two points 1 apart, 129280 from a third: the Gram form's rounding, relative to the
    largest norm, exceeds what an exponent at bandwidth 1 may lose, so the kernel
    reads exact differences, and the MMD is the brute-force one in either order."""
    x, y = np.array([[129280.26565689524]]), np.array([[0.0], [1.0]])
    assert PooledDistances(y, x).slack > KERNEL_SLACK * 1.0
    want = brute_mmd(x, y, 1.0)
    assert mmd_rbf(x, y, 1.0) == pytest.approx(want, abs=1e-12)
    assert mmd_rbf(y, x, 1.0) == pytest.approx(want, abs=1e-12)


# 300 pairs whose lower middle `partition(150)` (numpy 2.4) leaves off index 149.
_POOL_25 = np.random.default_rng(106).standard_normal((25, 1))


@pytest.mark.parametrize("x, y", [
    ([[0.0, 1.0]], [[2.0, -1.0]]),  # pool of 2 points: 1 pair
    ([[0.0], [3.0]], [[1.0]]),  # 3 pairs (odd)
    ([[0.0], [3.0]], [[1.0], [7.0]]),  # 6 pairs (even)
    ([[0.0], [1.0]], [[2.0], [4.0]]),  # 6 pairs (even), the two middle values tie at 4
    (np.eye(4)[:2], np.eye(4)[2:]),  # every distance 2.0: nonzero and all equal
    ([0.5], [-1.5]),  # 1-D pool of 2 points: 1 pair
    (_POOL_25[:12], _POOL_25[12:]),
    ([[1.0, 2.0]] * 3, [[1.0, 2.0], [0.0, 0.0]]),  # duplicate rows, n_x != n_y
    (np.zeros((4, 3)), np.zeros((2, 3))),  # all zeros: fallback bandwidth
    ([0.5, -1.0, 2.0], [1.5, 0.0]),  # 1-D input
])
def test_pooled_matrix_edge_cases_match_per_block_arithmetic(x, y):
    _assert_matches_reference(np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64),
                           0.7)


@st.composite
def _lse_rows(draw, non_finite=False):
    """Float64 rows of 1-8 columns, some with exact ties at the row max: finite,
    or with `non_finite` also holding inf, -inf and nan."""
    n_cols = draw(st.integers(1, 8))
    element = st.one_of(st.floats(-50, 50),
                        st.floats(allow_nan=False, allow_infinity=False))
    if non_finite:
        element = st.one_of(element, st.sampled_from([np.inf, -np.inf, np.nan]))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        row = draw(st.lists(element, min_size=n_cols, max_size=n_cols))
        for col in draw(st.lists(st.integers(0, n_cols - 1), max_size=n_cols)):
            row[col] = max(row)
        rows.append(row)
    return np.array(rows, dtype=np.float64)


@settings(max_examples=300, deadline=None)
@given(_lse_rows())
def test_logsumexp_rows_is_scipy_logsumexp_exactly(a):
    with np.errstate(over="ignore"):  # a - max overflows to -inf on wide rows, in both
        assert np.array_equal(logsumexp_rows(a), logsumexp(a, axis=1, keepdims=True))


@settings(max_examples=300, deadline=None)
@given(_lse_rows(non_finite=True))
def test_logsumexp_rows_along_axis_0_is_scipy_logsumexp_exactly(a):
    """The mode-major form: each column reduced, non-finite columns included."""
    columns = np.ascontiguousarray(a.T)
    with np.errstate(all="ignore"):
        want = logsumexp(columns, axis=0, keepdims=True)
        got = logsumexp_rows(columns, axis=0)
    assert got.shape == (1, columns.shape[1])
    assert np.array_equal(got, want, equal_nan=True)


def test_logsumexp_rows_non_finite_rows_match_scipy():
    inf, nan = np.inf, np.nan
    a = np.array([[-inf, -inf], [1.0, -inf], [inf, 1.0], [inf, inf], [nan, 1.0],
                  [2.0, 2.0]])
    with np.errstate(all="ignore"):
        want = logsumexp(a, axis=1, keepdims=True)
    assert np.array_equal(logsumexp_rows(a), want, equal_nan=True)


def test_kl_identical_sets_zero():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((15, 2))
    assert abs(PooledDistances(x, x).kl_forward(0.7)) < 1e-9
    assert abs(PooledDistances(x, x).kl_reverse(0.7)) < 1e-9


@pytest.mark.parametrize("m", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("beta", [0.5, 1.0])
def test_kl_single_samples_closed_form(m, beta):
    # two unit-mass KDEs a distance m apart: KL = m^2 / (2 beta^2)
    prev = np.array([[0.0]])
    curr = np.array([[m]])
    expected = m ** 2 / (2 * beta ** 2)
    assert PooledDistances(prev, curr).kl_forward(beta) == pytest.approx(expected, abs=1e-9)
    assert PooledDistances(prev, curr).kl_reverse(beta) == pytest.approx(expected, abs=1e-9)


def test_kl_reverse_is_swapped_forward():
    """The pooled matrices of (x, y) and (y, x) differ in their rounding alone."""
    rng = np.random.default_rng(11)
    x = rng.standard_normal((10, 2))
    y = rng.standard_normal((12, 2)) + 0.5
    assert PooledDistances(x, y).kl_reverse(0.9) == pytest.approx(
        PooledDistances(y, x).kl_forward(0.9), rel=REL_TOL)


def test_separation_monotonicity_fixed_bandwidth():
    # pushing one cloud away must not shrink either distance
    rng = np.random.default_rng(2)
    base = rng.standard_normal((25, 2))
    x = base
    prev_mmd = prev_kl = -1.0
    for shift in (0.0, 0.5, 1.0, 2.0, 4.0):
        y = base + shift
        d_mmd = mmd_rbf(x, y, 4.0)
        d_kl = PooledDistances(x, y).kl_forward(1.0)
        assert d_mmd >= prev_mmd - 1e-12
        assert d_kl >= prev_kl - 1e-9
        prev_mmd, prev_kl = d_mmd, d_kl


def test_min_l2_member_and_nonmember():
    pts = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert min_l2(np.array([3.0, 4.0]), pts) == 0.0
    assert min_l2(np.array([0.0, 0.0]), np.array([[3.0, 4.0]])) == pytest.approx(5.0)


def test_min_l2_dimension_mismatch():
    with pytest.raises(ValueError):
        min_l2(np.array([1.0]), np.array([[1.0, 2.0]]))


@settings(max_examples=80, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8),
       st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8),
       st.floats(1e-3, 1e3))
def test_mmd_nonnegative_and_symmetric(xs, ys, bandwidth):
    x = np.array(xs)
    y = np.array(ys)
    d = mmd_rbf(x, y, bandwidth)
    assert d >= 0.0
    assert d == pytest.approx(mmd_rbf(y, x, bandwidth), abs=1e-9)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.floats(-100, 100), min_size=1, max_size=6),
       st.lists(st.floats(-100, 100), min_size=1, max_size=6),
       st.floats(0.05, 50))
def test_kl_nonnegative(xs, ys, bandwidth):
    prev, curr = _checked(xs, ys)
    assert PooledDistances(prev, curr).kl_forward(bandwidth) >= 0.0
