import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sentinel.calibration import (CalibrationResult, conformal_threshold,
                                  leave_trajectory_out_stats, pooled_stats)

from conftest import empirical_fpr


class TestConformalThreshold:
    def test_fifty_scores_delta_005_takes_rank_49(self):
        scores = list(range(50))
        result = conformal_threshold(scores, delta=0.05)
        # ceil(51 * 0.95) = 49, so gamma is the 49th smallest = 48
        assert result.quantile_index == 49
        assert result.gamma == 48.0

    def test_small_m_yields_infinite_gamma(self):
        result = conformal_threshold(list(range(10)), delta=0.05)
        # ceil(11 * 0.95) = 11 > 10: no finite threshold can give the guarantee
        assert result.quantile_index == 11
        assert math.isinf(result.gamma)
        assert result.is_infinite

    def test_boundary_m_where_gamma_becomes_finite(self):
        # with delta=0.05 the max order statistic works from M=19 upward
        assert math.isinf(conformal_threshold(list(range(18)), delta=0.05).gamma)
        result = conformal_threshold(list(range(19)), delta=0.05)
        assert result.gamma == 18.0

    def test_ties_occupy_consecutive_ranks(self):
        result = conformal_threshold([1.0] * 30 + [2.0] * 20, delta=0.05)
        assert result.quantile_index == 49
        assert result.gamma == 2.0

    def test_unsorted_input_is_sorted(self):
        result = conformal_threshold([3.0, 1.0, 2.0], delta=0.4)
        assert result.terminal_scores == (1.0, 2.0, 3.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            conformal_threshold([])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            conformal_threshold([1.0, float("nan")])
        with pytest.raises(ValueError):
            conformal_threshold([1.0, float("inf")])

    @pytest.mark.parametrize("scores, message", [
        (["0.3", 0.1, 0.2], "terminal_scores[0] must be a real number, got '0.3'"),
        ([0.3, 0.1, True], "terminal_scores[2] must be a real number, got True"),
    ], ids=["str", "bool"])
    def test_score_of_wrong_type_is_refused_not_coerced(self, scores, message):
        with pytest.raises(ValueError) as refused:
            conformal_threshold(scores, delta=0.4)
        assert type(refused.value) is ValueError  # scores are no log
        assert str(refused.value) == message

    def test_int_and_numpy_scores_are_accepted(self):
        result = conformal_threshold([3, np.float64(1.5), 2], delta=0.4)
        assert result.terminal_scores == (1.5, 2.0, 3.0)
        assert all(type(s) is float for s in result.terminal_scores)

    @pytest.mark.parametrize("delta", [0.0, 1.0, -0.1, 1.5])
    def test_rejects_bad_delta(self, delta):
        with pytest.raises(ValueError):
            conformal_threshold([1.0, 2.0], delta=delta)

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=200),
           st.floats(min_value=0.01, max_value=0.5))
    def test_gamma_is_a_score_or_infinite(self, scores, delta):
        result = conformal_threshold(scores, delta=delta)
        if not result.is_infinite:
            assert result.gamma in result.terminal_scores
        assert result.m == len(scores)

    @pytest.mark.parametrize("delta, m, rank", [(0.7, 9, 3), (0.45, 99, 55), (0.42, 49, 29)])
    def test_rank_is_exact_where_float_rounds_up(self, delta, m, rank):
        """(M + 1)(1 - delta) is a whole number here, which float arithmetic overshoots
        (10 * (1 - 0.7) is 3.0000000000000004), so its ceil would be one rank too high."""
        for d in (delta, np.float64(delta)):
            result = conformal_threshold(list(range(m)), delta=d)
            assert (result.quantile_index, result.gamma) == (rank, rank - 1)

    @given(st.integers(min_value=1, max_value=2000), st.integers(min_value=1, max_value=4),
           st.data())
    def test_rank_matches_exact_decimal_arithmetic(self, m, digits, data):
        """delta = k / 10**digits, read as the float a user types: the rank is the ceil
        of (M + 1)(1 - delta) computed on the decimal, never on its binary value."""
        k = data.draw(st.integers(min_value=1, max_value=10 ** digits - 1))
        expected = math.ceil((m + 1) * (1 - Fraction(k, 10 ** digits)))
        assert conformal_threshold([0.0] * m, delta=k / 10 ** digits).quantile_index == expected

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=30, max_size=200))
    def test_marginal_coverage_counting(self, scores):
        """At most a delta fraction of the calibration scores exceed gamma."""
        result = conformal_threshold(scores, delta=0.2)
        if result.is_infinite:
            return
        above = sum(1 for s in scores if s > result.gamma)
        # rank r means at least r scores are <= gamma, so at most M - r exceed
        assert above <= result.m - result.quantile_index


class TestEmpiricalFpr:
    def test_counts_strict_exceedance(self):
        assert empirical_fpr([1.0, 2.0, 3.0, 4.0], 2.0) == 0.5
        assert empirical_fpr([1.0, 1.0], 1.0) == 0.0
        assert empirical_fpr([1.0, 1.0], 0.5) == 1.0

    def test_infinite_gamma_never_fires(self):
        assert empirical_fpr([1e9, 1e12], math.inf) == 0.0

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValueError):
            empirical_fpr([], 1.0)
        with pytest.raises(ValueError):
            empirical_fpr([float("nan")], 1.0)


class TestCalibrationResultJson:
    def test_round_trip_finite(self):
        result = conformal_threshold([5.0, 1.0, 3.0], delta=0.3)
        clone = CalibrationResult.from_json_obj(json.loads(json.dumps(result.to_json_obj())))
        assert clone == result

    def test_round_trip_infinite(self):
        result = conformal_threshold([1.0, 2.0], delta=0.05)
        assert result.is_infinite
        obj = result.to_json_obj()
        assert obj["gamma"] == "inf"
        clone = CalibrationResult.from_json_obj(obj)
        assert clone.is_infinite
        assert clone.m == 2

    @pytest.mark.parametrize("field, value", [
        ("gamma", float("nan")),
        ("gamma", 2.0),  # a score, but not the one at quantile_index 3
        ("gamma", 0.5),
        ("delta", 1.5),
        ("delta", 0.0),
        ("m", 4),
        ("quantile_index", 2),
        ("terminal_scores", [2.0, 1.0, 3.0]),  # unsorted
        ("terminal_scores", [1.0, 2.0, float("inf")]),
    ])
    def test_refuses_a_result_that_breaks_the_conformal_rank(self, field, value):
        obj = conformal_threshold([1.0, 2.0, 3.0], delta=0.25).to_json_obj()
        assert (obj["gamma"], obj["quantile_index"]) == (3.0, 3)
        obj[field] = value
        with pytest.raises(ValueError):
            CalibrationResult.from_json_obj(obj)

    def test_refuses_a_rank_rounded_up_in_float(self):
        """A file that stores the float rank ceil(10 * (1 - 0.7)) = 4 at M = 9 is refused."""
        obj = conformal_threshold([float(s) for s in range(9)], delta=0.7).to_json_obj()
        assert (obj["gamma"], obj["quantile_index"]) == (2.0, 3)
        obj.update(gamma=3.0, quantile_index=4)
        with pytest.raises(ValueError, match="not the conformal threshold"):
            CalibrationResult.from_json_obj(obj)

    def test_refuses_a_finite_gamma_past_m(self):
        obj = conformal_threshold([1.0, 2.0], delta=0.05).to_json_obj()
        obj["gamma"] = 2.0
        with pytest.raises(ValueError, match="not the conformal threshold"):
            CalibrationResult.from_json_obj(obj)

    def test_json_is_plain_types(self):
        result = conformal_threshold([1.5, 2.5, 3.5], delta=0.3)
        text = json.dumps(result.to_json_obj())
        obj = json.loads(text)
        assert isinstance(obj["terminal_scores"], list)
        assert isinstance(obj["m"], int)


class TestEmbeddingStatsFitting:
    def test_leave_one_out_excludes_own_trajectory(self):
        # trajectory 0 sits far from the others; its held-out fit must ignore it
        groups = [
            [np.array([100.0, 100.0])],
            [np.array([0.0, 0.0]), np.array([1.0, 0.0])],
            [np.array([0.0, 1.0]), np.array([1.0, 1.0])],
        ]
        stats = leave_trajectory_out_stats(groups)
        mu0, _ = stats[0]
        np.testing.assert_allclose(mu0, [0.5, 0.5])

    def test_leave_one_out_count(self):
        groups = [[np.zeros(2)], [np.ones(2)], [np.full(2, 2.0)]]
        stats = leave_trajectory_out_stats(groups)
        assert len(stats) == 3

    def test_needs_two_trajectories(self):
        with pytest.raises(ValueError):
            leave_trajectory_out_stats([[np.zeros(2)]])

    def test_rejects_dim_mismatch(self):
        with pytest.raises(ValueError):
            leave_trajectory_out_stats([[np.zeros(2)], [np.zeros(3)]])

    def test_pooled_matches_manual(self):
        rng = np.random.default_rng(3)
        groups = [rng.standard_normal((4, 3)) for _ in range(5)]
        mu, cov = pooled_stats(groups)
        allpts = np.vstack(groups)
        np.testing.assert_allclose(mu, allpts.mean(axis=0))
        manual = np.cov(allpts, rowvar=False, ddof=1)
        ridge = cov - manual
        # only the diagonal carries the ridge and it is tiny relative to scale
        assert np.allclose(ridge, np.diag(np.diag(ridge)))
        assert np.all(np.diag(ridge) > 0)
        assert np.diag(ridge).max() < 1e-4

    def test_degenerate_embeddings_stay_invertible(self):
        # identical embeddings give a zero covariance; the ridge floor must
        # keep the matrix invertible
        groups = [[np.ones(2)] * 3, [np.ones(2)] * 3]
        mu, cov = pooled_stats(groups)
        inv = np.linalg.inv(cov)
        assert np.isfinite(inv).all()

    def test_single_point_pool(self):
        mu, cov = pooled_stats([[np.array([2.0, 3.0])]])
        np.testing.assert_allclose(mu, [2.0, 3.0])
        assert cov.shape == (2, 2)
        assert np.isfinite(np.linalg.inv(cov)).all()


class TestResamplingFalsePositiveControl:
    def test_mean_fpr_close_to_expectation(self):
        """Resampling cal/test splits from one pool keeps FPR near delta.

        With M=50 and delta=0.05 the threshold is the 49th order statistic,
        so a fresh exchangeable draw exceeds it with probability 2/51.
        """
        rng = np.random.default_rng(11)
        pool = rng.gumbel(size=400)
        rates = []
        for _ in range(300):
            idx = rng.permutation(pool.size)
            cal = pool[idx[:50]]
            test = pool[idx[50:70]]
            gamma = conformal_threshold(cal, delta=0.05).gamma
            rates.append(empirical_fpr(test, gamma))
        mean_fpr = float(np.mean(rates))
        assert abs(mean_fpr - 2.0 / 51.0) < 0.02
