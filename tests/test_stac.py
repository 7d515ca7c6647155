import numpy as np
import pytest

from sentinel.baselines import PAIRWISE_DETECTORS, OnlineScorer, score_detectors, score_log
from sentinel.distances import (PooledDistances, kde_bandwidth_max_eig, median_heuristic, min_l2,
                                mmd_rbf)
from sentinel.policy import ScenarioConfig, generate_rollout
from sentinel.rollout import InvalidLogError
from sentinel.stac import STAC_DETECTORS, ScoreSeries, detect_online, extract_overlap

from conftest import make_header, make_log, make_record


def _pair_logs(rng, header=None, batch=6):
    header = header or make_header()
    log = make_log(header=header, n_records=4, batch_size=batch, rng=rng)
    return header, log


def test_overlap_indices_match_hand_slices(rng):
    """Overlap = prev chunk steps [k, h) against curr chunk steps [0, h-k)."""
    header = make_header()  # h=4, k=2, d=2
    log = make_log(header=header, n_records=2, batch_size=3, rng=rng)
    prev, curr = log.records
    pair = extract_overlap(prev, curr, header)
    k, h = header.execution_horizon, header.prediction_horizon
    expected_prev = prev.chunk_samples[:, k:h, :].reshape(3, -1)
    expected_curr = curr.chunk_samples[:, :h - k, :].reshape(3, -1)
    np.testing.assert_array_equal(pair.prev, expected_prev)
    np.testing.assert_array_equal(pair.curr, expected_curr)
    assert pair.prev.shape == (3, (h - k) * header.action_dim)


def test_overlap_respects_mask(rng):
    header = make_header(action_mask=(True, False))
    log = make_log(header=header, n_records=2, batch_size=2, rng=rng)
    prev, curr = log.records
    pair = extract_overlap(prev, curr, header)
    assert pair.prev.shape == (2, header.prediction_horizon - header.execution_horizon)
    # 14 action dims with two masked out keep the order of the other 12.
    header = make_header(action_dim=14, action_mask=tuple(i not in (6, 13) for i in range(14)))
    chunks = np.arange(4 * 14.0).reshape(1, 4, 14)
    pair = extract_overlap(make_record(0, chunks), make_record(2, chunks), header)
    np.testing.assert_array_equal(
        pair.curr[0], [v for v in chunks[0, :2].ravel() if v % 14 not in (6, 13)])


@pytest.mark.parametrize("mask", [None, (True, False, True), (False, True, False)],
                         ids=["unmasked", "outer-dims", "middle-dim"])
@pytest.mark.parametrize("batches", [(5, 5), (4, 7)])
def test_pooled_overlap_is_the_two_masked_sides_stacked(rng, mask, batches):
    """The one-copy pooled set equals each side cut with the boolean mask,
    flattened and then stacked, value for value; prev and curr are views of it."""
    header = make_header(action_dim=3, action_mask=mask or (True,) * 3)
    prev = make_record(0, rng.standard_normal((batches[0], 4, 3)))
    curr = make_record(2, rng.standard_normal((batches[1], 4, 3)))
    pair = extract_overlap(prev, curr, header)
    k, h = header.execution_horizon, header.prediction_horizon
    sides = (prev.chunk_samples[:, k:h, header.mask], curr.chunk_samples[:, 0:h - k, header.mask])
    expected = np.concatenate([side.reshape(side.shape[0], -1) for side in sides])
    assert pair.pooled.flags.c_contiguous
    assert np.array_equal(pair.pooled, expected)
    assert pair.prev.base is pair.curr.base is pair.pooled.base
    assert np.array_equal(pair.prev, expected[:batches[0]])
    assert np.array_equal(pair.curr, expected[batches[0]:])


def test_overlap_requires_adjacent_records(rng):
    """A non-adjacent record is refused where it enters the scorer, before
    any overlap is cut."""
    header = make_header()
    a = make_record(0, rng.standard_normal((2, 4, 2)))
    b = make_record(6, rng.standard_normal((2, 4, 2)))
    scorer = OnlineScorer(STAC_DETECTORS, header)
    scorer.push(a)
    with pytest.raises(InvalidLogError, match="timesteps must increase by exactly 2: 0 -> 6"):
        scorer.push(b)


def test_flattening_is_time_major():
    # one batch entry, two overlap steps, two dims: flattened order must be
    # (step0 dim0, step0 dim1, step1 dim0, step1 dim1)
    header = make_header()
    prev = make_record(0, np.arange(8.0).reshape(1, 4, 2))
    curr = make_record(2, np.arange(8.0).reshape(1, 4, 2) + 100)
    pair = extract_overlap(prev, curr, header)
    np.testing.assert_array_equal(pair.prev[0], [4.0, 5.0, 6.0, 7.0])
    np.testing.assert_array_equal(pair.curr[0], [100.0, 101.0, 102.0, 103.0])


class TestScoreSeries:
    def test_validates_consistency(self):
        ScoreSeries(timesteps=(0, 2), step_scores=(0.0, 1.5), cumulative=(0.0, 1.5))
        with pytest.raises(ValueError):
            ScoreSeries(timesteps=(0, 2), step_scores=(0.0, 1.5), cumulative=(0.0, 2.0))
        with pytest.raises(ValueError):
            ScoreSeries(timesteps=(0, 2), step_scores=(0.0, -1.0), cumulative=(0.0, -1.0))

    @pytest.mark.parametrize("bad", [-0.5, float("nan"), float("inf")])
    def test_rejects_step_that_is_not_finite_and_nonnegative(self, bad):
        with pytest.raises(ValueError, match="index 1 must be finite and >= 0"):
            ScoreSeries(timesteps=(0, 2), step_scores=(0.0, bad), cumulative=(0.0, bad))
        with pytest.raises(ValueError, match="index 0 must be finite and >= 0"):
            ScoreSeries(timesteps=(0, 4), step_scores=(bad, 1.0), cumulative=(bad, bad))

    def test_terminal(self):
        s = ScoreSeries(timesteps=(0, 2, 4), step_scores=(0.0, 1.0, 0.5),
                        cumulative=(0.0, 1.0, 1.5))
        assert s.terminal == 1.5


def test_first_step_scores_zero(rng):
    log = make_log(rng=rng)
    series = score_log("stac-mmd", log)
    assert series.step_scores[0] == 0.0
    assert series.timesteps[0] == 0


def test_cumulative_is_running_sum(rng):
    log = make_log(n_records=5, rng=rng)
    series = score_log("stac-mmd", log)
    np.testing.assert_allclose(np.cumsum(series.step_scores), series.cumulative,
                               rtol=1e-12)


@pytest.mark.parametrize("name", PAIRWISE_DETECTORS)
def test_stac_scoring_needs_two_records(name, rng):
    log = make_log(n_records=1, rng=rng)
    with pytest.raises(InvalidLogError, match="at least 2 inference records"):
        score_log(name, log)


@pytest.mark.parametrize("name", STAC_DETECTORS)
def test_all_distances_give_nonnegative_series(name, rng):
    log = make_log(n_records=4, batch_size=5, rng=rng)
    series = score_log(name, log)
    assert all(s >= 0.0 for s in series.step_scores)
    assert all(b >= a for a, b in zip(series.cumulative, series.cumulative[1:]))


def test_mmd_step_matches_manual_computation(rng):
    """One step through the pipeline equals calling the estimator by hand."""
    header = make_header()
    log = make_log(header=header, n_records=2, batch_size=4, rng=rng)
    series = score_log("stac-mmd", log)
    pair = extract_overlap(log.records[0], log.records[1], header)
    bandwidth = median_heuristic(pair.prev, pair.curr)
    assert series.step_scores[1] == mmd_rbf(pair.prev, pair.curr, bandwidth)


def test_identical_consecutive_chunks_score_zero():
    # if the current samples reproduce the previous overlap exactly, the MMD
    # term vanishes
    header = make_header()
    chunks0 = np.random.default_rng(0).standard_normal((4, 4, 2))
    chunks1 = np.empty_like(chunks0)
    chunks1[:, :2, :] = chunks0[:, 2:, :]
    chunks1[:, 2:, :] = np.random.default_rng(1).standard_normal((4, 2, 2))
    log_records = [make_record(0, chunks0), make_record(2, chunks1)]
    from sentinel.rollout import RolloutLog
    log = RolloutLog(header=header, records=log_records, label=None)
    series = score_log("stac-mmd", log)
    assert series.step_scores[1] < 1e-9


def test_min_l2_uses_executed_chunk(rng):
    header = make_header()
    chunks0 = rng.standard_normal((3, 4, 2))
    chunks1 = rng.standard_normal((3, 4, 2))
    # plant the executed overlap inside the current batch: distance must be 0
    chunks1[2, :2, :] = chunks0[1, 2:, :]
    from sentinel.rollout import RolloutLog
    log = RolloutLog(header=header,
                     records=[make_record(0, chunks0, executed_index=1),
                              make_record(2, chunks1)],
                     label=None)
    series = score_log("min-l2", log)
    assert series.step_scores[1] == 0.0


class TestDetectOnline:
    def _series(self, cumulative):
        steps = [cumulative[0]] + [b - a for a, b in zip(cumulative, cumulative[1:])]
        timesteps = tuple(2 * i for i in range(len(cumulative)))
        return ScoreSeries(timesteps=timesteps, step_scores=tuple(steps),
                           cumulative=tuple(cumulative))

    def test_fires_at_first_crossing(self):
        series = self._series([0.0, 0.4, 1.1, 5.0])
        assert detect_online(series, 1.0) == 4

    def test_strict_inequality(self):
        series = self._series([0.0, 1.0])
        assert detect_online(series, 1.0) is None
        assert detect_online(series, 0.999999) == 2

    def test_never_fires_on_infinite_gamma(self):
        series = self._series([0.0, 100.0, 1e9])
        assert detect_online(series, float("inf")) is None

    def test_fires_iff_terminal_exceeds(self, rng):
        for _ in range(50):
            log = make_log(n_records=4, rng=rng)
            series = score_log("stac-mmd", log)
            gamma = rng.uniform(0, series.terminal * 1.5 + 0.1)
            fired = detect_online(series, gamma) is not None
            assert fired == (series.terminal > gamma)


def test_unknown_distance_rejected(rng):
    with pytest.raises(ValueError, match="stac-mmd"):
        score_log("wasserstein", make_log(rng=rng))


def test_non_stac_name_is_not_scored_as_stac(rng):
    """A registry name outside the STAC family never reaches the overlap
    scoring: mahalanobis without stats fails on its own terms."""
    with pytest.raises(ValueError, match="embedding stats"):
        score_log("mahalanobis", make_log(rng=rng))


def test_bandwidth_rule_reaches_every_step(rng):
    """Each STAC step is the public estimator of its overlap pair, with the
    median-heuristic MMD bandwidth and the max-eigenvalue KDE bandwidth of
    that same pair."""
    log = make_log(n_records=5, batch_size=6, rng=rng)
    series = score_detectors(("stac-mmd", "stac-klf", "stac-klr"), log)
    expected = {"stac-mmd": [0.0], "stac-klf": [0.0], "stac-klr": [0.0]}
    for prev, curr in zip(log.records, log.records[1:]):
        pair = extract_overlap(prev, curr, log.header)
        b1 = median_heuristic(pair.prev, pair.curr)
        b2 = kde_bandwidth_max_eig(pair.prev, pair.curr)
        expected["stac-mmd"].append(mmd_rbf(pair.prev, pair.curr, b1))
        expected["stac-klf"].append(PooledDistances(pair.prev, pair.curr).kl_forward(b2))
        expected["stac-klr"].append(PooledDistances(pair.prev, pair.curr).kl_reverse(b2))
    assert {name: s.step_scores for name, s in series.items()} == expected


@pytest.mark.parametrize("mask", [(True, True), (True, False), (False, True)])
@pytest.mark.parametrize("behavior", ["consistent", "mode_resample"])
def test_every_step_equals_the_public_functions_on_overlaps_cut_by_hand(behavior, mask):
    """Bit for bit, at every step of a scenario log: each STAC step is the public
    estimator of the overlap cut here by numpy slicing, under the header's mask,
    and `outvar` the mean population variance of the masked, flattened chunks."""
    config = ScenarioConfig(episode_limit=24, action_mask=mask)
    log = generate_rollout(config.build_policy(behavior, seed=7), config, seed=7)
    names = STAC_DETECTORS + ("outvar",)
    series = score_detectors(names, log)
    h, k = config.prediction_horizon, config.execution_horizon
    keep = np.array(mask)
    expected = {name: [0.0] for name in STAC_DETECTORS}
    expected["outvar"] = []
    for j, record in enumerate(log.records):
        chunks = record.chunk_samples
        batch = chunks.shape[0]
        expected["outvar"].append(float(np.mean(chunks[:, :, keep].reshape(batch, -1).var(axis=0))))
        if j == 0:
            continue
        prev = log.records[j - 1]
        x = prev.chunk_samples[:, k:h, keep].reshape(prev.batch_size, -1)
        y = chunks[:, :h - k, keep].reshape(batch, -1)
        expected["stac-mmd"].append(mmd_rbf(x, y, median_heuristic(x, y)))
        bandwidth = kde_bandwidth_max_eig(x, y)
        expected["stac-klf"].append(PooledDistances(x, y).kl_forward(bandwidth))
        expected["stac-klr"].append(PooledDistances(x, y).kl_reverse(bandwidth))
        expected["min-l2"].append(min_l2(x[prev.executed_index], y))
    assert log.n_records == 6
    assert {name: s.step_scores for name, s in series.items()} == expected
