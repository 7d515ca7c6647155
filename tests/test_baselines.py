import itertools
import json
import math
import re

import numpy as np
import pytest

from sentinel import baselines, distances, evaluation, rollout
from sentinel.baselines import (DETECTOR_NAMES, ORACLE_DETECTORS, PAIRWISE_DETECTORS,
                                DetectorContext, EmbeddingStats, OnlineScorer, mahalanobis_score,
                                output_variance_score, score_detectors, score_log, score_logs,
                                _ddpm_loss, _reconstruction, _reverse_stacked, _step_seed,
                                _stitched_chunks)
from sentinel.evaluation import BenchmarkConfig, run_benchmark
from sentinel.policy import GmmMode, ScenarioConfig, SyntheticGmmPolicy, generate_rollout
from sentinel.rollout import InvalidLogError, LogParseError, RolloutLog, read_log
from sentinel.stac import STAC_DETECTORS

from conftest import make_header, make_log, make_record, mode_plan


def _point_mass_policy(attractor=(1.5, -0.5), horizon=3):
    mode = GmmMode(weight=1.0, stddev=1e-12, attractor=np.array(attractor),
                   gain=0.1)
    return SyntheticGmmPolicy([mode], horizon=horizon, action_dim=len(attractor))


class TestEmbeddingStats:
    def test_from_mean_cov(self):
        stats = EmbeddingStats.from_mean_cov(np.array([1.0, 2.0]), np.eye(2) * 4.0)
        np.testing.assert_allclose(stats.covariance_inverse, np.eye(2) / 4.0)

    def test_rejects_non_positive_definite(self):
        with pytest.raises(ValueError):
            EmbeddingStats(mean=np.zeros(2),
                           covariance_inverse=np.array([[1.0, 0.0], [0.0, -1.0]]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            EmbeddingStats(mean=np.zeros(3), covariance_inverse=np.eye(2))


class TestMahalanobis:
    def test_identity_covariance_is_euclidean(self):
        stats = EmbeddingStats(mean=np.zeros(2), covariance_inverse=np.eye(2))
        assert mahalanobis_score(np.array([3.0, 4.0]), stats) == pytest.approx(5.0)

    def test_hand_computed_anisotropic(self):
        # variances 4 and 1: point (2, 1) sits exactly sqrt(1 + 1) out
        stats = EmbeddingStats.from_mean_cov(np.zeros(2), np.diag([4.0, 1.0]))
        assert mahalanobis_score(np.array([2.0, 1.0]), stats) == pytest.approx(math.sqrt(2.0))

    def test_at_mean_is_zero(self):
        stats = EmbeddingStats.from_mean_cov(np.array([5.0, -2.0]), np.eye(2))
        assert mahalanobis_score(np.array([5.0, -2.0]), stats) == 0.0


class TestDdpmLoss:
    def test_exact_oracle_point_mass_is_zero(self):
        """When the oracle predicts the injected noise exactly, the loss
        vanishes (up to float error)."""
        policy = _point_mass_policy()
        state = np.array([0.3, 0.2])
        clean = mode_plan(policy.modes[0], state, 3)
        chunks = np.tile(clean, (4, 1, 1))
        assert _ddpm_loss([chunks], state[None], policy, 5, [0])[0] < 1e-10

    def test_off_distribution_state_scores_higher(self):
        policy = _point_mass_policy()
        state = np.array([0.3, 0.2])
        clean = mode_plan(policy.modes[0], state, 3)
        chunks = np.tile(clean, (4, 1, 1))
        good = _ddpm_loss([chunks], state[None], policy, 5, [0])[0]
        bad = _ddpm_loss([chunks], state[None] + 3.0, policy, 5, [0])[0]
        assert bad > good

    def test_seed_determinism(self):
        policy = _point_mass_policy()
        chunks = np.random.default_rng(0).standard_normal((4, 3, 2))
        a = _ddpm_loss([chunks], np.zeros((1, 2)), policy, 10, [7])[0]
        b = _ddpm_loss([chunks], np.zeros((1, 2)), policy, 10, [7])[0]
        c = _ddpm_loss([chunks], np.zeros((1, 2)), policy, 10, [8])[0]
        assert a == b
        assert a != c


class TestStitchedChunks:
    def test_prefix_comes_from_executed_chunk(self):
        rng = np.random.default_rng(2)
        prev = make_record(0, rng.standard_normal((3, 4, 2)), executed_index=2)
        curr = make_record(2, rng.standard_normal((3, 4, 2)))
        out = _stitched_chunks(prev, curr)
        assert out.shape == (3, 4, 2)
        for b in range(3):
            np.testing.assert_array_equal(out[b, :2], prev.chunk_samples[2, :2])
            np.testing.assert_array_equal(out[b, 2:], curr.chunk_samples[b, :2])

    def test_rejects_non_adjacent(self):
        """A non-adjacent record is refused where it enters the scorer, before
        any chunks are stitched."""
        rng = np.random.default_rng(2)
        header = make_header()  # k=2
        prev = make_record(0, rng.standard_normal((2, 4, 2)), embedding=np.zeros(2))
        far = make_record(4, rng.standard_normal((2, 4, 2)), embedding=np.zeros(2))
        scorer = OnlineScorer(("ddpm-temporal", "recon-temporal"), header,
                              oracle=_point_mass_policy(horizon=4))
        scorer.push(prev)
        with pytest.raises(ValueError, match="timesteps must increase by exactly 2: 0 -> 4"):
            scorer.push(far)

    def test_temporal_loss_zero_for_faithful_continuation(self):
        """If the executed prefix plus the new samples reproduce the nominal
        plan from the previous state, the stitched loss is zero too."""
        policy = _point_mass_policy(horizon=4)
        state = np.array([0.1, -0.2])
        plan = mode_plan(policy.modes[0], state, 6)  # long plan, split in two
        prev_chunks = np.tile(plan[:4], (2, 1, 1))
        curr_chunks = np.tile(plan[2:6], (2, 1, 1))
        prev = make_record(0, prev_chunks)
        curr = make_record(2, curr_chunks)
        score = _ddpm_loss([_stitched_chunks(prev, curr)], state[None], policy, 4, [0])[0]
        assert score < 1e-10


class TestReverseReconstruction:
    def test_exact_oracle_recovers_clean_chunk(self):
        """With exact noise predictions, deterministic reverse diffusion
        inverts the forward noising step for step."""
        policy = _point_mass_policy()
        state = np.array([0.3, 0.2])
        clean = np.tile(mode_plan(policy.modes[0], state, 3), (2, 1, 1))
        rng = np.random.default_rng(4)
        depths = (1, 10, 50)
        noised = np.empty((1, len(depths)) + clean.shape)
        for r, depth in enumerate(depths):
            abar = policy.schedule.alpha_bar[depth]
            eps = rng.standard_normal(clean.shape)
            noised[0, r] = math.sqrt(abar) * clean + math.sqrt(1 - abar) * eps
        for recon in _reverse_stacked(policy, noised, state[None], depths)[0]:
            np.testing.assert_allclose(recon, clean, atol=1e-8)

    def test_reconstruction_score_zero_for_exact_oracle(self):
        policy = _point_mass_policy()
        state = np.array([0.3, 0.2])
        chunks = np.tile(mode_plan(policy.modes[0], state, 3), (3, 1, 1))
        assert _reconstruction([chunks], state[None], policy, (5, 20), [0])[0] < 1e-10

    def test_temporal_reconstruction_runs(self):
        policy = _point_mass_policy(horizon=4)
        rng = np.random.default_rng(5)
        prev = make_record(0, rng.standard_normal((2, 4, 2)) * 0.1)
        curr = make_record(2, rng.standard_normal((2, 4, 2)) * 0.1)
        score = _reconstruction([_stitched_chunks(prev, curr)], np.zeros((1, 2)), policy, (3,),
                                [0])[0]
        assert score >= 0.0


class _CountingOracle:
    """A policy oracle that counts its eps calls and the chunks they predict,
    and keeps the most chunks of one call."""

    def __init__(self, policy):
        self.policy = policy
        self.schedule = policy.schedule
        self.calls = 0
        self.rows = 0
        self.largest = 0

    def eps(self, noised_chunk, states, i):
        rows = math.prod(noised_chunk.shape[:-2])
        self.calls += 1
        self.rows += rows
        self.largest = max(self.largest, rows)
        return self.policy.eps(noised_chunk, states, i)


def _reference_reverse(oracle, noised, state, depth):
    """The reverse pass step by step, one (B, h, d) batch under one state per
    oracle call, made as a stack of one."""
    alpha_bar = oracle.schedule.alpha_bar
    x = np.asarray(noised, dtype=np.float64)
    for j in range(depth, -1, -1):
        ab_j = alpha_bar[j]
        ab_prev = alpha_bar[j - 1] if j > 0 else 1.0
        alpha_j = ab_j / ab_prev
        pred = oracle.eps(x[None], state[None], j)[0]
        x = (x - (1.0 - alpha_j) / math.sqrt(1.0 - ab_j) * pred) / math.sqrt(alpha_j)
    return x


def _reference_reconstruction(chunks, state, oracle, depths, rng_seed):
    """One step-by-step reverse pass per depth, in depth order, with the same
    noise draws."""
    rng = np.random.default_rng(rng_seed)
    total = 0.0
    for depth in depths:
        abar = oracle.schedule.alpha_bar[depth]
        eps = rng.standard_normal(chunks.shape)
        noised = math.sqrt(abar) * chunks + math.sqrt(1.0 - abar) * eps
        recon = _reference_reverse(oracle, noised, state, depth)
        total += float(np.mean(np.sum((chunks - recon) ** 2, axis=(1, 2))))
    return total / len(depths)


class TestStackedReconstruction:
    """The one reverse pass over all depths against a pass per depth."""

    DEPTHS = [(50, 5, 5, 25), (5, 10, 25, 50), (3,), (7, 1, 7)]

    @staticmethod
    def _scenario_log(behavior):
        config = ScenarioConfig(episode_limit=12)
        policy = config.build_policy(behavior, seed=2)
        return policy, generate_rollout(policy, config, seed=4)

    @pytest.mark.parametrize("depths", DEPTHS + [(0, 17, 1, 60)])
    def test_reverse_stacked_matches_step_loop(self, depths):
        """Every (group, depth) row of the one pass, each noised differently
        and under its group's state, against a step loop of its own depth."""
        policy, log = self._scenario_log("mode_resample")
        chunks = log.records[1].chunk_samples
        states = np.stack([log.records[1].embedding, log.records[0].embedding])
        rng = np.random.default_rng(1)
        noised = chunks + 0.3 * rng.standard_normal((2, len(depths)) + chunks.shape)
        for stack in (states[[0, 0]], states):  # one state for both groups, then one each
            got = _reverse_stacked(policy, noised, stack, depths)
            for g in range(2):
                for r, depth in enumerate(depths):
                    want = _reference_reverse(policy, noised[g, r], stack[g], depth)
                    assert np.array_equal(got[g, r], want), (g, depth)

    @pytest.mark.parametrize("depths", DEPTHS)
    @pytest.mark.parametrize("behavior", ["consistent", "mode_resample"])
    def test_scores_equal_per_depth_reference(self, behavior, depths, oracle_settings):
        policy, log = self._scenario_log(behavior)
        oracle_settings(depths=depths)
        ctx = DetectorContext(seed=6)
        scored = score_detectors(("recon", "recon-temporal"), log, ctx, policy)
        alone = {name: score_log(name, log, ctx, policy) for name in scored}
        for j, record in enumerate(log.records):
            seed = _step_seed(6, j)
            want = _reference_reconstruction(record.chunk_samples, record.embedding,
                                             policy, depths, seed)
            assert alone["recon"].step_scores[j] == want
            assert scored["recon"].step_scores[j] == want
            if j == 0:
                continue
            prev = log.records[j - 1]
            want = _reference_reconstruction(_stitched_chunks(prev, record), prev.embedding,
                                             policy, depths, seed)
            assert alone["recon-temporal"].step_scores[j] == want
            assert scored["recon-temporal"].step_scores[j] == want

    @pytest.mark.parametrize("depths", DEPTHS)
    def test_one_oracle_call_per_step(self, depths, oracle_settings):
        """max(depths) + 1 eps calls per record, where a pass per depth makes
        sum(depth + 1); each call predicts only the rows still live. Logs of
        one shape scored in lockstep make as many calls per step as one log,
        each carrying the rows of all of them."""
        policy, log = self._scenario_log("consistent")
        oracle = _CountingOracle(policy)
        oracle_settings(depths=depths)
        score_log("recon", log, oracle=oracle)
        assert oracle.calls == log.n_records * (max(depths) + 1)
        batch = log.records[0].batch_size
        assert oracle.rows == log.n_records * batch * sum(depth + 1 for depth in depths)
        oracle.calls = 0
        score_log("recon-temporal", log, oracle=oracle)
        assert oracle.calls == (log.n_records - 1) * (max(depths) + 1)
        config = ScenarioConfig(episode_limit=12)
        logs = [log] + [generate_rollout(config.build_policy(behavior, seed=seed), config,
                                         seed=seed)
                        for seed, behavior in [(5, "consistent"), (6, "mode_resample")]]
        oracle.calls = oracle.rows = 0
        score_logs(("recon",), logs, [None] * len(logs), oracle)
        assert oracle.calls == log.n_records * (max(depths) + 1)
        assert oracle.rows == len(logs) * log.n_records * batch * sum(depth + 1
                                                                       for depth in depths)


def _reference_ddpm_loss(chunks, state, oracle, n_noise_draws, rng_seed):
    """One oracle call per (i, eps) draw, in draw order."""
    rng = np.random.default_rng(rng_seed)
    steps = rng.integers(0, oracle.schedule.n_steps, size=n_noise_draws)
    total = 0.0
    for i in steps:
        eps = rng.standard_normal(chunks.shape)
        abar = oracle.schedule.alpha_bar[i]
        noised = math.sqrt(abar) * chunks + math.sqrt(1.0 - abar) * eps
        pred = oracle.eps(noised[None], state[None], int(i))[0]
        total += float(np.mean(np.sum((eps - pred) ** 2, axis=(1, 2))))
    return total / n_noise_draws


class TestStackedDdpm:
    """All noise draws of a step in one oracle call against a call per draw."""

    @pytest.mark.parametrize("n_noise_draws", [1, 3, 10])
    @pytest.mark.parametrize("behavior", ["consistent", "mode_resample"])
    def test_scores_equal_per_draw_reference(self, behavior, n_noise_draws, oracle_settings):
        policy, log = TestStackedReconstruction._scenario_log(behavior)
        oracle_settings(draws=n_noise_draws)
        ctx = DetectorContext(seed=5)
        scored = score_detectors(("ddpm", "ddpm-temporal"), log, ctx, policy)
        alone = {name: score_log(name, log, ctx, policy) for name in scored}
        for j, record in enumerate(log.records):
            seed = _step_seed(5, j)
            want = _reference_ddpm_loss(record.chunk_samples, record.embedding, policy,
                                        n_noise_draws, seed)
            assert alone["ddpm"].step_scores[j] == want
            assert scored["ddpm"].step_scores[j] == want
            if j == 0:
                continue
            prev = log.records[j - 1]
            want = _reference_ddpm_loss(_stitched_chunks(prev, record), prev.embedding, policy,
                                        n_noise_draws, seed)
            assert alone["ddpm-temporal"].step_scores[j] == want
            assert scored["ddpm-temporal"].step_scores[j] == want


class _ReadOnlyOracle:
    """A policy oracle whose predictions are read-only arrays."""

    def __init__(self, policy):
        self.policy = policy
        self.schedule = policy.schedule

    def eps(self, noised_chunk, states, i):
        pred = self.policy.eps(noised_chunk, states, i)
        pred.flags.writeable = False
        return pred


class TestOracleContract:
    """Scoring never writes into an array the oracle returns, nor into the
    rows it hands to the reverse pass."""

    def test_read_only_predictions_give_the_same_scores(self, oracle_settings):
        policy, log = TestStackedReconstruction._scenario_log("mode_resample")
        config = ScenarioConfig(episode_limit=12)
        logs = [log, generate_rollout(config.build_policy("consistent", seed=5), config, seed=5)]
        oracle_settings(draws=4, depths=(7, 2, 12))

        def scored(oracle):
            return score_logs(ORACLE_DETECTORS, logs, [DetectorContext(seed=9)] * len(logs),
                              oracle)

        assert scored(_ReadOnlyOracle(policy)) == scored(policy)

    def test_reverse_stacked_leaves_its_input(self):
        policy, log = TestStackedReconstruction._scenario_log("consistent")
        chunks = log.records[1].chunk_samples
        states = np.stack([log.records[1].embedding, log.records[0].embedding])
        noised = chunks + 0.3 * np.random.default_rng(2).standard_normal((2, 3) + chunks.shape)
        before = noised.copy()
        noised.flags.writeable = False  # a write into it raises
        for stack in (states[[0, 0]], states):
            got = _reverse_stacked(_ReadOnlyOracle(policy), noised, stack, (5, 1, 9))
            assert np.array_equal(noised, before)
            assert not np.shares_memory(got, noised)
            assert np.array_equal(got, _reverse_stacked(policy, before, stack, (5, 1, 9)))


class TestOnlineScorer:
    """Every detector pushed through one scorer against each detector alone."""

    @staticmethod
    def _ctx(**overrides):
        stats = EmbeddingStats.from_mean_cov(np.zeros(2), np.eye(2))
        fields = dict(embedding_stats=stats, seed=3)
        fields.update(overrides)
        return DetectorContext(**fields)

    @pytest.mark.parametrize("behavior", ["consistent", "mode_resample"])
    def test_every_detector_equals_its_own_walk(self, behavior):
        policy, log = TestStackedReconstruction._scenario_log(behavior)
        ctx = self._ctx()
        scorer = OnlineScorer(DETECTOR_NAMES, log.header, ctx, policy)
        pushed = [scorer.push(record) for record in log.records]
        together = score_detectors(DETECTOR_NAMES, log, ctx, policy)
        assert list(together) == list(DETECTOR_NAMES)
        for name in DETECTOR_NAMES:
            alone = score_log(name, log, ctx, policy)
            assert [step[name][0] for step in pushed] == alone.step_scores, name
            assert [step[name][1] for step in pushed] == alone.cumulative, name
            assert together[name] == alone, name

    @pytest.mark.parametrize("depths", TestStackedReconstruction.DEPTHS)
    @pytest.mark.parametrize("behavior", ["consistent", "mode_resample"])
    def test_paired_reconstruction_equals_separate_scores(self, behavior, depths,
                                                          oracle_settings):
        """recon and recon-temporal from one (2, D, B, h, d) reverse pass per
        step, against a step-by-step pass per depth for each."""
        policy, log = TestStackedReconstruction._scenario_log(behavior)
        oracle = _CountingOracle(policy)
        oracle_settings(depths=depths)
        scorer = OnlineScorer(("recon-temporal", "recon"), log.header, self._ctx(), oracle)
        for j, record in enumerate(log.records):
            oracle.calls = 0
            step = scorer.push(record)
            assert oracle.calls == max(depths) + 1
            seed = _step_seed(3, j)
            assert step["recon"][0] == _reference_reconstruction(
                record.chunk_samples, record.embedding, policy, depths, seed)
            if j == 0:
                assert step["recon-temporal"][0] == 0.0
                continue
            prev = log.records[j - 1]
            assert step["recon-temporal"][0] == _reference_reconstruction(
                _stitched_chunks(prev, record), prev.embedding, policy, depths, seed)

    @pytest.mark.parametrize("n_noise_draws", [1, 10])
    @pytest.mark.parametrize("behavior", ["consistent", "mode_resample"])
    def test_paired_ddpm_equals_separate_scores(self, behavior, n_noise_draws, oracle_settings):
        """ddpm and ddpm-temporal from one eps call per step, each scorer
        alone from one too, against an eps call per draw for each."""
        policy, log = TestStackedReconstruction._scenario_log(behavior)
        oracle = _CountingOracle(policy)
        oracle_settings(draws=n_noise_draws)
        ctx = self._ctx()
        paired = OnlineScorer(("ddpm-temporal", "ddpm"), log.header, ctx, oracle)
        alone = {name: OnlineScorer((name,), log.header, ctx, oracle)
                 for name in ("ddpm", "ddpm-temporal")}
        for j, record in enumerate(log.records):
            oracle.calls = 0
            step = paired.push(record)
            assert oracle.calls == 1
            for name, scorer in alone.items():
                oracle.calls = 0
                assert scorer.push(record)[name] == step[name]
                assert oracle.calls == (0 if j == 0 and name == "ddpm-temporal" else 1)
            seed = _step_seed(3, j)
            assert step["ddpm"][0] == _reference_ddpm_loss(
                record.chunk_samples, record.embedding, policy, n_noise_draws, seed)
            if j == 0:
                assert step["ddpm-temporal"][0] == 0.0
                continue
            prev = log.records[j - 1]
            assert step["ddpm-temporal"][0] == _reference_ddpm_loss(
                _stitched_chunks(prev, record), prev.embedding, policy, n_noise_draws, seed)

    @pytest.mark.parametrize("oracle_names", [
        roster for size in range(1, len(ORACLE_DETECTORS) + 1)
        for roster in itertools.combinations(ORACLE_DETECTORS, size)], ids="+".join)
    def test_mixed_oracle_roster_equals_each_detector_alone(self, oracle_names,
                                                            oracle_settings):
        """Any roster of oracle detectors, beside a STAC and the two
        record-only detectors, scores each detector as it scores alone, with
        one eps call per step for the ddpm family and one reverse pass for
        the recon family, whichever of their members are named."""
        policy, log = TestStackedReconstruction._scenario_log("mode_resample")
        depths = (7, 1, 3)
        oracle_settings(draws=3, depths=depths)
        oracle = _CountingOracle(policy)
        names = oracle_names + ("stac-mmd", "mahalanobis", "outvar")
        scorer = OnlineScorer(names, log.header, self._ctx(), oracle)
        pushed = []
        for j, record in enumerate(log.records):
            oracle.calls = 0
            pushed.append(scorer.push(record))
            named = set(names) if j else set(names) - set(PAIRWISE_DETECTORS)
            want_calls = 0
            if named & {"ddpm", "ddpm-temporal"}:
                want_calls += 1
            if named & {"recon", "recon-temporal"}:
                want_calls += max(depths) + 1
            assert oracle.calls == want_calls, j
        ctx = self._ctx()
        for name in names:
            alone = score_log(name, log, ctx, policy)
            assert [step[name][0] for step in pushed] == alone.step_scores, name
            assert [step[name][1] for step in pushed] == alone.cumulative, name
        # The oracle detectors against the brute-force references as well,
        # each member under its own state.
        references = {"ddpm": (_reference_ddpm_loss, 3),
                      "recon": (_reference_reconstruction, depths)}
        for j, (record, step) in enumerate(zip(log.records, pushed)):
            prev, seed = log.records[j - 1], _step_seed(3, j)
            for base, (reference, param) in references.items():
                if base in names:
                    assert step[base][0] == reference(record.chunk_samples, record.embedding,
                                                      policy, param, seed)
                if base + "-temporal" in names and j > 0:
                    assert step[base + "-temporal"][0] == reference(
                        _stitched_chunks(prev, record), prev.embedding, policy, param, seed)

    def test_stac_step_builds_one_distance_matrix_and_one_bandwidth(self, monkeypatch):
        """One pooled distance matrix and one KDE bandwidth per step for the whole STAC
        roster. The matrix is within rtol 1e-12 of its largest entry from brute-force
        differences, the bandwidth reads the pooled set the matrix was built from,
        and a step without a KDE-KL detector computes none."""
        _, log = TestStackedReconstruction._scenario_log("mode_resample")
        built, bandwidth_sets, max_eig_bandwidth = [], [], distances._max_eig_bandwidth

        class Counted(distances.PooledDistances):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(self)

        def max_eig(pooled):
            bandwidth_sets.append(pooled)
            return max_eig_bandwidth(pooled)

        monkeypatch.setattr(baselines, "PooledDistances", Counted)
        monkeypatch.setattr(distances, "_max_eig_bandwidth", max_eig)
        scorer = OnlineScorer(STAC_DETECTORS + ("outvar",), log.header)
        mmd_only = OnlineScorer(("stac-mmd",), log.header)
        scorer.push(log.records[0])
        mmd_only.push(log.records[0])
        for record in log.records[1:]:
            built.clear()
            bandwidth_sets.clear()
            scorer.push(record)
            [dists] = built
            assert len(bandwidth_sets) == 1 and bandwidth_sets[0] is dists.pooled
            diff = dists.pooled[:, None, :] - dists.pooled[None, :, :]
            ref = (diff ** 2).sum(axis=-1)
            assert np.all(np.abs(dists.sq - ref) <= 1e-12 * ref.max())
            built.clear()
            bandwidth_sets.clear()
            mmd_only.push(record)
            assert (len(built), len(bandwidth_sets)) == (1, 0)

    def test_push_checks_each_record_once(self, monkeypatch):
        """A live record meets the log's rules once, as it is pushed."""
        _, log = TestStackedReconstruction._scenario_log("consistent")
        checked = []
        check = baselines.check_next

        def counting(header, first, prev, record):
            checked.append(record)
            check(header, first, prev, record)

        monkeypatch.setattr(baselines, "check_next", counting)
        monkeypatch.setattr(rollout, "check_next", counting)
        scorer = OnlineScorer(STAC_DETECTORS + ("outvar",), log.header)
        for j, record in enumerate(log.records):
            scorer.push(record)
            assert checked[j:] == [record]

    def test_scorer_keeps_order_and_drops_repeats(self, rng):
        header = make_header()
        scorer = OnlineScorer(("outvar", "stac-mmd", "outvar"), header)
        assert scorer.names == ("outvar", "stac-mmd")
        log = make_log(header=header, n_records=2, rng=rng)
        assert list(scorer.push(log.records[0])) == ["outvar", "stac-mmd"]

    @pytest.mark.parametrize("needing, oracle_steps, overrides, match", [
        (ORACLE_DETECTORS, None, {}, "policy oracle"),
        (("recon", "recon-temporal"), 50, {}, r"depth 50 outside \[1, 50\)"),
        (("mahalanobis",), 100, dict(embedding_stats=None), "embedding stats"),
    ], ids=["oracle", "depth-n", "stats"])
    def test_context_is_checked_at_construction(self, needing, oracle_steps, overrides, match):
        """A context or an oracle that a named detector cannot use is refused
        when the scorer is built, before any record is pushed, and by
        score_detectors with the same message: no oracle, or one whose
        schedule is too short for the deepest of DEPTHS. A roster that names
        none of the detectors needing it builds and scores."""
        _, log = TestStackedReconstruction._scenario_log("consistent")
        oracle = None if oracle_steps is None else ScenarioConfig(
            n_denoise_steps=oracle_steps).build_policy("consistent", seed=2)
        ctx = self._ctx(**overrides)
        for name in needing:
            with pytest.raises(ValueError, match=match):
                OnlineScorer(("outvar", name), log.header, ctx, oracle)
            with pytest.raises(ValueError, match=match):
                score_detectors(("outvar", name), log, ctx, oracle)
        rest = tuple(name for name in DETECTOR_NAMES if name not in needing)
        assert list(score_detectors(rest, log, ctx, oracle)) == list(rest)

    def test_refusals_match_score_log(self, rng):
        header = make_header()
        with pytest.raises(ValueError, match="unknown detector 'mmd'"):
            OnlineScorer(("outvar", "mmd"), header)
        one = make_log(header=header, n_records=1, rng=rng)
        with pytest.raises(InvalidLogError, match="min-l2 scoring needs at least 2"):
            score_detectors(("outvar", "min-l2", "stac-mmd"), one)


class TestScoreLogs:
    """A battery scored in lockstep against each of its logs scored alone."""

    DEPTHS = (7, 1, 3)

    @pytest.fixture(autouse=True)
    def _short_oracle(self, oracle_settings):
        oracle_settings(draws=3, depths=self.DEPTHS)

    @staticmethod
    def _battery():
        """Logs of three lengths, one at another batch size, each under its
        own seed and embedding stats."""
        logs, ctxs = [], []
        for i, (episode_limit, batch_size, behavior) in enumerate([
                (12, 32, "consistent"), (20, 32, "mode_resample"),
                (16, 16, "mode_resample"), (16, 32, "consistent")]):
            config = ScenarioConfig(episode_limit=episode_limit, batch_size=batch_size)
            logs.append(generate_rollout(config.build_policy(behavior, seed=i), config, seed=i))
            stats = EmbeddingStats.from_mean_cov(np.full(2, 0.5 * i), np.eye(2) * (1.0 + i))
            ctxs.append(DetectorContext(embedding_stats=stats, seed=10 + i))
        return logs, ctxs

    def test_every_detector_equals_each_log_alone(self):
        """Bit for bit, for all ten detectors, with one eps call per family
        per step for each chunk-set shape among the logs still running."""
        policy = ScenarioConfig().build_policy("consistent", seed=0)
        oracle = _CountingOracle(policy)
        logs, ctxs = self._battery()
        battery = score_logs(DETECTOR_NAMES, logs, ctxs, oracle)
        shapes_per_step = [len({log.records[0].batch_size for log in logs if j < log.n_records})
                           for j in range(max(log.n_records for log in logs))]
        assert oracle.calls == sum(shapes_per_step) * (1 + max(self.DEPTHS) + 1)
        for log, ctx, series in zip(logs, ctxs, battery):
            alone = score_detectors(DETECTOR_NAMES, log, ctx, oracle)
            assert list(series) == list(DETECTOR_NAMES)
            for name in DETECTOR_NAMES:
                assert series[name] == alone[name], name
        assert score_logs(DETECTOR_NAMES, [], []) == []

    def test_errors_name_their_log_by_index(self, monkeypatch):
        """A log refused before scoring, and a series refused after, carry
        the position of their own log, not of the first."""
        logs, ctxs = self._battery()
        short = RolloutLog(header=logs[1].header, records=logs[1].records[:1])
        with pytest.raises(InvalidLogError, match="^min-l2 scoring needs") as refused:
            score_logs(("outvar", "min-l2"), logs[:1] + [short] + logs[2:], ctxs)
        assert refused.value.log_index == 1
        bad = logs[2].records[1]
        scored = baselines.output_variance_score
        monkeypatch.setattr(baselines, "output_variance_score", lambda record, header: (
            float("nan") if record is bad else scored(record, header)))
        with pytest.raises(ValueError, match="^outvar: step score at index 1 must be finite"
                           ) as refused:
            score_logs(("stac-mmd", "outvar"), logs, ctxs)
        assert refused.value.log_index == 2

    @pytest.mark.parametrize("target", [1, 3])
    def test_refused_record_names_its_log(self, target):
        """A record refused in a step carries its own log's index: log 3
        after the shortest log has ended, log 1 when it runs on alone. Here
        the last record has no embedding for mahalanobis to read."""
        logs, ctxs = self._battery()
        log = logs[target]
        last = log.records[-1]
        lost = make_record(last.timestep, last.chunk_samples, last.executed_index)
        logs[target] = RolloutLog(header=log.header, records=log.records[:-1] + [lost])
        with pytest.raises(ValueError, match=rf"^record at t={last.timestep} has no embedding$"
                           ) as refused:
            score_logs(("stac-mmd", "mahalanobis"), logs, ctxs)
        assert refused.value.log_index == target

    def test_scoring_checks_no_record_or_sample_set_again(self, monkeypatch):
        """Each `RolloutLog` checked its records when it was built, and an
        overlap pair is cut from checked records: scoring a battery with the
        four STAC detectors and `outvar` runs neither check again."""
        logs, ctxs = self._battery()
        calls = {"check_next": 0, "_checked": 0}
        check, check_sets = baselines.check_next, distances._checked

        def counted_check(*args):
            calls["check_next"] += 1
            check(*args)

        def counted_check_sets(*sets):
            calls["_checked"] += 1
            return check_sets(*sets)

        monkeypatch.setattr(baselines, "check_next", counted_check)
        monkeypatch.setattr(rollout, "check_next", counted_check)
        monkeypatch.setattr(distances, "_checked", counted_check_sets)
        battery = score_logs(STAC_DETECTORS + ("outvar",), logs, ctxs)
        assert len(battery) == len(logs)
        assert calls == {"check_next": 0, "_checked": 0}

    def test_benchmark_names_the_seed_of_a_refused_test_log(self, monkeypatch):
        """A test log's refused series names that log's trajectory seed,
        though the calibration logs are scored in the same lockstep."""
        config = BenchmarkConfig(
            scenario=ScenarioConfig(episode_limit=16, batch_size=8, gain=0.2),
            detectors=("stac-mmd", "mahalanobis"), n_calibration=4,
            test_counts={"consistent": 2, "mode_resample": 2}, delta=0.4, master_seed=5)
        test_seed = evaluation._trajectory_seed(config.master_seed, 2, test=True)
        generate = evaluation.generate_rollout

        def generate_lost_embedding(policy, params, seed):
            log = generate(policy, params, seed=seed)
            if seed == test_seed:
                log.records[2].embedding = np.full_like(log.records[2].embedding, np.nan)
            return log

        monkeypatch.setattr(evaluation, "generate_rollout", generate_lost_embedding)
        with pytest.raises(ValueError, match=rf"^trajectory seed {test_seed}: mahalanobis: "
                                             r"step score at index 2 must be finite"):
            run_benchmark(config)


class TestOracleRowCap:
    """`ORACLE_ROWS` slices a battery's oracle calls into whole chunk sets:
    here each set is B * 3 rows for both families (3 draws, 3 depths)."""

    BATCH, DRAWS, DEPTHS, N_LOGS = 8, 3, (4, 1, 2), 5

    @pytest.fixture(autouse=True)
    def _short_oracle(self, oracle_settings):
        oracle_settings(draws=self.DRAWS, depths=self.DEPTHS)

    def _scored(self, monkeypatch, cap):
        """Score the battery's oracle detectors with ORACLE_ROWS = cap, through a
        counting oracle: (oracle, every step score)."""
        monkeypatch.setattr(baselines, "ORACLE_ROWS", cap)
        config = ScenarioConfig(episode_limit=12, batch_size=self.BATCH)
        policy = config.build_policy("mode_resample", seed=0)
        logs = [generate_rollout(policy, config, seed=i) for i in range(self.N_LOGS)]
        ctxs = [DetectorContext(seed=10 + i) for i in range(self.N_LOGS)]
        oracle = _CountingOracle(config.build_policy())
        battery = score_logs(ORACLE_DETECTORS, logs, ctxs, oracle)
        return oracle, [series[name].step_scores for series in battery for name in series]

    def _calls(self, sets_per_call):
        """eps calls over the 3 records: per family, N_LOGS base sets at each step and
        as many -temporal sets after the first, in calls of sets_per_call sets."""
        calls = 0
        for sets in (self.N_LOGS, 2 * self.N_LOGS, 2 * self.N_LOGS):
            slices = -(-sets // sets_per_call)
            calls += slices + slices * (max(self.DEPTHS) + 1)
        return calls

    @pytest.mark.parametrize("sets_per_call", [1, 2, 3])
    def test_sliced_calls_give_the_uncapped_bits(self, monkeypatch, sets_per_call):
        set_rows = self.BATCH * self.DRAWS
        whole, uncapped = self._scored(monkeypatch, 10 ** 9)
        assert whole.calls == self._calls(2 * self.N_LOGS)
        assert whole.largest == 2 * self.N_LOGS * set_rows
        sliced, capped = self._scored(monkeypatch, sets_per_call * set_rows + set_rows - 1)
        assert sliced.largest == sets_per_call * set_rows
        assert sliced.calls == self._calls(sets_per_call)
        assert sliced.rows == whole.rows
        assert capped == uncapped

    def test_a_set_over_the_cap_goes_alone(self, monkeypatch):
        whole, uncapped = self._scored(monkeypatch, 10 ** 9)
        alone, capped = self._scored(monkeypatch, 1)
        assert alone.largest == self.BATCH * self.DRAWS
        assert alone.calls == self._calls(1)
        assert capped == uncapped


class TestOutputVariance:
    def test_symmetric_pair_gives_unit_variance(self):
        # two chunks at +1 and -1 in every dimension: population variance 1
        chunks = np.stack([np.ones((3, 2)), -np.ones((3, 2))])
        record = make_record(0, chunks)
        assert output_variance_score(record, make_header()) == pytest.approx(1.0)

    def test_identical_chunks_give_zero(self):
        chunks = np.tile(np.arange(6.0).reshape(1, 3, 2), (5, 1, 1))
        record = make_record(0, chunks)
        assert output_variance_score(record, make_header()) == 0.0

    def test_mask_restricts_dimensions(self):
        chunks = np.zeros((2, 3, 2))
        chunks[0, :, 1] = 1.0
        chunks[1, :, 1] = -1.0
        record = make_record(0, chunks)
        assert output_variance_score(record, make_header(action_mask=(True, False))) == 0.0
        assert output_variance_score(
            record, make_header(action_mask=(False, True))) == pytest.approx(1.0)

    def test_needs_two_chunks(self):
        record = make_record(0, np.zeros((1, 3, 2)))
        with pytest.raises(ValueError):
            output_variance_score(record, make_header())


class TestScoreFunctionRegistry:
    @pytest.fixture(autouse=True)
    def _short_oracle(self, oracle_settings):
        oracle_settings(draws=2, depths=(2,))  # within the 10-step schedule of `_scoring`

    def _scoring(self, header):
        """A context and an oracle that every detector can score `header`'s logs with."""
        config = __import__("sentinel.policy", fromlist=["ScenarioConfig"]).ScenarioConfig(
            action_dim=header.action_dim,
            prediction_horizon=header.prediction_horizon,
            execution_horizon=header.execution_horizon,
            episode_limit=header.episode_limit,
            step_duration=header.step_duration,
            attractors=((1.0,) * header.action_dim,),
            drift_step=(0.0,) * header.action_dim,
            start=(0.0,) * header.action_dim,
            n_denoise_steps=10,
        )
        policy = config.build_policy("consistent", 0)
        d = header.action_dim
        stats = EmbeddingStats.from_mean_cov(np.zeros(d), np.eye(d))
        return DetectorContext(embedding_stats=stats, seed=0), policy

    def test_unknown_name_lists_registry(self):
        header = make_header()
        # "mmd" names a distance, not a detector: the registry is the one vocabulary.
        for name in ("entropy", "wasserstein", "mmd"):
            with pytest.raises(ValueError, match="stac-mmd"):
                score_log(name, make_log(header=header), DetectorContext())

    def test_every_detector_scores_every_log(self, rng):
        header = make_header()
        log = make_log(header=header, n_records=3, batch_size=4, rng=rng)
        ctx, oracle = self._scoring(header)
        for name in DETECTOR_NAMES:
            series = score_log(name, log, ctx, oracle)
            assert len(series.timesteps) == 3
            assert all(s >= 0.0 for s in series.step_scores)

    def test_temporal_variants_zero_at_first_step(self, rng):
        header = make_header()
        log = make_log(header=header, n_records=2, batch_size=3, rng=rng)
        ctx, oracle = self._scoring(header)
        for name in ("ddpm-temporal", "recon-temporal"):
            assert score_log(name, log, ctx, oracle).step_scores[0] == 0.0

    def test_mahalanobis_needs_stats(self, rng):
        header = make_header()
        log = make_log(header=header, rng=rng)
        with pytest.raises(ValueError, match="embedding stats"):
            score_log("mahalanobis", log, DetectorContext())

    def test_oracle_detectors_need_oracle(self, rng):
        header = make_header()
        log = make_log(header=header, rng=rng)
        for name in ("ddpm", "ddpm-temporal", "recon", "recon-temporal"):
            with pytest.raises(ValueError, match="policy oracle"):
                score_log(name, log, DetectorContext())

    def test_missing_oracle_names_the_detectors_needing_it(self):
        header = make_header()
        with pytest.raises(ValueError, match=r"^a policy oracle \(the oracle argument\) "
                                             r"is needed by ddpm, recon-temporal$"):
            OnlineScorer(("stac-mmd", "ddpm", "outvar", "recon-temporal"), header)
        with pytest.raises(ValueError, match=r"policy oracle .* is needed by recon$"):
            OnlineScorer(("recon",), header)

    @pytest.mark.parametrize("before, fault, message", [
        ((0, 2), dict(timestep=6), "timesteps must increase by exactly 2: 2 -> 6"),
        ((), dict(timestep=1), "timestep 1 not a multiple of execution_horizon 2"),
        ((0, 2), dict(horizon=3), "record at t=4: chunk horizon 3 != prediction_horizon 4"),
        ((0, 2), dict(dim=3), "record at t=4: action dim 3 != action_dim 2"),
        ((0, 2), dict(embedding_dim=3), "embedding dimensions differ between records"),
        ((0, 2, 4, 6), dict(timestep=8), "last timestep exceeds episode_limit - 1"),
    ], ids=["gap", "off-grid-first", "horizon", "action-dim", "embedding-dim", "past-limit"])
    def test_cross_record_fault_is_refused_where_the_record_enters(self, tmp_path, before,
                                                                   fault, message):
        """The record after `before` breaks one cross-record rule. read_log
        reports it at its own line, and every one-detector roster refuses it
        with the same text when it is pushed."""
        header = make_header(episode_limit=8)  # h=4, k=2, d=2, timesteps <= 7
        rng = np.random.default_rng(0)

        def record(timestep, horizon=4, dim=2, embedding_dim=2):
            return make_record(timestep, rng.standard_normal((3, horizon, dim)),
                               embedding=rng.standard_normal(embedding_dim))

        good = [record(t) for t in before]
        bad = record(**dict(dict(timestep=len(before) * 2), **fault))
        path = tmp_path / "fault.sentinel.jsonl"
        objs = [header.to_json_obj()] + [r.to_json_obj() for r in good + [bad]]
        path.write_text("".join(json.dumps(obj) + "\n" for obj in objs))
        with pytest.raises(LogParseError) as err:
            read_log(path)
        line = len(good) + 2
        assert err.value.line == line
        assert str(err.value) == f"line {line}: {message}"

        ctx, oracle = self._scoring(header)
        for name in DETECTOR_NAMES:
            scorer = OnlineScorer((name,), header, ctx, oracle)
            for r in good:
                scorer.push(r)
            with pytest.raises(InvalidLogError, match=f"^{re.escape(message)}$"):
                scorer.push(bad)

    def test_step_seed_isolation(self, rng):
        """Stochastic scores at different steps use different noise, but the
        same step re-scored gives the identical value."""
        header = make_header()
        log = make_log(header=header, n_records=3, batch_size=4, rng=rng)
        ctx, oracle = self._scoring(header)
        first = score_log("ddpm", log, ctx, oracle).step_scores[1]
        again = score_log("ddpm", log, ctx, oracle).step_scores[1]
        assert first == again
        # Record 2 repeats record 1's chunks and embedding: only the noise differs.
        twin = make_record(4, log.records[1].chunk_samples,
                           embedding=log.records[1].embedding)
        twins = RolloutLog(header=header, records=log.records[:2] + [twin], label=None)
        steps = score_log("ddpm", twins, ctx, oracle).step_scores
        assert steps[1] == first
        assert steps[2] != steps[1]

    @pytest.mark.parametrize("name", DETECTOR_NAMES)
    def test_prefix_scores_are_online(self, name, rng):
        """Step j's score depends on records up to j only: every prefix of a
        log scores exactly as the same steps of the whole log."""
        header = make_header()
        log = make_log(header=header, n_records=5, batch_size=4, rng=rng)
        ctx, oracle = self._scoring(header)
        full = score_log(name, log, ctx, oracle)
        shortest = 2 if name in PAIRWISE_DETECTORS else 1
        for n in range(shortest, log.n_records + 1):
            prefix = RolloutLog(header=header, records=log.records[:n], label=None)
            series = score_log(name, prefix, ctx, oracle)
            assert series.step_scores == full.step_scores[:n]
            assert series.cumulative == full.cumulative[:n]

    def test_nonfinite_step_score_is_refused(self, rng, monkeypatch):
        monkeypatch.setattr(distances.PooledDistances, "mmd_rbf", lambda self, bw: float("nan"))
        with pytest.raises(ValueError, match="index 1 must be finite"):
            score_log("stac-mmd", make_log(rng=rng))
