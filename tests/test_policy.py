import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sentinel.distances import logsumexp_rows
from sentinel.policy import (BEHAVIORS, GmmMode, NoiseSchedule, ScenarioConfig,
                             SyntheticGmmPolicy, _draw, default_goal_label,
                             generate_rollout, gmm_exact_eps)

from conftest import mode_plan, same_bits


def _two_mode_policy(behavior="consistent", seed=0, stddev=0.3, horizon=4):
    modes = [
        GmmMode(weight=0.5, stddev=stddev, attractor=np.array([2.0, 1.0])),
        GmmMode(weight=0.5, stddev=stddev, attractor=np.array([2.0, -1.0])),
    ]
    return SyntheticGmmPolicy(modes, horizon=horizon, action_dim=2,
                              behavior=behavior, seed=seed)


class TestNoiseSchedule:
    def test_default_linear_is_strictly_decreasing(self):
        sched = NoiseSchedule.default_linear(100)
        assert sched.n_steps == 100
        diffs = np.diff(sched.alpha_bar)
        assert np.all(diffs < 0)
        assert 0.0 < sched.alpha_bar[-1] < sched.alpha_bar[0] < 1.0

    def test_rejects_nondecreasing(self):
        with pytest.raises(ValueError):
            NoiseSchedule((0.5, 0.5))
        with pytest.raises(ValueError):
            NoiseSchedule((0.2, 0.8))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            NoiseSchedule((1.0, 0.5))
        with pytest.raises(ValueError):
            NoiseSchedule((0.5, 0.0))
        with pytest.raises(ValueError):
            NoiseSchedule(())


class TestModeMeans:
    """The policy's one mode-mean formula, shared by the sampler and the oracle."""

    def test_mode_means_exponential_approach(self):
        mode = GmmMode(weight=1.0, stddev=0.1, attractor=np.array([1.0, 0.0]),
                       gain=0.5)
        policy = SyntheticGmmPolicy([mode], horizon=3, action_dim=2)
        mean = policy._mode_means(np.zeros((1, 2)))[0, 0]
        # steps shrink geometrically: g*delta, g(1-g)*delta, g(1-g)^2*delta
        np.testing.assert_allclose(mean[:, 0], [0.5, 0.25, 0.125])
        np.testing.assert_allclose(mean[:, 1], 0.0)

    @pytest.mark.parametrize("n_states", [1, 3, 3000])
    def test_mode_means_of_a_stack_are_each_row_bit_for_bit(self, n_states):
        """A (G, d) stack of states gives (G, M, h, d) plans, each the bits of the
        reference formula for its mode and state, and of a stack of one."""
        policy = _three_mode_policy()
        h = policy.horizon
        states = np.random.default_rng(3).standard_normal((n_states, 2)) * 10.0
        plans = policy._mode_means(states)
        assert plans.shape == (n_states, 3, h, 2)
        for m, mode in enumerate(policy.modes):
            want = np.stack([mode_plan(mode, state, h) for state in states])
            assert same_bits(plans[:, m], want)
        for g in range(min(n_states, 3)):
            assert same_bits(policy._mode_means(states[g:g + 1])[0], plans[g])

    def test_plan_is_replanning_consistent(self):
        """Executing k steps of the plan then re-planning reproduces the tail."""
        mode = GmmMode(weight=1.0, stddev=0.1, attractor=np.array([3.0, -1.0]),
                       gain=0.07)
        h, k = 8, 3
        policy = SyntheticGmmPolicy([mode], horizon=h, action_dim=2)
        state = np.array([0.2, 0.4])
        plan = policy._mode_means(state[None])[0, 0]
        new_state = state + plan[:k].sum(axis=0)
        replanned = policy._mode_means(new_state[None])[0, 0]
        np.testing.assert_allclose(replanned[:h - k], plan[k:], atol=1e-12)

    def test_refuses_a_single_state(self):
        """The oracle takes a (G, sd) stack only: one (sd,) state is refused by name."""
        policy = _two_mode_policy()
        x = np.zeros((1, 5, 4, 2))
        for call in (lambda s: gmm_exact_eps(policy, x, s, 3), lambda s: policy.eps(x, s, 3),
                     policy._mode_means):
            with pytest.raises(ValueError, match=r"^states must be a \(G, 2\) stack, "
                                                 r"got shape \(2,\)$"):
                call(np.zeros(2))

    @pytest.mark.parametrize("width", [1, 3])
    def test_refuses_a_stack_of_the_wrong_width(self, width):
        """A stack one column narrower than action_dim 2 is refused, not broadcast
        over both dimensions, and one wider by the same form, not a numpy error."""
        policy = _two_mode_policy()
        x = np.zeros((1, 5, 4, 2))
        for call in (lambda s: gmm_exact_eps(policy, x, s, 3), lambda s: policy.eps(x, s, 3),
                     policy._mode_means):
            with pytest.raises(ValueError, match=r"^states must be a \(G, 2\) stack, "
                                                 rf"got shape \(1, {width}\)$"):
                call(np.full((1, width), 0.4))


class TestGmmMode:
    def test_validation(self):
        with pytest.raises(ValueError):
            GmmMode(weight=0.0, stddev=0.1, attractor=np.zeros(2))
        with pytest.raises(ValueError):
            GmmMode(weight=0.5, stddev=-1.0, attractor=np.zeros(2))
        with pytest.raises(ValueError):
            GmmMode(weight=0.5, stddev=0.1, attractor=np.zeros(2), gain=0.0)


class TestPolicyConstruction:
    def test_rejects_bad_behavior(self):
        with pytest.raises(ValueError):
            _two_mode_policy(behavior="random_walk")

    def test_rejects_unnormalized_weights(self):
        modes = [GmmMode(weight=0.5, stddev=0.1, attractor=np.zeros(2)),
                 GmmMode(weight=0.6, stddev=0.1, attractor=np.ones(2))]
        with pytest.raises(ValueError):
            SyntheticGmmPolicy(modes, horizon=4, action_dim=2)

    def test_rejects_attractor_dim_mismatch(self):
        modes = [GmmMode(weight=1.0, stddev=0.1, attractor=np.zeros(3))]
        with pytest.raises(ValueError):
            SyntheticGmmPolicy(modes, horizon=4, action_dim=2)


class TestSampling:
    def test_sample_shape(self):
        policy = _two_mode_policy()
        chunks = policy.sample_with_modes(np.zeros(2), 16)[0]
        assert chunks.shape == (16, 4, 2)

    def test_consistent_behavior_concentrates_on_preferred_mode(self):
        policy = _two_mode_policy(seed=5)
        _, assignments = policy.sample_with_modes(np.zeros(2), 2000)
        frac = np.mean(assignments == policy.preferred_mode)
        # dominance=0.9 with binomial noise at n=2000
        assert 0.87 < frac < 0.93

    def test_consistent_behavior_keeps_preference_within_episode(self):
        policy = _two_mode_policy(seed=5)
        before = policy.preferred_mode
        for _ in range(10):
            policy.sample_with_modes(np.zeros(2), 8)[0]
        assert policy.preferred_mode == before

    def test_mode_resample_redraws_preference(self):
        policy = _two_mode_policy(behavior="mode_resample", seed=2)
        seen = set()
        for _ in range(30):
            policy.sample_with_modes(np.zeros(2), 4)[0]
            seen.add(policy.preferred_mode)
        assert seen == {0, 1}

    def test_stall_chunks_are_tiny(self):
        policy = _two_mode_policy(behavior="constant_stall")
        chunks = policy.sample_with_modes(np.zeros(2), 8)[0]
        assert np.abs(chunks).max() < 1e-2

    def test_drift_offsets_every_step(self):
        modes = [GmmMode(weight=1.0, stddev=0.1, attractor=np.zeros(2))]
        policy = SyntheticGmmPolicy(modes, horizon=4, action_dim=2,
                                    behavior="drift", drift_step=(0.5, -0.5))
        chunks = policy.sample_with_modes(np.zeros(2), 8)[0]
        np.testing.assert_allclose(chunks.mean(axis=(0, 1)), [0.5, -0.5], atol=1e-3)

    @pytest.mark.parametrize("behavior", ["consistent", "mode_resample"])
    def test_sampler_equals_per_row_loop(self, behavior):
        """Chunks gathered from the stacked mode means, against the loop that
        built them one row at a time from the same generator draws."""
        policies = [_three_mode_policy(behavior), _three_mode_policy(behavior)]
        rng = np.random.default_rng(3)
        for batch_size in (1, 7, 32):
            state = rng.standard_normal(2)
            chunks, assignments = policies[0].sample_with_modes(state, batch_size)
            want, want_assignments = _reference_sample_with_modes(policies[1], state, batch_size)
            assert np.array_equal(chunks, want)
            assert np.array_equal(assignments, want_assignments)
            assert policies[0].preferred_mode == policies[1].preferred_mode

    def test_mixture_proportions_match_base_weights_across_episodes(self):
        modes = [GmmMode(weight=0.25, stddev=0.1, attractor=np.array([1.0, 0.0])),
                 GmmMode(weight=0.75, stddev=0.1, attractor=np.array([-1.0, 0.0]))]
        counts = np.zeros(2)
        for seed in range(400):
            policy = SyntheticGmmPolicy(modes, horizon=2, action_dim=2, seed=seed)
            counts[policy.preferred_mode] += 1
        frac = counts[1] / counts.sum()
        assert 0.68 < frac < 0.82


class TestModeDraws:
    """The sampler's mode draws against the live `Generator.choice` they replicate,
    so a numpy whose `choice` draws otherwise fails here."""

    POLICIES = {
        "one_mode": lambda: SyntheticGmmPolicy(
            [GmmMode(weight=1.0, stddev=0.1, attractor=np.zeros(2))], horizon=4, action_dim=2),
        "two_mode": lambda: SyntheticGmmPolicy(
            [GmmMode(weight=0.25, stddev=0.1, attractor=np.array([1.0, 0.0])),
             GmmMode(weight=0.75, stddev=0.1, attractor=np.array([-1.0, 0.0]))],
            horizon=4, action_dim=2),
        "three_mode": lambda: _three_mode_policy(),
    }

    @pytest.mark.parametrize("kind", sorted(POLICIES))
    def test_draws_equal_generator_choice(self, kind):
        policy = self.POLICIES[kind]()
        cdfs = [policy._base_cdf, *policy._sharpened_cdfs]
        for p, cdf in zip([policy.base_weights, *policy._sharpened], cdfs, strict=True):
            for size in (None, 1, 7, 32):
                for seed in range(50):
                    rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
                    got = _draw(rng, cdf, size)
                    want = reference.choice(len(p), p=p, size=size)
                    assert np.array_equal(got, want) and np.shape(got) == np.shape(want)
                    assert np.asarray(got).dtype == np.asarray(want).dtype
                    assert rng.random() == reference.random()


class TestExactNoiseOracle:
    def test_point_mass_recovers_exact_noise(self):
        """Single mode with vanishing stddev: the posterior mean is the mode
        mean, so the predicted noise equals the injected noise exactly."""
        mode = GmmMode(weight=1.0, stddev=1e-12, attractor=np.array([1.5, -0.5]),
                       gain=0.1)
        policy = SyntheticGmmPolicy([mode], horizon=3, action_dim=2)
        state = np.array([0.3, 0.2])
        clean = mode_plan(mode, state, 3)
        rng = np.random.default_rng(7)
        eps = rng.standard_normal((3, 2))
        i = 40
        abar = policy.schedule.alpha_bar[i]
        noised = math.sqrt(abar) * clean + math.sqrt(1 - abar) * eps
        pred = gmm_exact_eps(policy, noised[None, None], state[None], i)[0, 0]
        np.testing.assert_allclose(pred, eps, atol=1e-10)

    def test_oracle_matches_quadrature_single_dim(self):
        """Cross-check the closed form against numerical integration.

        For a 1-D two-mode mixture the posterior mean is an integral over
        the clean value; trapezoid quadrature on a fine grid approximates it
        independently of the linear-Gaussian algebra in the implementation.
        """
        # gain 1.0 from state 0 puts a one-step mode's mean at its attractor.
        modes = [GmmMode(weight=0.3, stddev=0.5, attractor=np.array([0.8]), gain=1.0),
                 GmmMode(weight=0.7, stddev=0.8, attractor=np.array([-0.6]), gain=1.0)]
        policy = SyntheticGmmPolicy(modes, horizon=1, action_dim=1)
        i = 25
        abar = policy.schedule.alpha_bar[i]
        x = np.array([[0.4]])
        state = np.zeros(1)

        grid = np.linspace(-8.0, 8.0, 40001)
        prior = (0.3 * np.exp(-0.5 * ((grid - 0.8) / 0.5) ** 2) / 0.5
                 + 0.7 * np.exp(-0.5 * ((grid + 0.6) / 0.8) ** 2) / 0.8)
        lik = np.exp(-0.5 * (x[0, 0] - math.sqrt(abar) * grid) ** 2 / (1 - abar))
        post = prior * lik

        def trapezoid(y):  # the trapezoid rule, written out: numpy < 2.0 has no np.trapezoid
            return float(np.sum((y[1:] + y[:-1]) * np.diff(grid)) / 2.0)

        post_mean = trapezoid(grid * post) / trapezoid(post)
        expected_eps = (x[0, 0] - math.sqrt(abar) * post_mean) / math.sqrt(1 - abar)

        pred = gmm_exact_eps(policy, x[None, None], state[None], i)[0, 0]
        assert pred[0, 0] == pytest.approx(expected_eps, abs=1e-6)

    def test_oracle_ignores_behavior(self):
        state = np.array([0.1, 0.2])
        x = np.random.default_rng(0).standard_normal((4, 2))
        preds = []
        for behavior in BEHAVIORS:
            policy = _two_mode_policy(behavior=behavior)
            preds.append(policy.eps(x[None, None], state[None], 10))
        for p in preds[1:]:
            np.testing.assert_array_equal(p, preds[0])

    def test_oracle_batch_shape(self):
        policy = _two_mode_policy()
        x = np.random.default_rng(1).standard_normal((5, 4, 2))
        pred = gmm_exact_eps(policy, x[None], np.zeros((1, 2)), 3)
        assert pred.shape == (1, 5, 4, 2)

    def test_oracle_rejects_bad_step(self):
        policy = _two_mode_policy()
        x = np.zeros((1, 1, 4, 2))
        with pytest.raises(ValueError, match="denoise step -1 outside"):
            gmm_exact_eps(policy, x, np.zeros((1, 2)), -1)
        with pytest.raises(ValueError, match="denoise step 100 outside"):
            gmm_exact_eps(policy, x, np.zeros((1, 2)), policy.schedule.n_steps)


def _reference_gmm_eps(policy, noised_chunk, state, i):
    """The oracle with nothing kept between calls: one state, and the mode
    means, variances and normalizers rebuilt from the policy on every call,
    in the oracle's arithmetic: the modes on the leading axis, centred on the
    first mode's scaled mean, and one matmul each for the products and the blend."""
    abar = policy.schedule.alpha_bar[i]
    sqrt_abar = math.sqrt(abar)
    h, d = policy.horizon, policy.action_dim
    x = np.asarray(noised_chunk, dtype=np.float64)
    lead = x.shape[:-2]
    flat = np.ascontiguousarray(x).reshape(-1, h * d)
    state = np.asarray(state, dtype=np.float64).ravel()
    mu = np.stack([mode_plan(m, state, h).ravel() for m in policy.modes])  # (M, V)
    sig2 = np.array([m.stddev ** 2 for m in policy.modes])
    s2 = abar * sig2 + (1.0 - abar)
    v = flat.shape[1]
    log_prior = np.log(policy.base_weights) - 0.5 * v * np.log(2.0 * math.pi * s2)
    y = flat - sqrt_abar * mu[0]
    delta = sqrt_abar * (mu - mu[0])
    sq = delta @ y.T  # (M, n)
    sq *= -2.0
    sq += np.einsum("nv,nv->n", y, y)
    sq += np.einsum("mv,mv->m", delta, delta)[:, None]
    logit = log_prior[:, None] - sq * (0.5 / s2)[:, None]
    logit -= logit.max(axis=0)
    resp = np.exp(logit)
    resp /= resp.sum(axis=0)
    resp *= (math.sqrt(1.0 - abar) / s2)[:, None]
    eps_hat = y * resp.sum(axis=0)[:, None] - resp.T @ delta
    return eps_hat.reshape(*lead, h, d)


def _per_mode_gmm_eps(policy, noised_chunk, state, i):
    """The oracle as first written, for one state: each row's difference to each
    mode's scaled mean, and the blend of the per-mode posterior means. Its float64
    error grows with the modes' distance from the origin, unlike the centred form's."""
    abar = policy.schedule.alpha_bar[i]
    sqrt_abar = math.sqrt(abar)
    h, d = policy.horizon, policy.action_dim
    x = np.asarray(noised_chunk, dtype=np.float64)
    lead = x.shape[:-2]
    flat = x.reshape(-1, h * d)
    state = np.asarray(state, dtype=np.float64).ravel()
    mu = np.stack([mode_plan(m, state, h).ravel() for m in policy.modes])
    sig2 = np.array([m.stddev ** 2 for m in policy.modes])
    s2 = abar * sig2 + (1.0 - abar)
    v = flat.shape[1]
    diff = flat[:, None, :] - sqrt_abar * mu[None, :, :]
    sq = np.einsum("nmv,nmv->nm", diff, diff)
    log_resp = (np.log(policy.base_weights)[None, :]
                - 0.5 * sq / s2[None, :]
                - 0.5 * v * np.log(2.0 * math.pi * s2)[None, :])
    log_resp -= logsumexp_rows(log_resp)
    resp = np.exp(log_resp)
    shrink = (sqrt_abar * sig2 / s2)[None, :, None]
    post_mean = np.einsum("nm,nmv->nv", resp, mu[None, :, :] + shrink * diff)
    eps_hat = (flat - sqrt_abar * post_mean) / math.sqrt(1.0 - abar)
    return eps_hat.reshape(*lead, h, d)


def _three_mode_policy(behavior="consistent"):
    """Three modes with distinct attractors, gains and stddevs."""
    modes = [GmmMode(weight=0.2, stddev=0.4, attractor=np.array([1.0, 0.5])),
             GmmMode(weight=0.5, stddev=0.1, attractor=np.array([-0.7, 1.2]), gain=0.3),
             GmmMode(weight=0.3, stddev=0.7, attractor=np.array([0.2, -1.5]), gain=0.9)]
    return SyntheticGmmPolicy(modes, horizon=4, action_dim=2, behavior=behavior)


def _reference_sample_with_modes(policy, state, batch_size):
    """The sampler as a loop over rows, on the generator draws it makes."""
    h, d = policy.horizon, policy.action_dim
    noise = policy._rng.standard_normal((batch_size, h, d))
    if policy.behavior == "mode_resample":
        policy.preferred_mode = int(policy._rng.choice(len(policy.modes), p=policy.base_weights))
    weights = policy._sharpened[policy.preferred_mode]
    assignments = policy._rng.choice(len(policy.modes), p=weights, size=batch_size)
    chunks = np.empty((batch_size, h, d))
    means = [mode_plan(mode, state, h) for mode in policy.modes]
    for b, m in enumerate(assignments):
        chunks[b] = means[m] + noise[b] * policy.modes[m].stddev
    return chunks, assignments


class TestOracleAgainstReference:
    """gmm_exact_eps with its constants built once and its mode means broadcast
    over a stack of states, against the same arithmetic rebuilt on every call
    for one state; a reference state is a stack of one to the oracle."""

    POLICIES = {"attractor": lambda: _two_mode_policy(horizon=4), "three_mode": _three_mode_policy}

    @pytest.mark.parametrize("kind", sorted(POLICIES))
    def test_one_state(self, kind):
        policy = self.POLICIES[kind]()
        rng = np.random.default_rng(11)
        for lead in [(), (1,), (7,), (3, 5), (2, 4, 3)]:
            x = rng.standard_normal(lead + (4, 2)) * 2.0
            state = rng.standard_normal(2)
            for i in (0, 1, 37, policy.schedule.n_steps - 1):
                assert np.array_equal(gmm_exact_eps(policy, x[None], state[None], i)[0],
                                      _reference_gmm_eps(policy, x, state, i))

    @pytest.mark.parametrize("kind", sorted(POLICIES))
    def test_one_state_per_group(self, kind):
        policy = self.POLICIES[kind]()
        rng = np.random.default_rng(12)
        for lead in [(2,), (2, 6), (3, 4, 5)]:
            x = rng.standard_normal(lead + (4, 2))
            states = rng.standard_normal((lead[0], 2))
            for i in (0, 50, 99):
                got = gmm_exact_eps(policy, x, states, i)
                assert got.shape == x.shape
                for g in range(lead[0]):
                    assert np.array_equal(got[g], _reference_gmm_eps(policy, x[g], states[g], i))

    @pytest.mark.parametrize("kind", sorted(POLICIES))
    def test_alternating_states_never_reuse_stale_means(self, kind):
        policy = self.POLICIES[kind]()
        rng = np.random.default_rng(13)
        x = rng.standard_normal((6, 4, 2))
        a, b = rng.standard_normal(2), rng.standard_normal(2)
        stack = np.stack([a, b])
        for state in (a, b, a, stack, a, stack[::-1], b, b):
            states = np.broadcast_to(state, (2, 2))  # one state for both groups, or one each
            assert np.array_equal(gmm_exact_eps(policy, x[:2], states, 20),
                                  np.stack([_reference_gmm_eps(policy, x[g], s, 20)
                                            for g, s in enumerate(states)]))
        # The same array object, changed in place, is a new state.
        state = a[None].copy()
        before = gmm_exact_eps(policy, x[None], state, 5)
        state += 1.0
        assert np.array_equal(gmm_exact_eps(policy, x[None], state, 5)[0],
                              _reference_gmm_eps(policy, x, state[0], 5))
        assert not np.array_equal(before, gmm_exact_eps(policy, x[None], state, 5))

    @pytest.mark.parametrize("kind", sorted(POLICIES))
    def test_one_step_per_group(self, kind):
        """A (G,) step array against one reference call per group, under one
        state for every group or one state per group."""
        policy = self.POLICIES[kind]()
        rng = np.random.default_rng(14)
        n = policy.schedule.n_steps
        for lead in [(1,), (2,), (3, 5), (10, 4, 2)]:
            x = rng.standard_normal(lead + (4, 2))
            steps = rng.integers(0, n, size=lead[0])
            steps[0] = n - 1
            states = rng.standard_normal((lead[0], 2))
            for stack in (np.broadcast_to(states[0], states.shape), states):
                got = gmm_exact_eps(policy, x, stack, steps)
                assert got.shape == x.shape
                for g in range(lead[0]):
                    assert np.array_equal(got[g], _reference_gmm_eps(policy, x[g], stack[g],
                                                                     steps[g]))

    @pytest.mark.parametrize("n_modes", [8, 12])
    def test_eight_modes_or_more_agree_within_tolerance(self, n_modes):
        """Many modes: numpy sums a row of 8 or more pairwise, but the oracle and
        the reference both sum over a leading mode axis, in order. The test asks
        for agreement within tolerance only, which leaves room for a BLAS that
        rounds a stacked matmul otherwise than a 2-D one."""
        rng = np.random.default_rng(16)
        modes = [GmmMode(weight=1.0 / n_modes, stddev=0.2 + 0.1 * m,
                         attractor=rng.standard_normal(2)) for m in range(n_modes)]
        policy = SyntheticGmmPolicy(modes, horizon=4, action_dim=2)
        for i in (0, 10, 50, 99):
            x, state = rng.standard_normal((64, 4, 2)) * 2.0, rng.standard_normal(2)
            want = _reference_gmm_eps(policy, x, state, i)
            np.testing.assert_allclose(gmm_exact_eps(policy, x[None], state[None], i)[0], want,
                                       rtol=0.0, atol=1e-9 * np.abs(want).max())

    def test_a_stack_that_repeats_its_states_matches_the_reference(self):
        """A stack that repeats its states, as the stacked ddpm draws do,
        gives each group the bits of a call of its own."""
        policy = _three_mode_policy()
        rng = np.random.default_rng(15)
        curr, prev = rng.standard_normal(2), rng.standard_normal(2)
        stack = np.repeat(np.stack([curr, prev]), 10, axis=0)
        x = rng.standard_normal((20, 3, 4, 2))
        steps = rng.integers(0, 100, size=20)
        got = gmm_exact_eps(policy, x, stack, steps)
        for g in range(20):
            assert np.array_equal(got[g], _reference_gmm_eps(policy, x[g], stack[g], steps[g]))

    @pytest.mark.parametrize("bad", [2.5, True, np.bool_(False), "3", None, [1.5, 2.0],
                                     np.array([True, False]), np.zeros((2, 1), dtype=int),
                                     np.array([], dtype=int)])
    def test_refuses_a_step_that_is_not_integer(self, bad):
        policy = _two_mode_policy(horizon=4)
        x = np.zeros((2, 3, 4, 2))
        with pytest.raises(ValueError, match="(?s)denoise step .* not an integer"):
            gmm_exact_eps(policy, x[:1], np.zeros((1, 2)), bad)
        with pytest.raises(ValueError, match="(?s)denoise step .* not an integer"):
            gmm_exact_eps(policy, x, np.zeros((2, 2)), bad)

    def test_refuses_steps_outside_the_schedule(self):
        policy = _two_mode_policy(horizon=4)
        n = policy.schedule.n_steps
        x = np.zeros((3, 5, 4, 2))
        for bad, named in [(np.array([0, -2, 3]), -2), (np.array([1, n, 2]), n),
                           (np.array([n + 4, 0, -1]), -1)]:
            with pytest.raises(ValueError, match=f"denoise step {named} outside"):
                gmm_exact_eps(policy, x, np.zeros((3, 2)), bad)

    def test_step_count_must_match_groups(self):
        policy = _two_mode_policy(horizon=4)
        with pytest.raises(ValueError, match="2 steps for 3 states"):
            gmm_exact_eps(policy, np.zeros((3, 5, 4, 2)), np.zeros((3, 2)), np.array([1, 2]))
        with pytest.raises(ValueError, match="1 steps for 3 states"):
            gmm_exact_eps(policy, np.zeros((3, 5, 4, 2)), np.zeros((3, 2)), np.array([1]))
        with pytest.raises(ValueError, match="2 states need noised chunks"):
            gmm_exact_eps(policy, np.zeros((3, 5, 4, 2)), np.zeros((2, 2)), np.array([1, 2]))
        with pytest.raises(ValueError, match="2 states need noised chunks"):
            gmm_exact_eps(policy, np.zeros((4, 2)), np.zeros((2, 2)), np.array([1, 2]))

    def test_group_count_must_match_states(self):
        policy = _two_mode_policy(horizon=4)
        with pytest.raises(ValueError, match="2 states"):
            gmm_exact_eps(policy, np.zeros((3, 5, 4, 2)), np.zeros((2, 2)), 3)
        with pytest.raises(ValueError, match="2 states"):
            gmm_exact_eps(policy, np.zeros((4, 2)), np.zeros((2, 2)), 3)


def _own_draws(attractors, steps, rng):
    """The default scenario's policy on `attractors`, its 32 chunks from the
    origin, and those chunks re-noised to each of `steps`, one group per step."""
    policy = ScenarioConfig(attractors=attractors).build_policy()
    chunks = policy.sample_with_modes(np.zeros(2), 32)[0]
    abar = np.asarray(policy.schedule.alpha_bar)[steps][:, None, None, None]
    noise = rng.standard_normal((len(steps),) + chunks.shape)
    return policy, np.sqrt(abar) * chunks + np.sqrt(1.0 - abar) * noise, np.zeros((len(steps), 2))


def _random_draws(n_modes, steps, rng):
    """A policy of n_modes random modes, and random chunks and states, one group per step."""
    modes = [GmmMode(weight=1.0 / n_modes, stddev=0.2 + 0.1 * m,
                     attractor=rng.standard_normal(2)) for m in range(n_modes)]
    policy = SyntheticGmmPolicy(modes, horizon=4, action_dim=2)
    x = rng.standard_normal((len(steps), 64, 4, 2)) * 2.0
    return policy, x, rng.standard_normal((len(steps), 2))


class TestOracleAgainstPerModeArithmetic:
    """The oracle against the per-mode arithmetic it replaced, within a bound
    on max|eps| at each step: the two round differently, and the per-mode form
    loses more bits as the modes move away from the origin."""

    STEPS = np.array([0, 1, 5, 25, 50, 99])
    CASES = {  # how to draw the inputs, from what, and the bound as a fraction of max|eps|
        "scenario": (_own_draws, ((2.5, 1.5), (2.5, -1.5)), 1e-13),
        "far_attractors": (_own_draws, ((1000.0, 1.5), (1000.0, -1.5)), 1e-11),
        "3_modes": (_random_draws, 3, 1e-10),
        "8_modes": (_random_draws, 8, 1e-10),
        "12_modes": (_random_draws, 12, 1e-10),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_agrees_with_the_per_mode_arithmetic(self, case):
        """At attractors (1000, +-1.5) a form that does not centre on the first
        mode's mean misses its bound at step 1."""
        draws, arg, bound = self.CASES[case]
        policy, x, states = draws(arg, self.STEPS, np.random.default_rng(17))
        got = gmm_exact_eps(policy, x, states, self.STEPS)
        for g, i in enumerate(self.STEPS):
            want = _per_mode_gmm_eps(policy, x[g], states[g], i)
            np.testing.assert_allclose(got[g], want, rtol=0.0, atol=bound * np.abs(want).max())


class TestOracleInputSafety:
    """gmm_exact_eps writes nothing it was given, returns memory of its own,
    and gives the same bits whatever the layout of its input."""

    WEIGHTS = {1: (1.0,), 2: (0.4, 0.6), 3: (0.2, 0.5, 0.3)}

    @pytest.mark.parametrize("n_modes", sorted(WEIGHTS))
    def test_leaves_its_input_and_ignores_its_layout(self, n_modes):
        rng = np.random.default_rng(18)
        modes = [GmmMode(weight=w, stddev=0.2 + 0.3 * m, attractor=rng.standard_normal(2),
                         gain=0.1 + 0.4 * m) for m, w in enumerate(self.WEIGHTS[n_modes])]
        policy = SyntheticGmmPolicy(modes, horizon=4, action_dim=2)
        base = rng.standard_normal((6, 5, 4, 4)) * 2.0
        base.flags.writeable = False  # a write into any view of it raises
        views = [base[::2, :, :, 1:3], base[:3, ::2, :, ::2],
                 base.transpose(1, 0, 2, 3)[:3, :4, :, :2], base[::2, :, :, :2].copy()[:, ::2]]
        for x in views:
            assert not x.flags.c_contiguous
            x.flags.writeable = False
            before = x.copy()
            for state, i in [(np.broadcast_to(rng.standard_normal(2), (3, 2)), 37),
                             (rng.standard_normal((3, 2)), 0),
                             (rng.standard_normal((3, 2)), np.array([99, 5, 50]))]:
                got = gmm_exact_eps(policy, x, state, i)
                assert np.array_equal(x, before)
                assert not np.shares_memory(got, x)
                want = gmm_exact_eps(policy, np.ascontiguousarray(x), state, i)
                assert got.shape == want.shape == x.shape
                assert got.tobytes() == want.tobytes()


class TestScenario:
    def test_header_derivation(self):
        config = ScenarioConfig()
        header = config.header()
        assert header.prediction_horizon == 8
        assert header.execution_horizon == 4
        assert header.action_mask == (True, True)
        assert header.task_time_limit == pytest.approx(64 * 0.25)

    def test_json_round_trip(self):
        config = ScenarioConfig(noise_std=0.02, attractors=((1.0, 0.0),),
                                mode_weights=(1.0,))
        clone = ScenarioConfig.from_json_obj(json.loads(json.dumps(config.to_json_obj())))
        assert clone == config
        # JSON gives lists; the config holds the tuples it was built with.
        config = ScenarioConfig(action_mask=(True, False), start=(0.5, -1), drift_step=(0.1, 0))
        clone = ScenarioConfig.from_json_obj(json.loads(json.dumps(config.to_json_obj())))
        assert clone == config
        assert (clone.action_mask, clone.start, clone.drift_step) == \
            ((True, False), (0.5, -1), (0.1, 0))

    def test_rejects_unknown_fields(self):
        with pytest.raises(ValueError):
            ScenarioConfig.from_json_obj({"gravity": 9.8})

    def test_rejects_attractor_mismatch(self):
        with pytest.raises(ValueError):
            ScenarioConfig(action_dim=3, attractors=((1.0, 2.0),))

    def test_goal_label(self):
        config = ScenarioConfig()
        inside = [np.zeros(2), np.array([2.5, 1.45])]
        outside = [np.zeros(2), np.array([0.0, 0.0])]
        assert default_goal_label(inside, config).outcome == "success"
        label = default_goal_label(outside, config)
        assert label.outcome == "failure"
        assert label.is_failure
        assert label.return_value == 0.0


class TestGenerateRollout:
    def test_record_count_and_spacing(self):
        config = ScenarioConfig(episode_limit=16, prediction_horizon=8,
                                execution_horizon=4, batch_size=4)
        policy = config.build_policy("consistent", seed=0)
        log = generate_rollout(policy, config, seed=0)
        assert len(log.records) == 4
        assert [r.timestep for r in log.records] == [0, 4, 8, 12]
        assert log.records[0].chunk_samples.shape == (4, 8, 2)
        assert log.label is not None

    def test_same_seed_reproduces_exactly(self):
        config = ScenarioConfig(episode_limit=16, batch_size=4)
        a = generate_rollout(config.build_policy("consistent", 0), config, seed=9)
        b = generate_rollout(config.build_policy("consistent", 0), config, seed=9)
        assert len(a.records) == len(b.records)
        for ra, rb in zip(a.records, b.records):
            np.testing.assert_array_equal(ra.chunk_samples, rb.chunk_samples)
            assert ra.executed_index == rb.executed_index
        assert a.label == b.label

    def test_different_seeds_differ(self):
        config = ScenarioConfig(episode_limit=16, batch_size=4)
        a = generate_rollout(config.build_policy("consistent", 0), config, seed=1)
        b = generate_rollout(config.build_policy("consistent", 0), config, seed=2)
        assert not np.array_equal(a.records[0].chunk_samples,
                                  b.records[0].chunk_samples)

    def test_nominal_episodes_reach_goal(self):
        config = ScenarioConfig()
        wins = 0
        for seed in range(10):
            policy = config.build_policy("consistent", seed)
            log = generate_rollout(policy, config, seed=seed)
            wins += log.label.outcome == "success"
        assert wins == 10

    def test_stall_never_reaches_goal(self):
        config = ScenarioConfig()
        for seed in range(3):
            policy = config.build_policy("constant_stall", seed)
            log = generate_rollout(policy, config, seed=seed)
            assert log.label.outcome == "failure"

    def test_executed_chunk_tracks_preferred_mode(self):
        config = ScenarioConfig(episode_limit=8, batch_size=16)
        policy = config.build_policy("consistent", 3)
        log = generate_rollout(policy, config, seed=3)
        # re-run the sampling to recover assignments is fragile; instead check
        # the recorded executed chunk is a plausible preferred-mode draw by
        # confirming it moves toward one attractor
        total = log.records[0].executed_chunk().sum(axis=0)
        dots = [np.dot(total, np.asarray(a)) for a in config.attractors]
        assert max(dots) > 0

    def test_embeddings_and_frames_controlled_by_flags(self):
        config = ScenarioConfig(episode_limit=8, batch_size=2,
                                record_embeddings=False, record_frames=False)
        log = generate_rollout(config.build_policy("consistent", 0), config, seed=0)
        assert all(r.embedding is None for r in log.records)
        assert all(r.frame_ref is None for r in log.records)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1),
       behavior=st.sampled_from(BEHAVIORS))
def test_rollout_generation_never_violates_log_invariants(seed, behavior):
    config = ScenarioConfig(episode_limit=8, batch_size=3)
    policy = config.build_policy(behavior, seed)
    log = generate_rollout(policy, config, seed=seed)
    # RolloutLog construction validates spacing, shapes, and finiteness;
    # reaching here means the generator satisfied them
    assert len(log.records) == 2
