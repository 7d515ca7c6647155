"""Stochastic action-chunk policy interface and a tractable GMM stand-in.

The synthetic policy samples chunks from a state-conditioned Gaussian
mixture whose modes steer an integrator toward per-mode attractors. Because
the mixture is analytically known, the Bayes-optimal noise prediction for
re-noised chunks has a closed form, which gives the diffusion-style score
functions an exact oracle to evaluate against. Behavior switches corrupt
sampling only; the oracle always reflects the nominal mixture.
"""

from __future__ import annotations

import abc
import math
from dataclasses import asdict, dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .distances import logsumexp_rows
from .rollout import (InferenceRecord, RolloutHeader, RolloutLabel, RolloutLog,
                      _check_scalar_fields, _json_fields)

BEHAVIORS = ("consistent", "mode_resample", "constant_stall", "drift")

DEFAULT_TASK_DESCRIPTION = (
    "push the supply cart to either of the two marked loading docks and "
    "bring it to rest inside the dock circle"
)


@dataclass(frozen=True)
class NoiseSchedule:
    """Cumulative signal fractions (alpha-bar) for N denoising iterations."""

    alpha_bar: tuple[float, ...]

    def __post_init__(self):
        values = tuple(float(a) for a in self.alpha_bar)
        if len(values) < 1:
            raise ValueError("schedule needs at least one step")
        if not all(0.0 < a < 1.0 for a in values):
            raise ValueError("alpha_bar values must lie strictly within (0, 1)")
        if not all(later < earlier for earlier, later in zip(values, values[1:])):
            raise ValueError("alpha_bar must be strictly decreasing")
        object.__setattr__(self, "alpha_bar", values)

    @property
    def n_steps(self) -> int:
        return len(self.alpha_bar)

    @classmethod
    def default_linear(cls, n_steps: int = 100, start: float = 0.9999,
                       end: float = 0.02) -> "NoiseSchedule":
        return cls(tuple(np.linspace(start, end, n_steps)))


class PolicyOracle(abc.ABC):
    """What every detector needs from a policy: a noise predictor and an encoder."""

    schedule: NoiseSchedule

    @abc.abstractmethod
    def eps(self, noised_chunk: np.ndarray, state: np.ndarray, i) -> np.ndarray:
        """Predict the noise inside chunks re-noised to schedule step i.

        `noised_chunk` has shape (..., h, action_dim) with any leading batch
        dims; each chunk's prediction must not depend on the other rows, and
        the array must not be written into. `state` is one state of shape
        (sd,) for every chunk, or a (G, sd) stack of G states, one per leading
        group: chunk noised_chunk[g, ...] is conditioned on state[g]. Likewise
        `i` is one integer step for every chunk, or a (G,) integer array of
        one step per leading group. Returns an array of the same shape, which
        callers never write into, so it may be read-only or kept by the
        oracle. A policy's modes and schedule are fixed once it is built, so
        an implementation may compute what depends only on them, or on the
        step and the state, once and reuse it.
        """

    @abc.abstractmethod
    def encode(self, observation: np.ndarray) -> np.ndarray:
        """Map an observation to the embedding recorded in logs."""


@dataclass
class GmmMode:
    """One mixture mode: exponential approach toward `attractor` at rate `gain`."""

    weight: float
    stddev: float
    attractor: np.ndarray
    gain: float = 0.05

    def __post_init__(self):
        self.weight = float(self.weight)
        self.stddev = float(self.stddev)
        self.gain = float(self.gain)
        if self.weight <= 0:
            raise ValueError("mode weight must be positive")
        if self.stddev <= 0:
            raise ValueError("mode stddev must be positive")
        if not 0.0 < self.gain <= 1.0:
            raise ValueError("gain must be in (0, 1]")
        self.attractor = np.asarray(self.attractor, dtype=np.float64).ravel()

    def chunk_mean(self, state: np.ndarray, horizon: int) -> np.ndarray:
        # Open-loop plan of an exponential approach: following the plan from
        # `state` makes step j of the next plan coincide with step j+k of
        # this one, which is what keeps nominal rollouts temporally
        # consistent under re-planning.
        delta = self.attractor - np.asarray(state, dtype=np.float64).ravel()
        decay = self.gain * (1.0 - self.gain) ** np.arange(horizon)
        return decay[:, None] * delta[None, :]


def _sharpened(weights: np.ndarray, preferred: int, dominance: float) -> np.ndarray:
    if weights.shape[0] == 1:
        return weights.copy()
    out = np.empty_like(weights)
    others = np.delete(weights, preferred)
    out[preferred] = dominance
    rest = np.delete(np.arange(weights.shape[0]), preferred)
    out[rest] = (1.0 - dominance) * others / others.sum()
    return out


class SyntheticGmmPolicy(PolicyOracle):
    """State-conditioned GMM policy with switchable runtime behaviors.

    `consistent` commits to one preferred mode per episode (weights fixed),
    `mode_resample` re-draws the preference at every inference step,
    `constant_stall` emits near-zero chunks, and `drift` emits a constant
    offset chunk. The noise-prediction oracle ignores the behavior and
    answers for the nominal mixture.

    The modes and the schedule are fixed once the policy is built: the
    oracle's per-step constants are computed here, and the mode means of the
    states it was last asked about are kept for the next call.
    """

    def __init__(self, modes: Sequence[GmmMode], horizon: int, action_dim: int,
                 behavior: str = "consistent", seed: int = 0, dominance: float = 0.9,
                 stall_noise: float = 1e-4, drift_step: Optional[Sequence[float]] = None,
                 schedule: Optional[NoiseSchedule] = None):
        if behavior not in BEHAVIORS:
            raise ValueError(f"behavior must be one of {BEHAVIORS}")
        if not modes:
            raise ValueError("need at least one mode")
        total = sum(m.weight for m in modes)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"mode weights must sum to 1, got {total}")
        if not 0.0 < dominance < 1.0:
            raise ValueError("dominance must be in (0, 1)")
        for mode in modes:
            if mode.attractor.shape[0] != action_dim:
                raise ValueError("mode attractor dimension != action_dim")
        self.modes = list(modes)
        self.horizon = int(horizon)
        self.action_dim = int(action_dim)
        self.behavior = behavior
        self.dominance = float(dominance)
        self.stall_noise = float(stall_noise)
        self.drift_step = (np.zeros(action_dim) if drift_step is None
                           else np.asarray(drift_step, dtype=np.float64).ravel())
        if self.drift_step.shape[0] != action_dim:
            raise ValueError("drift_step dimension != action_dim")
        self.schedule = schedule or NoiseSchedule.default_linear()
        self.base_weights = np.array([m.weight for m in self.modes])
        self._stddevs = np.array([m.stddev for m in self.modes])
        self._oracle_constants = _gmm_step_constants(self)
        # (stack shape and bytes, its (M, G, V) mode means, {state bytes: (M, V) means})
        self._means_memo = (None, None, {})
        self.preferred_mode = 0
        self.reset(np.random.default_rng(seed))

    def reset(self, rng: np.random.Generator) -> None:
        """Start a new episode: take ownership of `rng`, draw the preference."""
        self._rng = rng
        self.preferred_mode = int(self._rng.choice(len(self.modes), p=self.base_weights))

    def _current_weights(self) -> np.ndarray:
        if self.behavior == "mode_resample":
            self.preferred_mode = int(self._rng.choice(len(self.modes), p=self.base_weights))
        return _sharpened(self.base_weights, self.preferred_mode, self.dominance)

    def sample_with_modes(self, state, batch_size: int) -> tuple[np.ndarray, np.ndarray]:
        """Draw batch_size chunks of shape (B, h, action_dim) and their mode assignments.

        A chunk that follows no mode (stall or drift) is assigned -1.
        """
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        state = np.asarray(state, dtype=np.float64).ravel()
        h, d = self.horizon, self.action_dim
        noise = self._rng.standard_normal((batch_size, h, d))
        if self.behavior == "constant_stall":
            return noise * self.stall_noise, np.full(batch_size, -1)
        if self.behavior == "drift":
            mean = np.tile(self.drift_step, (h, 1))
            return mean[None] + noise * self.stall_noise, np.full(batch_size, -1)
        weights = self._current_weights()
        assignments = self._rng.choice(len(self.modes), p=weights, size=batch_size)
        means = np.stack([mode.chunk_mean(state, h) for mode in self.modes])
        chunks = means[assignments] + noise * self._stddevs[assignments][:, None, None]
        return chunks, assignments

    def eps(self, noised_chunk, state, i) -> np.ndarray:
        return gmm_exact_eps(self, noised_chunk, state, i)

    def encode(self, observation) -> np.ndarray:
        return np.asarray(observation, dtype=np.float64).ravel().copy()


def _gmm_step_constants(policy: SyntheticGmmPolicy) -> tuple:
    """What `gmm_exact_eps` needs at each schedule step and no state changes:
    the log mode weights (M,); sqrt(abar) and sqrt(1 - abar) stacked as a
    (2, N, 1, 1) array; and the per-mode marginal variance s2, the Gaussian
    normalizer and the posterior shrink factor stacked mode-major as a
    (3, M, N, 1) array. One `take` per stack gathers a call's steps."""
    alpha_bar = policy.schedule.alpha_bar
    abar = np.array(alpha_bar)[:, None]  # (N, 1)
    sig2 = np.array([m.stddev ** 2 for m in policy.modes])  # (M,)
    v = policy.horizon * policy.action_dim
    sqrt_abar = np.array([math.sqrt(a) for a in alpha_bar])
    s2 = abar * sig2 + (1.0 - abar)  # marginal variance per dim, per mode
    log_norm = 0.5 * v * np.log(2.0 * math.pi * s2)
    shrink = sqrt_abar[:, None] * sig2 / s2
    sqrt_one_minus_abar = np.array([math.sqrt(1.0 - a) for a in alpha_bar])
    return (np.log(policy.base_weights),
            np.stack([sqrt_abar, sqrt_one_minus_abar])[:, :, None, None],
            np.stack([s2.T, log_norm.T, shrink.T])[..., None])


def _gmm_mode_means(policy: SyntheticGmmPolicy, states: np.ndarray) -> np.ndarray:
    """(M, G, V) flattened mode means of each of the G states, mode-major.

    The means of the last call's states are kept: every step of a reverse
    pass asks for the same stack again, and the oracle calls of one inference
    step ask for the same states in other stacks. A state that a stack
    repeats, as the stacked ddpm draws do, is computed once.
    """
    key = (states.shape, states.tobytes())
    last_key, means, by_state = policy._means_memo
    if key != last_key:
        h = policy.horizon
        rows = [state.tobytes() for state in states]
        kept = {}
        for row, state in zip(rows, states):
            if row not in kept:
                kept[row] = by_state[row] if row in by_state else np.stack(
                    [m.chunk_mean(state, h).ravel() for m in policy.modes])
        means = np.stack([kept[row] for row in rows], axis=1)
        policy._means_memo = (key, means, kept)
    return means


def _denoise_steps(i, n_steps: int) -> tuple[np.ndarray, bool]:
    """Schedule step `i` as a (1,) array, or a 1-D step array as itself, and
    whether `i` was an array of one step per group."""
    steps = np.asarray(i)
    if steps.dtype.kind not in "iu" or steps.ndim > 1 or steps.size == 0:
        raise ValueError(f"denoise step {i!r} is not an integer or a 1-D integer array")
    per_group = steps.ndim == 1
    steps = steps.reshape(-1)
    lo, hi = (steps.min(), steps.max()) if per_group else (steps[0], steps[0])
    if lo < 0 or hi >= n_steps:
        raise ValueError(f"denoise step {lo if lo < 0 else hi} outside [0, {n_steps})")
    return steps, per_group


def gmm_exact_eps(policy: SyntheticGmmPolicy, noised_chunk, state, i) -> np.ndarray:
    """Bayes-optimal noise prediction for the nominal mixture.

    Re-noising a GMM draw to schedule step i yields another GMM (means
    scaled by sqrt(abar), per-dimension variances abar*sigma^2 + 1 - abar),
    so the posterior mean over the clean chunk is a responsibility-weighted
    blend of per-mode linear estimates, and the predicted noise follows as
    eps_hat = (x - sqrt(abar) * E[a0 | x]) / sqrt(1 - abar).

    `state` is one state (sd,) or a (G, sd) stack of states, and `i` one
    step or a (G,) array of steps, one per leading group of `noised_chunk`.
    Each group gathers its step's constants and runs the scalar arithmetic
    of a call of its own. The squared distances and responsibilities are
    laid out mode-major, (M, n), and reduced over the leading mode axis.
    Below 8 modes numpy sums that axis in the order it sums a row of the
    (n, M) layout, so both give the same bits; from 8 modes on it sums a
    row pairwise, and the two differ in the last bits. The per-mode posterior
    means are built in the buffer of the differences, and the prediction in
    the blend's: nothing is written into `noised_chunk`.
    """
    steps, per_group_step = _denoise_steps(i, policy.schedule.n_steps)
    log_weights, step_scalars, step_modes = policy._oracle_constants
    h, d = policy.horizon, policy.action_dim
    x = np.asarray(noised_chunk, dtype=np.float64)
    if x.shape[-2:] != (h, d):
        raise ValueError(f"noised chunk must end in shape ({h}, {d}), got {x.shape}")
    state = np.asarray(state, dtype=np.float64)
    states = state if state.ndim == 2 else state.ravel()[None]
    n_groups = states.shape[0] if state.ndim == 2 else steps.size
    if per_group_step and steps.size != n_groups:
        raise ValueError(f"{steps.size} steps for {n_groups} states")
    if (state.ndim == 2 or per_group_step) and (x.ndim < 3 or x.shape[0] != n_groups):
        what = "states" if state.ndim == 2 else "steps"
        raise ValueError(f"{n_groups} {what} need noised chunks of shape "
                         f"({n_groups}, ..., {h}, {d}), got {x.shape}")
    lead = x.shape[:-2]
    groups = x.reshape(n_groups, -1, h * d)  # (G, n/G, V)
    mu = _gmm_mode_means(policy, states)[:, :, None, :]  # (M, G, 1, V)
    n_modes, v = mu.shape[0], mu.shape[-1]
    sqrt_abar, sqrt_one_minus_abar = step_scalars.take(steps, axis=1)  # (G, 1, 1)
    s2, log_norm, shrink = step_modes.take(steps, axis=2)  # (M, G, 1)
    diff = groups - sqrt_abar * mu  # (M, G, n/G, V)
    sq = np.einsum("mgrv,mgrv->mgr", diff, diff)
    post_mean_per_mode = np.add(mu, np.multiply(shrink[..., None], diff, out=diff), out=diff)
    log_resp = (log_weights[:, None, None] - 0.5 * sq / s2 - log_norm).reshape(n_modes, -1)
    log_resp -= logsumexp_rows(log_resp, axis=0)
    resp = np.exp(log_resp)  # (M, n)
    post_mean = np.einsum("mn,mnv->nv", resp, post_mean_per_mode.reshape(n_modes, -1, v))
    post_mean = post_mean.reshape(groups.shape)
    post_mean *= sqrt_abar
    eps_hat = np.subtract(groups, post_mean, out=post_mean)
    eps_hat /= sqrt_one_minus_abar
    return eps_hat.reshape(*lead, h, d)


@dataclass
class ScenarioConfig:
    """Everything needed to generate synthetic rollouts for one scenario."""

    action_dim: int = 2
    prediction_horizon: int = 8
    execution_horizon: int = 4
    episode_limit: int = 64
    step_duration: float = 0.25
    batch_size: int = 32
    attractors: tuple = ((2.5, 1.5), (2.5, -1.5))
    mode_weights: Optional[tuple] = None  # None = uniform
    gain: float = 0.05
    noise_std: float = 0.01
    dominance: float = 0.9
    stall_noise: float = 1e-4
    drift_step: tuple = (-0.03, 0.03)
    start: tuple = (0.0, 0.0)
    start_jitter: float = 0.05
    goal_radius: float = 0.3
    action_mask: Optional[tuple] = None  # None = all dimensions included
    task_description: str = DEFAULT_TASK_DESCRIPTION
    task_time_limit: Optional[float] = None  # None = episode_limit * step_duration
    n_denoise_steps: int = 100
    record_embeddings: bool = True
    record_frames: bool = True

    def __post_init__(self):
        _check_scalar_fields(self)
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        self.attractors = tuple(tuple(float(v) for v in a) for a in self.attractors)
        if not self.attractors:
            raise ValueError("need at least one attractor")
        for a in self.attractors:
            if len(a) != self.action_dim:
                raise ValueError("attractor dimension != action_dim")
        if self.mode_weights is None:
            self.mode_weights = tuple([1.0 / len(self.attractors)] * len(self.attractors))
        else:
            self.mode_weights = tuple(float(w) for w in self.mode_weights)
        if len(self.mode_weights) != len(self.attractors):
            raise ValueError("mode_weights length != number of attractors")
        self.drift_step = tuple(self.drift_step)
        self.start = tuple(self.start)
        if len(self.start) != self.action_dim:
            raise ValueError(f"start length {len(self.start)} != action_dim {self.action_dim}")
        if self.action_mask is not None:
            self.action_mask = tuple(self.action_mask)
        if self.task_time_limit is None:
            self.task_time_limit = self.episode_limit * self.step_duration
        # Build what a run builds once, so that geometry no rollout could
        # follow is refused here, by the rules of the header and the policy.
        self.header()
        self.build_policy()

    def header(self) -> RolloutHeader:
        mask = self.action_mask if self.action_mask is not None else (True,) * self.action_dim
        return RolloutHeader(
            action_dim=self.action_dim,
            prediction_horizon=self.prediction_horizon,
            execution_horizon=self.execution_horizon,
            episode_limit=self.episode_limit,
            step_duration=self.step_duration,
            action_mask=tuple(mask),
            task_description=self.task_description,
            task_time_limit=self.task_time_limit,
        )

    def build_policy(self, behavior: str = "consistent", seed: int = 0) -> SyntheticGmmPolicy:
        modes = [GmmMode(weight=w, stddev=self.noise_std,
                         attractor=np.array(a), gain=self.gain)
                 for w, a in zip(self.mode_weights, self.attractors)]
        return SyntheticGmmPolicy(
            modes, horizon=self.prediction_horizon, action_dim=self.action_dim,
            behavior=behavior, seed=seed, dominance=self.dominance,
            stall_noise=self.stall_noise, drift_step=self.drift_step,
            schedule=NoiseSchedule.default_linear(self.n_denoise_steps),
        )

    def to_json_obj(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_obj(cls, obj: dict) -> "ScenarioConfig":
        return cls(**_json_fields(cls, obj, "scenario config"))


def default_goal_label(states: Sequence[np.ndarray], config: ScenarioConfig) -> RolloutLabel:
    """Success iff the terminal state parks inside any attractor's goal ball.

    The return is the binary task-completion reward, so failure is exactly
    `return < 1`.
    """
    terminal = np.asarray(states[-1], dtype=np.float64)
    closest = min(float(np.linalg.norm(terminal - np.asarray(a))) for a in config.attractors)
    reached = closest <= config.goal_radius
    return RolloutLabel(
        outcome="success" if reached else "failure",
        return_value=1.0 if reached else 0.0,
        return_threshold=1.0,
    )


def generate_rollout(policy: SyntheticGmmPolicy, params: ScenarioConfig,
                     label_rule: Optional[Callable] = None, seed: int = 0) -> RolloutLog:
    """Run one closed-loop episode on the integrator environment.

    At each inference step the policy samples a chunk batch; the executed
    chunk is the first batch row from the currently preferred mode (row 0
    for stall/drift), and the state advances by each executed action in
    turn. Fully reproducible from `seed`.
    """
    ss = np.random.SeedSequence(seed)
    env_rng, policy_rng = (np.random.default_rng(c) for c in ss.spawn(2))
    policy.reset(policy_rng)
    label_rule = label_rule or default_goal_label

    header = params.header()
    h, k, big_h = params.prediction_horizon, params.execution_horizon, params.episode_limit
    state = np.asarray(params.start, dtype=np.float64) + \
        env_rng.standard_normal(params.action_dim) * params.start_jitter
    states = [state.copy()]
    records = []
    t = 0
    while t < big_h:
        chunks, assignments = policy.sample_with_modes(state, params.batch_size)
        executed_index = 0
        if policy.behavior in ("consistent", "mode_resample"):
            hits = np.nonzero(assignments == policy.preferred_mode)[0]
            if hits.size:
                executed_index = int(hits[0])
        records.append(InferenceRecord(
            timestep=t,
            chunk_samples=chunks,
            executed_index=executed_index,
            embedding=policy.encode(state) if params.record_embeddings else None,
            frame_ref=f"frames/ep{seed:05d}/t{t:04d}.png" if params.record_frames else None,
        ))
        for step in range(min(k, big_h - t)):
            state = state + chunks[executed_index][step]
            states.append(state.copy())
        t += k
    return RolloutLog(header=header, records=records, label=label_rule(states, params))
