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
from typing import Optional, Sequence

import numpy as np

from .distances import logsumexp_rows
from .rollout import (InferenceRecord, RolloutHeader, RolloutLabel, RolloutLog,
                      _check_scalar_fields, _json_fields, _scalar)

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
    def default_linear(cls, n_steps: int = 100) -> "NoiseSchedule":
        return cls(tuple(np.linspace(0.9999, 0.02, n_steps)))


class PolicyOracle(abc.ABC):
    """What every detector needs from a policy: a noise predictor and an encoder."""

    schedule: NoiseSchedule

    @abc.abstractmethod
    def eps(self, noised_chunk: np.ndarray, states: np.ndarray, i) -> np.ndarray:
        """Predict the noise inside chunks re-noised to schedule step i.

        `noised_chunk` has shape (G, B, h, action_dim): G groups of B chunks
        each, and each chunk's prediction must not depend on the other rows;
        the array must not be written into. `states` is a (G, sd) stack of G
        states, one per group: chunk noised_chunk[g, b] is conditioned on
        states[g]. `i` is one integer step for every group, or a (G,) integer
        array of one step per group. Returns an array of the same shape, which
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


def _sharpened(weights: np.ndarray, preferred: int, dominance: float) -> np.ndarray:
    if weights.shape[0] == 1:
        return weights.copy()
    out = (1.0 - dominance) * weights / np.delete(weights, preferred).sum()
    out[preferred] = dominance
    return out


def _draw(rng: np.random.Generator, cdf: np.ndarray, size=None):
    """`rng.choice(len(p), p=p, size=size)` given the `cdf` it builds from `p`: the same
    arithmetic on the same one `random` call, so `rng` ends in the same state."""
    return cdf.searchsorted(rng.random(size), side="right")


class SyntheticGmmPolicy(PolicyOracle):
    """State-conditioned GMM policy with switchable runtime behaviors.

    `consistent` commits to one preferred mode per episode (weights fixed),
    `mode_resample` re-draws the preference at every inference step,
    `constant_stall` emits near-zero chunks, and `drift` emits a constant
    offset chunk. The noise-prediction oracle ignores the behavior and
    answers for the nominal mixture.

    The modes and the schedule are fixed once the policy is built: the sampler's
    weights, mode-draw CDFs and mode-mean factors and the oracle's per-step constants
    are computed here.
    """

    def __init__(self, modes: Sequence[GmmMode], horizon: int, action_dim: int,
                 behavior: str = "consistent", seed: int = 0, dominance: float = 0.9,
                 stall_noise: float = 1e-4, drift_step: Optional[Sequence[float]] = None,
                 schedule: Optional[NoiseSchedule] = None):
        _check_policy_args(modes, action_dim, behavior, dominance, drift_step)
        self.modes = list(modes)
        self.horizon = int(horizon)
        self.action_dim = int(action_dim)
        self.behavior = behavior
        self.dominance = float(dominance)
        self.stall_noise = float(stall_noise)
        self.drift_step = (np.zeros(action_dim) if drift_step is None
                           else np.asarray(drift_step, dtype=np.float64).ravel())
        self.schedule = schedule or NoiseSchedule.default_linear()
        self.base_weights = np.array([m.weight for m in self.modes])
        self._stddevs = np.array([m.stddev for m in self.modes])
        self._sharpened = [_sharpened(self.base_weights, m, self.dominance)
                           for m in range(len(self.modes))]  # by preferred mode
        cdfs = [p.cumsum() for p in (self.base_weights, *self._sharpened)]  # as `choice`
        self._base_cdf, *self._sharpened_cdfs = (cdf / cdf[-1] for cdf in cdfs)
        steps = np.arange(self.horizon)  # `_mode_means`'s factors, stacked by mode:
        self._decays = np.stack([m.gain * (1.0 - m.gain) ** steps for m in self.modes])[..., None]
        self._attractors = np.stack([m.attractor for m in self.modes])[:, None, :]
        self._oracle_constants = _gmm_step_constants(self)
        self.reset(np.random.default_rng(seed))

    def reset(self, rng: np.random.Generator) -> None:
        """Start a new episode: take ownership of `rng`, draw the preference."""
        self._rng = rng
        self.preferred_mode = int(_draw(self._rng, self._base_cdf))

    def sample_with_modes(self, state, batch_size: int) -> tuple[np.ndarray, np.ndarray]:
        """Draw batch_size chunks of shape (B, h, action_dim) and their mode assignments.

        A chunk that follows no mode (stall or drift) is assigned -1. Modes are drawn as
        `Generator.choice` draws them, and the mode means are one broadcast.
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
        if self.behavior == "mode_resample":  # a new preference at every inference step
            self.preferred_mode = int(_draw(self._rng, self._base_cdf))
        assignments = _draw(self._rng, self._sharpened_cdfs[self.preferred_mode], batch_size)
        means = self._mode_means(state[None])[:, 0]  # (M, h, d)
        chunks = means[assignments] + noise * self._stddevs[assignments][:, None, None]
        return chunks, assignments

    def _mode_means(self, states: np.ndarray) -> np.ndarray:
        """(M, G, h, d) mean chunk of each mode from each of a (G, d) stack of states,
        an open-loop plan of exponential approach: gain * (1 - gain) ** j * (attractor -
        state) at step j. Following it k steps and re-planning gives its tail, which is
        what keeps nominal rollouts temporally consistent under re-planning."""
        if states.ndim != 2 or states.shape[1] != self.action_dim:
            raise ValueError(f"states must be a (G, {self.action_dim}) stack, got shape {states.shape}")
        return self._decays[:, None] * (self._attractors[:, None] - states[:, None, :])

    def eps(self, noised_chunk, states, i) -> np.ndarray:
        return gmm_exact_eps(self, noised_chunk, states, i)

    def encode(self, observation) -> np.ndarray:
        return np.asarray(observation, dtype=np.float64).ravel().copy()


def _check_policy_args(modes, action_dim: int, behavior: str, dominance: float, drift_step):
    """The rules of `SyntheticGmmPolicy`'s arguments, which a scenario runs too."""
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
    if drift_step is not None and np.size(drift_step) != action_dim:
        raise ValueError("drift_step dimension != action_dim")


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


def _denoise_steps(i, n_steps: int, n_groups: int) -> np.ndarray:
    """Schedule step `i`, one integer for every group or a (G,) integer array
    of one step per group, as a (1,) or (G,) array."""
    steps = np.asarray(i)
    if steps.dtype.kind not in "iu" or steps.ndim > 1 or steps.size == 0:
        raise ValueError(f"denoise step {i!r} is not an integer or a 1-D integer array")
    if steps.ndim == 1 and steps.size != n_groups:
        raise ValueError(f"{steps.size} steps for {n_groups} states")
    lo, hi = (steps.min(), steps.max()) if steps.ndim == 1 else (steps, steps)
    if lo < 0 or hi >= n_steps:
        raise ValueError(f"denoise step {lo if lo < 0 else hi} outside [0, {n_steps})")
    return steps.reshape(-1)


def gmm_exact_eps(policy: SyntheticGmmPolicy, noised_chunk, states, i) -> np.ndarray:
    """Bayes-optimal noise prediction for the nominal mixture.

    Re-noising a GMM draw to schedule step i yields another GMM (means
    scaled by sqrt(abar), per-dimension variances abar*sigma^2 + 1 - abar),
    so the posterior mean over the clean chunk is a responsibility-weighted
    blend of per-mode linear estimates, and the predicted noise follows as
    eps_hat = (x - sqrt(abar) * E[a0 | x]) / sqrt(1 - abar).

    The arguments are those of `PolicyOracle.eps`. Each group gathers its
    step's constants and runs the scalar arithmetic of a call of its own.
    The squared distances and responsibilities are laid out mode-major,
    (M, n), and reduced over the leading mode axis. Below 8 modes numpy sums
    that axis in the order it sums a row of the (n, M) layout, so both give
    the same bits; from 8 modes on it sums a row pairwise, and the two differ
    in the last bits. The per-mode posterior means are built in the buffer of
    the differences, and the prediction in the blend's: nothing is written
    into `noised_chunk`.
    """
    log_weights, step_scalars, step_modes = policy._oracle_constants
    h, d = policy.horizon, policy.action_dim
    x = np.asarray(noised_chunk, dtype=np.float64)
    if x.shape[-2:] != (h, d):
        raise ValueError(f"noised chunk must end in shape ({h}, {d}), got {x.shape}")
    mu = policy._mode_means(np.asarray(states, dtype=np.float64))  # (M, G, h, d)
    n_modes, n_groups = mu.shape[:2]
    if x.ndim < 3 or x.shape[0] != n_groups:
        raise ValueError(f"{n_groups} states need noised chunks of shape "
                         f"({n_groups}, ..., {h}, {d}), got {x.shape}")
    steps = _denoise_steps(i, policy.schedule.n_steps, n_groups)
    lead, v = x.shape[:-2], h * d
    groups = x.reshape(n_groups, -1, v)  # (G, n/G, V)
    mu = mu.reshape(n_modes, n_groups, 1, v)
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
    mode_weights: Optional[tuple[float, ...]] = None  # None = uniform
    gain: float = 0.05
    noise_std: float = 0.01
    dominance: float = 0.9
    stall_noise: float = 1e-4
    drift_step: tuple[float, ...] = (-0.03, 0.03)
    start: tuple[float, ...] = (0.0, 0.0)
    start_jitter: float = 0.05
    goal_radius: float = 0.3
    action_mask: Optional[tuple[bool, ...]] = None  # None = all dimensions included
    task_description: str = DEFAULT_TASK_DESCRIPTION
    task_time_limit: Optional[float] = None  # None = episode_limit * step_duration
    n_denoise_steps: int = 100
    record_embeddings: bool = True
    record_frames: bool = True

    def __post_init__(self):
        _check_scalar_fields(self)
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        self.attractors = tuple(tuple(_scalar(v, "float", f"attractors[{i}][{j}]")
                                      for j, v in enumerate(a))
                                for i, a in enumerate(self.attractors))
        if not self.attractors:
            raise ValueError("need at least one attractor")
        for a in self.attractors:
            if len(a) != self.action_dim:
                raise ValueError("attractor dimension != action_dim")
        if self.mode_weights is None:
            self.mode_weights = tuple([1.0 / len(self.attractors)] * len(self.attractors))
        if len(self.mode_weights) != len(self.attractors):
            raise ValueError("mode_weights length != number of attractors")
        if len(self.start) != self.action_dim:
            raise ValueError(f"start length {len(self.start)} != action_dim {self.action_dim}")
        if self.task_time_limit is None:
            self.task_time_limit = self.episode_limit * self.step_duration
        named = list(vars(self).items())  # each inf or NaN float is refused by its name
        for name, value in named:  # a tuple's entries are appended, so visited too
            if isinstance(value, tuple):
                named += [(f"{name}[{i}]", v) for i, v in enumerate(value)]
            elif isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        # Refuse here geometry no rollout could follow, by the rules of what a run
        # builds: the header, the modes, the policy and its schedule (no policy is built).
        self.header()
        _check_policy_args(self._modes(), self.action_dim, "consistent", self.dominance,
                           self.drift_step)
        NoiseSchedule.default_linear(self.n_denoise_steps)

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

    def _modes(self) -> list[GmmMode]:
        return [GmmMode(weight=w, stddev=self.noise_std, attractor=np.array(a), gain=self.gain)
                for w, a in zip(self.mode_weights, self.attractors)]

    def build_policy(self, behavior: str = "consistent", seed: int = 0) -> SyntheticGmmPolicy:
        return SyntheticGmmPolicy(
            self._modes(), horizon=self.prediction_horizon, action_dim=self.action_dim,
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
                     seed: int = 0) -> RolloutLog:
    """Run one closed-loop episode on the integrator environment.

    At each inference step the policy samples a chunk batch; the executed
    chunk is the first batch row from the currently preferred mode (row 0
    for stall/drift), and the state advances by each executed action in
    turn (one `cumsum`, which adds them in order). Fully reproducible from
    `seed`, which reseeds `policy`, so one policy serves any number of episodes.
    """
    ss = np.random.SeedSequence(seed)
    env_rng, policy_rng = (np.random.default_rng(c) for c in ss.spawn(2))
    policy.reset(policy_rng)

    header = params.header()
    h, k, big_h = params.prediction_horizon, params.execution_horizon, params.episode_limit
    state = np.asarray(params.start, dtype=np.float64) + \
        env_rng.standard_normal(params.action_dim) * params.start_jitter
    states = [state.copy()]
    records = []
    for t in range(0, big_h, k):
        chunks, assignments = policy.sample_with_modes(state, params.batch_size)
        hits = np.flatnonzero(assignments == policy.preferred_mode)  # none for stall/drift
        executed_index = int(hits[0]) if hits.size else 0
        records.append(InferenceRecord(
            timestep=t,
            chunk_samples=chunks,
            executed_index=executed_index,
            embedding=policy.encode(state) if params.record_embeddings else None,
            frame_ref=f"frames/ep{seed:05d}/t{t:04d}.png" if params.record_frames else None,
        ))
        executed = chunks[executed_index][:min(k, big_h - t)]
        path = np.cumsum(np.concatenate([state[None], executed]), axis=0)
        states.extend(path[1:])
        state = path[-1]
    return RolloutLog(header=header, records=records, label=default_goal_label(states, params))
