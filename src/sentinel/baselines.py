"""Per-timestep baseline score functions and the shared detector registry.

Every detector, temporal-consistency variants included, reduces to a
nonnegative per-inference-step score, summed into a cumulative series by
`OnlineScorer` and thresholded by the same conformal machinery. This module
holds the non-consistency scores (embedding distance, diffusion-style
losses, output variance), the name registry the CLI and harness select
from, `OnlineScorer`, which scores every requested detector one inference
record at a time, and `score_logs`, the one loop that walks a battery of
logs through it in lockstep, with `score_detectors` / `score_log` as its
one-log cases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .distances import PooledDistances, _min_l2
from .policy import PolicyOracle
from .rollout import InferenceRecord, InvalidLogError, RolloutHeader, RolloutLog, check_next
from .stac import STAC_DETECTORS, OverlapPair, ScoreSeries, extract_overlap

# Detectors that query a reference policy for its denoising noise prediction.
ORACLE_DETECTORS = ("ddpm", "ddpm-temporal", "recon", "recon-temporal")

DETECTOR_NAMES = STAC_DETECTORS + ("mahalanobis",) + ORACLE_DETECTORS + ("outvar",)

# Detectors that score inference step j by comparing records j-1 and j: each
# scores 0 at the first record and needs at least two records.
PAIRWISE_DETECTORS = STAC_DETECTORS + ("ddpm-temporal", "recon-temporal")

# The oracle families' settings, one for every log, read when a scorer is built:
# `ddpm*` averages over NOISE_DRAWS noise draws, `recon*` over DEPTHS.
NOISE_DRAWS = 10
DEPTHS = (5, 10, 25, 50)

# The most chunk rows in one oracle call; 2048 is near the oracle's least time per row.
ORACLE_ROWS = 2048


@dataclass(frozen=True)
class EmbeddingStats:
    """Mean and inverse (ridged) covariance of nominal observation embeddings."""

    mean: np.ndarray
    covariance_inverse: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64).ravel()
        inv = np.asarray(self.covariance_inverse, dtype=np.float64)
        if inv.shape != (mean.shape[0], mean.shape[0]):
            raise ValueError(f"covariance_inverse shape {inv.shape} does not match mean")
        if not np.allclose(inv, inv.T, atol=1e-8 * max(1.0, float(np.abs(inv).max()))):
            raise ValueError("covariance_inverse must be symmetric")
        try:
            np.linalg.cholesky((inv + inv.T) / 2.0)
        except np.linalg.LinAlgError as exc:
            raise ValueError("covariance_inverse must be positive definite") from exc
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance_inverse", (inv + inv.T) / 2.0)

    @classmethod
    def from_mean_cov(cls, mean: np.ndarray, cov: np.ndarray) -> "EmbeddingStats":
        return cls(mean=mean, covariance_inverse=np.linalg.inv(np.asarray(cov, dtype=np.float64)))


def mahalanobis_score(z: np.ndarray, stats: EmbeddingStats) -> float:
    """Mahalanobis distance of an embedding from the nominal statistics."""
    z = np.asarray(z, dtype=np.float64).ravel()
    if z.shape != stats.mean.shape:
        raise ValueError(f"embedding dim {z.shape[0]} != stats dim {stats.mean.shape[0]}")
    diff = z - stats.mean
    return math.sqrt(max(float(diff @ stats.covariance_inverse @ diff), 0.0))


def _renoised(chunk_sets, rng_seeds, schedule, n_draws, steps=None) -> tuple:
    """Per (B, h, d) chunk set, from a generator seeded with its own `rng_seeds[g]` (so a
    set scores the same alone or beside others), n_draws steps, uniform over [0, N) unless
    `steps` fixes them, then all its noise in one call. Returns the (S, R) steps, and the
    (S, R, B, h, d) noise and re-noised sets, sqrt(abar) * chunks + sqrt(1 - abar) * noise."""
    draw_steps = np.empty((len(chunk_sets), n_draws), dtype=np.int64)
    eps = np.empty(draw_steps.shape + chunk_sets[0].shape)
    for g, seed in enumerate(rng_seeds):
        rng = np.random.default_rng(seed)
        draw_steps[g] = rng.integers(0, schedule.n_steps, n_draws) if steps is None else steps
        rng.standard_normal(out=eps[g])
    abar = np.asarray(schedule.alpha_bar)[draw_steps][..., None, None, None]
    noised = np.sqrt(1.0 - abar) * eps
    noised += np.sqrt(abar) * np.stack(chunk_sets)[:, None]
    return draw_steps, eps, noised


def _mean_over_draws(errors: np.ndarray) -> list[float]:
    """Score of each set from its (S, R, B, h, d) errors, squared in place: per
    draw the squared error summed over a chunk and averaged over the B chunks,
    then the mean of the R draws, added in draw order as a Python loop would."""
    losses = np.mean(np.sum(np.square(errors, out=errors), axis=(3, 4)), axis=2)
    return (np.cumsum(losses, axis=1)[:, -1] / losses.shape[1]).tolist()


def _ddpm_loss(chunk_sets, states, oracle, n_noise_draws, rng_seeds) -> list[float]:
    """Denoising loss of each (B, h, d) chunk set, from one oracle call.

    Each of the n_noise_draws (i, eps) pairs (`_renoised`) re-noises the
    whole set to schedule step i and measures the squared error of the
    predicted noise, averaged over chunks and draws. The S * n_noise_draws
    re-noised batches are the leading groups of one call, each under its
    own step; `states` is an (S, sd) stack of one state per set.
    """
    steps, eps, noised = _renoised(chunk_sets, rng_seeds, oracle.schedule, n_noise_draws)
    states = np.repeat(np.asarray(states, dtype=np.float64), n_noise_draws, axis=0)
    eps -= oracle.eps(noised.reshape(-1, *eps.shape[2:]), states, steps.ravel()).reshape(eps.shape)
    return _mean_over_draws(eps)


def _stitched_chunks(prev_record: InferenceRecord, curr_record: InferenceRecord) -> np.ndarray:
    """Executed prefix from the previous step glued to each current overlap;
    `curr_record` may follow `prev_record` (`rollout.check_next`)."""
    k = curr_record.timestep - prev_record.timestep
    h = prev_record.chunk_samples.shape[1]
    prefix = prev_record.executed_chunk()[:k]  # (k, d)
    suffix = curr_record.chunk_samples[:, :h - k]  # (B, h-k, d)
    batch = suffix.shape[0]
    return np.concatenate([np.broadcast_to(prefix, (batch, k, prefix.shape[1])), suffix], axis=1)


def _reverse_stacked(oracle: PolicyOracle, noised: np.ndarray, states,
                     depths: Sequence[int]) -> np.ndarray:
    """Reverse-diffuse each noised[g, r] from schedule step depths[r] in one pass.

    `noised` is (G, D, B, h, d) and is not written into; `states` is a
    (G, sd) stack of one state per group. The updates are deterministic and
    act on every chunk independently, so the stack runs the steps from
    max(depths) down to 0 once, and step j updates in place the rows whose
    depth is at least j. Held depth-major, deepest first, in one contiguous
    (D, G, B, h, d) copy, those are a leading block, one
    (live depths * G, B, h, d) oracle call under the state stack repeated
    per live depth; lockstep scoring (`_push_lockstep`) keeps it within
    ORACLE_ROWS rows. The rows come back as (G, D, B, h, d) in the order of
    `depths`.
    """
    alpha_bar = oracle.schedule.alpha_bar
    order = sorted(range(len(depths)), key=lambda r: -depths[r])
    deepest_first = [int(depths[r]) for r in order]
    x = np.ascontiguousarray(noised.swapaxes(0, 1)[order])
    n_live = 0
    for j in range(deepest_first[0], -1, -1):
        while n_live < len(order) and deepest_first[n_live] >= j:
            n_live += 1
            live_states = np.tile(states, (n_live, 1))
        ab_j = alpha_bar[j]
        ab_prev = alpha_bar[j - 1] if j > 0 else 1.0
        alpha_j = ab_j / ab_prev
        x_live = x[:n_live].reshape((-1,) + x.shape[2:])
        x_live -= (1.0 - alpha_j) / math.sqrt(1.0 - ab_j) * oracle.eps(x_live, live_states, j)
        x_live /= math.sqrt(alpha_j)
    return x.swapaxes(0, 1)[:, np.argsort(order)]


def _reconstruction(chunk_sets, states, oracle, depths, rng_seeds) -> list[float]:
    """Reconstruction error of each (B, h, d) chunk set, all in one reverse pass.

    Each set is re-noised to every depth in `depths` (checked when a scorer
    is built; noise drawn by `_renoised`) and reverse-diffused
    back; the score is the squared error to the set, averaged over chunks
    and depths. `states` is a (G, sd) stack of one state per set.
    """
    _, _, noised = _renoised(chunk_sets, rng_seeds, oracle.schedule, len(depths), depths)
    recons = _reverse_stacked(oracle, noised, states, depths)
    np.subtract(np.stack(chunk_sets)[:, None], recons, out=recons)
    return _mean_over_draws(recons)


def output_variance_score(record: InferenceRecord, header: RolloutHeader) -> float:
    """Mean per-dimension sample variance across the chunk batch.

    Population (n-denominator) convention over the flattened chunk dimensions
    that the header's `mask` keeps. `record` belongs to a log with this header,
    whose rules give it the action dim the mask fits.
    """
    if record.batch_size < 2:
        raise ValueError("output variance needs at least 2 sampled chunks")
    chunks = record.chunk_samples[:, :, header.mask]
    flat = chunks.reshape(record.batch_size, -1)
    return float(np.mean(flat.var(axis=0)))


@dataclass
class DetectorContext:
    """What a detector needs beyond the log that differs from log to log: the
    stats `mahalanobis` reads and the seed of the oracle detectors' noise."""

    embedding_stats: Optional[EmbeddingStats] = None
    seed: int = 0


def _embedding(record: InferenceRecord) -> np.ndarray:
    if record.embedding is None:
        raise ValueError(f"record at t={record.timestep} has no embedding")
    return record.embedding


def embedding_matrix(log: RolloutLog) -> np.ndarray:
    """Per-record embeddings stacked into a (records, dim) matrix."""
    return np.stack([_embedding(record) for record in log.records])


def _step_seed(base: int, j: int):
    return np.random.SeedSequence((int(base), int(j)))


def _stac_scores(names: Sequence[str], pair: OverlapPair,
                 executed_index: int) -> dict[str, float]:
    """Step scores of the STAC detectors in `names`, from one overlap pair.

    `min-l2` takes the executed chunk's overlap as row `executed_index` of
    `pair.prev`. The MMD and KDE-KL detectors read one pooled distance
    matrix: `stac-mmd` takes its median-heuristic bandwidth, and the two KL
    directions one max-eigenvalue bandwidth of the same pooled set.
    """
    steps = {}
    if "min-l2" in names:
        steps["min-l2"] = _min_l2(pair.prev[executed_index], pair.curr)
    if len(steps) == len(names):
        return steps
    dists = PooledDistances(pair.prev, pair.curr, pair.pooled)
    if "stac-mmd" in names:
        steps["stac-mmd"] = dists.mmd_rbf(dists.median_heuristic())
    if "stac-klf" in names or "stac-klr" in names:
        bw = dists.kde_bandwidth_max_eig()
        if "stac-klf" in names:
            steps["stac-klf"] = dists.kl_forward(bw)
        if "stac-klr" in names:
            steps["stac-klr"] = dists.kl_reverse(bw)
    return steps


class OnlineScorer:
    """Scores one rollout as it runs, for any roster of registry detectors.

    Each `push(record)` takes the next inference record and returns, per
    detector, the step score and the cumulative score so far. The scorer
    keeps only the previous record, so the scores known at inference step j
    depend on records j-1 and j alone, and a pairwise detector scores 0 at
    the first record. Each detector family is scored once per step, through
    the same call whichever of its members the roster names:

    - the STAC detectors share one overlap extraction and one pooled
      distance matrix;
    - `ddpm` and `ddpm-temporal` share one oracle call for all their noise
      draws, and `recon` and `recon-temporal` one stacked reverse pass. The
      base member scores the current chunks under the current embedding,
      the `-temporal` member the stitched chunks under the previous one;
    - `mahalanobis` and `outvar` read the current record alone.

    `push` is the one-log case of the step `score_logs` takes over a whole
    battery (`_push_lockstep`). Each detector's scores are the ones it gets
    alone. The oracle detectors query `oracle`, with NOISE_DRAWS and DEPTHS
    as they are when the scorer is built. Building the scorer checks the
    context and the oracle for the roster it names, before any record is
    pushed. `push` refuses a record that breaks the log's rules
    (`rollout.check_next`) with InvalidLogError, whatever the roster, and
    leaves the scorer as it was. That check is made once, as the record is
    pushed; the step reads the header's `mask` and checks nothing again.
    """

    def __init__(self, names: Sequence[str], header: RolloutHeader,
                 ctx: Optional[DetectorContext] = None, oracle: Optional[PolicyOracle] = None):
        self.names = tuple(dict.fromkeys(names))
        for name in self.names:
            if name not in DETECTOR_NAMES:
                raise ValueError(
                    f"unknown detector {name!r}; known: {', '.join(DETECTOR_NAMES)}")
        self.header = header
        self.ctx = ctx or DetectorContext()
        self._stac = [name for name in self.names if name in STAC_DETECTORS]
        self._pairwise = [name for name in self.names if name in PAIRWISE_DETECTORS]
        # The oracle families the roster names: base detector, batched loss, oracle,
        # the loss's per-step parameter, checked here once, and oracle rows per chunk.
        oracle_names = [name for name in self.names if name in ORACLE_DETECTORS]
        if oracle_names and oracle is None:
            raise ValueError("a policy oracle (the oracle argument) is needed by "
                             + ", ".join(oracle_names))
        self._families = []
        if "ddpm" in self.names or "ddpm-temporal" in self.names:
            self._families.append(("ddpm", _ddpm_loss, oracle, NOISE_DRAWS, NOISE_DRAWS))
        if "recon" in self.names or "recon-temporal" in self.names:
            n_steps = oracle.schedule.n_steps
            for depth in DEPTHS:
                if not 1 <= depth < n_steps:
                    raise ValueError(f"depth {depth} outside [1, {n_steps})")
            self._families.append(("recon", _reconstruction, oracle, DEPTHS, len(DEPTHS)))
        if "mahalanobis" in self.names and self.ctx.embedding_stats is None:
            raise ValueError("mahalanobis needs calibrated embedding stats")
        self._cumulative = dict.fromkeys(self.names, 0.0)
        self._first: Optional[InferenceRecord] = None
        self._prev: Optional[InferenceRecord] = None
        self._j = 0

    def push(self, record: InferenceRecord) -> dict[str, tuple[float, float]]:
        """Score the next inference record: {name: (step score, cumulative)}."""
        prev = self._prev
        check_next(self.header, record if prev is None else self._first, prev, record)
        return _push_lockstep({0: (self, record)})[0]

    def _score_own(self, record: InferenceRecord) -> tuple[dict, list]:
        """Score the detectors that read this log alone on `record`, which the log's
        rules let follow the last record, and list the oracle members left to score:
        (family, name, set, state, seed)."""
        names, header, ctx, prev = self.names, self.header, self.ctx, self._prev
        if prev is None:
            steps = dict.fromkeys(self._pairwise, 0.0)  # nothing precedes the first step
        else:
            steps = {}
            if self._stac:
                pair = extract_overlap(prev, record, header)
                steps.update(_stac_scores(self._stac, pair, prev.executed_index))
        members = []
        for family in self._families:
            base, seed = family[0], _step_seed(ctx.seed, self._j)
            if base in names:
                members.append((family, base, record.chunk_samples, _embedding(record), seed))
            if prev is not None and base + "-temporal" in names:
                members.append((family, base + "-temporal", _stitched_chunks(prev, record),
                                _embedding(prev), seed))
        if "mahalanobis" in names:
            steps["mahalanobis"] = mahalanobis_score(_embedding(record), ctx.embedding_stats)
        if "outvar" in names:
            steps["outvar"] = output_variance_score(record, header)
        return steps, members

    def _advance(self, record: InferenceRecord, steps: dict) -> dict[str, tuple[float, float]]:
        """Add a scored step to the running sums and move on past `record`."""
        out = {}
        cumulative = self._cumulative
        for name in self.names:
            value = float(steps[name])
            running = cumulative[name] = cumulative[name] + value
            out[name] = (value, running)
        if self._prev is None:
            self._first = record
        self._prev = record
        self._j += 1
        return out


def _push_lockstep(pushes: dict) -> dict:
    """One inference step over many logs: push each {index: (scorer, record)}.

    Each log scores its own detectors, then each oracle family scores the
    members of every log per chunk-set shape, in calls of as many whole sets
    as ORACLE_ROWS holds (B rows per draw or depth; a larger set goes alone),
    which changes no bit. Returns {index: what `push` returns}. A ValueError
    about one log's record carries its index as `log_index`, and one from an
    oracle call the index of the call's first log; no scorer moves on unless
    every log's step scores.
    """
    steps, calls = {}, {}
    for index, (scorer, record) in pushes.items():
        try:
            steps[index], members = scorer._score_own(record)
        except ValueError as exc:
            exc.log_index = index
            raise
        for family, name, chunks, state, seed in members:
            calls.setdefault((family, chunks.shape), []).append(
                (index, steps[index], name, chunks, state, seed))
    for ((_, loss, oracle, param, draws), (batch, _, _)), members in calls.items():
        per_call = max(1, ORACLE_ROWS // (batch * draws))
        for start in range(0, len(members), per_call):
            indexes, outs, names, sets, states, seeds = zip(*members[start:start + per_call])
            try:  # e.g. an oracle that refuses the call's chunk shape, for every log in it
                values = loss(sets, np.stack(states), oracle, param, seeds)
            except ValueError as exc:
                exc.log_index = indexes[0]
                raise
            for out, name, value in zip(outs, names, values):
                out[name] = value
    return {index: scorer._advance(record, steps[index])
            for index, (scorer, record) in pushes.items()}


def score_logs(names: Sequence[str], logs: Sequence[RolloutLog],
               ctxs: Sequence[Optional[DetectorContext]],
               oracle: Optional[PolicyOracle] = None) -> list[dict[str, ScoreSeries]]:
    """Score a battery of rollouts with several registry detectors, in lockstep.

    The one loop that scores logs: step j pushes record j of every log that
    has one through its `OnlineScorer`, each built with its own context and
    the battery's one `oracle`, in one `_push_lockstep`. Each `RolloutLog`
    checked its records when it was built, so no record is checked again
    here. A pairwise detector refuses a log with fewer than two records, and
    a series that is refused, for a step score that is not finite and
    nonnegative, is named in the error. A ValueError about one log carries
    its `log_index`.
    """
    scorers = []
    for index, (log, ctx) in enumerate(zip(logs, ctxs, strict=True)):
        try:
            for name in names:
                if name in PAIRWISE_DETECTORS and log.n_records < 2:
                    raise InvalidLogError(f"{name} scoring needs at least 2 inference records")
            scorers.append(OnlineScorer(names, log.header, ctx, oracle))
        except ValueError as exc:
            exc.log_index = index
            raise
    pushed = [[] for _ in logs]  # per log, what each push returned
    for j in range(max([log.n_records for log in logs], default=0)):
        live = {index: (scorers[index], log.records[j])
                for index, log in enumerate(logs) if j < log.n_records}
        for index, out in _push_lockstep(live).items():
            pushed[index].append(out)
    battery = []
    for index, (log, scorer) in enumerate(zip(logs, scorers)):
        series = {}
        for name in scorer.names:
            try:
                series[name] = ScoreSeries(
                    timesteps=log.timesteps(), step_scores=[s[name][0] for s in pushed[index]],
                    cumulative=[s[name][1] for s in pushed[index]])
            except ValueError as exc:
                error = ValueError(f"{name}: {exc}")
                error.log_index = index
                raise error from exc
        battery.append(series)
    return battery


def score_detectors(names: Sequence[str], log: RolloutLog, ctx: Optional[DetectorContext] = None,
                    oracle: Optional[PolicyOracle] = None) -> dict[str, ScoreSeries]:
    """Score one rollout with several registry detectors: `score_logs` for one log."""
    return score_logs(names, [log], [ctx], oracle)[0]


def score_log(name: str, log: RolloutLog, ctx: Optional[DetectorContext] = None,
              oracle: Optional[PolicyOracle] = None) -> ScoreSeries:
    """Score one rollout with one registry detector: `score_detectors` for one name."""
    return score_detectors((name,), log, ctx, oracle)[name]
