"""Temporal consistency scoring over action-chunk overlaps.

Consecutive inference steps predict the same h-k environment steps twice:
the tail of the chunk sampled at t and the head of the chunk sampled at
t+k. Scoring a rollout turns the per-step distance between those two
sampled marginals into a cumulative score that only grows, which is what
makes a single calibrated threshold sufficient for online detection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

# mmd_rbf is also bound here: perfbench's tests check that its tracer wraps a
# function under every name it is bound to, sentinel.stac.mmd_rbf included.
from .distances import mmd_rbf  # noqa: F401
from .rollout import InferenceRecord, RolloutHeader

# The temporal-consistency family of the detector registry, by registry name.
STAC_DETECTORS = ("stac-mmd", "stac-klf", "stac-klr", "min-l2")


@dataclass(frozen=True)
class OverlapPair:
    """The two sampled marginals covering environment steps [t+k, t+h-1].

    `pooled` stacks chunk indices [k, h-1] of every chunk sampled at t (its
    view `prev`) over chunk indices [0, h-k-1] of every chunk sampled at t+k
    (`curr`): a (B_t + B_t+k, (h-k) * d') float64 array over the d' masked
    dimensions, flattened time-major then action-dimension. It is cut from
    checked records, so it is finite and non-empty; nothing checks it again.
    """

    pooled: np.ndarray
    prev: np.ndarray
    curr: np.ndarray


@dataclass
class ScoreSeries:
    """Per-inference-step scores and their running sum, aligned to timesteps."""

    timesteps: list[int]
    step_scores: list[float]
    cumulative: list[float]

    def __post_init__(self):
        n = len(self.timesteps)
        if not (len(self.step_scores) == len(self.cumulative) == n):
            raise ValueError("series fields must have equal lengths")
        running = 0.0
        for j, (step, cum) in enumerate(zip(self.step_scores, self.cumulative)):
            if not (math.isfinite(step) and step >= 0):
                raise ValueError(f"step score at index {j} must be finite and >= 0, got {step}")
            running += step
            if abs(cum - running) > 1e-12 * max(1.0, abs(running)):
                raise ValueError(f"cumulative[{j}] inconsistent with step scores")
        if any(b < a for a, b in zip(self.cumulative, self.cumulative[1:])):
            raise ValueError("cumulative scores must be nondecreasing")

    @property
    def terminal(self) -> float:
        return self.cumulative[-1]

    def to_rows(self) -> list[tuple[int, float, float]]:
        return list(zip(self.timesteps, self.step_scores, self.cumulative))


def extract_overlap(prev: InferenceRecord, curr: InferenceRecord,
                    header: RolloutHeader) -> OverlapPair:
    """Slice two adjacent records down to their shared h-k overlap steps,
    under the header's `mask`.

    `curr` may follow `prev` in a log with this header (`rollout.check_next`),
    so both records' action dims fit the mask.
    """
    k = header.execution_horizon
    h = header.prediction_horizon
    # One copy stacks the overlap steps; the mask then copies only those, contiguously.
    steps = np.concatenate((prev.chunk_samples[:, k:h], curr.chunk_samples[:, 0:h - k]))
    pooled = steps.compress(header.mask, axis=2).reshape(steps.shape[0], -1)
    return OverlapPair(pooled, pooled[:prev.batch_size], pooled[prev.batch_size:])


def detect_online(series: ScoreSeries, gamma: float) -> Optional[int]:
    """First timestep whose cumulative score strictly exceeds gamma, if any."""
    for t, value in zip(series.timesteps, series.cumulative):
        if value > gamma:
            return t
    return None
