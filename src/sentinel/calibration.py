"""Conformal threshold calibration from success-only rollouts.

Terminal cumulative scores of M nominal rollouts determine a threshold
gamma such that a fresh nominal rollout exceeds it with probability at
most delta (marginally over the calibration draw). Small M can push the
required quantile index past M, in which case gamma is +inf and the
detector never fires; callers should surface that as a warning.
"""

from __future__ import annotations

import fractions
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .rollout import _check_scalar_fields, _json_fields, _scalar

DEFAULT_DELTA = 0.05


@dataclass(frozen=True)
class CalibrationResult:
    """Threshold plus the audit trail that produced it."""

    gamma: float
    delta: float
    m: int
    quantile_index: int
    terminal_scores: tuple[float, ...]  # sorted ascending

    def __post_init__(self):
        _check_scalar_fields(self)

    @property
    def is_infinite(self) -> bool:
        return math.isinf(self.gamma)

    def to_json_obj(self) -> dict:
        return {
            "gamma": "inf" if self.is_infinite else self.gamma,
            "delta": self.delta,
            "m": self.m,
            "quantile_index": self.quantile_index,
            "terminal_scores": list(self.terminal_scores),
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "CalibrationResult":
        """The result `obj` holds, refused unless it is `conformal_threshold` of its own scores."""
        kwargs = _json_fields(cls, obj, "calibration result")
        if kwargs.get("gamma") == "inf":
            kwargs["gamma"] = math.inf
        stored = cls(**kwargs)
        if stored != conformal_threshold(stored.terminal_scores, stored.delta):
            raise ValueError(f"gamma {stored.gamma} (m {stored.m}, quantile_index {stored.quantile_index}) "
                             "is not the conformal threshold of its sorted terminal scores and delta")
        return stored


def conformal_threshold(terminal_scores: Sequence[float],
                        delta: float = DEFAULT_DELTA) -> CalibrationResult:
    """Pick gamma as the ceil((M+1)(1-delta))-th smallest terminal score.

    When that rank exceeds M the guarantee cannot be met by any finite
    threshold and gamma is +inf. Ties occupy consecutive ranks (plain order
    statistics). A score that is not a real number is refused, not coerced.
    """
    ordered = tuple(sorted(_scalar(s, "float", f"terminal_scores[{i}]")
                           for i, s in enumerate(terminal_scores)))
    if not ordered:
        raise ValueError("calibration needs at least one terminal score")
    if not all(math.isfinite(s) for s in ordered):
        raise ValueError("terminal scores must be finite")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    m = len(ordered)
    # Exact in delta's shortest decimal: in float, (m + 1) * (1 - 0.7) is 3.0000000000000004.
    quantile_index = math.ceil((m + 1) * (1 - fractions.Fraction(repr(float(delta)))))
    gamma = ordered[quantile_index - 1] if quantile_index <= m else math.inf
    return CalibrationResult(
        gamma=gamma,
        delta=delta,
        m=m,
        quantile_index=quantile_index,
        terminal_scores=ordered,
    )


def _ridge(cov: np.ndarray) -> np.ndarray:
    dim = cov.shape[0]
    lam = 1e-6 * float(np.trace(cov)) / dim
    # A zero-trace covariance (identical embeddings) would leave the matrix
    # singular; the absolute floor keeps downstream inverses finite.
    lam = max(lam, 1e-12)
    return cov + lam * np.eye(dim)


def _mean_ridged_cov(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and ridged ddof-1 covariance of (n, dim) points; one row has zero covariance."""
    if points.shape[0] > 1:
        cov = np.atleast_2d(np.cov(points, rowvar=False, ddof=1))
    else:
        cov = np.zeros((points.shape[1], points.shape[1]))
    return points.mean(axis=0), _ridge(cov)


def leave_trajectory_out_stats(
        embeddings_by_trajectory: Sequence[Sequence[np.ndarray]],
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-trajectory (mean, ridged covariance) fit on all other trajectories.

    Used to calibrate embedding-based scores without letting a trajectory
    see its own statistics.
    """
    groups = [np.atleast_2d(np.asarray(g, dtype=np.float64)) for g in embeddings_by_trajectory]
    if len(groups) < 2:
        raise ValueError("need at least 2 trajectories")
    dims = {g.shape[1] for g in groups}
    if len(dims) != 1:
        raise ValueError(f"inconsistent embedding dimensions: {sorted(dims)}")
    return [_mean_ridged_cov(np.vstack([g for j, g in enumerate(groups) if j != i]))
            for i in range(len(groups))]


def pooled_stats(embeddings_by_trajectory: Sequence[Sequence[np.ndarray]],
                 ) -> tuple[np.ndarray, np.ndarray]:
    """(mean, ridged covariance) over every embedding from every trajectory."""
    groups = [np.atleast_2d(np.asarray(g, dtype=np.float64)) for g in embeddings_by_trajectory]
    if not groups:
        raise ValueError("need at least one trajectory")
    return _mean_ridged_cov(np.vstack(groups))
