"""Failure detection for stochastic action-chunk policies.

Statistical temporal-consistency scoring over overlapping action chunks,
conformal threshold calibration on success-only rollouts, reference baseline
scores, a video-QA task-progression monitor, and a synthetic benchmark
harness, all over a line-delimited rollout log format. Import from the
submodules: `sentinel.baselines.OnlineScorer`, `score_logs` and
`score_log` are the only scoring entry points. Each takes the oracle
detectors' reference policy as one `oracle` argument and a
`DetectorContext` per log for what differs from log to log.
"""

__version__ = "0.1.0"
