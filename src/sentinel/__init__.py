"""Failure detection for stochastic action-chunk policies.

Statistical temporal-consistency scoring over overlapping action chunks,
conformal threshold calibration on success-only rollouts, reference baseline
scores, a video-QA task-progression monitor, and a synthetic benchmark
harness, all over a line-delimited rollout log format.
"""

from .calibration import (CalibrationResult, conformal_threshold, empirical_fpr,
                          leave_trajectory_out_stats, pooled_stats)
from .distances import (BandwidthConfig, SampleSet, kde_log_density, kl_forward,
                        kl_reverse, median_heuristic, kde_bandwidth_max_eig,
                        min_l2, mmd_rbf)
from .rollout import (InferenceRecord, InvalidLogError, LogParseError, RolloutHeader,
                      RolloutLabel, RolloutLog, apply_mask, read_log, write_log)
from .stac import (OverlapPair, ScoreSeries, accumulate_scores, detect_online,
                   extract_overlap)
from .policy import (BEHAVIORS, NoiseSchedule, PolicyOracle, ScenarioConfig,
                     SyntheticGmmPolicy, default_goal_label, generate_rollout,
                     gmm_exact_eps)
from .baselines import (DETECTOR_NAMES, DetectorContext, EmbeddingStats,
                        ddpm_loss_score, mahalanobis_score, make_score_function,
                        output_variance_score, reconstruction_score, score_log,
                        temporal_ddpm_loss_score, temporal_reconstruction_score)
from .vlm import (EnsembleVerdict, HttpTransport, MockTransport, MonitorPrompt,
                  MonitorResponse, MonitorUnavailableError, ResponseParseError,
                  build_prompt, ensemble_vote, parse_response, query_monitor,
                  subsample_frames)
from .evaluation import (BenchmarkConfig, MetricsReport, ScriptedMonitor, Verdict,
                         combine, compute_metrics, run_benchmark)

__version__ = "0.1.0"

__all__ = [
    "BandwidthConfig", "BEHAVIORS", "BenchmarkConfig", "CalibrationResult",
    "DetectorContext", "DETECTOR_NAMES", "EmbeddingStats", "EnsembleVerdict",
    "HttpTransport", "InferenceRecord", "InvalidLogError", "LogParseError",
    "MetricsReport", "MockTransport", "MonitorPrompt", "MonitorResponse",
    "MonitorUnavailableError", "NoiseSchedule", "OverlapPair", "PolicyOracle",
    "ResponseParseError", "RolloutHeader", "RolloutLabel", "RolloutLog",
    "SampleSet", "ScenarioConfig", "ScoreSeries", "ScriptedMonitor",
    "SyntheticGmmPolicy", "Verdict", "accumulate_scores", "apply_mask",
    "build_prompt", "combine", "compute_metrics", "conformal_threshold",
    "ddpm_loss_score", "default_goal_label", "detect_online", "empirical_fpr",
    "ensemble_vote", "extract_overlap", "generate_rollout", "gmm_exact_eps",
    "kde_bandwidth_max_eig", "kde_log_density", "kl_forward", "kl_reverse",
    "leave_trajectory_out_stats", "mahalanobis_score", "make_score_function",
    "median_heuristic", "min_l2", "mmd_rbf", "output_variance_score",
    "parse_response", "pooled_stats", "query_monitor", "read_log",
    "reconstruction_score", "run_benchmark", "score_log",
    "subsample_frames", "temporal_ddpm_loss_score",
    "temporal_reconstruction_score", "write_log",
]
