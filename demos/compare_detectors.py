"""
Comparing detector variants on one battery
==========================================

Runs five detector variants over the same calibration and test rollouts
and prints how cleanly each one separates erratic failures from successes.
"""

import numpy as np

from sentinel.baselines import DetectorContext, EmbeddingStats, score_log
from sentinel.calibration import conformal_threshold, pooled_stats
from sentinel.policy import ScenarioConfig, generate_rollout

DETECTORS = ("stac-mmd", "stac-klf", "min-l2", "mahalanobis", "outvar")

scenario = ScenarioConfig()


def rollout(behavior, seed):
    return generate_rollout(scenario.build_policy(behavior, seed), scenario, seed=seed)


calibration = [rollout("consistent", 200 + i) for i in range(25)]
calibration = [log for log in calibration if not log.label.is_failure]
test_logs = [rollout("consistent", 400 + j) for j in range(8)]
test_logs += [rollout("mode_resample", 450 + j) for j in range(8)]
labels = [log.label.is_failure for log in test_logs]
print(f"battery: {len(calibration)} calibration successes, "
      f"{labels.count(False)} test successes, {labels.count(True)} test failures")

# Scoring context shared by every variant. The embedding baseline needs
# mean/covariance statistics fit on the calibration embeddings; the
# model-based scores need a reference policy to query, passed as its own
# argument.
embeddings = [np.stack([r.embedding for r in log.records]) for log in calibration]
context = DetectorContext(
    embedding_stats=EmbeddingStats.from_mean_cov(*pooled_stats(embeddings)),
)
oracle = scenario.build_policy("consistent", seed=0)

# Same protocol for each variant: calibrate its own threshold at
# delta=0.05, then flag test episodes whose terminal score exceeds it.
print()
print("detector      gamma     succ mean  fail mean   flags on fail  flags on succ")
for name in DETECTORS:
    cal_terms = [score_log(name, log, context, oracle).terminal for log in calibration]
    gamma = conformal_threshold(cal_terms, delta=0.05).gamma
    terms = np.array([score_log(name, log, context, oracle).terminal for log in test_logs])
    failed = np.array(labels)
    hits = int(np.sum(terms[failed] > gamma))
    false_alarms = int(np.sum(terms[~failed] > gamma))
    print(f"{name:12s}  {gamma:7.3f}   {terms[~failed].mean():9.3f}  "
          f"{terms[failed].mean():9.3f}   {hits:2d} / {failed.sum()}"
          f"        {false_alarms:2d} / {(~failed).sum()}")

# Erratic failures are a home game for the temporal-consistency scores.
# The embedding and variance baselines see the same states and the same
# action spread everywhere, so they have little to latch onto.
