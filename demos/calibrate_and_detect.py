"""
Conformal calibration and online detection
==========================================

Calibrates a detection threshold on success-only rollouts, then runs the
detector online on fresh episodes and reports when (and whether) it fires.
"""

from sentinel.baselines import OnlineScorer, score_log
from sentinel.calibration import conformal_threshold
from sentinel.evaluation import verdict_from_series
from sentinel.policy import ScenarioConfig, generate_rollout
from sentinel.stac import detect_online

scenario = ScenarioConfig()


def rollout(behavior, seed):
    return generate_rollout(scenario.build_policy(behavior, seed), scenario, seed=seed)


# Step 1: collect nominal rollouts and keep the successes. Calibration
# wants scores from episodes that actually look like the deployment
# distribution on a good day.
calibration = [rollout("consistent", 100 + i) for i in range(25)]
calibration = [log for log in calibration if not log.label.is_failure]
terminals = [score_log("stac-mmd", log).terminal for log in calibration]

# Step 2: pick the threshold. With M scores and miss budget delta the
# threshold is the ceil((M+1)(1-delta))-th smallest terminal score, which
# bounds the false-alarm probability on a fresh nominal episode by delta.
result = conformal_threshold(terminals, delta=0.05)
print(f"calibrated on M={result.m} successes at delta={result.delta}")
print(f"threshold gamma = {result.gamma:.4f} "
      f"(order statistic {result.quantile_index} of {result.m})")

# Step 3: run online on fresh episodes. A deployed monitor pushes each
# inference record into an OnlineScorer as the policy emits it, and stops
# the robot at the first step whose cumulative score is strictly above gamma.
print()
print("behavior        outcome   terminal   detection")
for behavior, seed in [("consistent", 900), ("consistent", 901),
                       ("mode_resample", 902), ("mode_resample", 903)]:
    log = rollout(behavior, seed)
    scorer = OnlineScorer(("stac-mmd",), log.header)
    fired_at = None
    for record in log.records:
        _, cumulative = scorer.push(record)["stac-mmd"]
        if cumulative > result.gamma:
            fired_at = record.timestep
            break
    # Offline, detect_online applies the same rule to a whole scored log.
    series = score_log("stac-mmd", log)
    assert detect_online(series, result.gamma) == fired_at
    verdict = verdict_from_series(series, result.gamma, "stac",
                                  log.header.step_duration)
    when = f"t={fired_at} ({verdict.detection_seconds:.1f}s)" if fired_at is not None else "never"
    print(f"{behavior:14s}  {log.label.outcome:8s}  {series.terminal:8.3f}   {when}")

# A verdict carries the same information in the form the benchmark report
# and the CLI use.
print()
print("verdict for the last episode above:", verdict.to_json_obj())
