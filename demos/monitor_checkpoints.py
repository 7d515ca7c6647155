"""
Video-QA progress monitoring at checkpoints
===========================================

A stalled policy keeps replanning the same small steps, so its action
distributions stay perfectly consistent and the statistical detector sees
nothing wrong. The progress monitor catches it from the frames instead.
This demo uses a scripted transport in place of a live VLM endpoint.
"""

from sentinel.baselines import score_log
from sentinel.calibration import conformal_threshold
from sentinel.evaluation import combine, verdict_at, verdict_from_series
from sentinel.policy import ScenarioConfig, generate_rollout
from sentinel.vlm import MonitorTransport, monitor_log

ON_PACE = """[start of output]
Questions: 1. Is the robot making contact? 2. Is the goal getting closer?
Answers: 1. Yes. 2. Yes, steadily.
Analysis: The robot is partway to the goal region and still moving with
plenty of time budget left.
Overall assessment: ok
[end of output]
"""

STALLED = """[start of output]
Questions: 1. Is the robot making contact? 2. Is the goal getting closer?
Answers: 1. Yes. 2. No, the scene is unchanged between frames.
Analysis: The robot has not advanced since the previous checkpoint and
most of the time budget is gone.
Overall assessment: failure
[end of output]
"""

scenario = ScenarioConfig()
stalled = generate_rollout(scenario.build_policy("constant_stall", seed=31),
                           scenario, seed=31)
print(f"episode outcome: {stalled.label.outcome}")

# The statistical detector, calibrated exactly as in the other demos,
# stays quiet: a stall is temporally consistent.
cal = [generate_rollout(scenario.build_policy("consistent", 500 + i), scenario,
                        seed=500 + i) for i in range(25)]
gamma = conformal_threshold(
    [score_log("stac-mmd", log).terminal for log in cal
     if not log.label.is_failure], delta=0.05).gamma
series = score_log("stac-mmd", stalled)
stac_verdict = verdict_from_series(series, gamma, "stac", scenario.step_duration)
print(f"statistical detector: terminal {series.terminal:.3f} vs "
      f"gamma {gamma:.3f}, verdict {stac_verdict.decision}")

# Checkpoints sit at fixed fractions of the task time limit, by default
# halfway and at the end. At each one monitor_log sends a prompt whose frames
# stride over those recorded so far, parses the reply, and reports the first
# checkpoint that fails. Scripted replies stand in for a live endpoint: on
# pace at the halfway checkpoint, unchanged scene at the final one.
class ScriptedReplies(MonitorTransport):
    """Answers each request with the next of its replies, in order."""

    def __init__(self, *replies):
        super().__init__()
        self.replies = list(replies)

    def _send(self, text, frames):
        return self.replies.pop(0)


checkpoints, t_flag = monitor_log(stalled, ScriptedReplies(ON_PACE, STALLED), nu=2)
print()
for row in checkpoints:
    print(f"checkpoint t={row['timestep']:3d} (record {row['record_index']}, "
          f"{row['elapsed_seconds']:.0f}s): assessment {row['decision']}")

# At the final checkpoint the three prompt variants can vote. The two
# reference-conditioned variants take auxiliary frames showing what
# success looks like.
goal_refs = ("goal/dock_left.png", "goal/dock_right.png")
(final,), _ = monitor_log(
    stalled, ScriptedReplies(STALLED, STALLED, ON_PACE),
    templates=("video_qa", "video_qa_success_video", "video_qa_goal_images"),
    nu=2, auxiliary_frames=goal_refs, fractions=(1.0,))
print(f"\nensemble votes {final['votes']} -> {final['decision']}")

# The combiner unions both detectors: either one flagging is enough.
vlm_verdict = verdict_at("vlm", t_flag, scenario.step_duration)
overall = combine(stac_verdict, vlm_verdict)
print(f"combined verdict: {overall.decision} from {overall.source} "
      f"at t={overall.detection_timestep}")
