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
from sentinel.evaluation import combine, failure_verdict, ok_verdict, verdict_from_series
from sentinel.policy import ScenarioConfig, generate_rollout
from sentinel.vlm import (MockTransport, checkpoint_record_indices, ensemble_vote,
                          prompt_from_log, query_monitor)

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
# halfway and at the end. The prompt for a checkpoint strides over the
# frames recorded so far.
checkpoints = checkpoint_record_indices(stalled)
print(f"checkpoint record indices: {checkpoints}")

# Scripted replies stand in for a live endpoint: on pace at the halfway
# checkpoint, unchanged scene at the final one.
replies = [ON_PACE, STALLED]
votes = []
print()
for reply, index in zip(replies, checkpoints):
    prompt = prompt_from_log(stalled, "video_qa", index, nu=2)
    response = query_monitor(prompt, MockTransport(default=reply))
    t = stalled.records[index].timestep
    print(f"checkpoint t={t:3d}: {len(prompt.frames)} frames, "
          f"assessment {response.assessment}")
    votes.append((t, response.assessment))

# At the final checkpoint the three prompt variants can vote. The two
# reference-conditioned variants take auxiliary frames showing what
# success looks like.
final = checkpoints[-1]
goal_refs = ("goal/dock_left.png", "goal/dock_right.png")
responses = [
    query_monitor(prompt_from_log(stalled, "video_qa", final, nu=2),
                  MockTransport(default=STALLED)),
    query_monitor(prompt_from_log(stalled, "video_qa_success_video", final, nu=2,
                                  auxiliary_frames=goal_refs),
                  MockTransport(default=STALLED)),
    query_monitor(prompt_from_log(stalled, "video_qa_goal_images", final, nu=2,
                                  auxiliary_frames=goal_refs),
                  MockTransport(default=ON_PACE)),
]
verdict = ensemble_vote(responses)
print(f"\nensemble votes {verdict.votes} -> {verdict.decision}")

# The combiner unions both detectors: either one flagging is enough.
t_flag, assessment = next((t, a) for t, a in votes if a == "failure")
vlm_verdict = failure_verdict("vlm", t_flag, scenario.step_duration) \
    if assessment == "failure" else ok_verdict("vlm")
overall = combine(stac_verdict, vlm_verdict)
print(f"combined verdict: {overall.decision} from {overall.source} "
      f"at t={overall.detection_timestep}")
