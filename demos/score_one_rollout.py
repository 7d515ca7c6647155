"""
Scoring a single rollout for temporal consistency
=================================================

Generates one nominal episode and one erratic episode from the synthetic
scenario, scores both with the MMD temporal-consistency detector, and
prints the per-step score series side by side.
"""

from sentinel.baselines import score_log
from sentinel.policy import ScenarioConfig, generate_rollout

# The default scenario: a 2-D integrator pushed toward one of two goal
# attractors, replanning every 4 steps with 32 sampled chunks per step.
scenario = ScenarioConfig()

# A consistent policy keeps committing to the same mode; a mode_resample
# policy re-picks its mode at every inference step, which is exactly the
# erratic behavior the detector is built to catch.
nominal = generate_rollout(scenario.build_policy("consistent", seed=7),
                           scenario, seed=7)
erratic = generate_rollout(scenario.build_policy("mode_resample", seed=7),
                           scenario, seed=7)
print(f"nominal outcome: {nominal.label.outcome}")
print(f"erratic outcome: {erratic.label.outcome}")

# Score both with the same detector. Each step compares the action
# distribution predicted now against the one predicted one replan ago,
# over the timesteps the two prediction windows share.
series_a = score_log("stac-mmd", nominal)
series_b = score_log("stac-mmd", erratic)

print()
print("timestep   nominal step  nominal cum   erratic step  erratic cum")
for i, t in enumerate(series_a.timesteps):
    print(f"{t:8d}   {series_a.step_scores[i]:12.4f}  {series_a.cumulative[i]:11.4f}"
          f"   {series_b.step_scores[i]:12.4f}  {series_b.cumulative[i]:11.4f}")

# The cumulative score is nondecreasing by construction, so the terminal
# value summarizes the whole episode.
print()
print(f"terminal score, nominal: {series_a.terminal:.4f}")
print(f"terminal score, erratic: {series_b.terminal:.4f}")
ratio = series_b.terminal / max(series_a.terminal, 1e-12)
print(f"erratic / nominal ratio: {ratio:.1f}x")
