"""Which third-party modules each entry point loads, each run in a fresh interpreter.

scipy is imported only where STAC's pooled distances need it: building an
`OnlineScorer` whose roster names `stac-mmd`, `stac-klf` or `stac-klr` loads
`scipy.spatial.distance` (through `distances._cdist`), and no module of the
package imports scipy at module level. `import sentinel.cli` imports every
module, so a module-level scipy import anywhere fails these tests; a new use
of scipy, such as `scipy.stats.beta` for the FPR distribution given one
calibration set, must be imported inside the function that uses it.
requests is imported by the http transport alone.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import sentinel

SRC = Path(sentinel.__file__).resolve().parents[1]
FIXTURES = Path(__file__).parent / "fixtures"

PRELUDE = """
import json, sys

def loaded():
    return sorted({name.split(".")[0] for name in sys.modules} & {"scipy", "requests"})

stages = {}
"""


def _loaded_after_each_stage(body: str, cwd: Path) -> dict:
    """Run `body` in a fresh interpreter; it fills `stages[name] = loaded()`."""
    script = PRELUDE + body + "\nprint(json.dumps(stages))\n"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", script], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_cli_import_synth_and_mock_vlm_load_neither_scipy_nor_requests(tmp_path):
    body = f"""
import sentinel.cli
stages["import"] = loaded()
sentinel.cli.main(["synth", "--scenario", "nominal", "--n", "1", "--out", "logs"])
stages["synth"] = loaded()
sentinel.cli.main(["vlm", "--log", "logs/nominal_0000.sentinel.jsonl", "--transport", "mock",
                   "--fixtures", {str(FIXTURES / "mock_vlm_ok")!r}])
stages["vlm"] = loaded()
"""
    assert _loaded_after_each_stage(body, tmp_path) == {"import": [], "synth": [], "vlm": []}


def test_scipy_loads_when_a_pooled_distance_scorer_is_built(tmp_path):
    body = """
from sentinel.baselines import OnlineScorer
from sentinel.rollout import RolloutHeader
header = RolloutHeader(action_dim=2, prediction_horizon=4, execution_horizon=2,
                       episode_limit=16, step_duration=0.5, action_mask=(True, True),
                       task_description="reach", task_time_limit=8.0)
OnlineScorer(("min-l2", "outvar"), header)
stages["min-l2"] = loaded()
OnlineScorer(("stac-mmd",), header)
stages["stac-mmd"] = loaded()
stages["kernel"] = "scipy.spatial.distance" in sys.modules
"""
    assert _loaded_after_each_stage(body, tmp_path) == {
        "min-l2": [], "stac-mmd": ["scipy"], "kernel": True}
