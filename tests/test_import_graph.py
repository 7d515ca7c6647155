"""Which third-party modules each entry point loads, each run in a fresh interpreter.

numpy is the one runtime dependency. No `sentinel` command loads scipy: STAC's
pooled distances come from a numpy Gram product, and scipy is a test-only
reference. `import sentinel.cli` imports every module, so a scipy import
anywhere on a command's path fails these tests. No module imports requests.
The http transport imports `urllib.request` and `http.client` inside
`HttpTransport._send`, so `http` loads on the first HTTP request and no other
entry point pays for it.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import sentinel

from conftest import OK_REPLY

SRC = Path(sentinel.__file__).resolve().parents[1]
FIXTURES = Path(__file__).parent / "fixtures"

PRELUDE = """
import json, sys

def loaded():
    return sorted({name.split(".")[0] for name in sys.modules} & {"scipy", "requests", "http"})

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
    """Nor `http`: the mock transport sends nothing."""
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


def test_no_sentinel_command_loads_scipy(tmp_path):
    """synth, stac-mmd calibrate and detect (the pooled distances), and a bundled eval;
    each command exits 0."""
    body = """
import sentinel.cli
commands = {
    "synth": ["synth", "--scenario", "nominal", "--n", "3", "--out", "logs"],
    "calibrate": ["calibrate", "--detector", "stac-mmd", "--logs", "logs/*.sentinel.jsonl",
                  "--delta", "0.5", "--out", "cal.json"],
    "detect": ["detect", "--detector", "stac-mmd", "--calibration", "cal.json",
               "--log", "logs/nominal_0000.sentinel.jsonl", "--emit-series", "series.csv"],
    "eval": ["eval", "--config", "stall", "--out", "stall"],
}
for name, argv in commands.items():
    stages[name] = [sentinel.cli.main(argv)] + loaded()
"""
    assert _loaded_after_each_stage(body, tmp_path) == {
        "synth": [0], "calibrate": [0], "detect": [0], "eval": [0]}


def test_an_http_request_loads_http_but_not_requests(tmp_path, endpoint):
    """One real request to a loopback endpoint; building the transport loads nothing."""
    body = f"""
from sentinel.vlm import HttpTransport
transport = HttpTransport({endpoint.url!r}, "model")
stages["built"] = loaded()
stages["reply"] = transport.request("prompt", [])
stages["request"] = loaded()
"""
    assert _loaded_after_each_stage(body, tmp_path) == {
        "built": [], "reply": OK_REPLY, "request": ["http"]}
    assert len(endpoint.seen) == 1


def test_third_party_imports_are_exactly_the_declared_dependencies():
    """Every top-level module that `src/sentinel` imports, at module level or inside a
    function, outside the standard library and the package itself, is one of
    pyproject.toml's `dependencies`, and each dependency is imported. Each
    distribution here installs a module of its own name."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((SRC.parent / "pyproject.toml").read_text(encoding="utf-8"))
    declared = {re.match(r"[A-Za-z0-9_.-]+", spec).group() for spec in
                pyproject["project"]["dependencies"]}
    imported = set()
    for path in (SRC / "sentinel").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert imported - set(sys.stdlib_module_names) - {"sentinel"} == declared == {"numpy"}
