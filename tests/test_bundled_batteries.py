"""The bundled batteries, and a small battery of every detector, against
their recorded reports.

`fixtures/bundled_batteries/sha256.json` holds the sha256 of the three
artifacts (`report.json`, `verdicts.csv`, `scores.svg`) that `sentinel eval
--config <name>` writes for each bundled battery: the behaviour contract a
refactor keeps byte for byte. Each battery runs once per session, and each
run is also checked against its recorded report.

`fixtures/bundled_batteries/<name>/` holds the `report.json` and
`verdicts.csv` that `sentinel eval --config <name>` wrote: stall and drift
when scoring still went through `scipy.special.logsumexp`, erratic when the
pooled distances still came from scipy's `cdist`. They are tolerance
references, not re-recorded when only score bits move: the numpy Gram-product
distances passed them unedited, and then only the three `report.json` sha256
values were re-recorded. `drift` scores `stac-klf`, so it exercises the KDE
log-sum-exp. `all-detectors/` holds the same two files for
`ALL_DETECTORS` below, recorded while every detector was still scored by its
own walk over each log; with erratic's sha256 it pins the four
diffusion-oracle detectors. The rule is the perfbench one: verdicts, metrics
and conformal ranks exact; gammas and terminal scores within rel 1e-12.
Re-record with `sentinel eval --config <name> --out <fixture dir>` (and
delete the `scores.svg` it also writes), and the sha256 values with it, only
for an intended change.

The tolerance rule is also checked off this CPU's AVX-512 kernels: stall and
drift run again in child processes with numpy's AVX-512 dispatch switched off,
as on a host without AVX-512. Their sha256 values may then differ; their
verdicts, metrics and scores within the rule may not.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sentinel
from sentinel.baselines import DETECTOR_NAMES
from sentinel.cli import _bundled_config
from sentinel.evaluation import BenchmarkConfig, run_benchmark

FIXTURES = Path(__file__).parent / "fixtures" / "bundled_batteries"
REL_TOL = 1e-12
SHA256 = json.loads((FIXTURES / "sha256.json").read_text(encoding="utf-8"))

# The oracle-battery smoke size: 4 records per log, 3 calibration logs.
ALL_DETECTORS = {
    "scenario": {"episode_limit": 16, "gain": 0.2},
    "detectors": list(DETECTOR_NAMES),
    "n_calibration": 3,
    "test_counts": {"consistent": 1, "mode_resample": 1},
    "delta": 0.25,
    "master_seed": 0,
    "sentinel_detector": "stac-mmd",
    "monitor": {"true_positive_rate": 0.95, "false_positive_rate": 0.05,
                "checkpoint_fraction": 0.5},
}


def _close(a: float, b: float) -> bool:
    return a == b or abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def _split_scores(report: dict) -> tuple[dict, dict]:
    """(report without gammas and terminal scores, those floats by detector)."""
    floats = {}
    for name, cal in report["calibration"].items():
        floats[name] = [cal.pop("gamma")] + cal.pop("terminal_scores")
    return report, floats


@pytest.fixture(scope="session")
def bundled_run(tmp_path_factory):
    """`bundled_run(name)`: the output directory of `sentinel eval --config <name>`,
    run on the first request of the session."""
    out_dirs = {}

    def run(name: str) -> Path:
        if name not in out_dirs:
            out_dir = tmp_path_factory.mktemp(name)
            run_benchmark(BenchmarkConfig.from_json_obj(_bundled_config(name)), out_dir=out_dir)
            out_dirs[name] = out_dir
        return out_dirs[name]
    return run


def _assert_matches_recorded(out_dir: Path, want_dir: Path):
    assert ((out_dir / "verdicts.csv").read_text(encoding="utf-8")
            == (want_dir / "verdicts.csv").read_text(encoding="utf-8"))
    got, got_floats = _split_scores(json.loads((out_dir / "report.json").read_text()))
    want, want_floats = _split_scores(json.loads((want_dir / "report.json").read_text()))
    assert got == want
    assert got_floats.keys() == want_floats.keys()
    for detector, values in want_floats.items():
        assert len(got_floats[detector]) == len(values), detector
        assert all(_close(a, b) for a, b in zip(got_floats[detector], values)), detector


@pytest.mark.parametrize("name", sorted(SHA256))
def test_bundled_battery_artifacts_keep_their_sha256(bundled_run, name):
    out_dir = bundled_run(name)
    got = {artifact: hashlib.sha256((out_dir / artifact).read_bytes()).hexdigest()
           for artifact in SHA256[name]}
    assert got == SHA256[name]


@pytest.mark.parametrize("name", ["stall", "drift", "erratic"])
def test_battery_matches_recorded_report(bundled_run, name):
    _assert_matches_recorded(bundled_run(name), FIXTURES / name)


def _avx512_targets() -> str:
    """numpy's AVX-512 dispatch targets that this CPU runs, space-separated:
    what `NPY_DISABLE_CPU_FEATURES` switches off to run as an AVX2 host does.
    Empty on a CPU without them, which then runs its default dispatch."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    return " ".join(target for target in umath.__cpu_dispatch__
                    if (target.startswith("AVX512") or target == "X86_V4")
                    and umath.__cpu_features__.get(target))


@pytest.mark.parametrize("name", ["stall", "drift"])
def test_battery_matches_recorded_report_without_avx512(tmp_path, name):
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=_avx512_targets())
    src = str(Path(sentinel.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "sentinel.cli", "eval", "--config", name,
                           "--out", str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    _assert_matches_recorded(tmp_path, FIXTURES / name)


def test_all_detectors_match_recorded_report(tmp_path):
    run_benchmark(BenchmarkConfig.from_json_obj(ALL_DETECTORS), out_dir=tmp_path)
    _assert_matches_recorded(tmp_path, FIXTURES / "all-detectors")
