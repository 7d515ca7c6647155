"""The fast bundled batteries, and a small battery of every detector, against
their recorded reports.

`fixtures/bundled_batteries/<name>/` holds the `report.json` and
`verdicts.csv` that `sentinel eval --config <name>` wrote when scoring still
went through `scipy.special.logsumexp`. `drift` scores `stac-klf`, so it
exercises the KDE log-sum-exp. `all-detectors/` holds the same two files for
`ALL_DETECTORS` below, recorded while every detector was still scored by its
own walk over each log; it is the one pin of the four diffusion-oracle
detectors. The rule is the perfbench one: verdicts, metrics and conformal
ranks exact; gammas and terminal scores within rel 1e-12. Re-record with
`sentinel eval --config <name> --out <fixture dir>` (and delete the
`scores.svg` it also writes) only for an intended change.
"""

import json
from pathlib import Path

import pytest

from sentinel.baselines import DETECTOR_NAMES
from sentinel.cli import _bundled_config
from sentinel.evaluation import BenchmarkConfig, run_benchmark

FIXTURES = Path(__file__).parent / "fixtures" / "bundled_batteries"
REL_TOL = 1e-12

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


def _assert_matches_recorded(config_obj: dict, out_dir: Path, want_dir: Path):
    run_benchmark(BenchmarkConfig.from_json_obj(config_obj), out_dir=out_dir)
    assert ((out_dir / "verdicts.csv").read_text(encoding="utf-8")
            == (want_dir / "verdicts.csv").read_text(encoding="utf-8"))
    got, got_floats = _split_scores(json.loads((out_dir / "report.json").read_text()))
    want, want_floats = _split_scores(json.loads((want_dir / "report.json").read_text()))
    assert got == want
    assert got_floats.keys() == want_floats.keys()
    for detector, values in want_floats.items():
        assert len(got_floats[detector]) == len(values), detector
        assert all(_close(a, b) for a, b in zip(got_floats[detector], values)), detector


@pytest.mark.parametrize("name", ["stall", "drift"])
def test_battery_matches_recorded_report(tmp_path, name):
    _assert_matches_recorded(_bundled_config(name), tmp_path, FIXTURES / name)


def test_all_detectors_match_recorded_report(tmp_path):
    _assert_matches_recorded(ALL_DETECTORS, tmp_path, FIXTURES / "all-detectors")
