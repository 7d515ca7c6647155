"""The fast bundled batteries against their recorded reports.

`fixtures/bundled_batteries/<name>/` holds the `report.json` and
`verdicts.csv` that `sentinel eval --config <name>` wrote when scoring still
went through `scipy.special.logsumexp`. `drift` scores `stac-klf`, so it
exercises the KDE log-sum-exp. The rule is the perfbench one: verdicts,
metrics and conformal ranks exact; gammas and terminal scores within rel
1e-12. Re-record with `sentinel eval --config <name> --out <fixture dir>`
(and delete the `scores.svg` it also writes) only for an intended change.
"""

import json
from pathlib import Path

import pytest

from sentinel.cli import _bundled_config
from sentinel.evaluation import BenchmarkConfig, run_benchmark

FIXTURES = Path(__file__).parent / "fixtures" / "bundled_batteries"
REL_TOL = 1e-12


def _close(a: float, b: float) -> bool:
    return a == b or abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def _split_scores(report: dict) -> tuple[dict, dict]:
    """(report without gammas and terminal scores, those floats by detector)."""
    floats = {}
    for name, cal in report["calibration"].items():
        floats[name] = [cal.pop("gamma")] + cal.pop("terminal_scores")
    return report, floats


@pytest.mark.parametrize("name", ["stall", "drift"])
def test_battery_matches_recorded_report(tmp_path, name):
    run_benchmark(BenchmarkConfig.from_json_obj(_bundled_config(name)), out_dir=tmp_path)
    want_dir = FIXTURES / name
    assert ((tmp_path / "verdicts.csv").read_text(encoding="utf-8")
            == (want_dir / "verdicts.csv").read_text(encoding="utf-8"))
    got, got_floats = _split_scores(json.loads((tmp_path / "report.json").read_text()))
    want, want_floats = _split_scores(json.loads((want_dir / "report.json").read_text()))
    assert got == want
    assert got_floats.keys() == want_floats.keys()
    for detector, values in want_floats.items():
        assert len(got_floats[detector]) == len(values), detector
        assert all(_close(a, b) for a, b in zip(got_floats[detector], values)), detector
