"""Tests of the benchmark itself: smoke mode, the correctness gate, the
references and the tracer.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_smoke_mode_passes_schema_and_correctness_gate():
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--smoke"],
                          cwd=workloads.ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = [line for line in proc.stdout.splitlines() if line.startswith("smoke ")]
    assert len(lines) == 2 * len(workloads.WORKLOADS)
    assert all(line.endswith(": ok") for line in lines), lines


def test_benchmark_json_lists_what_the_runs_report():
    spec = json.loads(run.BENCHMARK_JSON.read_text(encoding="utf-8"))
    assert spec["workloads"] == [{"name": name, "why": cls.why}
                                 for name, cls in workloads.WORKLOADS.items()]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [m["name"] for m in spec["per_layer"]] == tracing.per_layer_metric_names()
    assert all(m["unit"] == run.per_layer_units()[m["name"]] for m in spec["per_layer"])


def test_every_workload_has_references_at_the_reference_seeds():
    for name, cls in workloads.WORKLOADS.items():
        for seed in workloads.REF_SEEDS:
            ref, path = cls(seed).reference()
            assert ref is not None, f"no reference for {name} seed {seed}"
            assert set(ref) == {"exact", "close", "sha256"}
            assert workloads.compare(ref, ref) == []


def _fingerprint():
    return {"exact": {"verdicts_csv": "index,decision\n0,ok\n1,failure\n"},
            "close": {"gamma.stac-mmd": [0.125], "terminal_scores.stac-mmd": [0.0, 0.125]},
            "sha256": {}}


def test_compare_allows_last_digit_drift_only_in_scores():
    ref = _fingerprint()
    drift = _fingerprint()
    drift["close"]["gamma.stac-mmd"] = [0.125 * (1 + 1e-13)]
    assert workloads.compare(ref, drift) == []

    moved = _fingerprint()
    moved["close"]["gamma.stac-mmd"] = [0.125 * (1 + 1e-9)]
    assert workloads.compare(ref, moved) == [
        "gamma.stac-mmd differs from the reference beyond rel 1e-12"]

    flipped = _fingerprint()
    flipped["exact"]["verdicts_csv"] = "index,decision\n0,ok\n1,ok\n"
    assert workloads.compare(ref, flipped) == ["verdicts_csv differs from the reference"]


def test_calibration_invariants_reject_degenerate_workloads():
    good = {"gamma": 3.0, "m": 4, "delta": 0.25, "quantile_index": 4,
            "terminal_scores": [0.5, 1.0, 2.0, 3.0]}
    assert workloads.check_calibration("d", good) == []
    assert workloads.check_calibration("d", dict(good, gamma="inf")) == [
        "d: gamma is infinite, so the detector never fires"]
    assert workloads.check_calibration("d", dict(good, quantile_index=3, gamma=2.0))
    assert workloads.check_verdict_kinds(["ok", "ok"])
    assert workloads.check_verdict_kinds(["ok", "failure"]) == []


def test_percentile_interpolates():
    assert tracing.percentile([], 90) == 0.0
    assert tracing.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 50) == 3.0
    assert math.isclose(tracing.percentile(list(range(11)), 90), 9.0)


def test_worker_spans_nest_under_the_submitting_span():
    recorder = tracing.Recorder()
    barrier = threading.Barrier(2, timeout=10)

    def inner():
        barrier.wait()
        return threading.get_ident()

    inner_traced = recorder.wrap(inner, "m.inner")

    def outer():
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(inner_traced) for _ in range(2)]
            return [f.result(timeout=10) for f in futures]

    threads = recorder.wrap(outer, "m.outer")()
    spans = recorder.take()
    outer_span = next(s for s in spans if s.name == "m.outer")
    assert len(set(threads)) == 2
    assert [c.name for c in outer_span.children] == ["m.inner", "m.inner"]
    # The two workers overlap, so the children cover less than their summed time.
    covered = outer_span.duration - outer_span.self_time()
    assert covered <= sum(c.duration for c in outer_span.children) + 1e-9
    table = tracing.aggregate_pass(spans)
    assert table["m.inner"]["calls"] == 2


def test_instrument_reports_missing_names_and_restores_originals(monkeypatch):
    workloads.import_sentinel()
    import sentinel.distances
    import sentinel.stac

    original = sentinel.stac.mmd_rbf
    targets = tracing.TARGETS + (("stac.gone", "sentinel.stac", "no_such_function",
                                  None, None),)
    monkeypatch.setattr(tracing, "TARGETS", targets)
    recorder = tracing.Recorder()
    with tracing.instrument(recorder) as missing:
        assert sentinel.stac.mmd_rbf is not original
        assert sentinel.distances.mmd_rbf is sentinel.stac.mmd_rbf
        sentinel.stac.mmd_rbf([[0.0], [1.0]], [[0.5], [1.5]], 1.0)
    assert missing == ["stac.gone"]
    assert sentinel.stac.mmd_rbf is original
    assert [s.name for s in recorder.take()] == ["distances.mmd_rbf"]


@pytest.mark.parametrize("trace", [False, True])
def test_schema_check_flags_a_failed_pass(trace):
    names = tracing.per_layer_metric_names() if trace else list(run.END_TO_END_UNITS)
    units = run.per_layer_units() if trace else run.END_TO_END_UNITS
    result = {"correct": True, "attempted": 2, "failed": 0,
              "metrics": {n: {"value": 1.0, "unit": units[n]} for n in names}}
    assert run.check_schema(result, trace) == []
    result["failed"] = 1
    assert run.check_schema(result, trace) == ["correctness gate failed"]
