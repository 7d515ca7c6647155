import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sentinel import cli
from sentinel.baselines import DetectorContext, EmbeddingStats, embedding_matrix, score_log
from sentinel.cli import _bundled_config, main
from sentinel.evaluation import detector_source, verdict_from_series
from sentinel.calibration import (CalibrationResult, conformal_threshold,
                                  leave_trajectory_out_stats)
from sentinel.policy import ScenarioConfig, SyntheticGmmPolicy
from sentinel.rollout import LogParseError, read_log, write_log
from sentinel.vlm import MockTransport

from conftest import make_log, v1_text

FIXTURES = Path(__file__).parent / "fixtures"

FAST_SCENARIO = {
    "episode_limit": 16,
    "batch_size": 8,
    "gain": 0.2,
}


def run_cli(argv):
    try:
        code = main([str(a) for a in argv])
    except SystemExit as exc:
        code = exc.code
    return code


@pytest.fixture()
def fast_config(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(FAST_SCENARIO))
    return path


@pytest.fixture(scope="module")
def synth_nominal(tmp_path_factory):
    """Six nominal logs under the fast scenario, shared across tests."""
    root = tmp_path_factory.mktemp("synth")
    config = root / "scenario.json"
    config.write_text(json.dumps(FAST_SCENARIO))
    out = root / "logs"
    code = main(["synth", "--scenario", "nominal", "--n", "6", "--seed", "3",
                 "--out", str(out), "--config", str(config)])
    assert code == 0
    return out, config


class TestSynth:
    def test_manifest_and_files(self, capsys, tmp_path, fast_config):
        out = tmp_path / "logs"
        code = run_cli(["synth", "--scenario", "nominal", "--n", "3",
                        "--seed", "1", "--out", out, "--config", fast_config])
        captured = capsys.readouterr()
        assert code == 0
        manifest = json.loads(captured.out)
        assert manifest["n"] == 3
        assert manifest["behavior"] == "consistent"
        assert len(manifest["files"]) == 3
        assert manifest["seeds"] == [1_000_000, 1_000_001, 1_000_002]
        for name in manifest["files"]:
            assert (out / name).is_file()
        assert manifest["labels"]["success"] + manifest["labels"]["failure"] == 3

    def test_same_seed_same_bytes(self, capsys, tmp_path, fast_config):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            code = run_cli(["synth", "--scenario", "erratic", "--n", "3",
                            "--seed", "7", "--out", out, "--config", fast_config])
            assert code == 0
        capsys.readouterr()
        for name in sorted(p.name for p in a.iterdir()):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_stall_scenario_fails_task(self, capsys, tmp_path, fast_config):
        out = tmp_path / "logs"
        code = run_cli(["synth", "--scenario", "stall", "--n", "2", "--out", out,
                        "--config", fast_config])
        captured = capsys.readouterr()
        assert code == 0
        manifest = json.loads(captured.out)
        assert manifest["labels"] == {"success": 0, "failure": 2}

    def test_unknown_scenario_is_usage_error(self, capsys, tmp_path):
        code = run_cli(["synth", "--scenario", "tornado", "--n", "1",
                        "--out", tmp_path])
        captured = capsys.readouterr()
        assert code == 2
        error = json.loads(captured.err)
        assert error["error"]["type"] == "usage"

    def test_nonpositive_n_rejected(self, capsys, tmp_path):
        code = run_cli(["synth", "--scenario", "nominal", "--n", "0",
                        "--out", tmp_path])
        captured = capsys.readouterr()
        assert code == 2
        assert json.loads(captured.err)["error"]["type"] == "usage"


class TestCalibrate:
    def test_writes_envelope(self, capsys, tmp_path, synth_nominal):
        logs_dir, config = synth_nominal
        out = tmp_path / "cal.json"
        code = run_cli(["calibrate", "--detector", "stac-mmd",
                        "--logs", f"{logs_dir}/*.jsonl", "--delta", "0.4",
                        "--out", out, "--config", config])
        captured = capsys.readouterr()
        assert code == 0
        envelope = json.loads(out.read_text())
        assert envelope["detector"] == "stac-mmd"
        result = CalibrationResult.from_json_obj(envelope["result"])
        assert result.m == 6
        assert not result.is_infinite
        summary = json.loads(captured.out)
        assert summary["gamma"] == pytest.approx(result.gamma)

    def test_small_set_warns_infinite(self, capsys, tmp_path, synth_nominal):
        logs_dir, config = synth_nominal
        out = tmp_path / "cal.json"
        code = run_cli(["calibrate", "--detector", "stac-mmd",
                        "--logs", f"{logs_dir}/*.jsonl", "--delta", "0.05",
                        "--out", out, "--config", config])
        captured = capsys.readouterr()
        assert code == 0
        warning = json.loads(captured.err)
        assert "never flag" in warning["warning"]
        assert json.loads(out.read_text())["result"]["gamma"] == "inf"

    def test_refuses_failure_labeled_logs(self, capsys, tmp_path, fast_config):
        out = tmp_path / "stall_logs"
        run_cli(["synth", "--scenario", "stall", "--n", "2", "--out", out,
                 "--config", fast_config])
        capsys.readouterr()
        code = run_cli(["calibrate", "--detector", "stac-mmd",
                        "--logs", f"{out}/*.jsonl", "--out", tmp_path / "cal.json"])
        captured = capsys.readouterr()
        assert code == 1
        assert json.loads(captured.err)["error"]["type"] == "label"

    def test_empty_glob_errors(self, capsys, tmp_path):
        code = run_cli(["calibrate", "--detector", "stac-mmd",
                        "--logs", f"{tmp_path}/none/*.jsonl",
                        "--out", tmp_path / "cal.json"])
        captured = capsys.readouterr()
        assert code == 1
        assert json.loads(captured.err)["error"]["type"] == "io"

    def test_mahalanobis_on_one_log_names_the_pattern(self, capsys, tmp_path):
        log_path = tmp_path / "logs" / "only.sentinel.jsonl"
        log_path.parent.mkdir()
        write_log(make_log(label="success"), log_path)
        pattern = f"{log_path.parent}/*.jsonl"
        code = run_cli(["calibrate", "--detector", "mahalanobis",
                        "--logs", pattern, "--out", tmp_path / "cal.json"])
        captured = capsys.readouterr()
        assert code == 1
        error = json.loads(captured.err)["error"]
        assert error["type"] == "io"
        assert pattern in error["message"]
        assert "matched 1" in error["message"]
        assert not (tmp_path / "cal.json").exists()

    def test_one_record_log_is_a_located_score_error(self, capsys, tmp_path):
        log_path = tmp_path / "logs" / "one.sentinel.jsonl"
        log_path.parent.mkdir()
        write_log(make_log(n_records=1, label="success"), log_path)
        code = run_cli(["calibrate", "--detector", "stac-mmd",
                        "--logs", f"{log_path.parent}/*.jsonl", "--out", tmp_path / "cal.json"])
        captured = capsys.readouterr()
        assert code == 1
        error = json.loads(captured.err)["error"]
        assert error["type"] == "score"
        assert str(log_path) in error["message"]
        assert not (tmp_path / "cal.json").exists()

    def test_header_int_past_the_float_range_is_a_log_error(self, capsys, tmp_path):
        """Refused at its line as a `log` error, not an OverflowError traceback."""
        log_path = tmp_path / "logs" / "huge.sentinel.jsonl"
        log_path.parent.mkdir()
        write_log(make_log(label="success"), log_path)
        text = log_path.read_text().replace('"step_duration":0.5', '"step_duration":1' + "0" * 400)
        log_path.write_text(text)
        code = run_cli(["calibrate", "--detector", "stac-mmd",
                        "--logs", f"{log_path.parent}/*.jsonl", "--out", tmp_path / "cal.json"])
        captured = capsys.readouterr()
        assert code == 1
        error = json.loads(captured.err)["error"]
        assert error["type"] == "log"
        assert f"{log_path}: line 1: step_duration must be a real number" in error["message"]
        assert not (tmp_path / "cal.json").exists()

    @pytest.mark.parametrize("delta", ["1.5", "0", "-0.1", "nan"])
    def test_delta_outside_unit_interval_is_usage_error(self, capsys, tmp_path, synth_nominal,
                                                         monkeypatch, delta):
        """Refused before a single log is read or scored."""
        logs_dir, config = synth_nominal

        def no_reads(pattern):
            raise AssertionError("logs read before --delta was checked")

        monkeypatch.setattr("sentinel.cli._collect_logs", no_reads)
        out = tmp_path / "cal.json"
        code = run_cli(["calibrate", "--detector", "stac-mmd", "--logs", f"{logs_dir}/*.jsonl",
                        "--delta", delta, "--out", out, "--config", config])
        captured = capsys.readouterr()
        assert code == 2
        error = json.loads(captured.err)["error"]
        assert error["type"] == "usage"
        assert "--delta" in error["message"]
        assert not out.exists()

    def test_mahalanobis_persists_embedding_stats(self, capsys, tmp_path, synth_nominal):
        logs_dir, config = synth_nominal
        out = tmp_path / "cal.json"
        code = run_cli(["calibrate", "--detector", "mahalanobis",
                        "--logs", f"{logs_dir}/*.jsonl", "--delta", "0.4",
                        "--out", out, "--config", config])
        capsys.readouterr()
        assert code == 0
        envelope = json.loads(out.read_text())
        stats = envelope["embedding_stats"]
        assert len(stats["mean"]) == 2
        assert len(stats["covariance"]) == 2

    @pytest.mark.parametrize("detector", ["stac-mmd", "mahalanobis", "ddpm", "recon-temporal"])
    def test_terminal_scores_equal_each_log_scored_alone(self, capsys, tmp_path, synth_nominal,
                                                         detector):
        """The file holds the sorted terminal scores the library gives each log alone,
        at the same --seed: mahalanobis under its leave-one-out stats, the oracle
        detectors under the scenario's consistent policy."""
        logs_dir, config = synth_nominal
        out = tmp_path / "cal.json"
        code = run_cli(["calibrate", "--detector", detector, "--logs", f"{logs_dir}/*.jsonl",
                        "--delta", "0.4", "--seed", "7", "--out", out, "--config", config])
        capsys.readouterr()
        assert code == 0
        logs = [read_log(path) for path in sorted(logs_dir.glob("*.jsonl"))]
        stats = [None] * len(logs)
        if detector == "mahalanobis":
            stats = [EmbeddingStats.from_mean_cov(mu, cov) for mu, cov in
                     leave_trajectory_out_stats([embedding_matrix(log) for log in logs])]
        oracle = ScenarioConfig.from_json_obj(FAST_SCENARIO).build_policy("consistent", seed=0)
        terminals = [score_log(detector, log, DetectorContext(embedding_stats=s, seed=7), oracle
                               ).terminal for log, s in zip(logs, stats)]
        written = json.loads(out.read_text())["result"]["terminal_scores"]
        assert written == sorted(terminals)

    def test_oracle_detector_scores_the_logs_in_lockstep(self, capsys, tmp_path, synth_nominal,
                                                          monkeypatch):
        """One eps call per inference step for all six logs, not one per log per step."""
        logs_dir, config = synth_nominal
        calls = []
        eps = SyntheticGmmPolicy.eps
        monkeypatch.setattr(SyntheticGmmPolicy, "eps",
                            lambda self, *args: calls.append(args) or eps(self, *args))
        code = run_cli(["calibrate", "--detector", "ddpm", "--logs", f"{logs_dir}/*.jsonl",
                        "--delta", "0.4", "--out", tmp_path / "cal.json", "--config", config])
        capsys.readouterr()
        assert code == 0
        n_records = [read_log(path).n_records for path in sorted(logs_dir.glob("*.jsonl"))]
        assert len(n_records) == 6
        assert len(calls) == max(n_records)

    def test_depth_past_a_short_schedule_names_the_first_log(self, capsys, tmp_path,
                                                             synth_nominal):
        logs_dir, _ = synth_nominal
        config = tmp_path / "short.json"
        config.write_text(json.dumps(dict(FAST_SCENARIO, n_denoise_steps=40)))
        out = tmp_path / "cal.json"
        code = run_cli(["calibrate", "--detector", "recon", "--logs", f"{logs_dir}/*.jsonl",
                        "--out", out, "--config", config])
        captured = capsys.readouterr()
        assert code == 1
        error = json.loads(captured.err)["error"]
        assert error["type"] == "score"
        first = sorted(logs_dir.glob("*.jsonl"))[0]
        assert error["message"] == f"{first}: depth 50 outside [1, 40)"
        assert not out.exists()

    def test_oracle_refusing_the_chunk_shape_names_the_first_log(self, capsys, tmp_path):
        """The lockstep oracle call scores both logs at once; its refusal is
        located at the first of them, as a per-log call located it."""
        paths = [tmp_path / "logs" / f"short_{i}.sentinel.jsonl" for i in range(2)]
        paths[0].parent.mkdir()
        for i, path in enumerate(paths):  # horizon 4 where the default policy plans 8
            write_log(make_log(label="success", rng=np.random.default_rng(i)), path)
        out = tmp_path / "cal.json"
        code = run_cli(["calibrate", "--detector", "ddpm", "--logs", f"{paths[0].parent}/*.jsonl",
                        "--out", out])
        captured = capsys.readouterr()
        assert code == 1
        error = json.loads(captured.err)["error"]
        assert error["type"] == "score"
        assert error["message"].startswith(f"{paths[0]}: noised chunk must end in shape (8, 2)")
        assert not out.exists()


class TestDetect:
    @pytest.fixture()
    def calibrated(self, capsys, tmp_path, synth_nominal):
        logs_dir, config = synth_nominal
        cal = tmp_path / "cal.json"
        run_cli(["calibrate", "--detector", "stac-mmd",
                 "--logs", f"{logs_dir}/*.jsonl", "--delta", "0.4",
                 "--out", cal, "--config", config])
        capsys.readouterr()
        return logs_dir, config, cal

    def test_matches_library_composition(self, capsys, tmp_path, fast_config, calibrated):
        logs_dir, config, cal = calibrated
        erratic = tmp_path / "erratic"
        run_cli(["synth", "--scenario", "erratic", "--n", "1", "--seed", "2",
                 "--out", erratic, "--config", fast_config])
        capsys.readouterr()
        log_path = next(erratic.glob("*.jsonl"))
        code = run_cli(["detect", "--detector", "stac-mmd", "--calibration", cal,
                        "--log", log_path, "--config", config])
        captured = capsys.readouterr()
        assert code == 0
        reported = json.loads(captured.out)

        log = read_log(log_path)
        series = score_log("stac-mmd", log, DetectorContext(seed=0))
        gamma = CalibrationResult.from_json_obj(
            json.loads(cal.read_text())["result"]).gamma
        expected = verdict_from_series(series, gamma, detector_source("stac-mmd"),
                                       log.header.step_duration)
        assert reported["decision"] == expected.decision
        if expected.decision == "failure":
            assert reported["detection_timestep"] == expected.detection_timestep
        assert reported["detector"] == "stac-mmd"
        assert reported["gamma"] == pytest.approx(gamma)

    def test_emit_series_round_trips_floats(self, capsys, tmp_path, calibrated):
        logs_dir, config, cal = calibrated
        log_path = sorted(logs_dir.glob("*.jsonl"))[0]
        series_csv = tmp_path / "series.csv"
        code = run_cli(["detect", "--detector", "stac-mmd", "--calibration", cal,
                        "--log", log_path, "--config", config,
                        "--emit-series", series_csv])
        capsys.readouterr()
        assert code == 0
        lines = series_csv.read_text().splitlines()
        assert lines[0] == "timestep,step_score,cumulative"
        log = read_log(log_path)
        series = score_log("stac-mmd", log, DetectorContext(seed=0))
        assert len(lines) == 1 + len(series.timesteps)
        for line, t, s, c in zip(lines[1:], series.timesteps,
                                 series.step_scores, series.cumulative):
            ts, ss, cs = line.split(",")
            assert int(ts) == t
            assert float(ss) == s  # repr round-trip is exact
            assert float(cs) == c

    def test_emit_series_of_one_call_does_not_reach_the_next(self, capsys, tmp_path,
                                                             calibrated):
        """The parser is shared by every call in the process, its defaults are not."""
        logs_dir, config, cal = calibrated
        argv = ["detect", "--detector", "stac-mmd", "--calibration", cal,
                "--log", sorted(logs_dir.glob("*.jsonl"))[0], "--config", config]
        series_csv = tmp_path / "series.csv"
        assert run_cli(argv + ["--emit-series", series_csv]) == 0
        series_csv.unlink()
        assert run_cli(argv) == 0
        capsys.readouterr()
        assert not series_csv.exists()
        assert list(tmp_path.iterdir()) == [cal]

    def test_infinite_header_float_is_a_log_error(self, capsys, tmp_path, calibrated):
        """1e999 reads as inf: refused at line 1, not carried into `detection_seconds`."""
        logs_dir, config, cal = calibrated
        log_path = tmp_path / "inf.sentinel.jsonl"
        text = sorted(logs_dir.glob("*.jsonl"))[0].read_text(encoding="utf-8")
        log_path.write_text(text.replace('"step_duration":0.25', '"step_duration":1e999', 1),
                            encoding="utf-8")
        code = run_cli(["detect", "--detector", "stac-mmd", "--calibration", cal,
                        "--log", log_path, "--config", config])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        error = json.loads(captured.err)["error"]
        assert error == {"type": "log", "message": f"{log_path}: line 1: step_duration must "
                                                   "be finite and > 0"}

    @pytest.mark.parametrize("delta", ["0.4", "0.05"], ids=["finite", "infinite"])
    def test_file_calibrate_wrote_loads(self, capsys, tmp_path, synth_nominal, delta):
        logs_dir, config = synth_nominal
        cal = tmp_path / "cal.json"
        assert run_cli(["calibrate", "--detector", "stac-mmd", "--logs", f"{logs_dir}/*.jsonl",
                        "--delta", delta, "--out", cal, "--config", config]) == 0
        obj = json.loads(cal.read_text())["result"]
        assert CalibrationResult.from_json_obj(obj).to_json_obj() == obj
        assert (obj["gamma"] == "inf") == (delta == "0.05")  # 6 logs: rank 7 > m at 0.05
        capsys.readouterr()
        code = run_cli(["detect", "--detector", "stac-mmd", "--calibration", cal,
                        "--log", sorted(logs_dir.glob("*.jsonl"))[0], "--config", config])
        captured = capsys.readouterr()
        assert code == 0
        assert json.loads(captured.out)["gamma"] == obj["gamma"]

    def test_detector_mismatch_rejected(self, capsys, calibrated):
        logs_dir, config, cal = calibrated
        log_path = sorted(logs_dir.glob("*.jsonl"))[0]
        code = run_cli(["detect", "--detector", "min-l2", "--calibration", cal,
                        "--log", log_path, "--config", config])
        captured = capsys.readouterr()
        assert code == 1
        assert json.loads(captured.err)["error"]["type"] == "config"

    def test_missing_log_errors(self, capsys, calibrated):
        logs_dir, config, cal = calibrated
        code = run_cli(["detect", "--detector", "stac-mmd", "--calibration", cal,
                        "--log", logs_dir / "missing.jsonl", "--config", config])
        captured = capsys.readouterr()
        assert code == 1
        assert json.loads(captured.err)["error"]["type"] == "io"

    @pytest.mark.parametrize("detector", ["stac-mmd", "recon-temporal"])
    def test_one_record_log_is_a_score_error(self, capsys, tmp_path, detector):
        # Nothing precedes a single inference step, so there is no verdict to give.
        cal = tmp_path / "cal.json"
        result = conformal_threshold([0.1, 0.2, 0.3], delta=0.4)
        cal.write_text(json.dumps({"detector": detector, "result": result.to_json_obj()}))
        log_path = tmp_path / "one.sentinel.jsonl"
        write_log(make_log(n_records=1), log_path)
        code = run_cli(["detect", "--detector", detector, "--calibration", cal,
                        "--log", log_path])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        error = json.loads(captured.err)["error"]
        assert error["type"] == "score"
        assert "at least 2 inference records" in error["message"]


class TestFormatV1:
    def test_v1_copies_give_the_same_outputs(self, capsys, tmp_path, synth_nominal):
        """Logs rewritten as format version 1 (arrays as decimal lists) calibrate, detect
        and monitor to the same bytes as the version 2 files `synth` wrote."""
        logs_dir, config = synth_nominal
        erratic = tmp_path / "erratic"
        assert run_cli(["synth", "--scenario", "erratic", "--n", "2", "--seed", "5",
                        "--out", erratic, "--config", config]) == 0
        v2 = sorted(logs_dir.glob("*.jsonl")) + sorted(erratic.glob("*.jsonl"))
        v1_dir = tmp_path / "v1"
        v1_dir.mkdir()
        v1 = []
        for path in v2:
            copy = v1_dir / f"{path.parent.name}-{path.name}"
            copy.write_text(v1_text(path.read_text()))
            assert json.loads(copy.read_text().splitlines()[0])["format_version"] == 1
            assert copy.read_bytes() != path.read_bytes()
            v1.append(copy)
        capsys.readouterr()

        calibrations = []
        for logs in (f"{logs_dir}/*.jsonl", f"{v1_dir}/logs-*.jsonl"):
            cal = tmp_path / f"cal-{len(calibrations)}.json"
            assert run_cli(["calibrate", "--detector", "stac-mmd", "--logs", logs,
                            "--delta", "0.4", "--out", cal, "--config", config]) == 0
            calibrations.append(cal.read_bytes())
        assert calibrations[0] == calibrations[1]
        capsys.readouterr()

        decisions = set()
        for original, copy in zip(v2, v1):
            outputs = []
            for path in (original, copy):
                series = tmp_path / "series.csv"
                assert run_cli(["detect", "--detector", "stac-mmd", "--calibration", cal,
                                "--log", path, "--config", config,
                                "--emit-series", series]) == 0
                detect = capsys.readouterr().out
                assert run_cli(["vlm", "--log", path, "--transport", "mock",
                                "--fixtures", FIXTURES / "mock_vlm_failure"]) == 0
                outputs.append((detect, series.read_bytes(), capsys.readouterr().out))
            assert outputs[0] == outputs[1]
            decisions.add(json.loads(outputs[0][0])["decision"])
        assert decisions == {"ok", "failure"}


class TestEval:
    def _benchmark_config(self, tmp_path, **overrides):
        obj = {
            "scenario": FAST_SCENARIO,
            "detectors": ["stac-mmd", "min-l2"],
            "n_calibration": 6,
            "test_counts": {"consistent": 3, "mode_resample": 3},
            "delta": 0.4,
            "master_seed": 5,
            "sentinel_detector": "stac-mmd",
            "monitor": {"true_positive_rate": 1.0, "false_positive_rate": 0.0},
        }
        obj.update(overrides)
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(obj))
        return path

    def test_runs_battery_and_writes_artifacts(self, capsys, tmp_path):
        config = self._benchmark_config(tmp_path)
        out = tmp_path / "results"
        code = run_cli(["eval", "--config", config, "--out", out])
        captured = capsys.readouterr()
        assert code == 0
        report = json.loads(captured.out)
        assert set(report["metrics"]) >= {"stac-mmd", "min-l2", "vlm", "sentinel"}
        assert (out / "report.json").is_file()
        assert (out / "verdicts.csv").is_file()
        assert (out / "scores.svg").is_file()

    def test_pretty_prints_table(self, capsys, tmp_path):
        config = self._benchmark_config(tmp_path)
        code = run_cli(["eval", "--config", config, "--out", tmp_path / "r", "--pretty"])
        captured = capsys.readouterr()
        assert code == 0
        assert "detector" in captured.out
        assert "sentinel" in captured.out
        assert "tpr" in captured.out

    def test_bundled_names_resolve(self):
        for name in ("erratic", "stall", "drift", "erratic.json"):
            assert _bundled_config(name) is not None
        assert _bundled_config("imaginary") is None

    def test_unknown_config_errors(self, capsys, tmp_path):
        code = run_cli(["eval", "--config", "imaginary", "--out", tmp_path])
        captured = capsys.readouterr()
        assert code == 1
        assert json.loads(captured.err)["error"]["type"] == "config"

    def test_monitor_without_frames_is_config_error(self, capsys, tmp_path, monkeypatch):
        """The monitor reads frame references: refused before any rollout is generated."""
        def no_rollouts(*args, **kwargs):
            raise AssertionError("rollout generated before the config was checked")

        monkeypatch.setattr("sentinel.evaluation.generate_rollout", no_rollouts)
        config = self._benchmark_config(tmp_path,
                                        scenario=dict(FAST_SCENARIO, record_frames=False))
        code = run_cli(["eval", "--config", config, "--out", tmp_path / "r"])
        captured = capsys.readouterr()
        assert code == 1
        error = json.loads(captured.err)["error"]
        assert error["type"] == "config"
        assert "record_frames" in error["message"]
        assert not (tmp_path / "r").exists()

    def test_checkpoint_at_t0_is_config_error(self, capsys, tmp_path, monkeypatch):
        """A monitor checkpoint that falls on record 0 (t = 0) of the default scenario
        is refused before any rollout is generated, not after the battery is scored."""
        def no_rollouts(*args, **kwargs):
            raise AssertionError("rollout generated before the config was checked")

        monkeypatch.setattr("sentinel.evaluation.generate_rollout", no_rollouts)
        config = self._benchmark_config(tmp_path, scenario={},
                                        monitor={"checkpoint_fraction": 0.06})
        code = run_cli(["eval", "--config", config, "--out", tmp_path / "r"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        error = json.loads(captured.err)["error"]
        assert error["type"] == "config"
        assert "checkpoint_fraction" in error["message"]
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("field, value", [
        ("delta", 1.5), ("delta", 0), ("delta", "x"), ("delta", True),
        ("master_seed", "a"), ("master_seed", -1), ("master_seed", 1.5),
        ("n_calibration", 6.5), ("test_counts", [1]),
        ("test_counts", {"consistent": 2.5}), ("test_counts", {"consistent": "3"}),
    ])
    def test_invalid_field_is_config_error(self, capsys, tmp_path, field, value):
        """Refused when the config is built, before any rollout is generated."""
        config = self._benchmark_config(tmp_path, **{field: value})
        code = run_cli(["eval", "--config", config, "--out", tmp_path / "r"])
        captured = capsys.readouterr()
        assert code == 1
        error = json.loads(captured.err)["error"]
        assert error["type"] == "config"
        assert field in error["message"]
        assert not (tmp_path / "r").exists()


class TestVlm:
    def test_mock_failure_fixture_flags(self, capsys, synth_nominal):
        logs_dir, config = synth_nominal
        log_path = sorted(logs_dir.glob("*.jsonl"))[0]
        code = run_cli(["vlm", "--log", log_path, "--transport", "mock",
                        "--fixtures", FIXTURES / "mock_vlm_failure"])
        captured = capsys.readouterr()
        assert code == 0
        verdict = json.loads(captured.out)
        assert verdict["decision"] == "failure"
        assert "detection_timestep" in verdict
        assert len(verdict["checkpoints"]) >= 1
        # Timing goes to stderr; the result on stdout is byte-stable.
        assert "mean_latency_seconds" not in verdict
        timing = json.loads(captured.err)["timing"]
        assert timing["mean_latency_seconds"] >= 0.0
        again = run_cli(["vlm", "--log", log_path, "--transport", "mock",
                         "--fixtures", FIXTURES / "mock_vlm_failure"])
        assert again == 0
        assert capsys.readouterr().out == captured.out

    def test_checkpoint_at_t0_is_log_error(self, capsys, tmp_path, monkeypatch):
        """Half of a 1.5 s time limit is under the first executed chunk's 4 * 0.25 s, so
        the default 0.5 checkpoint would fall on record 0, at t = 0: the log is refused,
        naming the fraction, k * dt and the limit, before any monitor request."""
        config = tmp_path / "scenario.json"
        config.write_text(json.dumps(
            {"episode_limit": 8, "execution_horizon": 4, "task_time_limit": 1.5}))
        assert run_cli(["synth", "--scenario", "nominal", "--n", "1",
                        "--out", tmp_path / "logs", "--config", config]) == 0
        capsys.readouterr()

        def no_request(*args):
            raise AssertionError("monitor queried before the log was checked")

        monkeypatch.setattr(MockTransport, "_send", no_request)
        log_path = next((tmp_path / "logs").glob("*.jsonl"))
        code = run_cli(["vlm", "--log", log_path, "--transport", "mock",
                        "--fixtures", FIXTURES / "mock_vlm_failure"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        error = json.loads(captured.err)["error"]
        assert error == {"type": "log", "message": (
            f"{log_path}: checkpoint_fraction 0.5 puts the checkpoint on record 0, at t = 0: "
            "0.5 of the 1.5 s time limit is under k * dt = 1.0 s")}

    def test_log_with_no_record_after_t0_is_log_error(self, capsys, tmp_path, monkeypatch):
        """A one-record log (a truncated episode) ends at t = 0, where no checkpoint can
        make a prompt: it is refused as a log error before any monitor request."""
        log_path = tmp_path / "one.sentinel.jsonl"
        write_log(make_log(n_records=1), log_path)

        def no_request(*args):
            raise AssertionError("monitor queried before the log was checked")

        monkeypatch.setattr(MockTransport, "_send", no_request)
        code = run_cli(["vlm", "--log", log_path, "--transport", "mock",
                        "--fixtures", FIXTURES / "mock_vlm_failure"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == {"type": "log", "message": (
            f"{log_path}: the log has no record after t = 0: no checkpoint can make a prompt")}

    def test_mock_ok_fixture_passes(self, capsys, synth_nominal):
        logs_dir, config = synth_nominal
        log_path = sorted(logs_dir.glob("*.jsonl"))[0]
        code = run_cli(["vlm", "--log", log_path, "--transport", "mock",
                        "--fixtures", FIXTURES / "mock_vlm_ok"])
        captured = capsys.readouterr()
        assert code == 0
        verdict = json.loads(captured.out)
        assert verdict["decision"] == "ok"
        assert "detection_timestep" not in verdict
        assert all(c["votes"] == ["ok"] for c in verdict["checkpoints"])

    def test_ensemble_with_aux_votes_all_templates(self, capsys, synth_nominal):
        logs_dir, config = synth_nominal
        log_path = sorted(logs_dir.glob("*.jsonl"))[0]
        code = run_cli(["vlm", "--log", log_path, "--transport", "mock",
                        "--fixtures", FIXTURES / "mock_vlm_failure", "--ensemble",
                        "--aux-frames", "ref0.png", "ref1.png"])
        captured = capsys.readouterr()
        assert code == 0
        verdict = json.loads(captured.out)
        assert all(len(c["votes"]) == 3 for c in verdict["checkpoints"])
        assert verdict["decision"] == "failure"

    def test_aux_frames_of_one_call_do_not_reach_the_next(self, capsys, synth_nominal):
        logs_dir, config = synth_nominal
        argv = ["vlm", "--log", sorted(logs_dir.glob("*.jsonl"))[0], "--transport", "mock",
                "--fixtures", FIXTURES / "mock_vlm_ok", "--template", "video_qa_goal_images"]
        assert run_cli(argv + ["--aux-frames", "ref0.png", "ref1.png"]) == 0
        capsys.readouterr()
        assert run_cli(argv) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "usage"
        assert "--aux-frames" in error["message"]

    @pytest.mark.parametrize("index", [["reply.txt"], {"_default": 5}],
                             ids=["list", "non-string-name"])
    def test_malformed_fixture_index_is_io_error(self, capsys, tmp_path, synth_nominal, index):
        logs_dir, config = synth_nominal
        log_path = sorted(logs_dir.glob("*.jsonl"))[0]
        (tmp_path / "index.json").write_text(json.dumps(index))
        code = run_cli(["vlm", "--log", log_path, "--transport", "mock",
                        "--fixtures", tmp_path])
        captured = capsys.readouterr()
        assert code == 1
        error = json.loads(captured.err)["error"]
        assert error["type"] == "io"
        assert str(tmp_path / "index.json") in error["message"]

    @pytest.mark.parametrize("nu", ["0", "-2"])
    def test_nonpositive_nu_is_usage_error(self, capsys, synth_nominal, monkeypatch, nu):
        """Refused before the log or the fixtures are read."""
        logs_dir, config = synth_nominal

        def no_reads(path):
            raise AssertionError("log read before --nu was checked")

        monkeypatch.setattr("sentinel.cli._read_log_or_fail", no_reads)
        log_path = sorted(logs_dir.glob("*.jsonl"))[0]
        code = run_cli(["vlm", "--log", log_path, "--transport", "mock",
                        "--fixtures", FIXTURES / "mock_vlm_ok", "--nu", nu])
        captured = capsys.readouterr()
        assert code == 2
        error = json.loads(captured.err)["error"]
        assert error["type"] == "usage"
        assert "--nu" in error["message"]

    @pytest.mark.parametrize("timeout", ["0", "-1", "nan", "inf"])
    def test_timeout_not_finite_and_positive_is_usage_error(self, capsys, tmp_path, monkeypatch,
                                                            timeout):
        """Refused before the log is read or a transport is built, so no request is sent."""
        def no_reads(path):
            raise AssertionError("log read before --timeout was checked")

        monkeypatch.setattr("sentinel.cli._read_log_or_fail", no_reads)
        code = run_cli(["vlm", "--log", tmp_path / "x.sentinel.jsonl", "--transport", "http",
                        "--url", "http://localhost:1", "--model", "m", f"--timeout={timeout}"])
        captured = capsys.readouterr()
        assert code == 2
        error = json.loads(captured.err)["error"]
        assert error["type"] == "usage"
        assert "--timeout" in error["message"]

    @pytest.mark.parametrize("argv, flag", [
        (["--transport", "mock"], "--fixtures"),
        (["--transport", "http", "--url", "http://localhost:1"], "--model"),
        (["--transport", "mock", "--fixtures", FIXTURES / "mock_vlm_ok", "--ensemble"],
         "--aux-frames"),
    ], ids=["mock-without-fixtures", "http-without-model", "variants-without-aux-frames"])
    def test_flag_required_by_the_transport_or_template(self, capsys, tmp_path, argv, flag):
        """A usage error, raised before the log (here a missing one) is read."""
        code = run_cli(["vlm", "--log", tmp_path / "missing.sentinel.jsonl"] + argv)
        captured = capsys.readouterr()
        assert code == 2
        error = json.loads(captured.err)["error"]
        assert error["type"] == "usage"
        assert flag in error["message"]

    def test_endpoint_url_urllib_refuses_is_monitor_error(self, capsys, tmp_path, monkeypatch):
        """A URL with no scheme is refused before any connection is made, as a monitor
        fault: the exit is 1 with "type": "monitor", not the raw exception's name."""
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("SENTINEL_VLM_API_KEY", "test-key")
        log = make_log()
        write_log(log, tmp_path / "x.sentinel.jsonl")
        (tmp_path / "frames").mkdir()
        for record in log.records:
            (tmp_path / record.frame_ref).write_bytes(b"png")
        code = run_cli(["vlm", "--log", "x.sentinel.jsonl", "--transport", "http",
                        "--url", "notaurl", "--model", "m"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == {
            "type": "monitor", "message": "cannot send to 'notaurl': unknown url type: 'notaurl'"}

    def test_missing_frame_file_is_a_located_monitor_error(self, capsys, tmp_path, monkeypatch):
        """A log whose frame files were never written, as `synth` leaves it, fails as a
        monitor fault naming the first frame's path, before any connection is made."""
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("SENTINEL_VLM_API_KEY", "test-key")
        log = make_log()
        write_log(log, tmp_path / "x.sentinel.jsonl")
        code = run_cli(["vlm", "--log", "x.sentinel.jsonl", "--transport", "http",
                        "--url", "http://127.0.0.1:9/v1/chat", "--model", "m"])
        captured = capsys.readouterr()
        assert code == 1
        error = json.loads(captured.err)["error"]
        assert error["type"] == "monitor"
        assert re.fullmatch(r"cannot read frame '[^']+\.png': No such file or directory",
                            error["message"])


class TestParserBuiltOnce:
    """`build_parser` builds the command tree on the first `main` call of a process and
    every later call parses with it; nothing one call parses reaches the next."""

    def _synth(self, out, config) -> list:
        return ["synth", "--scenario", "nominal", "--n", "1", "--out", out, "--config", config]

    def test_parser_is_constructed_once_for_many_calls(self, capsys, tmp_path, fast_config,
                                                       monkeypatch):
        progs = []

        class CountingParser(cli._Parser):
            def __init__(self, *args, **kwargs):
                progs.append(kwargs.get("prog"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(cli, "_Parser", CountingParser)
        cli.build_parser.cache_clear()
        try:
            assert run_cli(self._synth(tmp_path / "a", fast_config)) == 0
            built = len(progs)
            assert run_cli(["synth", "--no-such-flag"]) == 2
            assert run_cli(self._synth(tmp_path / "b", fast_config)) == 0
            assert run_cli(["detect"]) == 2
        finally:
            cli.build_parser.cache_clear()  # the next call builds from the real class
        capsys.readouterr()
        assert progs.count("sentinel") == 1
        assert len(progs) == built  # the root and one parser per subcommand, once

    def test_usage_error_then_good_call_exit_2_then_0(self, capsys, tmp_path, fast_config):
        assert run_cli(["synth", "--scenario", "nominal", "--n", "1"]) == 2
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "usage"
        assert run_cli(self._synth(tmp_path / "logs", fast_config)) == 0
        assert json.loads(capsys.readouterr().out)["n"] == 1

    def test_command_patched_after_the_first_build_is_the_one_that_runs(
            self, capsys, tmp_path, fast_config, monkeypatch):
        """`main` looks each command up by name when it runs, so a wrapper put in its
        place (as a tracer does) is called, though the parser was built before."""
        assert run_cli(self._synth(tmp_path / "a", fast_config)) == 0
        calls = []
        real = cli.cmd_synth
        monkeypatch.setattr(cli, "cmd_synth", lambda args: calls.append(args.out) or real(args))
        assert run_cli(self._synth(tmp_path / "b", fast_config)) == 0
        capsys.readouterr()
        assert calls == [str(tmp_path / "b")]


def _scenario_config_error(capsys, tmp_path, command, field, value) -> str:
    """Run `synth` or `eval` on the fast scenario with `field` set to `value`;
    return the message of the `config` error it must exit with, before any output."""
    scenario = dict(FAST_SCENARIO, **{field: value})
    path = tmp_path / "config.json"
    out = tmp_path / "out"
    if command == "synth":
        path.write_text(json.dumps(scenario))
        argv = ["synth", "--scenario", "nominal", "--n", "1", "--out", out, "--config", path]
    else:
        path.write_text(json.dumps({"scenario": scenario, "detectors": ["min-l2"],
                                    "n_calibration": 2, "test_counts": {"consistent": 1},
                                    "sentinel_detector": "min-l2"}))
        argv = ["eval", "--config", path, "--out", out]
    code = run_cli(argv)
    captured = capsys.readouterr()
    assert code == 1
    error = json.loads(captured.err)["error"]
    assert error["type"] == "config"
    assert not out.exists()
    return error["message"]


class TestErrorContract:
    def test_unknown_flag(self, capsys):
        code = run_cli(["detect", "--bogus"])
        captured = capsys.readouterr()
        assert code == 2
        error = json.loads(captured.err)
        assert error["error"]["type"] == "usage"

    @pytest.mark.parametrize("argv", [
        ["eval", "--config", "stall"],
        ["synth", "--scenario", "nominal", "--n", "1"],
    ])
    def test_jobs_flag_refused(self, capsys, tmp_path, argv):
        out = tmp_path / "out"
        code = run_cli(argv + ["--out", out, "--jobs", "2"])
        captured = capsys.readouterr()
        assert code == 2
        error = json.loads(captured.err)["error"]
        assert error["type"] == "usage"
        assert "--jobs" in error["message"]
        assert not out.exists()

    @pytest.mark.parametrize("envelope", [
        [{"detector": "stac-mmd"}],
        {"detector": "stac-mmd"},
        {"detector": "stac-mmd", "result": {"gamma": 1.0, "delta": 0.05, "m": 20}},
        {"detector": "stac-mmd",
         "result": dict(conformal_threshold([0.1, 0.2, 0.3], delta=0.4).to_json_obj(), fpr=0)},
    ], ids=["not-an-object", "no-result", "result-missing-keys", "result-unknown-key"])
    def test_malformed_calibration_file(self, capsys, tmp_path, synth_nominal, envelope):
        logs_dir, config = synth_nominal
        cal = tmp_path / "cal.json"
        cal.write_text(json.dumps(envelope))
        log_path = sorted(logs_dir.glob("*.jsonl"))[0]
        code = run_cli(["detect", "--detector", "stac-mmd", "--calibration", cal,
                        "--log", log_path, "--config", config])
        captured = capsys.readouterr()
        assert code == 1
        error = json.loads(captured.err)["error"]
        assert error["type"] == "config"
        assert str(cal) in error["message"]

    @pytest.mark.parametrize("changes", [
        {"gamma": float("nan")},  # written as NaN, which would make detect print invalid JSON
        {"gamma": -1.0, "quantile_index": 99},  # fires at t=0 if trusted
    ], ids=["gamma-nan", "gamma-not-its-rank-statistic"])
    def test_calibration_file_that_breaks_the_conformal_rank(self, capsys, tmp_path,
                                                             synth_nominal, changes):
        logs_dir, config = synth_nominal
        obj = conformal_threshold([0.1, 0.2, 0.3], delta=0.4).to_json_obj()
        assert obj["m"] == 3
        obj.update(changes)
        cal = tmp_path / "cal.json"
        cal.write_text(json.dumps({"detector": "stac-mmd", "result": obj}))
        log_path = sorted(logs_dir.glob("*.jsonl"))[0]
        code = run_cli(["detect", "--detector", "stac-mmd", "--calibration", cal,
                        "--log", log_path, "--config", config])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        error = json.loads(captured.err)["error"]
        assert error["type"] == "config"
        assert str(cal) in error["message"]

    @pytest.mark.parametrize("changes, message", [
        ({"delta": "0.4"}, "delta must be a real number, got '0.4'"),
        ({"terminal_scores": ["0.1", "0.2", "0.3"]},
         "terminal_scores[0] must be a real number, got '0.1'"),
        ({"m": 3.9}, "m must be an integer, got 3.9"),
        ({"embedding_stats": {"mean": ["0.1", "0.2"], "covariance": [[1.0, 0.0], [0.0, 1.0]]}},
         "embedding_stats.mean[0] must be a real number, got '0.1'"),
        ({"embedding_stats": {"mean": [0.1, 0.2], "covariance": [[1.0, 0.0], [0.0, True]]}},
         "embedding_stats.covariance[1][1] must be a real number, got True"),
    ], ids=["delta-str", "terminal-scores-str", "m-float", "stats-mean-str",
            "stats-covariance-bool"])
    def test_calibration_field_of_wrong_type_is_refused_not_coerced(self, capsys, tmp_path,
                                                                     synth_nominal, changes,
                                                                     message):
        """Each file would pass the conformal check if its values were coerced."""
        logs_dir, config = synth_nominal
        obj = conformal_threshold([0.1, 0.2, 0.3], delta=0.4).to_json_obj()
        envelope = {"detector": "stac-mmd", "result": obj}
        for key, value in changes.items():  # embedding_stats sits beside the result
            (envelope if key == "embedding_stats" else obj)[key] = value
        cal = tmp_path / "cal.json"
        cal.write_text(json.dumps(envelope))
        code = run_cli(["detect", "--detector", "stac-mmd", "--calibration", cal,
                        "--log", sorted(logs_dir.glob("*.jsonl"))[0], "--config", config])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        error = json.loads(captured.err)["error"]
        assert error["type"] == "config"
        assert str(cal) in error["message"]
        assert f"malformed calibration file: ValueError: {message}" in error["message"]

    @pytest.mark.parametrize("command, text", [
        ("eval", "{bad"),
        ("synth", "{bad"),
        ("detect", "{bad"),
        ("eval", "[1, 2]"),
        ("synth", "5"),
    ], ids=["eval-not-json", "synth-not-json", "calibration-not-json", "eval-list",
            "synth-scalar"])
    def test_json_file_that_is_not_an_object(self, capsys, tmp_path, synth_nominal,
                                             command, text):
        logs_dir, config = synth_nominal
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        out = tmp_path / "out"
        argv = {
            "eval": ["eval", "--config", bad, "--out", out],
            "synth": ["synth", "--scenario", "nominal", "--n", "1", "--out", out,
                      "--config", bad],
            "detect": ["detect", "--detector", "stac-mmd", "--calibration", bad,
                       "--log", sorted(logs_dir.glob("*.jsonl"))[0], "--config", config],
        }[command]
        code = run_cli(argv)
        captured = capsys.readouterr()
        assert code == 1
        error = json.loads(captured.err)["error"]
        assert error["type"] == "config"
        assert str(bad) in error["message"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["calibrate", "detect"])
    @pytest.mark.parametrize("text", [None, "{bad"], ids=["missing", "not-json"])
    def test_config_is_loaded_before_any_log_is_read(self, capsys, tmp_path, command, text):
        """A malformed log beside a bad --config: the config is refused first."""
        (tmp_path / "bad.sentinel.jsonl").write_text("not a log\n")
        config = tmp_path / "scenario.json"
        if text is not None:
            config.write_text(text)
        cal = tmp_path / "cal.json"
        cal.write_text(json.dumps({"detector": "stac-mmd", "result":
                                   conformal_threshold([1.0, 2.0], 0.4).to_json_obj()}))
        out = tmp_path / "out.json"
        argv = {
            "calibrate": ["calibrate", "--detector", "stac-mmd", "--logs",
                          f"{tmp_path}/*.jsonl", "--out", out],
            "detect": ["detect", "--detector", "stac-mmd", "--calibration", cal,
                       "--log", tmp_path / "bad.sentinel.jsonl"],
        }[command]
        code = run_cli(argv + ["--config", config])
        captured = capsys.readouterr()
        assert code == 1
        error = json.loads(captured.err)["error"]
        assert error["type"] == "config"
        assert str(config) in error["message"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["synth", "eval"])
    @pytest.mark.parametrize("field, value", [
        ("batch_size", "x"), ("batch_size", 0), ("episode_limit", 1.5),
        ("n_denoise_steps", "100"), ("step_duration", True), ("gain", "0.2"),
        ("record_frames", "no"), ("task_description", 5), ("step_duration", 10 ** 400),
        ("start", ["0.1", 0]),
    ])
    def test_scenario_field_of_wrong_type_is_config_error(self, capsys, tmp_path, command,
                                                          field, value):
        """Refused when the scenario is built, before any rollout is generated."""
        assert field in _scenario_config_error(capsys, tmp_path, command, field, value)

    @pytest.mark.parametrize("command", ["synth", "eval"])
    @pytest.mark.parametrize("field, value, text", [
        ("start", [0, 0, 0], "start length 3"), ("start", [1], "start length 1"),
        ("mode_weights", [0.9, 0.9], "mode weights must sum to 1"),
        ("episode_limit", 4, "prediction_horizon must be <= episode_limit"),
        ("action_mask", [True], "action_mask length"),
        ("drift_step", [1], "drift_step dimension"),
        ("noise_std", 0, "mode stddev must be positive"),
    ], ids=["start-long", "start-short", "weights-sum", "episode-limit", "mask-length",
            "drift-step-length", "noise-std-zero"])
    def test_impossible_scenario_geometry_is_config_error(self, capsys, tmp_path, command,
                                                           field, value, text):
        """Well-typed values that no rollout could follow are refused when the
        scenario is built, by the rules of the header and the policy."""
        assert text in _scenario_config_error(capsys, tmp_path, command, field, value)

    @pytest.mark.parametrize("command", ["synth", "eval"])
    @pytest.mark.parametrize("field, value, name", [
        ("step_duration", math.inf, "step_duration"), ("noise_std", math.inf, "noise_std"),
        ("start_jitter", math.inf, "start_jitter"), ("goal_radius", math.inf, "goal_radius"),
        ("task_time_limit", math.nan, "task_time_limit"), ("gain", -math.inf, "gain"),
        ("start", [math.inf, 0], "start[0]"), ("drift_step", [0.1, math.nan], "drift_step[1]"),
        ("mode_weights", [0.5, math.inf], "mode_weights[1]"),
        ("attractors", [[2.5, 1.5], [2.5, -math.inf]], "attractors[1][1]"),
    ])
    def test_non_finite_scenario_value_is_named_config_error(self, capsys, tmp_path, command,
                                                             field, value, name):
        """Refused by its name when the scenario is built, before any rollout exists."""
        message = _scenario_config_error(capsys, tmp_path, command, field, value)
        bad = [float(v) for v in np.ravel(value) if not math.isfinite(v)][0]
        assert message.endswith(f"{name} must be finite, got {bad!r}")

    def test_overflowing_scenario_float_is_config_error(self, capsys, tmp_path):
        """1e999 in a config file parses as inf: refused before any file is written."""
        path = tmp_path / "config.json"
        path.write_text('{"step_duration": 1e999}', encoding="utf-8")
        code = run_cli(["synth", "--scenario", "nominal", "--n", "1", "--out", tmp_path / "out",
                        "--config", path])
        captured = capsys.readouterr()
        assert code == 1
        assert json.loads(captured.err)["error"] == {
            "type": "config",
            "message": "invalid scenario config: step_duration must be finite, got inf"}
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind, field, value", [
        ("header", "action_mask", 5),
        ("header", "action_mask", "ab"),
        ("header", "action_mask", [None, 1]),
        ("header", "action_mask", [2.5, 0]),
        ("header", "action_mask", [1, 0]),
        ("header", "step_duration", None),
        ("header", "step_duration", "x"),
        ("header", "step_duration", "0.25"),
        ("header", "task_time_limit", True),
        ("record", "chunk_samples", [[["a", "b"]] * 4] * 4),
        ("record", "chunk_samples", [[["1", "2"]] * 4] * 4),
        ("record", "embedding", ["1", "2"]),
        ("record", "executed_index", True),
        ("label", "return_value", None),
        ("label", "return_value", "1.0"),
        ("label", "return_threshold", "1.0"),
    ], ids=["mask-int", "mask-str", "mask-null-entry", "mask-float-entry", "mask-int-entries",
            "duration-null", "duration-str", "duration-numeric-str", "time-limit-bool",
            "chunks-str", "chunks-numeric-str", "embedding-numeric-str", "index-bool",
            "return-null", "return-str", "threshold-str"])
    def test_field_of_wrong_type_is_a_located_log_error(self, capsys, tmp_path, kind, field,
                                                         value):
        path = tmp_path / "typed.sentinel.jsonl"
        write_log(make_log(label="success"), path)
        lines = path.read_text().splitlines()
        index = {"header": 0, "record": 1, "label": len(lines) - 1}[kind]
        obj = json.loads(lines[index])
        obj[field] = value
        lines[index] = json.dumps(obj)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(LogParseError) as err:
            read_log(path)
        assert err.value.line == index + 1

        code = run_cli(["vlm", "--log", path, "--transport", "mock",
                        "--fixtures", FIXTURES / "mock_vlm_ok"])
        captured = capsys.readouterr()
        assert code == 1
        error = json.loads(captured.err)["error"]
        assert error["type"] == "log"
        assert f"line {index + 1}: " in error["message"]

    @pytest.mark.parametrize("argv", [
        ["synth", "--scenario", "nominal", "--n", "1", "--out", "OUT"],
        ["calibrate", "--detector", "stac-mmd", "--logs", "*.jsonl", "--out", "OUT"],
        ["calibrate", "--detector", "ddpm", "--logs", "*.jsonl", "--out", "OUT"],
        ["detect", "--detector", "stac-mmd", "--calibration", "cal.json", "--log", "x.jsonl",
         "--emit-series", "OUT"],
        ["detect", "--detector", "ddpm", "--calibration", "cal.json", "--log", "x.jsonl",
         "--emit-series", "OUT"],
    ], ids=["synth", "calibrate-stac", "calibrate-oracle", "detect-stac", "detect-oracle"])
    def test_negative_seed_is_usage_error(self, capsys, tmp_path, monkeypatch, argv):
        """Refused before any log is read or written."""
        def no_io(*args):
            raise AssertionError("log read or written before --seed was checked")

        monkeypatch.setattr("sentinel.cli._read_log_or_fail", no_io)
        monkeypatch.setattr("sentinel.cli.write_log", no_io)
        out = tmp_path / "out"
        code = run_cli([out if a == "OUT" else a for a in argv] + ["--seed", "-1"])
        captured = capsys.readouterr()
        assert code == 2
        error = json.loads(captured.err)["error"]
        assert error["type"] == "usage"
        assert error["message"] == "--seed must be >= 0, got -1"
        assert not out.exists()

    def test_unknown_command(self, capsys):
        code = run_cli(["transmogrify"])
        captured = capsys.readouterr()
        assert code == 2
        assert json.loads(captured.err)["error"]["type"] == "usage"

    def test_console_script_installed(self):
        proc = subprocess.run([sys.executable, "-m", "sentinel.cli", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "synth" in proc.stdout
        assert "calibrate" in proc.stdout
