import json
import subprocess
import sys
from pathlib import Path

import pytest

from sentinel.baselines import DetectorContext, score_log
from sentinel.cli import _bundled_config, main
from sentinel.evaluation import detector_source, verdict_from_series
from sentinel.calibration import CalibrationResult, conformal_threshold
from sentinel.rollout import LogParseError, read_log, write_log

from conftest import make_log

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
    ], ids=["not-an-object", "no-result", "result-missing-keys"])
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
