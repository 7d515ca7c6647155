import itertools
import json

import numpy as np
import pytest

from sentinel import distances, evaluation, vlm
from sentinel.evaluation import (BenchmarkConfig, MetricsReport,
                                 ScriptedMonitor, Verdict, combine,
                                 compute_metrics, detector_source,
                                 failure_verdict, ok_verdict, run_benchmark,
                                 score_chart_svg, verdict_from_series)
from sentinel.policy import ScenarioConfig, default_goal_label, generate_rollout
from sentinel.stac import ScoreSeries
from sentinel.vlm import monitor_log

from conftest import make_header, make_log


def _small_benchmark_config(**overrides):
    # gain 0.2 converges inside the shortened 16-step episode
    scenario = ScenarioConfig(episode_limit=16, batch_size=8, gain=0.2)
    kwargs = dict(
        scenario=scenario,
        detectors=("stac-mmd", "min-l2"),
        n_calibration=6,
        test_counts={"consistent": 3, "mode_resample": 3},
        delta=0.4,
        master_seed=5,
        sentinel_detector="stac-mmd",
        monitor=ScriptedMonitor(true_positive_rate=1.0, false_positive_rate=0.0),
    )
    kwargs.update(overrides)
    return BenchmarkConfig(**kwargs)


class TestVerdict:
    def test_failure_needs_timestep(self):
        with pytest.raises(ValueError):
            Verdict(decision="failure", source="stac")
        with pytest.raises(ValueError):
            Verdict(decision="ok", source="stac", detection_timestep=4,
                    detection_seconds=2.0)
        with pytest.raises(ValueError):
            Verdict(decision="failure", source="stac", detection_timestep=4)

    def test_constructors(self):
        ok = ok_verdict("stac")
        assert ok.decision == "ok"
        fail = failure_verdict("vlm", 8, 0.25)
        assert fail.detection_seconds == 2.0

    def test_json_omits_absent_fields(self):
        assert ok_verdict("stac").to_json_obj() == {"decision": "ok", "source": "stac"}
        obj = failure_verdict("stac", 4, 0.5).to_json_obj()
        assert obj["detection_timestep"] == 4
        assert obj["detection_seconds"] == 2.0

    def test_from_series(self):
        series = ScoreSeries(timesteps=(0, 2, 4), step_scores=(0.0, 1.0, 3.0),
                             cumulative=(0.0, 1.0, 4.0))
        fired = verdict_from_series(series, 0.5, "stac", 0.25)
        assert fired.decision == "failure"
        assert fired.detection_timestep == 2
        quiet = verdict_from_series(series, 10.0, "stac", 0.25)
        assert quiet.decision == "ok"


class TestDetectorSource:
    def test_consistency_family(self):
        for name in ("stac-mmd", "stac-klf", "stac-klr", "min-l2"):
            assert detector_source(name) == "stac"

    def test_baselines_tagged(self):
        assert detector_source("mahalanobis") == "baseline:mahalanobis"
        assert detector_source("outvar") == "baseline:outvar"


class TestCombine:
    def test_both_ok(self):
        verdict = combine(ok_verdict("stac"), ok_verdict("vlm"))
        assert verdict.decision == "ok"
        assert verdict.source == "sentinel"

    def test_either_failure_flags(self):
        a = combine(failure_verdict("stac", 8, 0.5), ok_verdict("vlm"))
        assert a.decision == "failure"
        b = combine(ok_verdict("stac"), failure_verdict("vlm", 16, 0.5))
        assert b.decision == "failure"

    def test_earliest_detection_wins(self):
        verdict = combine(failure_verdict("stac", 12, 0.5),
                          failure_verdict("vlm", 8, 0.5))
        assert verdict.detection_timestep == 8
        assert verdict.detection_seconds == 4.0

    def test_missing_monitor_degrades(self):
        verdict = combine(failure_verdict("stac", 6, 0.5))
        assert verdict.decision == "failure"
        assert verdict.source == "sentinel"

    def test_accepts_iterables(self):
        stream = [ok_verdict("stac"), failure_verdict("stac", 10, 0.5)]
        verdict = combine(*stream, ok_verdict("vlm"))
        assert verdict.detection_timestep == 10


class TestMetrics:
    CASES = [
        # (decisions, labels, tp, tn, fp, fn)
        (["failure", "ok"], ["failure", "success"], 1, 1, 0, 0),
        (["ok", "failure"], ["failure", "success"], 0, 0, 1, 1),
        (["failure", "failure"], ["failure", "failure"], 2, 0, 0, 0),
        (["ok", "ok"], ["success", "success"], 0, 2, 0, 0),
        (["failure", "ok", "failure", "ok"],
         ["failure", "failure", "success", "success"], 1, 1, 1, 1),
        (["failure"], ["failure"], 1, 0, 0, 0),
        (["ok"], ["failure"], 0, 0, 0, 1),
        (["failure"], ["success"], 0, 0, 1, 0),
        (["ok"], ["success"], 0, 1, 0, 0),
        (["failure", "failure", "ok", "ok", "ok", "failure"],
         ["failure", "success", "failure", "success", "success", "failure"],
         2, 2, 1, 1),
    ]

    @pytest.mark.parametrize("decisions,labels,tp,tn,fp,fn", CASES)
    def test_confusion_counts(self, decisions, labels, tp, tn, fp, fn):
        verdicts = [failure_verdict("stac", 4, 0.5) if d == "failure"
                    else ok_verdict("stac") for d in decisions]
        report = compute_metrics(verdicts, labels)
        assert (report.tp, report.tn, report.fp, report.fn) == (tp, tn, fp, fn)
        total = tp + tn + fp + fn
        assert report.accuracy == (tp + tn) / total
        if tp + fn > 0:
            assert report.tpr == tp / (tp + fn)
        else:
            assert report.tpr is None
        if tn + fp > 0:
            assert report.fpr == pytest.approx(fp / (tn + fp))
        else:
            assert report.fpr is None

    def test_mean_detection_over_true_positives_only(self):
        verdicts = [failure_verdict("stac", 4, 0.5),   # tp at 2.0s
                    failure_verdict("stac", 12, 0.5),  # fp, excluded
                    failure_verdict("stac", 8, 0.5),   # tp at 4.0s
                    ok_verdict("stac")]
        labels = ["failure", "success", "failure", "success"]
        report = compute_metrics(verdicts, labels)
        assert report.mean_detection_seconds == pytest.approx(3.0)

    def test_no_true_positive_no_mean_time(self):
        report = compute_metrics([ok_verdict("stac")], ["failure"])
        assert report.mean_detection_seconds is None

    def test_balanced_accuracy(self):
        report = MetricsReport(tp=3, tn=1, fp=1, fn=1)
        assert report.balanced_accuracy == pytest.approx((0.75 + 0.5) / 2)
        assert MetricsReport(tp=1, tn=0, fp=0, fn=0).balanced_accuracy is None

    def test_json_omits_undefined_rates(self):
        obj = MetricsReport(tp=1, tn=0, fp=0, fn=0).to_json_obj()
        assert "tnr" not in obj and "fpr" not in obj and "balanced_accuracy" not in obj
        assert obj["tpr"] == 1.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            compute_metrics([ok_verdict("stac")], [])

    def test_rejects_unknown_string_label(self):
        with pytest.raises(ValueError):
            compute_metrics([ok_verdict("stac")], ["maybe"])

    def test_union_never_misses_what_a_member_catches(self):
        """Counting identity: the sentinel union's TP set contains each
        member's TP set, and its FP count is at most the sum of both."""
        rng = np.random.default_rng(0)
        labels = ["failure" if rng.random() < 0.5 else "success" for _ in range(200)]
        stac = [failure_verdict("stac", 4, 0.5) if rng.random() < 0.4
                else ok_verdict("stac") for _ in range(200)]
        vlm = [failure_verdict("vlm", 8, 0.5) if rng.random() < 0.3
               else ok_verdict("vlm") for _ in range(200)]
        union = [combine(s, v) for s, v in zip(stac, vlm)]
        m_stac = compute_metrics(stac, labels)
        m_vlm = compute_metrics(vlm, labels)
        m_union = compute_metrics(union, labels)
        assert m_union.tp >= max(m_stac.tp, m_vlm.tp)
        assert m_union.fp <= m_stac.fp + m_vlm.fp


class TestScriptedMonitor:
    def test_rate_validation(self):
        with pytest.raises(ValueError):
            ScriptedMonitor(true_positive_rate=1.2)
        with pytest.raises(ValueError):
            ScriptedMonitor(checkpoint_fraction=0.0)

    def test_checkpoint_timestep(self, rng):
        header = make_header(episode_limit=16, task_time_limit=8.0)
        log = make_log(header=header, n_records=8, batch_size=2, rng=rng, label="failure")
        monitor = ScriptedMonitor(true_positive_rate=1.0, checkpoint_fraction=0.5)
        rows, hit = monitor_log(log, monitor.transport(log, np.random.default_rng(0)),
                                fractions=(monitor.checkpoint_fraction,))
        # 50% of the 8s limit admits timesteps through 8 (record 4)
        assert [(row["record_index"], row["timestep"]) for row in rows] == [(4, 8)]
        assert hit == 8

    def test_deterministic_given_rng(self, rng):
        log = make_log(rng=rng, label="failure")
        monitor = ScriptedMonitor(true_positive_rate=0.5)
        a = monitor_log(log, monitor.transport(log, np.random.default_rng(3)))
        b = monitor_log(log, monitor.transport(log, np.random.default_rng(3)))
        assert a == b
        # One draw per log, whatever the number of checkpoints it is asked at.
        g = np.random.default_rng(3)
        monitor.transport(log, g)
        reference = np.random.default_rng(3)
        reference.random()
        assert g.random() == reference.random()

    def test_extreme_rates(self, rng):
        # Eight records: the default checkpoints (half and full time) differ.
        log_fail = make_log(n_records=8, rng=rng, label="failure")
        log_ok = make_log(n_records=8, rng=rng, label="success")
        monitor = ScriptedMonitor(true_positive_rate=1.0, false_positive_rate=0.0)
        g = np.random.default_rng(0)
        rows, hit = monitor_log(log_fail, monitor.transport(log_fail, g))
        assert [row["decision"] for row in rows] == ["failure", "failure"]
        assert hit == rows[0]["timestep"]
        rows, hit = monitor_log(log_ok, monitor.transport(log_ok, g))
        assert [row["decision"] for row in rows] == ["ok", "ok"]
        assert hit is None

    def test_unlabeled_rejected(self, rng):
        log = make_log(rng=rng, label=None)
        with pytest.raises(ValueError, match="labeled"):
            ScriptedMonitor().transport(log, np.random.default_rng(0))

    def test_verdict_is_the_transport_asked_at_the_checkpoint(self, rng):
        header = make_header(episode_limit=16, task_time_limit=8.0)
        log = make_log(header=header, n_records=8, batch_size=2, rng=rng, label="failure")
        monitor = ScriptedMonitor(true_positive_rate=0.5, checkpoint_fraction=0.5)
        hits = set()
        for seed in range(8):
            _, hit = monitor_log(log, monitor.transport(log, np.random.default_rng(seed)),
                                 fractions=(0.5,))
            expected = ok_verdict("vlm") if hit is None else failure_verdict(
                "vlm", hit, header.step_duration)
            assert monitor.verdict(log, np.random.default_rng(seed)) == expected
            hits.add(hit)
        assert hits == {None, 8}  # both draws seen; a failure lands at the checkpoint

    def test_bool_rates_rejected(self):
        for name in ("true_positive_rate", "false_positive_rate", "checkpoint_fraction"):
            with pytest.raises(ValueError, match=f"{name} must be a real number"):
                ScriptedMonitor(**{name: True})
        with pytest.raises(ValueError, match="true_positive_rate"):
            ScriptedMonitor.from_json_obj({"true_positive_rate": True})

    def test_numpy_rates_are_stored_as_python_floats(self):
        monitor = ScriptedMonitor(true_positive_rate=np.float32(0.5),
                                  false_positive_rate=np.float64(0.25),
                                  checkpoint_fraction=np.float32(0.75))
        assert monitor == ScriptedMonitor(0.5, 0.25, 0.75)
        assert all(type(value) is float for value in monitor.to_json_obj().values())

    def test_json_round_trip(self):
        monitor = ScriptedMonitor(true_positive_rate=0.8, false_positive_rate=0.1,
                                  checkpoint_fraction=0.75)
        clone = ScriptedMonitor.from_json_obj(json.loads(json.dumps(monitor.to_json_obj())))
        assert clone == monitor
        with pytest.raises(ValueError):
            ScriptedMonitor.from_json_obj({"tpr": 0.9})


class TestBenchmarkConfig:
    def test_round_trip(self):
        config = _small_benchmark_config()
        clone = BenchmarkConfig.from_json_obj(json.loads(json.dumps(config.to_json_obj())))
        assert clone == config

    def test_defaults_fill_missing_keys(self):
        config = BenchmarkConfig.from_json_obj({})
        assert config.n_calibration == 50
        assert config.monitor is None

    def test_rejects_unknown_keys(self):
        with pytest.raises(ValueError):
            BenchmarkConfig.from_json_obj({"n_test": 5})

    @pytest.mark.parametrize("obj, message", [
        ([1], "benchmark config must be a JSON object"),
        ({"n_test": 5}, "unknown benchmark config keys: ['n_test']"),
        ({"monitor": "abc"}, "monitor must be a JSON object"),
        ({"monitor": 5}, "monitor must be a JSON object"),
        ({"monitor": {"tpr": 0.9}}, "unknown monitor keys: ['tpr']"),
        ({"scenario": 5}, "scenario config must be a JSON object"),
        ({"scenario": {"gravity": 9.8}}, "unknown scenario config keys: ['gravity']"),
    ], ids=["config-list", "config-key", "monitor-str", "monitor-int", "monitor-key",
            "scenario-int", "scenario-key"])
    def test_json_object_rule(self, obj, message):
        """One rule for the config and each object nested in it: an object of known keys."""
        with pytest.raises(ValueError) as err:
            BenchmarkConfig.from_json_obj(obj)
        assert str(err.value) == message

    def test_sentinel_detector_must_be_enrolled(self):
        with pytest.raises(ValueError):
            _small_benchmark_config(detectors=("min-l2",), sentinel_detector="stac-mmd")

    def test_rejects_unknown_behavior(self):
        with pytest.raises(ValueError):
            _small_benchmark_config(test_counts={"explode": 3})

    def test_monitor_needs_frames(self):
        scenario = ScenarioConfig(episode_limit=16, batch_size=8, gain=0.2, record_frames=False)
        with pytest.raises(ValueError, match="record_frames"):
            _small_benchmark_config(scenario=scenario)
        assert _small_benchmark_config(scenario=scenario, monitor=None).monitor is None

    def test_monitor_checkpoint_must_reach_the_second_record(self):
        """The checkpoint is the last record at or under its time. Under k * dt / T
        of the time limit that is record 0, at t = 0, which makes no prompt."""
        scenario = ScenarioConfig()  # k * dt / T = 4 * 0.25 / 16 = 0.0625
        with pytest.raises(ValueError, match=r"^monitor\.checkpoint_fraction 0\.06 puts the "
                                             r"checkpoint on record 0, at t = 0"):
            BenchmarkConfig(scenario=scenario, monitor=ScriptedMonitor(checkpoint_fraction=0.06))
        config = BenchmarkConfig(scenario=scenario,
                                 monitor=ScriptedMonitor(checkpoint_fraction=0.0625))
        log = generate_rollout(scenario.build_policy(), scenario, seed=0)
        with pytest.raises(ValueError, match=r"^checkpoint_fraction 0\.06 puts the checkpoint "
                                             r"on record 0, at t = 0"):
            vlm.checkpoint_record_indices(log, (0.06,))
        assert vlm.checkpoint_record_indices(log, (config.monitor.checkpoint_fraction,)) == [1]
        assert config.monitor.verdict(log, np.random.default_rng(0)).source == "vlm"

    def test_numpy_counts_are_stored_as_python_ints(self):
        config = _small_benchmark_config(n_calibration=np.int64(6), master_seed=np.uint8(5),
                                         test_counts={"consistent": np.int32(3)})
        assert config == _small_benchmark_config(test_counts={"consistent": 3})
        for value in (config.n_calibration, config.master_seed, config.test_counts["consistent"]):
            assert type(value) is int

    def test_numpy_delta_is_stored_as_python_float(self):
        config = _small_benchmark_config(delta=np.float32(0.25))
        assert type(config.delta) is float and config.delta == 0.25
        assert config == _small_benchmark_config(delta=0.25)
        for bad in (True, np.float32(1.0), "0.1"):
            with pytest.raises(ValueError, match="delta"):
                _small_benchmark_config(delta=bad)


@pytest.fixture(scope="module")
def result(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench")
    config = _small_benchmark_config()
    report = run_benchmark(config, out_dir=out)
    return config, report, out


class TestRunBenchmark:
    def test_report_shape(self, result):
        config, report, _ = result
        assert set(report["metrics"]) == {"stac-mmd", "min-l2", "vlm", "sentinel"}
        assert report["n_calibration_used"] <= config.n_calibration
        assert len(report["seeds"]["test"]) == 6
        assert report["test_behaviors"].count("consistent") == 3

    def test_calibration_entries(self, result):
        config, report, _ = result
        for name in config.detectors:
            cal = report["calibration"][name]
            assert cal["m"] == report["n_calibration_used"]
            assert cal["delta"] == config.delta

    def test_artifacts_written(self, result):
        _, _, out = result
        assert (out / "report.json").is_file()
        assert (out / "verdicts.csv").is_file()
        assert (out / "scores.svg").is_file()

    def test_report_json_matches_return(self, result):
        _, report, out = result
        on_disk = json.loads((out / "report.json").read_text())
        assert on_disk == json.loads(json.dumps(report))

    def test_verdicts_csv_layout(self, result):
        config, _, out = result
        lines = (out / "verdicts.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header[:4] == ["index", "seed", "behavior", "label"]
        assert "stac-mmd_decision" in header
        assert "sentinel_decision" in header
        assert len(lines) == 1 + 6

    def test_rerun_is_byte_identical(self, result, tmp_path):
        config, _, out = result
        run_benchmark(_small_benchmark_config(), out_dir=tmp_path)
        for name in ("report.json", "verdicts.csv", "scores.svg"):
            assert (tmp_path / name).read_bytes() == (out / name).read_bytes(), name

    def test_nonfinite_step_names_detector_and_seed(self, result, monkeypatch):
        _, report, _ = result
        first_seed = report["seeds"]["calibration"][0]
        monkeypatch.setattr(distances.PooledDistances, "kl_forward",
                            lambda self, bandwidth: float("nan"))
        config = _small_benchmark_config(detectors=("stac-mmd", "stac-klf", "min-l2"))
        with pytest.raises(ValueError, match=rf"^trajectory seed {first_seed}: stac-klf: "
                                             r"step score at index 1 must be finite"):
            run_benchmark(config)

    def test_monitorless_config_omits_vlm_metrics(self):
        config = _small_benchmark_config(monitor=None, n_calibration=4,
                                         test_counts={"consistent": 2})
        report = run_benchmark(config)
        assert "vlm" not in report["metrics"]
        assert "sentinel" in report["metrics"]

    # (numpy config, the same config built from the Python values numpy holds)
    NUMPY_CONFIGS = {
        "integers": (
            dict(scenario=dict(episode_limit=np.int64(16), batch_size=np.int64(8), gain=0.2),
                 n_calibration=np.int32(3), master_seed=np.int64(2),
                 test_counts={"consistent": np.int64(1), "mode_resample": np.uint16(1)},
                 monitor=ScriptedMonitor()),
            dict(scenario=dict(episode_limit=16, batch_size=8, gain=0.2),
                 n_calibration=3, master_seed=2,
                 test_counts={"consistent": 1, "mode_resample": 1},
                 monitor=ScriptedMonitor())),
        "reals": (
            dict(scenario=dict(episode_limit=16, batch_size=8, gain=np.float32(0.2)),
                 n_calibration=3, master_seed=2, delta=np.float32(0.4),
                 test_counts={"consistent": 1, "mode_resample": 1},
                 monitor=ScriptedMonitor(true_positive_rate=np.float32(0.5))),
            dict(scenario=dict(episode_limit=16, batch_size=8, gain=float(np.float32(0.2))),
                 n_calibration=3, master_seed=2, delta=float(np.float32(0.4)),
                 test_counts={"consistent": 1, "mode_resample": 1},
                 monitor=ScriptedMonitor(true_positive_rate=0.5))),
    }

    @pytest.mark.parametrize("kind", sorted(NUMPY_CONFIGS))
    def test_numpy_scalars_write_the_python_report(self, kind, tmp_path):
        """A numpy scalar in a config is stored as its Python value, so the
        report is written, with the bytes of the Python-valued config."""
        outs = []
        for side, kwargs in zip(("numpy", "python"), self.NUMPY_CONFIGS[kind]):
            kwargs = dict(kwargs, scenario=ScenarioConfig(**kwargs["scenario"]))
            config = BenchmarkConfig(detectors=("min-l2",), sentinel_detector="min-l2", **kwargs)
            run_benchmark(config, out_dir=tmp_path / side)
            outs.append((tmp_path / side / "report.json").read_bytes())
        assert outs[0] == outs[1]


def _old_rule_vlm_verdicts(config, report):
    """The scripted monitor's rule before it answered through the monitor
    pipeline: per test log, one draw from the log's generator; a failure at
    the checkpoint-fraction timestep iff the draw is below the log's rate."""
    scenario, monitor = config.scenario, config.monitor
    budget = monitor.checkpoint_fraction * scenario.task_time_limit
    verdicts = []
    plan = zip(report["test_behaviors"], report["seeds"]["test"])
    for i, (behavior, seed) in enumerate(plan):
        log = generate_rollout(scenario.build_policy(behavior, seed), scenario,
                               label_rule=default_goal_label, seed=seed)
        rng = np.random.default_rng(np.random.SeedSequence((config.master_seed, 7, i)))
        rate = monitor.true_positive_rate if log.label.is_failure else monitor.false_positive_rate
        if rng.random() < rate:
            checkpoint = [r.timestep for r in log.records
                          if r.timestep * scenario.step_duration <= budget][-1]
            verdicts.append(failure_verdict("vlm", checkpoint, scenario.step_duration))
        else:
            verdicts.append(ok_verdict("vlm"))
    return verdicts


def _run_capturing_vlm_verdicts(config, monkeypatch):
    """run_benchmark's report and the monitor verdicts it hands to the union."""
    members = []

    def spy(*verdicts):
        members.append(verdicts)
        return combine(*verdicts)

    monkeypatch.setattr(evaluation, "combine", spy)
    report = run_benchmark(config)
    assert all(len(m) == 2 for m in members)
    return report, [m[1] for m in members]


RATES = (0.0, 0.3, 1.0)


class TestMonitorThroughPipeline:
    @pytest.mark.parametrize("fraction", [0.25, 0.5, 0.75, 1.0])
    @pytest.mark.parametrize("master_seed", [0, 1, 2])
    def test_vlm_verdicts_equal_the_old_rule(self, fraction, master_seed, monkeypatch):
        scenario = ScenarioConfig(episode_limit=16, batch_size=8, gain=0.2)
        for tpr, fpr in itertools.product(RATES, RATES):
            config = BenchmarkConfig(
                scenario=scenario, detectors=("min-l2",), sentinel_detector="min-l2",
                n_calibration=3, master_seed=master_seed, delta=0.4,
                test_counts={"consistent": 3, "mode_resample": 3, "constant_stall": 3},
                monitor=ScriptedMonitor(tpr, fpr, checkpoint_fraction=fraction))
            report, got = _run_capturing_vlm_verdicts(config, monkeypatch)
            expected = _old_rule_vlm_verdicts(config, report)
            assert got == expected, (tpr, fpr)
            vlm_counts = report["metrics"]["vlm"]
            assert vlm_counts["tp"] + vlm_counts["fn"] > 0  # failures to draw against tpr
            assert vlm_counts["tn"] + vlm_counts["fp"] > 0  # successes to draw against fpr

    def test_one_query_and_one_parse_per_test_log(self, monkeypatch):
        counts = {"query_monitor": 0, "parse_response": 0}
        for name in counts:
            real = getattr(vlm, name)

            def counting(*args, _real=real, _name=name, **kwargs):
                counts[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(vlm, name, counting)
        config = _small_benchmark_config(detectors=("min-l2",), sentinel_detector="min-l2",
                                         n_calibration=3)
        report = run_benchmark(config)
        n_test = len(report["seeds"]["test"])
        assert counts == {"query_monitor": n_test, "parse_response": n_test}


class TestScoreChartSvg:
    def _series(self, values):
        timesteps = tuple(2 * i for i in range(len(values)))
        steps = [values[0]] + [b - a for a, b in zip(values, values[1:])]
        return ScoreSeries(timesteps=timesteps, step_scores=tuple(steps),
                           cumulative=tuple(values))

    def test_deterministic(self):
        series = [self._series([0.0, 1.0, 3.0]), self._series([0.0, 0.5, 0.7])]
        a = score_chart_svg(series, [True, False], gamma=2.0, title="demo")
        b = score_chart_svg(series, [True, False], gamma=2.0, title="demo")
        assert a == b
        assert a.startswith("<svg ")
        assert "threshold" in a

    def test_infinite_gamma_drops_threshold_line(self):
        series = [self._series([0.0, 1.0])]
        svg = score_chart_svg(series, [False], gamma=float("inf"))
        assert "threshold" not in svg

    def test_curve_cap(self):
        series = [self._series([0.0, float(i)]) for i in range(25)]
        svg = score_chart_svg(series, [False] * 25, gamma=1.0)
        assert svg.count("<polyline") == 20

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            score_chart_svg([], [], gamma=1.0)
