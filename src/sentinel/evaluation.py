"""Combined detection verdicts, metrics, and synthetic benchmark batteries.

The combiner unions a statistical detector with the task-progression monitor
(execution stops when either flags), metrics follow the standard confusion
conventions with undefined rates omitted rather than faked, and run_benchmark
wires generation, calibration, scoring, and reporting into one deterministic
pass that writes JSON/CSV/SVG artifacts.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .baselines import (DETECTOR_NAMES, DetectorContext, EmbeddingStats, embedding_matrix,
                        score_logs)
from .calibration import (DEFAULT_DELTA, conformal_threshold,
                          leave_trajectory_out_stats, pooled_stats)
from .policy import BEHAVIORS, ScenarioConfig, generate_rollout
from .rollout import RolloutLabel, RolloutLog, _check_scalar_fields, _json_fields
from .stac import STAC_DETECTORS, ScoreSeries, detect_online
from .vlm import MockTransport, checkpoint_budget, monitor_log


def detector_source(name: str) -> str:
    """Verdict source tag: the consistency family reports as 'stac'."""
    return "stac" if name in STAC_DETECTORS else f"baseline:{name}"


@dataclass(frozen=True)
class Verdict:
    decision: str
    source: str
    detection_timestep: Optional[int] = None
    detection_seconds: Optional[float] = None

    def __post_init__(self):
        if self.decision not in ("ok", "failure"):
            raise ValueError(f"invalid decision {self.decision!r}")
        if not self.source:
            raise ValueError("source must be nonempty")
        has_timestep = self.detection_timestep is not None
        if (self.decision == "failure") != has_timestep:
            raise ValueError("decision is failure iff a detection timestep is present")
        if has_timestep != (self.detection_seconds is not None):
            raise ValueError("detection_seconds must accompany detection_timestep")

    def to_json_obj(self) -> dict:
        obj = {"decision": self.decision, "source": self.source}
        if self.detection_timestep is not None:
            obj["detection_timestep"] = int(self.detection_timestep)
            obj["detection_seconds"] = float(self.detection_seconds)
        return obj


def verdict_at(source: str, timestep: Optional[int], step_duration: float) -> Verdict:
    """A failure at `timestep`, or ok when there is none."""
    if timestep is None:
        return Verdict(decision="ok", source=source)
    return Verdict(decision="failure", source=source, detection_timestep=int(timestep),
                   detection_seconds=float(timestep) * float(step_duration))


def verdict_from_series(series: ScoreSeries, gamma: float, source: str,
                        step_duration: float) -> Verdict:
    return verdict_at(source, detect_online(series, gamma), step_duration)


def combine(*verdicts: Verdict) -> Verdict:
    """Union of the given verdicts: failure if any flags, at the earliest flag.

    Detectors tick at their own cadences, so the verdicts may come from any
    mix of them; without a monitor verdict the union is the statistical
    detector alone.
    """
    failures = [v for v in verdicts if v.decision == "failure"]
    if not failures:
        return Verdict(decision="ok", source="sentinel")
    first = min(failures, key=lambda v: v.detection_timestep)
    return Verdict(decision="failure", source="sentinel",
                   detection_timestep=first.detection_timestep,
                   detection_seconds=first.detection_seconds)


def compute_metrics(verdicts: Sequence[Verdict], labels: Sequence[RolloutLabel]) -> dict:
    """The report's metrics: confusion counts, accuracy, each rate whose
    denominator is nonzero, and the detection time averaged over true
    positives when there is one."""
    if len(verdicts) != len(labels):
        raise ValueError(f"{len(verdicts)} verdicts vs {len(labels)} labels")
    if not verdicts:
        raise ValueError("need at least one verdict")
    tp = tn = fp = fn = 0
    detection_times = []
    for verdict, label in zip(verdicts, labels):
        failed = label.is_failure
        flagged = verdict.decision == "failure"
        if failed and flagged:
            tp += 1
            detection_times.append(verdict.detection_seconds)
        elif failed:
            fn += 1
        elif flagged:
            fp += 1
        else:
            tn += 1
    metrics = {"tp": tp, "tn": tn, "fp": fp, "fn": fn,
               "accuracy": (tp + tn) / (tp + tn + fp + fn)}
    if tp + fn > 0:
        metrics["tpr"] = tp / (tp + fn)
    if tn + fp > 0:
        metrics["tnr"] = tn / (tn + fp)
        # Computed from counts, not as 1 - tnr, so the ratio is exact.
        metrics["fpr"] = fp / (tn + fp)
    if tp + fn > 0 and tn + fp > 0:
        metrics["balanced_accuracy"] = (metrics["tpr"] + metrics["tnr"]) / 2.0
    if detection_times:
        metrics["mean_detection_seconds"] = sum(detection_times) / len(detection_times)
    return metrics


@dataclass
class ScriptedMonitor:
    """Offline stand-in for the video-QA monitor with set confusion rates.

    Its transport answers every prompt about a log with one reply, whose
    assessment is one seeded draw against the log's ground truth (per its
    rates); eval queries it at the checkpoint fraction of the time limit.
    """

    true_positive_rate: float = 0.95
    false_positive_rate: float = 0.05
    checkpoint_fraction: float = 0.5

    def __post_init__(self):
        _check_scalar_fields(self)
        for rate in (self.true_positive_rate, self.false_positive_rate):
            if not 0.0 <= rate <= 1.0:
                raise ValueError("confusion rates must be in [0, 1]")
        if not 0.0 < self.checkpoint_fraction <= 1.0:
            raise ValueError("checkpoint_fraction must be in (0, 1]")

    def transport(self, log: RolloutLog, rng: np.random.Generator) -> MockTransport:
        if log.label is None:
            raise ValueError("scripted monitor needs a labeled rollout")
        rate = self.true_positive_rate if log.label.is_failure else self.false_positive_rate
        assessment = "failure" if rng.random() < rate else "ok"
        reply = f"[start of output]\nOverall assessment: {assessment}\n[end of output]\n"
        return MockTransport(default=reply)

    def verdict(self, log: RolloutLog, rng: np.random.Generator) -> Verdict:
        _, hit = monitor_log(log, self.transport(log, rng), fractions=(self.checkpoint_fraction,))
        return verdict_at("vlm", hit, log.header.step_duration)

    def to_json_obj(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_obj(cls, obj: dict) -> "ScriptedMonitor":
        return cls(**_json_fields(cls, obj, "monitor"))


@dataclass
class BenchmarkConfig:
    """One battery: scenario geometry, set sizes, detector roster, seeds."""

    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    detectors: tuple = DETECTOR_NAMES
    n_calibration: int = 50
    test_counts: dict = field(default_factory=lambda: {"consistent": 50, "mode_resample": 50})
    delta: float = DEFAULT_DELTA
    master_seed: int = 0
    sentinel_detector: str = "stac-mmd"
    monitor: Optional[ScriptedMonitor] = None

    def __post_init__(self):
        _check_scalar_fields(self)
        self.detectors = tuple(self.detectors)
        for name in self.detectors:
            if name not in DETECTOR_NAMES:
                raise ValueError(f"unknown detector {name!r}")
        if self.sentinel_detector not in self.detectors:
            raise ValueError("sentinel_detector must be in the detector roster")
        if self.n_calibration < 2:
            raise ValueError("n_calibration must be an integer >= 2 (calibration rollouts)")
        if not isinstance(self.test_counts, dict) or not self.test_counts:
            raise ValueError("test_counts must be a nonempty object of behavior: count")
        for behavior, count in self.test_counts.items():
            if behavior not in BEHAVIORS:
                raise ValueError(f"unknown behavior {behavior!r}")
            if not isinstance(count, (int, np.integer)) or isinstance(count, bool) or count < 1:
                raise ValueError(f"test_counts[{behavior!r}] must be an integer >= 1")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must be a number in (0, 1), got {self.delta!r}")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be an integer >= 0, got {self.master_seed!r}")
        self.test_counts = {b: int(count) for b, count in self.test_counts.items()}
        scenario, monitor = self.scenario, self.monitor
        if monitor is not None and not scenario.record_frames:
            raise ValueError("a monitor reads frame references: it needs scenario.record_frames")
        if monitor is not None:
            try:
                checkpoint_budget(monitor.checkpoint_fraction, scenario)
            except ValueError as exc:
                raise ValueError(f"monitor.{exc}") from None

    def to_json_obj(self) -> dict:
        obj = asdict(self)
        if self.monitor is None:
            del obj["monitor"]
        return obj

    @classmethod
    def from_json_obj(cls, obj: dict) -> "BenchmarkConfig":
        kwargs = _json_fields(cls, obj, "benchmark config")
        if "scenario" in kwargs:
            kwargs["scenario"] = ScenarioConfig.from_json_obj(kwargs["scenario"])
        if kwargs.get("monitor") is not None:
            kwargs["monitor"] = ScriptedMonitor.from_json_obj(kwargs["monitor"])
        return cls(**kwargs)


# Seed layout: calibration trajectory i gets master*1e6 + i, test trajectory j
# gets master*1e6 + 500000 + j, so reports depend only on (config, indices).
_SEED_BLOCK = 1_000_000
_TEST_OFFSET = 500_000


def _trajectory_seed(master_seed: int, index: int, test: bool) -> int:
    return master_seed * _SEED_BLOCK + (_TEST_OFFSET if test else 0) + index


def run_benchmark(config: BenchmarkConfig, out_dir=None) -> dict:
    """Calibrate every detector on nominal rollouts, score a mixed test set,
    union the designated detector with the scripted monitor, and write
    deterministic report artifacts. Returns the report dict."""
    scenario = config.scenario
    policies = {b: scenario.build_policy(b) for b in {"consistent", *config.test_counts}}

    cal_seeds = [_trajectory_seed(config.master_seed, i, test=False)
                 for i in range(config.n_calibration)]
    cal_logs = [generate_rollout(policies["consistent"], scenario, seed=seed) for seed in cal_seeds]
    kept = [(seed, log) for seed, log in zip(cal_seeds, cal_logs)
            if log.label is not None and not log.label.is_failure]
    if len(kept) < 2:
        raise ValueError("fewer than 2 success-labeled calibration rollouts; "
                         "scenario is not nominal enough to calibrate")
    cal_seeds = [seed for seed, _ in kept]
    cal_logs = [log for _, log in kept]

    behaviors = [behavior for behavior, count in config.test_counts.items() for _ in range(count)]
    test_plan = [(behavior, _trajectory_seed(config.master_seed, j, test=True))
                 for j, behavior in enumerate(behaviors)]  # (behavior, seed)
    test_logs = [generate_rollout(policies[b], scenario, seed=seed) for b, seed in test_plan]

    # Mahalanobis stats: leave-one-out per calibration log, pooled for tests.
    # Every other detector ignores them.
    lto_stats = [None] * len(cal_logs)
    pooled = None
    if "mahalanobis" in config.detectors:
        embeddings = [embedding_matrix(log) for log in cal_logs]
        lto_stats = [EmbeddingStats.from_mean_cov(mu, cov)
                     for mu, cov in leave_trajectory_out_stats(embeddings)]
        pooled = EmbeddingStats.from_mean_cov(*pooled_stats(embeddings))

    seeds = cal_seeds + [seed for _, seed in test_plan]
    ctxs = [DetectorContext(embedding_stats=stats, seed=seed)
            for seed, stats in zip(seeds, lto_stats + [pooled] * len(test_logs))]
    try:
        # The oracle reads the modes and the schedule alone, not the behaviour or the generator.
        battery = score_logs(config.detectors, cal_logs + test_logs, ctxs, policies["consistent"])
    except ValueError as exc:
        if not hasattr(exc, "log_index"):
            raise
        raise type(exc)(f"trajectory seed {seeds[exc.log_index]}: {exc}") from exc
    cal_series, test_series = battery[:len(cal_logs)], battery[len(cal_logs):]
    calibrations = {name: conformal_threshold([s[name].terminal for s in cal_series],
                                              config.delta)
                    for name in config.detectors}

    series_by_detector: dict = {}
    verdicts: dict = {}  # by source: each detector, then the monitor and the union
    step_duration = scenario.step_duration
    for name in config.detectors:
        gamma = calibrations[name].gamma
        source = detector_source(name)
        series = [s[name] for s in test_series]
        series_by_detector[name] = series
        verdicts[name] = [verdict_from_series(s, gamma, source, step_duration) for s in series]

    union_members = [verdicts[config.sentinel_detector]]
    if config.monitor is not None:
        verdicts["vlm"] = []
        for i, log in enumerate(test_logs):
            rng = np.random.default_rng(np.random.SeedSequence((config.master_seed, 7, i)))
            verdicts["vlm"].append(config.monitor.verdict(log, rng))
        union_members.append(verdicts["vlm"])
    verdicts["sentinel"] = [combine(*members) for members in zip(*union_members)]

    labels = [log.label for log in test_logs]
    report = {
        "config": config.to_json_obj(),
        "n_calibration_used": len(cal_logs),
        "calibration": {name: calibrations[name].to_json_obj() for name in config.detectors},
        "metrics": {name: compute_metrics(v, labels) for name, v in verdicts.items()},
        "seeds": {"calibration": cal_seeds,
                  "test": [seed for _, seed in test_plan]},
        "test_behaviors": [behavior for behavior, _ in test_plan],
    }

    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "report.json").write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        (out_dir / "verdicts.csv").write_text(
            _verdicts_csv(test_plan, labels, verdicts), encoding="utf-8")
        (out_dir / "scores.svg").write_text(
            score_chart_svg(series_by_detector[config.sentinel_detector],
                            [label.is_failure for label in labels],
                            calibrations[config.sentinel_detector].gamma,
                            title=config.sentinel_detector),
            encoding="utf-8")
    return report


def _verdicts_csv(test_plan, labels, verdicts_by_source: dict) -> str:
    names = sorted(verdicts_by_source)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = ["index", "seed", "behavior", "label"]
    for name in names:
        header.extend([f"{name}_decision", f"{name}_detection_timestep"])
    writer.writerow(header)
    for i, ((behavior, seed), label) in enumerate(zip(test_plan, labels)):
        row = [i, seed, behavior, label.outcome]
        for name in names:
            verdict = verdicts_by_source[name][i]
            row.append(verdict.decision)
            row.append("" if verdict.detection_timestep is None else verdict.detection_timestep)
        writer.writerow(row)
    return buf.getvalue()


def score_chart_svg(series_list: Sequence[ScoreSeries], is_failure: Sequence[bool],
                    gamma: float, title: str = "") -> str:
    """The first 20 cumulative-score curves and the threshold line, as a 640 x 360 SVG.

    Hand-rolled with fixed decimal formatting so identical inputs give
    byte-identical files.
    """
    margin, width, height = 40.0, 640, 360
    curves = list(zip(series_list, is_failure))[:20]
    if not curves:
        raise ValueError("need at least one score series")
    t_max = max(max(s.timesteps) for s, _ in curves) or 1
    finite_gamma = gamma if np.isfinite(gamma) else None
    y_candidates = [max(s.cumulative) for s, _ in curves]
    if finite_gamma is not None:
        y_candidates.append(finite_gamma)
    y_max = max(max(y_candidates), 1e-12)

    def sx(t):
        return margin + (width - 2 * margin) * (t / t_max)

    def sy(v):
        return height - margin - (height - 2 * margin) * (v / y_max)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
             f'viewBox="0 0 {width} {height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>',
             f'<text x="{margin:.1f}" y="20" font-family="monospace" font-size="13">'
             f'cumulative score vs timestep ({title})</text>']
    axis = (f'<line x1="{margin:.1f}" y1="{height - margin:.1f}" x2="{width - margin:.1f}" '
            f'y2="{height - margin:.1f}" stroke="black"/>'
            f'<line x1="{margin:.1f}" y1="{margin:.1f}" x2="{margin:.1f}" '
            f'y2="{height - margin:.1f}" stroke="black"/>')
    parts.append(axis)
    for series, failed in curves:
        color = "#c0392b" if failed else "#2c7fb8"
        points = " ".join(f"{sx(t):.2f},{sy(min(v, y_max)):.2f}"
                          for t, v in zip(series.timesteps, series.cumulative))
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1" points="{points}"/>')
    if finite_gamma is not None:
        y = sy(finite_gamma)
        parts.append(f'<line x1="{margin:.1f}" y1="{y:.2f}" x2="{width - margin:.1f}" y2="{y:.2f}" '
                     f'stroke="#444444" stroke-dasharray="6,4"/>')
        parts.append(f'<text x="{width - margin - 60:.1f}" y="{y - 5:.2f}" font-family="monospace" '
                     f'font-size="12">threshold</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
