"""Command-line entry point: synthesize, calibrate, detect, evaluate, monitor.

Results go to stdout as JSON (indented, or rendered as tables, with --pretty);
failures go to stderr as one machine-parseable JSON object with a nonzero
exit code. Wall-clock timings go to stderr too, so stdout is byte-stable.
Detector names come from the single registry shared with the score-function
library, and `detect` is exactly the library composition of scoring plus
online thresholding.
"""

from __future__ import annotations

import argparse
import functools
import glob as globlib
import json
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from .baselines import (DETECTOR_NAMES, ORACLE_DETECTORS, DetectorContext, EmbeddingStats,
                        embedding_matrix, score_log, score_logs)
from .calibration import (DEFAULT_DELTA, CalibrationResult, conformal_threshold,
                          leave_trajectory_out_stats, pooled_stats)
from .evaluation import (BenchmarkConfig, detector_source, run_benchmark,
                         verdict_from_series)
from .policy import ScenarioConfig, default_goal_label, generate_rollout
from .rollout import LOG_SUFFIX, _scalar, read_log, write_log
from .vlm import (TEMPLATE_IDS, VARIANT_TEMPLATES, HttpTransport, MockTransport,
                  MonitorError, checkpoint_record_indices, monitor_log)

# Scenario names map onto sampling behaviors; "nominal" is the calibration
# distribution.
SCENARIO_BEHAVIORS = {
    "nominal": "consistent",
    "erratic": "mode_resample",
    "stall": "constant_stall",
    "drift": "drift",
}

ENSEMBLE_TEMPLATES = ("video_qa", "video_qa_success_video", "video_qa_goal_images")


class CliError(Exception):
    def __init__(self, message: str, kind: str = "error", code: int = 1):
        super().__init__(message)
        self.kind = kind
        self.code = code


def _fail(kind: str, message: str, code: int = 1):
    print(json.dumps({"error": {"type": kind, "message": message}}), file=sys.stderr)
    sys.exit(code)


class _Parser(argparse.ArgumentParser):
    # Argparse's default error path prints usage text; the contract here is a
    # JSON error object and a distinct exit code for bad flags.
    def error(self, message):
        _fail("usage", f"{self.prog}: {message}", code=2)


def _emit(obj, pretty: bool, pretty_text=None):
    if pretty and pretty_text is not None:
        print(pretty_text)
    elif pretty:
        print(json.dumps(obj, indent=2, sort_keys=True))
    else:
        print(json.dumps(obj, sort_keys=True, separators=(",", ":")))


def _read_json_object(path: Path, what: str) -> dict:
    """Parse a file that must hold one JSON object; refuse it as a `config` error."""
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise CliError(f"{path}: {what} is not valid JSON: {exc}", kind="config") from exc
    if not isinstance(obj, dict):
        raise CliError(f"{path}: {what} must hold a JSON object", kind="config")
    return obj


def _load_scenario(config_path) -> ScenarioConfig:
    if config_path is None:
        return ScenarioConfig()
    path = Path(config_path)
    if not path.is_file():
        raise CliError(f"no such config file: {path}", kind="config")
    obj = _read_json_object(path, "scenario config")
    # Accept either a bare scenario object or a benchmark config wrapping one.
    if "scenario" in obj and isinstance(obj["scenario"], dict):
        obj = obj["scenario"]
    try:
        return ScenarioConfig.from_json_obj(obj)
    except (ValueError, TypeError) as exc:
        raise CliError(f"invalid scenario config: {exc}", kind="config") from exc


def _read_log_or_fail(path):
    path = Path(path)
    if not path.is_file():
        raise CliError(f"no such log file: {path}", kind="io")
    try:
        return read_log(path)
    except ValueError as exc:
        raise CliError(f"{path}: {exc}", kind="log") from exc


def _oracle(name: str, scenario: ScenarioConfig):
    """The reference policy an oracle detector queries; None for any other detector."""
    return scenario.build_policy("consistent", seed=0) if name in ORACLE_DETECTORS else None


def cmd_synth(args) -> int:
    """Write `--n` logs from one policy, which `generate_rollout` reseeds for each log."""
    if args.n < 1:
        raise CliError("--n must be >= 1", kind="usage", code=2)
    behavior = SCENARIO_BEHAVIORS[args.scenario]
    scenario = _load_scenario(args.config)
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CliError(f"cannot create {out_dir}: {exc}", kind="io") from exc

    policy = scenario.build_policy(behavior)
    rows = []
    for i in range(args.n):
        seed = args.seed * 1_000_000 + i
        log = generate_rollout(policy, scenario, label_rule=default_goal_label, seed=seed)
        name = f"{args.scenario}_{i:04d}{LOG_SUFFIX}"
        write_log(log, out_dir / name)
        rows.append((name, seed, log.label.outcome))
    outcomes = [outcome for _, _, outcome in rows]
    manifest = {
        "scenario": args.scenario,
        "behavior": behavior,
        "n": args.n,
        "seed": args.seed,
        "out": str(out_dir),
        "files": [name for name, _, _ in rows],
        "seeds": [seed for _, seed, _ in rows],
        "labels": {"success": outcomes.count("success"), "failure": outcomes.count("failure")},
    }
    lines = [f"{name}  seed={seed}  {outcome}" for name, seed, outcome in rows]
    _emit(manifest, args.pretty, pretty_text="\n".join(lines))
    return 0


def _collect_logs(pattern: str):
    paths = sorted(globlib.glob(pattern, recursive=True))
    if not paths:
        raise CliError(f"no files match {pattern!r}", kind="io")
    return [(path, _read_log_or_fail(path)) for path in paths]


def cmd_calibrate(args) -> int:
    if not 0.0 < args.delta < 1.0:
        raise CliError(f"--delta must be in (0, 1), got {args.delta}", kind="usage", code=2)
    scenario = _load_scenario(args.config)
    logs = _collect_logs(args.logs)
    for path, log in logs:
        if log.label is None:
            raise CliError(f"{path}: calibration logs must be labeled", kind="label")
        if log.label.is_failure:
            raise CliError(f"{path}: refusing to calibrate on a failure-labeled rollout",
                           kind="label")
    stats_json = None
    per_log_stats = [None] * len(logs)
    if args.detector == "mahalanobis":
        if len(logs) < 2:
            raise CliError(f"mahalanobis calibration needs at least 2 logs, and --logs "
                           f"{args.logs!r} matched {len(logs)}", kind="io")
        embeddings = []
        for path, log in logs:
            try:
                embeddings.append(embedding_matrix(log))
            except ValueError as exc:
                raise CliError(f"{path}: mahalanobis needs embeddings in every record: {exc}",
                               kind="log") from exc
        per_log_stats = [EmbeddingStats.from_mean_cov(mu, cov)
                         for mu, cov in leave_trajectory_out_stats(embeddings)]
        mu, cov = pooled_stats(embeddings)
        stats_json = {"mean": mu.tolist(), "covariance": cov.tolist()}
    ctxs = [DetectorContext(embedding_stats=stats, seed=args.seed) for stats in per_log_stats]
    try:
        battery = score_logs((args.detector,), [log for _, log in logs], ctxs,
                             _oracle(args.detector, scenario))
    except ValueError as exc:
        # Named by its file: the first bad log that lockstep meets, which can
        # be a later file than another bad one.
        raise CliError(f"{logs[exc.log_index][0]}: {exc}", kind="score") from exc
    terminals = [series[args.detector].terminal for series in battery]

    result = conformal_threshold(terminals, args.delta)
    envelope = {"detector": args.detector, "result": result.to_json_obj()}
    if stats_json is not None:
        envelope["embedding_stats"] = stats_json
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(envelope, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    if result.is_infinite:
        print(json.dumps({"warning": (
            f"threshold is infinite: {result.m} rollouts cannot support the "
            f"{1 - result.delta:.3f} quantile; the detector will never flag")}), file=sys.stderr)
    summary = {"detector": args.detector, "m": result.m,
               "gamma": result.to_json_obj()["gamma"], "delta": result.delta,
               "out": str(out)}
    pretty = (f"detector {args.detector}: m={result.m} delta={result.delta} "
              f"gamma={result.gamma}")
    _emit(summary, args.pretty, pretty_text=pretty)
    return 0


def _load_calibration(path, detector: str):
    path = Path(path)
    if not path.is_file():
        raise CliError(f"no such calibration file: {path}", kind="io")
    envelope = _read_json_object(path, "calibration file")
    if envelope.get("detector") != detector:
        raise CliError(
            f"calibration file is for {envelope.get('detector')!r}, not {detector!r}",
            kind="config")
    try:
        result = CalibrationResult.from_json_obj(envelope["result"])
        stats = None
        if "embedding_stats" in envelope:
            # Each entry is refused unless it is a real number, as in the result.
            fit = envelope["embedding_stats"]
            stats = EmbeddingStats.from_mean_cov(
                np.array([_scalar(v, "float", f"embedding_stats.mean[{i}]")
                          for i, v in enumerate(fit["mean"])]),
                np.array([[_scalar(v, "float", f"embedding_stats.covariance[{i}][{j}]")
                           for j, v in enumerate(row)]
                          for i, row in enumerate(fit["covariance"])]))
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"{path}: malformed calibration file: {type(exc).__name__}: {exc}",
                       kind="config") from exc
    return result, stats


def cmd_detect(args) -> int:
    result, stats = _load_calibration(args.calibration, args.detector)
    scenario = _load_scenario(args.config)
    log = _read_log_or_fail(args.log)
    if stats is not None:
        first = log.records[0].embedding
        if first is None or first.shape != stats.mean.shape:
            raise CliError("log embeddings do not match calibrated statistics",
                           kind="config")
    ctx = DetectorContext(embedding_stats=stats, seed=args.seed)
    try:
        series = score_log(args.detector, log, ctx, _oracle(args.detector, scenario))
    except ValueError as exc:
        raise CliError(str(exc), kind="score") from exc
    verdict = verdict_from_series(series, result.gamma, detector_source(args.detector),
                                  log.header.step_duration)
    if args.emit_series:
        out = Path(args.emit_series)
        out.parent.mkdir(parents=True, exist_ok=True)
        rows = ["timestep,step_score,cumulative"]
        rows += [f"{t},{s!r},{c!r}" for t, s, c in series.to_rows()]
        out.write_text("\n".join(rows) + "\n", encoding="utf-8")
    obj = verdict.to_json_obj()
    obj["detector"] = args.detector
    obj["gamma"] = result.to_json_obj()["gamma"]
    pretty = (f"{args.detector}: {verdict.decision}"
              + (f" at t={verdict.detection_timestep} "
                 f"({verdict.detection_seconds:.2f}s)" if verdict.decision == "failure" else ""))
    _emit(obj, args.pretty, pretty_text=pretty)
    return 0


def _bundled_config(name: str):
    base = name[:-5] if name.endswith(".json") else name
    candidate = resources.files("sentinel").joinpath(f"configs/{base}.json")
    if candidate.is_file():
        return json.loads(candidate.read_text(encoding="utf-8"))
    return None


def cmd_eval(args) -> int:
    path = Path(args.config)
    if path.is_file():
        obj = _read_json_object(path, "benchmark config")
    else:
        obj = _bundled_config(args.config)
        if obj is None:
            raise CliError(f"no such config file or bundled battery: {args.config}",
                           kind="config")
    try:
        config = BenchmarkConfig.from_json_obj(obj)
    except (ValueError, TypeError) as exc:
        raise CliError(f"invalid benchmark config: {exc}", kind="config") from exc
    report = run_benchmark(config, out_dir=args.out)
    table = _metrics_table(report["metrics"])
    _emit(report, args.pretty, pretty_text=table)
    return 0


def _metrics_table(metrics: dict) -> str:
    columns = ("tpr", "tnr", "fpr", "accuracy", "balanced_accuracy", "mean_detection_seconds")
    name_width = max(len(name) for name in metrics) + 2
    widths = [max(len(c), 8) for c in columns]
    lines = ["detector".ljust(name_width)
             + "  ".join(c.rjust(w) for c, w in zip(columns, widths))]
    for name in sorted(metrics):
        row = metrics[name]
        cells = []
        for c, w in zip(columns, widths):
            value = row.get(c)
            cells.append("-".rjust(w) if value is None else f"{value:{w}.3f}")
        lines.append(name.ljust(name_width) + "  ".join(cells))
    return "\n".join(lines)


def cmd_vlm(args) -> int:
    if args.nu < 1:
        raise CliError("--nu must be >= 1", kind="usage", code=2)
    if not 0.0 < args.timeout < float("inf"):
        raise CliError(f"--timeout must be a finite number > 0, got {args.timeout}",
                       kind="usage", code=2)
    if args.transport == "mock":
        if not args.fixtures:
            raise CliError("--fixtures DIR is required with the mock transport",
                           kind="usage", code=2)
        try:
            transport = MockTransport.from_dir(args.fixtures)
        except (OSError, ValueError, MonitorError) as exc:
            raise CliError(f"cannot load fixtures: {exc}", kind="io") from exc
    else:
        if not args.url or not args.model:
            raise CliError("--url and --model are required with the http transport",
                           kind="usage", code=2)
        transport = HttpTransport(args.url, args.model, timeout_seconds=args.timeout)

    templates = ENSEMBLE_TEMPLATES if args.ensemble else (args.template,)
    aux = tuple(args.aux_frames) if args.aux_frames else None
    if aux is None and any(t in VARIANT_TEMPLATES for t in templates):
        raise CliError("--aux-frames is required for the comparison prompt variants",
                       kind="usage", code=2)
    log = _read_log_or_fail(args.log)
    try:  # a checkpoint that makes no prompt is refused before any monitor request
        checkpoint_record_indices(log)
    except ValueError as exc:
        raise CliError(f"{args.log}: {exc}", kind="log") from exc
    results, detection_timestep = monitor_log(log, transport, templates, nu=args.nu,
                                              auxiliary_frames=aux)
    final = "ok" if detection_timestep is None else "failure"
    obj = {"checkpoints": results, "decision": final}
    if detection_timestep is not None:
        obj["detection_timestep"] = detection_timestep
        obj["detection_seconds"] = detection_timestep * log.header.step_duration
    lines = [f"t={r['timestep']} ({r['elapsed_seconds']:.0f}s): {r['decision']}"
             f" votes={','.join(r['votes'])}" for r in results]
    lines.append(f"final: {final}")
    _emit(obj, args.pretty, pretty_text="\n".join(lines))
    if transport.mean_latency_seconds is not None:
        # Wall-clock timing goes to stderr, so the result on stdout is byte-stable.
        timing = {"mean_latency_seconds": transport.mean_latency_seconds}
        print(json.dumps({"timing": timing}), file=sys.stderr)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one description of the command tree, built on first use and shared by every later
    call in the process, so callers must not mutate it. It names each command's function."""
    parser = _Parser(prog="sentinel", description=__doc__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--pretty", action="store_true",
                        help="human-readable output instead of compact JSON")
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate synthetic rollout logs",
                             parents=[common])
    p_synth.add_argument("--scenario", choices=sorted(SCENARIO_BEHAVIORS), required=True)
    p_synth.add_argument("--n", type=int, required=True)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--out", required=True)
    p_synth.add_argument("--config", default=None, help="scenario config JSON overlay")
    p_synth.set_defaults(func="cmd_synth")

    p_cal = sub.add_parser("calibrate", help="fit a conformal threshold on nominal logs", parents=[common])
    p_cal.add_argument("--detector", choices=DETECTOR_NAMES, required=True)
    p_cal.add_argument("--logs", required=True, help="glob over .sentinel.jsonl files")
    p_cal.add_argument("--delta", type=float, default=DEFAULT_DELTA)
    p_cal.add_argument("--out", required=True)
    p_cal.add_argument("--config", default=None)
    p_cal.add_argument("--seed", type=int, default=0)
    p_cal.set_defaults(func="cmd_calibrate")

    p_det = sub.add_parser("detect", help="score one log and report the online verdict", parents=[common])
    p_det.add_argument("--detector", choices=DETECTOR_NAMES, required=True)
    p_det.add_argument("--calibration", required=True)
    p_det.add_argument("--log", required=True)
    p_det.add_argument("--emit-series", default=None, help="write the score series CSV here")
    p_det.add_argument("--config", default=None)
    p_det.add_argument("--seed", type=int, default=0)
    p_det.set_defaults(func="cmd_detect")

    p_eval = sub.add_parser("eval", help="run a benchmark battery", parents=[common])
    p_eval.add_argument("--config", required=True,
                        help="benchmark config path or bundled name (erratic, stall, drift)")
    p_eval.add_argument("--out", required=True)
    p_eval.set_defaults(func="cmd_eval")

    p_vlm = sub.add_parser("vlm", help="query the task-progression monitor on a log", parents=[common])
    p_vlm.add_argument("--log", required=True)
    p_vlm.add_argument("--transport", choices=("mock", "http"), default="mock")
    p_vlm.add_argument("--template", choices=TEMPLATE_IDS, default="video_qa")
    p_vlm.add_argument("--ensemble", action="store_true",
                       help="majority-vote the three video prompts")
    p_vlm.add_argument("--fixtures", default=None, help="mock transport fixture directory")
    p_vlm.add_argument("--aux-frames", nargs="+", default=None,
                       help="reference frames for the comparison prompt variants")
    p_vlm.add_argument("--url", default=None)
    p_vlm.add_argument("--model", default=None)
    p_vlm.add_argument("--timeout", type=float, default=60.0)
    p_vlm.add_argument("--nu", type=int, default=1)
    p_vlm.set_defaults(func="cmd_vlm")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "seed", 0) < 0:  # synth, calibrate and detect take --seed
            raise CliError(f"--seed must be >= 0, got {args.seed}", kind="usage", code=2)
        return globals()[args.func](args)  # looked up now: a `cmd_*` patched later runs
    except CliError as exc:
        _fail(exc.kind, str(exc), exc.code)
    except MonitorError as exc:
        _fail("monitor", str(exc))
    except (ValueError, OSError) as exc:
        _fail(type(exc).__name__, str(exc))


if __name__ == "__main__":
    sys.exit(main())
