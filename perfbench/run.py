"""Sentinel benchmark: end-to-end metrics per workload, or per-module metrics
from a traced run.

    python3 perfbench/run.py --workload oracle-battery --seed 0 --seconds 50 --trace 0
    python3 perfbench/run.py --smoke

A run makes one untimed warm-up pass that fills caches and checks the
outputs against the committed reference (or, for seeds without one, becomes
the reference), then repeats timed passes for `--seconds`, each followed by
an online-latency probe and a set-up in a fresh interpreter. Every pass is
checked. The last line of stdout is one JSON object: {"correct", "attempted",
"failed", "metrics"}; with `--trace 0` the metrics are the end-to-end ones,
with `--trace 1` the per-module ones. The lines before it are for people:
metric tables, the online-budget table, and a `detail:` JSON line with the
environment, artifact hashes and samples.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402
from workloads import ROOT, WORKLOADS, compare, import_sentinel, work_dir  # noqa: E402

BENCHMARK_JSON = ROOT / "BENCHMARK.json"
MIN_PASSES = 3
# Per pass, the online-latency probe times score_log + detect_online calls,
# cycling over the test logs, for at least this many calls and this long.
# Short calls are the ones the host's speed swings move most from one second
# to the next, so the probe takes a large share of each cycle.
PROBE_CALLS = 40
PROBE_SECONDS = 2.0
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "step_p50_ms": "ms",
                    "step_p90_ms": "ms", "peak_rss_mb": "MB"}


class SetupError(RuntimeError):
    pass


def git_sha():
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_env": {name: os.environ.get(name) for name in BLAS_ENV},
        "git_sha": git_sha(),
    }


def setup_probe(workload: str, seed: int, smoke: bool) -> float:
    """Time one set-up in a fresh interpreter: import sentinel, build inputs."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", workload, "--seed", str(seed)] + (["--smoke"] if smoke else [])
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise SetupError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def run_setup_probe(workload: str, seed: int, smoke: bool) -> None:
    with work_dir("setup-") as work:
        started = time.perf_counter()
        import_sentinel()
        WORKLOADS[workload](seed, smoke).setup(work)
        elapsed = time.perf_counter() - started
    print(json.dumps({"setup_s": elapsed}))


def probe_steps(logs, gamma: float, samples: list):
    """Online latency of the sentinel detector: per call, (score_log +
    detect_online) time divided by the log's record count, in ms, appended
    to `samples[log index]`. Returns the detection timestep found for each
    log."""
    import sentinel.baselines
    import sentinel.stac
    hits = [None] * len(logs)
    until = time.perf_counter() + PROBE_SECONDS
    i = 0
    while i < max(PROBE_CALLS, len(logs)) or time.perf_counter() < until:
        j = i % len(logs)
        i += 1
        log = logs[j]
        started = time.perf_counter()
        series = sentinel.baselines.score_log("stac-mmd", log)
        hit = sentinel.stac.detect_online(series, gamma)
        samples[j].append(1e3 * (time.perf_counter() - started) / log.n_records)
        hits[j] = hit
    return hits


def measure(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> tuple:
    """Run one workload; returns (result line dict, detail dict)."""
    workload = WORKLOADS[name](seed, smoke)

    problems = []
    setup_samples, walls, cpus, traced_walls, traced_passes = [], [], [], [], []
    attempted = failed = 0
    detail = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "smoke": smoke, "env": environment()}
    recorder = tracing.Recorder()
    missing = []
    with work_dir(f"{name}-") as work:
        workload.setup(work)
        committed, ref_path = workload.reference()
        detail["reference"] = str(ref_path.relative_to(ROOT)) if ref_path else "warm-up pass"

        # Warm-up: untimed; its outputs must be valid and match the committed
        # reference, and they are the reference for seeds without one.
        warm_dir = work / "warm-up"
        warm = workload.run_pass(warm_dir)
        reference = workload.fingerprint(warm)
        detail["sha256"] = reference["sha256"]
        warm_problems = workload.validate(warm)
        if committed is not None:
            warm_problems += compare(committed, reference)
            reference = committed
        problems += [f"warm-up: {p}" for p in warm_problems]
        probe_logs, gamma, expected_hits = workload.probe_inputs(warm)
        steps = [[] for _ in probe_logs]
        # The online budget of one inference step: k * dt.
        header = probe_logs[0].header
        budget = header.execution_horizon * header.step_duration
        shutil.rmtree(warm_dir, ignore_errors=True)

        deadline = time.perf_counter() + seconds
        index = 0
        min_passes = 1 if smoke else MIN_PASSES
        # A traced run alternates untraced and traced passes, so that the
        # tracing overhead is measured on the same machine state.
        while True:
            traced = trace and index % 2 == 1
            pass_dir = work / f"pass-{index:04d}"
            attempted += 1
            pass_problems = []
            try:
                started, cpu_started = time.perf_counter(), time.process_time()
                if traced:
                    with tracing.instrument(recorder) as missing:
                        out = workload.run_pass(pass_dir)
                else:
                    out = workload.run_pass(pass_dir)
                wall = time.perf_counter() - started
                cpu = time.process_time() - cpu_started
                if traced:
                    traced_walls.append(wall)
                    traced_passes.append(tracing.aggregate_pass(recorder.take()))
                else:
                    walls.append(wall)
                    cpus.append(cpu)
                pass_problems += compare(reference, workload.fingerprint(out))
                pass_problems += workload.validate(out)
                if not traced:
                    hits = probe_steps(probe_logs, gamma, steps)
                    if hits != expected_hits:
                        pass_problems.append("score_log + detect_online disagree with the "
                                             "pass's own stac-mmd verdicts")
            except Exception as exc:  # a failing pass is counted, and the run goes on
                recorder.take()
                pass_problems.append(f"{type(exc).__name__}: {exc}")
            finally:
                shutil.rmtree(pass_dir, ignore_errors=True)
            # One set-up per untraced cycle, in a fresh interpreter, so the
            # set-up samples spread over the run like the passes do.
            if not traced:
                setup_samples.append(setup_probe(name, seed, smoke))
            if pass_problems:
                failed += 1
                problems += [f"pass {index}: {p}" for p in pass_problems]
            index += 1
            enough = len(walls) >= min_passes and (not trace or len(traced_walls) >= min_passes)
            if enough and time.perf_counter() >= deadline:
                break

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # Per log, the mean over the whole run; then percentiles over logs. The
    # host's speed swings between levels from one second to the next, and a
    # percentile over single calls jumps between those levels from run to
    # run, where a mean over the run moves with the share of time in each.
    step_means = [statistics.fmean(calls) for calls in steps if calls]
    end_to_end = {
        "setup_s": statistics.median(setup_samples),
        "wall_s": statistics.median(walls) if walls else 0.0,
        "cpu_s": statistics.median(cpus) if cpus else 0.0,
        "step_p50_ms": tracing.percentile(step_means, 50),
        "step_p90_ms": tracing.percentile(step_means, 90),
        "peak_rss_mb": peak_rss_mb,
    }
    detail.update({
        "budget_s": budget,
        "passes": {"untraced": len(walls), "traced": len(traced_walls)},
        "samples": {"setup_s": setup_samples, "wall_s": walls, "cpu_s": cpus,
                    "traced_wall_s": traced_walls, "step_ms": step_means,
                    "step_calls": sum(map(len, steps))},
        "end_to_end": end_to_end,
        "error_rate": failed / attempted,
        "problems": problems[:20],
    })
    if trace:
        overhead = (statistics.median(traced_walls) / statistics.median(walls) - 1.0
                    if traced_walls and walls else 0.0)
        metrics = tracing.per_layer_metrics(traced_passes, budget, overhead)
        detail["missing_trace_targets"] = missing
        detail["attribution"] = attribution(traced_passes)
        units = per_layer_units()
    else:
        metrics = end_to_end
        units = END_TO_END_UNITS
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }
    return result, detail


def attribution(passes: list) -> dict:
    """Shares that tie the trace to the known cost structure of each workload."""
    oracle = ("ddpm", "ddpm-temporal", "recon", "recon-temporal")
    scoring = oracle_part = 0.0
    for p in passes:
        for name, row in p.items():
            if name.startswith("baselines.score_log."):
                scoring += row["total_s"]
                if name.rsplit(".", 1)[1] in oracle:
                    oracle_part += row["self_s"]
        oracle_part += p.get("policy.eps", {}).get("self_s", 0.0)
    busy = tracing.module_busy_time(passes)
    total = sum(busy.values())
    return {
        "oracle_share_of_scoring": oracle_part / scoring if scoring else 0.0,
        "module_busy_share": {m: (v / total if total else 0.0) for m, v in busy.items()},
    }


def per_layer_units() -> dict:
    units = {}
    for name in tracing.per_layer_metric_names():
        stat = name.rsplit(".", 1)[1]
        units[name] = {"self_s": "s", "busy_s": "s", "step_p50_ms": "ms", "step_p90_ms": "ms",
                       "mb_per_s": "MB/s", "budget_frac_p90": "fraction",
                       "concurrency": "ratio", "overhead_frac": "fraction",
                       "rows": "count"}.get(stat, "count")
    return units


def print_report(result: dict, detail: dict) -> None:
    print(f"workload {detail['workload']}  seed {detail['seed']}  trace {detail['trace']}  "
          f"passes {detail['passes']}  reference: {detail.get('reference')}")
    counts = {"setup_s": len(detail["samples"]["setup_s"]),
              "wall_s": detail["passes"]["untraced"], "cpu_s": detail["passes"]["untraced"],
              "step_p50_ms": len(detail["samples"]["step_ms"]),
              "step_p90_ms": len(detail["samples"]["step_ms"]), "peak_rss_mb": 1}
    print(f"{'metric':<16}{'value':>14}  {'unit':<6}n")
    for key, value in detail["end_to_end"].items():
        print(f"{key:<16}{value:>14.6g}  {END_TO_END_UNITS[key]:<6}{counts[key]}")
    print(f"{'error_rate':<16}{detail['error_rate']:>14.6g}  {'1':<6}{result['attempted']}")
    budget_ms = 1e3 * detail["budget_s"]
    print(f"online budget k*dt = {budget_ms:.0f} ms; stac-mmd step latency is each log's mean "
          f"over {detail['samples']['step_calls']} probe calls, percentiles over "
          f"{len(detail['samples']['step_ms'])} logs")
    print(f"{'detector':<16}{'step_p50_ms':>12}{'step_p90_ms':>12}{'budget_ms':>10}"
          f"{'budget_frac_p90':>17}")
    if detail["trace"]:
        for det in tracing.DETECTORS:
            base = f"baselines.score_log.{det}"
            if result["metrics"][f"{base}.calls"]["value"] == 0:
                continue
            p50 = result["metrics"][f"{base}.step_p50_ms"]["value"]
            p90 = result["metrics"][f"{base}.step_p90_ms"]["value"]
            print(f"{det:<16}{p50:>12.4f}{p90:>12.4f}{budget_ms:>10.0f}{p90 / budget_ms:>17.2e}")
        print("(traced: latencies are measured inside the workload, pools included)")
    else:
        p50, p90 = detail["end_to_end"]["step_p50_ms"], detail["end_to_end"]["step_p90_ms"]
        print(f"{'stac-mmd':<16}{p50:>12.4f}{p90:>12.4f}{budget_ms:>10.0f}{p90 / budget_ms:>17.2e}")
    for problem in detail["problems"]:
        print(f"problem: {problem}")
    print("detail: " + json.dumps(detail, sort_keys=True))


def check_schema(result: dict, trace: bool) -> list:
    """Problems with a result line against BENCHMARK.json."""
    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys are {sorted(result)}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int)):
        problems.append("attempted/failed are not whole numbers with attempted >= 1")
    if result["correct"] is not True or result["failed"] != 0:
        problems.append("correctness gate failed")
    if set(result["metrics"]) != set(want):
        problems.append(f"metric names differ: "
                        f"{sorted(set(result['metrics']) ^ set(want))[:10]}")
    for key, entry in result["metrics"].items():
        if set(entry) != {"value", "unit"} or entry["unit"] != want.get(key):
            problems.append(f"{key}: bad entry {entry}")
        elif not (isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"])):
            problems.append(f"{key}: value {entry['value']!r} is not a finite number")
    return problems


def smoke() -> int:
    """Every workload at minimal size, both modes: schema and correctness gate."""
    bad = 0
    for name in WORKLOADS:
        for trace in (False, True):
            result, detail = measure(name, 0, 0.0, trace, smoke=True)
            problems = check_schema(result, trace) + detail["problems"]
            bad += bool(problems)
            status = "ok" if not problems else "FAIL " + "; ".join(problems[:5])
            print(f"smoke {name} trace={int(trace)}: {status}")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at minimal size and check the result schema")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        run_setup_probe(args.workload, args.seed, args.smoke)
        return 0
    try:
        import_sentinel()
    except ImportError as exc:
        print(f"error: cannot import sentinel from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 3
    if args.smoke and args.workload is None:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    try:
        result, detail = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                                 args.smoke)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print_report(result, detail)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
