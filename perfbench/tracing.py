"""In-memory span recorder that instruments sentinel from the outside.

Nothing in `src/sentinel` is edited: `instrument()` swaps each public
function for a timing wrapper under every name a caller looks it up by
(`sentinel.stac.mmd_rbf` as well as `sentinel.distances.mmd_rbf`), and puts
the originals back on exit. A name that no longer exists is reported as
missing instead of failing, so the trace survives refactors that remove or
move a function.

Spans nest by a per-thread stack. A span opened on a thread whose stack is
empty (a pool worker) is parented to the span open at the top of the
driving thread's stack, which is the call that submitted the work. Self
time is a span's duration minus the part of it that its children cover.
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
import threading
import time
from contextlib import contextmanager

# Registry order matters only for printing.
DETECTORS = ("stac-mmd", "stac-klf", "stac-klr", "min-l2", "mahalanobis",
             "ddpm", "ddpm-temporal", "recon", "recon-temporal", "outvar")
MODULES = ("policy", "baselines", "stac", "distances", "calibration", "rollout",
           "evaluation", "vlm", "cli")


def _rows(args, kwargs, result):
    # eps(self, noised_chunk, state, i): rows are the leading dims of the chunk.
    shape = getattr(args[1], "shape", ())
    rows = 1
    for size in shape[:-2]:
        rows *= int(size)
    return rows


def _written_bytes(args, kwargs, result):
    return os.path.getsize(args[1])


def _read_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


def _records(args, kwargs, result):
    return args[1].n_records


def _detector_name(args, kwargs):
    return f"baselines.score_log.{args[0]}"


# (span name, module, attribute path, extra(args, kwargs, result) or None,
#  span-name function or None). Span names are `<module>.<function>`.
TARGETS = (
    ("policy.eps", "sentinel.policy", "SyntheticGmmPolicy.eps", _rows, None),
    ("policy.generate_rollout", "sentinel.policy", "generate_rollout", None, None),
    ("baselines.score_log", "sentinel.baselines", "score_log", _records, _detector_name),
    ("stac.extract_overlap", "sentinel.stac", "extract_overlap", None, None),
    ("stac.detect_online", "sentinel.stac", "detect_online", None, None),
    ("distances.mmd_rbf", "sentinel.distances", "mmd_rbf", None, None),
    ("distances.kde_log_density", "sentinel.distances", "kde_log_density", None, None),
    ("distances.median_heuristic", "sentinel.distances", "median_heuristic", None, None),
    ("distances.kde_bandwidth_max_eig", "sentinel.distances", "kde_bandwidth_max_eig",
     None, None),
    ("distances.min_l2", "sentinel.distances", "min_l2", None, None),
    ("calibration.conformal_threshold", "sentinel.calibration", "conformal_threshold",
     None, None),
    ("calibration.leave_trajectory_out_stats", "sentinel.calibration",
     "leave_trajectory_out_stats", None, None),
    ("calibration.pooled_stats", "sentinel.calibration", "pooled_stats", None, None),
    ("rollout.write_log", "sentinel.rollout", "write_log", _written_bytes, None),
    ("rollout.read_log", "sentinel.rollout", "read_log", _read_bytes, None),
    ("evaluation.run_benchmark", "sentinel.evaluation", "run_benchmark", None, None),
    ("evaluation.score_chart_svg", "sentinel.evaluation", "score_chart_svg", None, None),
    ("evaluation.combine", "sentinel.evaluation", "combine", None, None),
    ("evaluation.scripted_monitor", "sentinel.evaluation", "ScriptedMonitor.verdict",
     None, None),
    ("vlm.query_monitor", "sentinel.vlm", "query_monitor", None, None),
    ("vlm.parse_response", "sentinel.vlm", "parse_response", None, None),
    ("vlm.prompt_from_log", "sentinel.vlm", "prompt_from_log", None, None),
    ("vlm.transport", "sentinel.vlm", "MonitorTransport.request", None, None),
    ("cli.synth", "sentinel.cli", "cmd_synth", None, None),
    ("cli.calibrate", "sentinel.cli", "cmd_calibrate", None, None),
    ("cli.detect", "sentinel.cli", "cmd_detect", None, None),
    ("cli.vlm", "sentinel.cli", "cmd_vlm", None, None),
)


def per_layer_metric_names() -> list:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = ["policy.eps.calls", "policy.eps.rows", "policy.eps.self_s",
             "policy.generate_rollout.calls", "policy.generate_rollout.self_s"]
    for det in DETECTORS:
        base = f"baselines.score_log.{det}"
        names += [f"{base}.{stat}" for stat in
                  ("calls", "self_s", "step_p50_ms", "step_p90_ms", "budget_frac_p90")]
    names += ["stac.extract_overlap.calls", "stac.extract_overlap.self_s",
              "stac.detect_online.calls", "stac.detect_online.self_s"]
    for fn in ("mmd_rbf", "kde_log_density", "median_heuristic",
               "kde_bandwidth_max_eig", "min_l2"):
        names += [f"distances.{fn}.calls", f"distances.{fn}.self_s"]
    for fn in ("conformal_threshold", "leave_trajectory_out_stats", "pooled_stats"):
        names += [f"calibration.{fn}.calls", f"calibration.{fn}.self_s"]
    for fn in ("write_log", "read_log"):
        names += [f"rollout.{fn}.calls", f"rollout.{fn}.self_s", f"rollout.{fn}.mb_per_s"]
    names += ["evaluation.run_benchmark.self_s", "evaluation.run_benchmark.concurrency",
              "evaluation.score_chart_svg.self_s", "evaluation.combine.calls",
              "evaluation.scripted_monitor.calls", "evaluation.scripted_monitor.self_s"]
    for fn in ("query_monitor", "parse_response", "prompt_from_log"):
        names += [f"vlm.{fn}.calls", f"vlm.{fn}.self_s"]
    names += ["vlm.transport.requests", "vlm.transport.retries"]
    names += [f"cli.{cmd}.self_s" for cmd in ("synth", "calibrate", "detect", "vlm")]
    names += [f"{module}.busy_s" for module in MODULES]
    names.append("trace.overhead_frac")
    return names


class Span:
    """One call: wall interval, its thread's CPU time over it, and children."""

    __slots__ = ("name", "start", "end", "cpu_start", "cpu_end", "thread", "children",
                 "extra")

    def __init__(self, name: str):
        self.name = name
        self.thread = threading.get_ident()
        self.children = []
        self.extra = 0
        self.cpu_start = self.cpu_end = time.thread_time()
        self.start = self.end = time.perf_counter()

    @property
    def duration(self) -> float:
        return self.end - self.start

    def busy_time(self) -> float:
        """Thread CPU time of this span minus that of its same-thread children.

        Unlike self time, it excludes waiting, for the GIL among others, so it
        attributes work correctly when pool threads overlap.
        """
        own = self.cpu_end - self.cpu_start
        return own - sum(c.cpu_end - c.cpu_start for c in self.children
                         if c.thread == self.thread)

    def self_time(self) -> float:
        """Duration minus the union of child intervals clipped to this span."""
        covered = 0.0
        cursor = self.start
        for child in sorted(self.children, key=lambda c: c.start):
            lo, hi = max(child.start, cursor), min(child.end, self.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        return self.duration - covered


class Recorder:
    """Collects spans in memory; the driving thread is the one that created it."""

    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            # Slicing is one bytecode, so it cannot race the driving thread's pop.
            tail = self._main_stack[-1:] if stack is not self._main_stack else []
            parent = tail[0] if tail else None
        span = Span(name)
        if parent is not None:
            parent.children.append(span)
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        span.cpu_end = time.thread_time()
        self._stack().pop()

    def wrap(self, fn, name: str, extra=None, name_fn=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name_fn(args, kwargs) if name_fn else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if extra is not None:
                span.extra = extra(args, kwargs, result)
            return result
        return traced

    def take(self) -> list:
        spans, self.spans = self.spans, []
        return spans


def _resolve(module_name: str, path: str):
    """(owner, attribute, original) or None when any part of the path is gone."""
    owner = sys.modules.get(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
    original = getattr(owner, parts[-1], None) if owner is not None else None
    if original is None:
        return None
    return owner, parts[-1], original


@contextmanager
def instrument(recorder: Recorder):
    """Wrap every target under every name it is bound to; yields missing names."""
    patches = []  # (owner, attribute, original)
    missing = []
    try:
        for name, module_name, path, extra, name_fn in TARGETS:
            found = _resolve(module_name, path)
            if found is None:
                missing.append(name)
                continue
            owner, attr, original = found
            wrapper = recorder.wrap(original, name, extra, name_fn)
            if "." in path:  # a method: patch the class once
                patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for mod_name, module in list(sys.modules.items()):
                if module is None or not (mod_name == "sentinel"
                                          or mod_name.startswith("sentinel.")):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        patches.append((module, key, original))
                        setattr(module, key, wrapper)
        yield missing
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (q in [0, 100]); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def aggregate_pass(spans) -> dict:
    """Per-name totals of one traced pass.

    Returns {name: {"calls", "self_s", "busy_s", "total_s", "extra",
    "durations", "extras"}}, plus the child/parent time ratio of run_benchmark spans
    under the key "evaluation.run_benchmark.concurrency".
    """
    table = {}
    child_time = parent_time = 0.0
    for span in spans:
        row = table.setdefault(span.name, {"calls": 0, "self_s": 0.0, "busy_s": 0.0,
                                           "total_s": 0.0, "extra": 0, "durations": [],
                                           "extras": []})
        row["calls"] += 1
        row["self_s"] += span.self_time()
        row["busy_s"] += span.busy_time()
        row["total_s"] += span.duration
        row["extra"] += span.extra
        row["durations"].append(span.duration)
        row["extras"].append(span.extra)
        if span.name == "evaluation.run_benchmark":
            parent_time += span.duration
            child_time += sum(child.duration for child in span.children)
    table["evaluation.run_benchmark.concurrency"] = (
        child_time / parent_time if parent_time > 0 else 0.0)
    return table


def per_layer_metrics(passes: list, budget_s: float, overhead_frac: float) -> dict:
    """Reduce per-pass aggregates to the per-layer metric set.

    Counts and times are per pass (median over passes); step latencies pool
    every score_log call of every pass.
    """
    def stat(name, key):
        values = [p.get(name, {}).get(key, 0) for p in passes]
        return statistics.median(values) if values else 0.0

    metrics = {}
    busy = module_busy_time(passes)
    for name in per_layer_metric_names():
        parts = name.rsplit(".", 1)
        base, key = parts[0], parts[1]
        if key == "busy_s":
            value = busy[base]
        elif name == "evaluation.run_benchmark.concurrency":
            value = statistics.median(p[name] for p in passes) if passes else 0.0
        elif name == "trace.overhead_frac":
            value = overhead_frac
        elif name == "vlm.transport.requests":
            value = stat("vlm.transport", "calls")
        elif name == "vlm.transport.retries":
            value = stat("vlm.transport", "calls") - stat("vlm.query_monitor", "calls")
        elif key == "rows":
            value = stat(base, "extra")
        elif key == "mb_per_s":
            rates = []
            for p in passes:
                row = p.get(base)
                if row and row["total_s"] > 0:
                    rates.append(row["extra"] / 1e6 / row["total_s"])
            value = statistics.median(rates) if rates else 0.0
        elif key in ("step_p50_ms", "step_p90_ms", "budget_frac_p90"):
            steps = []
            for p in passes:
                row = p.get(base)
                if row:
                    steps += [1e3 * d / n for d, n in zip(row["durations"], row["extras"]) if n]
            q = 50 if key == "step_p50_ms" else 90
            value = percentile(steps, q)
            if key == "budget_frac_p90":
                value = value / (1e3 * budget_s)
        else:
            value = stat(base, key)
        metrics[name] = float(value)
    return metrics


def module_busy_time(passes: list) -> dict:
    """Median per-pass busy (thread CPU) time summed by sentinel module."""
    out = {}
    for module in MODULES:
        values = [sum(row["busy_s"] for name, row in p.items()
                      if isinstance(row, dict) and name.split(".")[0] == module)
                  for p in passes]
        out[module] = statistics.median(values) if values else 0.0
    return out
