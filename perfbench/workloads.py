"""The benchmark's workloads: inputs from a seed, one timed pass, and the
fingerprint that decides whether a pass's outputs are correct.

Each workload drives sentinel only through public calls that stay stable:
`run_benchmark(config, out_dir=...)`, `sentinel.cli.main([...])`,
`generate_rollout`, `score_log`, `detect_online` and `read_log`. It passes no
`jobs` value, so every pass runs with the parallelism a user gets by default.
Calls go through module attributes at call time (`sentinel.baselines.
score_log(...)`), so the traced run sees them.

This module imports no sentinel code at import time: importing sentinel is
part of the measured set-up.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
REFS_DIR = Path(__file__).resolve().parent / "refs"
# Scratch space stays inside the checkout; it is removed when a run ends.
WORK_ROOT = ROOT / ".perfbench_work"

# Seeds with committed reference outputs: the default seed and a held-out one.
REF_SEEDS = (0, 1)

# Gammas and terminal scores may move in the last digits when a refactor
# reorders floating-point sums; anything else must match exactly.
REL_TOL = 1e-12


def import_sentinel():
    """Import the sentinel package from this checkout's `src`, never from elsewhere."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import sentinel
    import sentinel.cli  # noqa: F401  (not imported by the package itself)
    origin = Path(sentinel.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise ImportError(f"sentinel was imported from {origin}, not from {src}")
    return sentinel


@contextlib.contextmanager
def work_dir(prefix: str):
    """A fresh directory under WORK_ROOT, removed with WORK_ROOT (if empty) on exit."""
    WORK_ROOT.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=prefix, dir=WORK_ROOT))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def close_enough(a: float, b: float) -> bool:
    return a == b or abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def compare(reference: dict, got: dict) -> list:
    """Differences between two fingerprints, as readable strings."""
    problems = []
    for key in sorted(set(reference["exact"]) | set(got["exact"])):
        if reference["exact"].get(key) != got["exact"].get(key):
            problems.append(f"{key} differs from the reference")
    for key in sorted(set(reference["close"]) | set(got["close"])):
        want, have = reference["close"].get(key), got["close"].get(key)
        if want is None or have is None or len(want) != len(have):
            problems.append(f"{key} is missing or has another length")
        elif not all(close_enough(a, b) for a, b in zip(want, have)):
            problems.append(f"{key} differs from the reference beyond rel {REL_TOL}")
    return problems


def check_calibration(name: str, cal: dict) -> list:
    """Conformal-rank invariants of one calibration result (JSON form)."""
    problems = []
    gamma = cal["gamma"]
    if gamma == "inf" or not math.isfinite(float(gamma)):
        return [f"{name}: gamma is infinite, so the detector never fires"]
    m, delta, qi = cal["m"], cal["delta"], cal["quantile_index"]
    if qi != math.ceil((m + 1) * (1.0 - delta)):
        problems.append(f"{name}: quantile index {qi} is not ceil((M+1)(1-delta))")
    scores = cal["terminal_scores"]
    if len(scores) != m or scores != sorted(scores) or scores[qi - 1] != gamma:
        problems.append(f"{name}: gamma is not the quantile-index order statistic")
    return problems


def check_verdict_kinds(decisions) -> list:
    kinds = set(decisions)
    if kinds != {"ok", "failure"}:
        return [f"verdicts hold only {sorted(kinds)}; the workload exercises nothing"]
    return []


class Workload:
    """One set of inputs. Subclasses fill in set-up, a pass and its checks."""

    name = ""
    why = ""

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = int(seed)
        self.smoke = smoke

    def setup(self, work_dir: Path) -> None:
        raise NotImplementedError

    def run_pass(self, pass_dir: Path) -> dict:
        """Run the workload once; return its raw outputs."""
        raise NotImplementedError

    def fingerprint(self, out: dict) -> dict:
        """{"exact": ..., "close": ..., "sha256": ...} of one pass's outputs."""
        raise NotImplementedError

    def validate(self, out: dict) -> list:
        """Invariants every correct pass meets, whatever the seed."""
        raise NotImplementedError

    def probe_inputs(self, out: dict):
        """(logs, gamma, detection timesteps the pass reported for them)."""
        raise NotImplementedError

    def reference(self):
        """Committed reference fingerprint for this seed, or None."""
        path = REFS_DIR / f"{self.name}-seed{self.seed}.json"
        if self.smoke or not path.is_file():
            return None, None
        return json.loads(path.read_text(encoding="utf-8")), path


class BatteryWorkload(Workload):
    """`run_benchmark` on a generated config; outputs are its three artifacts."""

    def config_obj(self) -> dict:
        raise NotImplementedError

    def setup(self, work_dir: Path) -> None:
        sentinel = import_sentinel()
        self.config = sentinel.evaluation.BenchmarkConfig.from_json_obj(self.config_obj())

    def run_pass(self, pass_dir: Path) -> dict:
        import sentinel.evaluation
        report = sentinel.evaluation.run_benchmark(self.config, out_dir=pass_dir)
        files = {name: (pass_dir / name).read_bytes()
                 for name in ("report.json", "verdicts.csv", "scores.svg")}
        return {"report": report, "files": files}

    def fingerprint(self, out: dict) -> dict:
        report = json.loads(out["files"]["report.json"])
        calibration = report["calibration"]
        close = {}
        for name, cal in calibration.items():
            close[f"gamma.{name}"] = [float(cal["gamma"])]
            close[f"terminal_scores.{name}"] = list(cal["terminal_scores"])
        return {
            "exact": {
                "verdicts_csv": out["files"]["verdicts.csv"].decode("utf-8"),
                "metrics": report["metrics"],
                "quantile_index": {n: c["quantile_index"] for n, c in calibration.items()},
                "m": {n: c["m"] for n, c in calibration.items()},
            },
            "close": close,
            "sha256": {name: sha256_bytes(data) for name, data in out["files"].items()},
        }

    def _verdict_rows(self, out: dict) -> list:
        return list(csv.DictReader(io.StringIO(out["files"]["verdicts.csv"].decode("utf-8"))))

    def validate(self, out: dict) -> list:
        report = json.loads(out["files"]["report.json"])
        problems = []
        for name, cal in report["calibration"].items():
            problems += check_calibration(name, cal)
        rows = self._verdict_rows(out)
        decisions = [value for row in rows for key, value in row.items()
                     if key.endswith("_decision")]
        return problems + check_verdict_kinds(decisions)

    def probe_inputs(self, out: dict):
        import sentinel.policy
        report = out["report"]
        scenario = self.config.scenario
        logs = []
        for behavior, seed in zip(report["test_behaviors"], report["seeds"]["test"]):
            policy = scenario.build_policy(behavior, seed)
            logs.append(sentinel.policy.generate_rollout(policy, scenario, seed=seed))
        sentinel_name = self.config.sentinel_detector
        hits = [int(row[f"{sentinel_name}_detection_timestep"])
                if row[f"{sentinel_name}_detection_timestep"] else None
                for row in self._verdict_rows(out)]
        return logs, float(report["calibration"][sentinel_name]["gamma"]), hits


class OracleBattery(BatteryWorkload):
    name = "oracle-battery"
    why = ("all 10 detectors and a scripted monitor on consistent vs mode_resample rollouts: "
           "time goes to the GMM noise oracle behind the four diffusion detectors")

    def config_obj(self) -> dict:
        # Default geometry (B=32, h=8, k=4, d=2, 100 denoise steps); shorter
        # episodes with a faster approach keep nominal rollouts successful
        # while one pass stays a few seconds long.
        episode, gain = (16, 0.2) if self.smoke else (24, 0.12)
        return {
            "scenario": {"episode_limit": episode, "gain": gain},
            "detectors": ["stac-mmd", "stac-klf", "stac-klr", "min-l2", "mahalanobis",
                          "ddpm", "ddpm-temporal", "recon", "recon-temporal", "outvar"],
            "n_calibration": 3,
            "test_counts": ({"consistent": 1, "mode_resample": 1} if self.smoke
                            else {"consistent": 2, "mode_resample": 2}),
            "delta": 0.25,
            "master_seed": self.seed,
            "sentinel_detector": "stac-mmd",
            "monitor": {"true_positive_rate": 0.95, "false_positive_rate": 0.05,
                        "checkpoint_fraction": 0.5},
        }


MOCK_REPLY = """[start of output]
Questions: 1. Is the cart moving toward a dock?
Answers: 1. Yes, it gets closer to the dock circle in every frame.
Analysis: the cart makes steady progress and time remains.
Overall assessment: ok
[end of output]
"""


class CliRoundtrip(Workload):
    """The file-based loop through `sentinel.cli.main`, in-process."""

    name = "cli-roundtrip"
    why = ("synth, calibrate, detect --emit-series and vlm --ensemble through the CLI: "
           "the only workload with rollout log writes and reads, and with the VLM monitor")

    def setup(self, work_dir: Path) -> None:
        import_sentinel()
        self.fixtures = work_dir / "mock_vlm"
        self.fixtures.mkdir()
        (self.fixtures / "index.json").write_text('{"_default": "reply.txt"}\n',
                                                  encoding="utf-8")
        (self.fixtures / "reply.txt").write_text(MOCK_REPLY, encoding="utf-8")
        self.scenario_args = []
        if self.smoke:
            path = work_dir / "scenario.json"
            path.write_text(json.dumps({"episode_limit": 16, "gain": 0.2, "batch_size": 8}),
                            encoding="utf-8")
            self.scenario_args = ["--config", str(path)]
        self.n_cal, self.n_test = (4, 1) if self.smoke else (40, 12)
        self.delta = 0.25 if self.smoke else 0.1

    def _cli(self, argv: list) -> dict:
        import sentinel.cli
        stdout, stderr = io.StringIO(), io.StringIO()
        code = 0
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = sentinel.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        if code != 0:
            raise RuntimeError(f"sentinel {argv[0]} exited {code}: {stderr.getvalue().strip()}")
        return json.loads(stdout.getvalue())

    def run_pass(self, pass_dir: Path) -> dict:
        cal_dir, test_dir, series_dir = (pass_dir / "cal", pass_dir / "test",
                                         pass_dir / "series")
        synth = [
            self._cli(["synth", "--scenario", "nominal", "--n", str(self.n_cal),
                       "--seed", str(3 * self.seed), "--out", str(cal_dir)]
                      + self.scenario_args),
            self._cli(["synth", "--scenario", "nominal", "--n", str(self.n_test),
                       "--seed", str(3 * self.seed + 1), "--out", str(test_dir)]
                      + self.scenario_args),
            self._cli(["synth", "--scenario", "erratic", "--n", str(self.n_test),
                       "--seed", str(3 * self.seed + 2), "--out", str(test_dir)]
                      + self.scenario_args),
        ]
        gamma_path = pass_dir / "gamma.json"
        self._cli(["calibrate", "--detector", "stac-mmd",
                   "--logs", str(cal_dir / "*.sentinel.jsonl"), "--delta", str(self.delta),
                   "--out", str(gamma_path)] + self.scenario_args)
        tests = sorted(test_dir.glob("*.sentinel.jsonl"))
        detect, vlm, series = [], [], {}
        for log_path in tests:
            series_path = series_dir / (log_path.name + ".csv")
            detect.append(self._cli(
                ["detect", "--detector", "stac-mmd", "--calibration", str(gamma_path),
                 "--log", str(log_path), "--emit-series", str(series_path)]
                + self.scenario_args))
            series[log_path.name] = series_path.read_bytes()
            vlm.append(self._cli(
                ["vlm", "--log", str(log_path), "--transport", "mock",
                 "--fixtures", str(self.fixtures), "--ensemble",
                 "--aux-frames", "reference/success.png", "reference/goal.png"]))
        return {"synth": synth, "calibration": gamma_path.read_bytes(),
                "tests": [p.name for p in tests], "test_paths": tests,
                "detect": detect, "vlm": vlm, "series": series}

    def fingerprint(self, out: dict) -> dict:
        envelope = json.loads(out["calibration"])
        cal = envelope["result"]
        verdicts = []
        for name, det, mon in zip(out["tests"], out["detect"], out["vlm"]):
            verdicts.append([name, det["decision"], det.get("detection_timestep"),
                             mon["decision"], [c["votes"] for c in mon["checkpoints"]]])
        terminals = []
        for name in out["tests"]:
            last = out["series"][name].decode("utf-8").strip().splitlines()[-1]
            terminals.append(float(last.split(",")[2]))
        series_blob = b"".join(out["series"][name] for name in out["tests"])
        vlm_blob = json.dumps(out["vlm"], sort_keys=True).encode("utf-8")
        return {
            "exact": {
                "synth": [[s["files"], s["seeds"], s["labels"]] for s in out["synth"]],
                "quantile_index": cal["quantile_index"],
                "m": cal["m"],
                "verdicts": verdicts,
            },
            "close": {"gamma.stac-mmd": [float(cal["gamma"])],
                      "terminal_scores.stac-mmd": list(cal["terminal_scores"]),
                      "series_terminal.stac-mmd": terminals},
            "sha256": {"calibration.json": sha256_bytes(out["calibration"]),
                       "series.csv": sha256_bytes(series_blob),
                       "vlm.json": sha256_bytes(vlm_blob)},
        }

    def validate(self, out: dict) -> list:
        cal = json.loads(out["calibration"])["result"]
        decisions = [d["decision"] for d in out["detect"]] + [v["decision"] for v in out["vlm"]]
        return check_calibration("stac-mmd", cal) + check_verdict_kinds(decisions)

    def probe_inputs(self, out: dict):
        import sentinel.rollout
        logs = [sentinel.rollout.read_log(path) for path in out["test_paths"]]
        gamma = float(json.loads(out["calibration"])["result"]["gamma"])
        hits = [d.get("detection_timestep") for d in out["detect"]]
        return logs, gamma, hits


WORKLOADS = {cls.name: cls for cls in (OracleBattery, CliRoundtrip)}
