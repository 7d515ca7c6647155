"""Acceptance battery: one test per shipped guarantee.

Each test prints a PASS/FAIL line with the measured values, so
`pytest -v -s tests/test_acceptance.py` doubles as a release report.
Tolerances and set sizes here are the product contract; loosening them
is not a fix for a failing run.
"""

import itertools
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as scipy_stats

import sentinel
from sentinel.baselines import (DETECTOR_NAMES, DetectorContext, EmbeddingStats, _ddpm_loss,
                                score_log)
from sentinel.calibration import conformal_threshold
from sentinel.distances import PooledDistances, kde_log_density, min_l2, mmd_rbf
from sentinel.evaluation import (BenchmarkConfig, compute_metrics, run_benchmark,
                                 verdict_at)
from sentinel.policy import (GmmMode, ScenarioConfig, SyntheticGmmPolicy,
                             generate_rollout)
from sentinel.stac import detect_online
from sentinel.vlm import (TEMPLATE_IDS, MonitorPrompt, ResponseParseError, build_prompt,
                          ensemble_vote, parse_response)

from conftest import (empirical_fpr, failure_label, make_log, make_record, mode_plan,
                      success_label)

FIXTURES = Path(__file__).parent / "fixtures"

TASK = ("push the supply cart to either of the two marked loading docks and "
        "bring it to rest inside the dock circle")


def _verdict_line(tag: str, ok: bool, detail: str) -> None:
    print(f"[{tag}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{tag}: {detail}"


def _nominal_log(scenario: ScenarioConfig, behavior: str, seed: int):
    policy = scenario.build_policy(behavior, seed)
    return generate_rollout(policy, scenario, seed=seed)


# -- estimator identities ----------------------------------------------------

def test_c01_estimator_identities():
    rng = np.random.default_rng(11)
    start = time.monotonic()
    worst_mmd = 0.0
    worst_kl = 0.0
    for _ in range(20):
        x = rng.standard_normal((rng.integers(2, 30), rng.integers(1, 5)))
        worst_mmd = max(worst_mmd, mmd_rbf(x, x, bandwidth=1.3))
        worst_kl = max(worst_kl, PooledDistances(x, x).kl_forward(0.7),
                       PooledDistances(x, x).kl_reverse(0.7))
        member = x[rng.integers(0, x.shape[0])]
        assert min_l2(member, x) == 0.0
    elapsed = time.monotonic() - start
    ok = worst_mmd <= 1e-12 and worst_kl <= 1e-9 and elapsed < 1.0
    _verdict_line("c01 estimator-identities", ok,
                  f"max mmd(X,X)={worst_mmd:.2e}, max kl(X,X)={worst_kl:.2e}, "
                  f"min_l2 member hits 0 exactly, {elapsed:.2f}s")


# -- brute-force oracle equivalence ------------------------------------------

def _mmd_oracle(x, y, bandwidth):
    def mean_kernel(a, b):
        total = math.fsum(
            float(np.exp(-np.square(b - p).sum(axis=1) / bandwidth).sum())
            for p in a)
        return total / (a.shape[0] * b.shape[0])

    raw = mean_kernel(x, x) + mean_kernel(y, y) - 2.0 * mean_kernel(x, y)
    return max(raw, 0.0)


def _kde_oracle(fit, queries, bandwidth):
    d = fit.shape[1]
    log_norm = math.log(fit.shape[0]) + 0.5 * d * math.log(2.0 * math.pi * bandwidth ** 2)
    out = []
    for q in queries:
        total = math.fsum(
            math.exp(-float(np.square(q - p).sum()) / (2.0 * bandwidth ** 2))
            for p in fit)
        out.append(math.log(total) - log_norm)
    return np.array(out)


def test_c02_oracle_equivalence():
    rng = np.random.default_rng(22)
    start = time.monotonic()
    worst = 0.0
    for _ in range(200):
        d = int(rng.integers(1, 5))
        x = rng.standard_normal((int(rng.integers(2, 51)), d))
        y = rng.standard_normal((int(rng.integers(2, 51)), d)) + rng.uniform(-1, 1)
        bw = float(rng.uniform(0.5, 2.0))
        worst = max(worst, abs(mmd_rbf(x, y, bw) - _mmd_oracle(x, y, bw)))
        got = kde_log_density(x, y, bw)
        worst = max(worst, float(np.abs(got - _kde_oracle(x, y, bw)).max()))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-9 and elapsed < 10.0
    _verdict_line("c02 oracle-equivalence", ok,
                  f"200 instances, max |library - oracle| = {worst:.2e}, {elapsed:.1f}s")


# -- closed-form KL ----------------------------------------------------------

def test_c03_closed_form_kl():
    worst = 0.0
    for m in (0.5, 1.0, 2.0):
        for beta in (0.5, 1.0):
            got = PooledDistances(np.array([[0.0]]), np.array([[m]])).kl_forward(beta)
            worst = max(worst, abs(got - m ** 2 / (2.0 * beta ** 2)))
    _verdict_line("c03 closed-form-kl", worst <= 1e-9,
                  f"6 (m, beta) pairs, max |kl - m^2/(2 beta^2)| = {worst:.2e}")


# -- conformal false-alarm bound ---------------------------------------------

def test_c04_conformal_false_alarm_rate():
    start = time.monotonic()
    scenario = ScenarioConfig()
    pool = np.array([
        score_log("stac-mmd", _nominal_log(scenario, "consistent", 7_000_000 + i)).terminal
        for i in range(300)])
    rng = np.random.default_rng(20260822)
    rates = []
    for _ in range(500):
        pick = rng.choice(pool.size, size=70, replace=False)
        gamma = conformal_threshold(pool[pick[:50]], delta=0.05).gamma
        rates.append(empirical_fpr(pool[pick[50:]], gamma))
    mean_fpr = float(np.mean(rates))
    elapsed = time.monotonic() - start
    ok = mean_fpr <= 0.07 and elapsed < 300.0
    _verdict_line("c04 conformal-false-alarm", ok,
                  f"500 trials, M=50 cal / 20 test, mean FPR = {mean_fpr:.4f} "
                  f"(bound 0.07), {elapsed:.1f}s")


# -- conformal quantile formula ----------------------------------------------

def test_c05_quantile_formula():
    scores = list(np.random.default_rng(5).uniform(size=50))
    result = conformal_threshold(scores, delta=0.05)
    rank_ok = result.quantile_index == 49 and result.gamma == sorted(scores)[48]
    small = conformal_threshold(list(range(10)), delta=0.05)
    inf_ok = small.gamma == math.inf
    _verdict_line("c05 quantile-formula", rank_ok and inf_ok,
                  f"(M=50, d=0.05) -> rank {result.quantile_index}; "
                  f"(M=10, d=0.05) -> gamma {small.gamma}")


# -- cumulative-score monotonicity + online detection -------------------------

def test_c06_monotone_scores_and_online_detection(oracle_settings):
    scenario = ScenarioConfig(prediction_horizon=4, execution_horizon=2,
                              attractors=((1.0, 0.5),), mode_weights=(1.0,),
                              drift_step=(0.0, 0.0), n_denoise_steps=8)
    oracle_settings(draws=2, depths=(2,))
    oracle = scenario.build_policy("consistent", 0)
    ctx = DetectorContext(embedding_stats=EmbeddingStats.from_mean_cov(np.zeros(2), np.eye(2)),
                          seed=0)
    rng = np.random.default_rng(66)
    series_checked = 0
    for _ in range(1000):
        log = make_log(n_records=int(rng.integers(2, 6)),
                       batch_size=int(rng.integers(2, 5)), rng=rng)
        for name in DETECTOR_NAMES:
            series = score_log(name, log, ctx, oracle)
            assert np.all(np.diff(series.cumulative) >= 0.0), name
            gammas = (math.inf,
                      float(rng.uniform(0.0, max(series.terminal, 1e-9) * 1.5)))
            for gamma in gammas:
                fired = detect_online(series, gamma) is not None
                assert fired == (series.terminal > gamma), name
            series_checked += 1
    _verdict_line("c06 monotone-online", series_checked == 1000 * len(DETECTOR_NAMES),
                  f"{series_checked} series nondecreasing, detect_online fires "
                  f"iff terminal > gamma")


# -- erratic battery separation ----------------------------------------------

def test_c07_erratic_battery():
    start = time.monotonic()
    scenario = ScenarioConfig()
    cal = [_nominal_log(scenario, "consistent", 1_000_000 + i) for i in range(50)]
    cal = [log for log in cal if log.label is not None and not log.label.is_failure]
    test_logs = [_nominal_log(scenario, "consistent", 1_500_000 + j) for j in range(50)]
    test_logs += [_nominal_log(scenario, "mode_resample", 1_500_000 + j)
                  for j in range(50, 100)]

    gamma = conformal_threshold(
        [score_log("stac-mmd", log).terminal for log in cal], delta=0.05).gamma
    terminal = np.array([score_log("stac-mmd", log).terminal for log in test_logs])
    failed = np.array([log.label.is_failure for log in test_logs])
    flagged = terminal > gamma

    tpr = float(flagged[failed].mean())
    fpr = float(flagged[~failed].mean())
    separation = float(terminal[failed].mean() - terminal[~failed].mean())
    success_sd = float(terminal[~failed].std(ddof=1))
    elapsed = time.monotonic() - start
    ok = tpr >= 0.90 and fpr <= 0.10 and separation >= 3.0 * success_sd \
        and elapsed < 120.0
    _verdict_line("c07 erratic-battery", ok,
                  f"TPR={tpr:.3f} (>=0.90), FPR={fpr:.3f} (<=0.10), "
                  f"separation={separation:.3f} vs 3*sd={3.0 * success_sd:.3f}, "
                  f"{elapsed:.1f}s")


# -- stall battery complementarity -------------------------------------------

def test_c08_stall_battery_complementarity():
    config_path = Path(sentinel.__file__).parent / "configs" / "stall.json"
    config = BenchmarkConfig.from_json_obj(json.loads(config_path.read_text()))
    report = run_benchmark(config)
    stac = report["metrics"]["stac-mmd"]
    vlm = report["metrics"]["vlm"]
    sent = report["metrics"]["sentinel"]
    union_ok = sent["fp"] <= stac["fp"] + vlm["fp"]
    ok = stac["tpr"] <= 0.2 and vlm["tpr"] >= 0.9 and sent["tpr"] >= 0.9 and union_ok
    _verdict_line("c08 stall-complementarity", ok,
                  f"stac TPR={stac['tpr']:.3f} (<=0.2), vlm TPR={vlm['tpr']:.3f} "
                  f"(>=0.9), sentinel TPR={sent['tpr']:.3f} (>=0.9), "
                  f"sentinel fp {sent['fp']} <= {stac['fp']}+{vlm['fp']}")


# -- denoising-loss oracle ---------------------------------------------------

def test_c09_denoising_loss_oracle():
    point = SyntheticGmmPolicy(
        [GmmMode(weight=1.0, stddev=1e-12, attractor=np.array([1.5, -0.5]), gain=0.1)],
        horizon=3, action_dim=2)
    state = np.array([0.3, 0.2])
    clean = mode_plan(point.modes[0], state, 3)
    record = make_record(0, np.tile(clean, (4, 1, 1)))
    exact = _ddpm_loss([record.chunk_samples], state[None], point, 5, [0])[0]

    policy = SyntheticGmmPolicy(
        [GmmMode(weight=1.0, stddev=0.3, attractor=np.array([2.0, 1.0]), gain=0.1)],
        horizon=4, action_dim=2, seed=0)
    base_state = np.zeros(2)
    rec = make_record(0, policy.sample_with_modes(base_state, 4)[0])
    in_dist = np.array([
        _ddpm_loss([rec.chunk_samples], base_state[None], policy, 1, [i])[0]
        for i in range(10_000)])
    shifted = np.array([
        _ddpm_loss([rec.chunk_samples], base_state[None] + np.array([1.5, -1.0]), policy, 1,
                   [i])[0]
        for i in range(10_000)])
    p_value = float(scipy_stats.ttest_rel(shifted, in_dist, alternative="greater").pvalue)
    ok = exact < 1e-10 and p_value < 0.01
    _verdict_line("c09 denoising-loss-oracle", ok,
                  f"point-mass score = {exact:.2e} (<1e-10), shifted > in-dist "
                  f"one-sided p = {p_value:.2e} over 10^4 paired draws")


# -- monitor prompt / parser / ensemble --------------------------------------

def _monitor_prompt(template_id):
    kwargs = dict(template_id=template_id, task_description=TASK,
                  elapsed_seconds=8.0, time_limit_seconds=16.0,
                  frames=("f0.png", "f1.png"))
    if template_id == "image_qa":
        kwargs["frames"] = ("f1.png",)
    if template_id in ("video_qa_success_video", "video_qa_goal_images"):
        kwargs["auxiliary_frames"] = ("ref0.png",)
    return MonitorPrompt(**kwargs)


def test_c10_monitor_pipeline():
    for template_id in TEMPLATE_IDS:
        rendered = build_prompt(_monitor_prompt(template_id)).encode("utf-8")
        stored = (FIXTURES / "rendered_templates" / f"{template_id}.txt").read_bytes()
        assert rendered == stored, template_id

    valid_dir = FIXTURES / "vlm_responses" / "valid"
    expected = json.loads((valid_dir / "expected.json").read_text())
    assert len(expected) == 20
    for name, verdict in expected.items():
        assert parse_response((valid_dir / name).read_text(encoding="utf-8")) == verdict, name

    malformed = sorted((FIXTURES / "vlm_responses" / "malformed").glob("*.txt"))
    assert len(malformed) == 20
    for path in malformed:
        with pytest.raises(ResponseParseError):
            parse_response(path.read_text(encoding="utf-8"))

    for votes in itertools.product(("ok", "failure"), repeat=3):
        expected_decision = "failure" if votes.count("failure") >= 2 else "ok"
        assert ensemble_vote(votes) == expected_decision, votes

    _verdict_line("c10 monitor-pipeline", True,
                  f"{len(TEMPLATE_IDS)} templates byte-exact, 20 valid + "
                  f"20 malformed fixtures, 8 vote combinations exact")


# -- metrics identities ------------------------------------------------------

_METRIC_CASES = [
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


def test_c11_metrics_identities():
    for decisions, labels, tp, tn, fp, fn in _METRIC_CASES:
        verdicts = [verdict_at("stac", 4 if d == "failure" else None, 0.5) for d in decisions]
        labels = [failure_label() if label == "failure" else success_label() for label in labels]
        report = compute_metrics(verdicts, labels)
        assert (report["tp"], report["tn"], report["fp"], report["fn"]) == (tp, tn, fp, fn)
        assert report.get("tpr") == (tp / (tp + fn) if tp + fn else None)
        assert report.get("tnr") == (tn / (tn + fp) if tn + fp else None)
        assert report.get("fpr") == (fp / (fp + tn) if fp + tn else None)
        if "tpr" in report and "tnr" in report:
            assert report["balanced_accuracy"] == (report["tpr"] + report["tnr"]) / 2.0
        else:
            assert report.get("balanced_accuracy") is None
    _verdict_line("c11 metrics-identities", True,
                  f"{len(_METRIC_CASES)} hand-counted confusion tables match exactly")
