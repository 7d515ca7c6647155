"""Every step of the temporal-consistency detectors at the default geometry.

`fixtures/stac_series/default_geometry.json` holds the `repr` of each step
score and cumulative score of `stac-mmd`, `stac-klf`, `stac-klr` and
`min-l2` on two seeded default-scenario logs (B=32, h=8, k=4, 16 records):
one `consistent` rollout and one `mode_resample` rollout. It was recorded
when the pooled distances became a numpy Gram product; against the `cdist`
recording before it, the largest relative step-score change was 3.7e-14
(`stac-klf`), and `min-l2` kept its bits. The comparison is byte for byte.
Re-record with `PYTHONPATH=src python tests/test_stac_series_pin.py` only
for an intended change.
"""

import json
from pathlib import Path

from sentinel.baselines import score_logs
from sentinel.policy import ScenarioConfig, generate_rollout
from sentinel.stac import STAC_DETECTORS

FIXTURE = Path(__file__).parent / "fixtures" / "stac_series" / "default_geometry.json"
LOG_SEEDS = {"consistent": 11, "mode_resample": 12}


def series_reprs() -> dict:
    """{behavior: {detector: {"step": [repr], "cumulative": [repr]}}}."""
    params = ScenarioConfig()
    out = {}
    for behavior, seed in LOG_SEEDS.items():
        log = generate_rollout(params.build_policy(behavior, seed=seed), params, seed=seed)
        assert log.n_records == 16 and log.records[0].batch_size == 32
        out[behavior] = {
            name: {"step": [repr(v) for v in series.step_scores],
                   "cumulative": [repr(v) for v in series.cumulative]}
            for name, series in score_logs(STAC_DETECTORS, [log], [None])[0].items()}
    return out


def render() -> str:
    return json.dumps(series_reprs(), indent=1, sort_keys=True) + "\n"


def test_stac_series_match_recorded_bytes():
    assert render() == FIXTURE.read_text(encoding="utf-8")


if __name__ == "__main__":
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE.write_text(render(), encoding="utf-8")
