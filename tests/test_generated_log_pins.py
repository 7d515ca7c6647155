"""The bytes of generated rollout logs, pinned.

`generate_rollout` followed by `write_log` must give the same file for a
given scenario, behavior and seed, whatever the sampler does inside. Each
pin is the sha256 of one log written from a policy built for that episode's
seed, for every behavior at two seeds, under the default scenario and under a
three-mode scenario with unequal mode weights. `synth` must write the same
bytes for each of its seeds. Print the pins with
`PYTHONPATH=src python tests/test_generated_log_pins.py` only for an intended
change.
"""

import hashlib
import json

import pytest

from sentinel.cli import SCENARIO_BEHAVIORS, main
from sentinel.policy import BEHAVIORS, ScenarioConfig, default_goal_label, generate_rollout
from sentinel.rollout import write_log

SCENARIOS = {
    "default": ScenarioConfig,
    "three_mode": lambda: ScenarioConfig(
        attractors=((2.5, 1.5), (2.5, -1.5), (-1.0, 2.0)), mode_weights=(0.5, 0.3, 0.2)),
}
SEEDS = (4, 1_000_017)

PINS = {
    ("default", "consistent", 4): "2ac5bb7a5bfa199da2aab04cfb123bcf1cf21f4e5dd3662571b1756d6c2844ff",
    ("default", "consistent", 1000017): "917f388f55b974fd9371a95a77742e3c4e983c839642e3f316b0685de7f9864b",
    ("default", "mode_resample", 4): "496eaa7b61b09e894464716cbac588da63a11960276f397ddf1c2c0191e5e611",
    ("default", "mode_resample", 1000017): "72559c0e4931a1c09565dda68258a4f47f72310b5861b2cfd0cb72ae41beb6ab",
    ("default", "constant_stall", 4): "581dde969f26e855b81efcfa0f4988aa60dfbe09534dcc8b8758be740e924bee",
    ("default", "constant_stall", 1000017): "7aaa89090cb2a9494f12372f035a6a804703c86af1beae6e305042cedca8d279",
    ("default", "drift", 4): "08a55157d6a907a885373561edce2cbc47864f209ce79567114ad154d646843c",
    ("default", "drift", 1000017): "14fa6c68339daa325166ae738f79db6e72a18f11e581e004a65522ce4ac1f93d",
    ("three_mode", "consistent", 4): "c4bbe61ee4da8d69f86f246a063375b6605b71c32212ada97a9406668504c4a8",
    ("three_mode", "consistent", 1000017): "d2f264047772bbcc285b5ef5365fc4fd2088f5f3bda1d30c3723925bf098ac5d",
    ("three_mode", "mode_resample", 4): "1e47547d780bea10fea59a061373d40469df6a182c439827954816219c7948a9",
    ("three_mode", "mode_resample", 1000017): "e9dd7dfc10f2fbcafdfa0276aefcd66e95e1ec8e94ccb0e39a1522e781aa4072",
    ("three_mode", "constant_stall", 4): "581dde969f26e855b81efcfa0f4988aa60dfbe09534dcc8b8758be740e924bee",
    ("three_mode", "constant_stall", 1000017): "7aaa89090cb2a9494f12372f035a6a804703c86af1beae6e305042cedca8d279",
    ("three_mode", "drift", 4): "08a55157d6a907a885373561edce2cbc47864f209ce79567114ad154d646843c",
    ("three_mode", "drift", 1000017): "14fa6c68339daa325166ae738f79db6e72a18f11e581e004a65522ce4ac1f93d",
}


def log_bytes(params: ScenarioConfig, behavior: str, seed: int, path) -> bytes:
    log = generate_rollout(params.build_policy(behavior, seed), params,
                           label_rule=default_goal_label, seed=seed)
    write_log(log, path)
    return path.read_bytes()


def render(tmp_dir) -> dict:
    return {(scenario, behavior, seed): hashlib.sha256(
                log_bytes(make(), behavior, seed, tmp_dir / "log.sentinel.jsonl")).hexdigest()
            for scenario, make in SCENARIOS.items()
            for behavior in BEHAVIORS for seed in SEEDS}


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("behavior", BEHAVIORS)
@pytest.mark.parametrize("seed", SEEDS)
def test_generated_log_bytes_match_the_pin(tmp_path, scenario, behavior, seed):
    data = log_bytes(SCENARIOS[scenario](), behavior, seed, tmp_path / "log.sentinel.jsonl")
    assert hashlib.sha256(data).hexdigest() == PINS[scenario, behavior, seed]


@pytest.mark.parametrize("name", sorted(SCENARIO_BEHAVIORS))
def test_synth_writes_the_bytes_of_a_fresh_policy_per_seed(capsys, tmp_path, name):
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps({"episode_limit": 16, "batch_size": 8, "gain": 0.2}))
    out = tmp_path / "logs"
    assert main(["synth", "--scenario", name, "--n", "3", "--seed", "2",
                 "--out", str(out), "--config", str(config)]) == 0
    manifest = json.loads(capsys.readouterr().out)
    params = ScenarioConfig(episode_limit=16, batch_size=8, gain=0.2)
    for file, seed in zip(manifest["files"], manifest["seeds"], strict=True):
        want = log_bytes(params, SCENARIO_BEHAVIORS[name], seed, tmp_path / "want.sentinel.jsonl")
        assert (out / file).read_bytes() == want


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        for key, digest in render(Path(tmp)).items():
            print(f'    {key!r}: "{digest}",'.replace("'", '"'))
