from typing import Sequence

import numpy as np
import pytest

from sentinel.rollout import InferenceRecord, RolloutHeader, RolloutLabel, RolloutLog


def make_header(**overrides):
    fields = dict(
        action_dim=2,
        prediction_horizon=4,
        execution_horizon=2,
        episode_limit=16,
        step_duration=0.5,
        action_mask=(True, True),
        task_description="push the supply cart to either of the two marked loading docks "
                         "and bring it to rest inside the dock circle",
        task_time_limit=8.0,
    )
    fields.update(overrides)
    return RolloutHeader(**fields)


def make_record(timestep, chunks, executed_index=0, embedding=None, frame_ref=None):
    return InferenceRecord(
        timestep=timestep,
        chunk_samples=np.asarray(chunks, dtype=np.float64),
        executed_index=executed_index,
        embedding=None if embedding is None else np.asarray(embedding, dtype=np.float64),
        frame_ref=frame_ref,
    )


def make_log(header=None, n_records=3, batch_size=4, rng=None, label=None,
             with_embedding=True, scale=1.0):
    """Random but valid log: n_records inference steps of gaussian chunks."""
    header = header or make_header()
    rng = rng or np.random.default_rng(0)
    if label == "success":
        label = success_label()
    elif label == "failure":
        label = failure_label()
    k = header.execution_horizon
    records = []
    for j in range(n_records):
        chunks = rng.standard_normal(
            (batch_size, header.prediction_horizon, header.action_dim)) * scale
        embedding = rng.standard_normal(header.action_dim) if with_embedding else None
        records.append(make_record(j * k, chunks, embedding=embedding,
                                   frame_ref=f"frames/t{j * k:04d}.png"))
    return RolloutLog(header=header, records=records, label=label)


def empirical_fpr(nominal_terminal_scores: Sequence[float], gamma: float) -> float:
    """Fraction of nominal terminal scores strictly above gamma."""
    scores = np.asarray(list(nominal_terminal_scores), dtype=np.float64)
    if scores.size == 0:
        raise ValueError("need at least one score")
    if not np.isfinite(scores).all():
        raise ValueError("scores must be finite")
    return float(np.mean(scores > gamma))


def success_label():
    return RolloutLabel(outcome="success", return_value=1.0, return_threshold=1.0)


def failure_label():
    return RolloutLabel(outcome="failure", return_value=0.0, return_threshold=1.0)


@pytest.fixture
def header():
    return make_header()


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
