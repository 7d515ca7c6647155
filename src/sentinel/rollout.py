"""Rollout data model and the `.sentinel.jsonl` on-disk log format.

A rollout log captures what an action-chunk policy did during one episode:
a header describing the policy/task geometry, one record per inference step
holding the sampled chunk batch, and an optional terminal label derived from
the episode return.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import MISSING, asdict, dataclass, fields
from typing import Optional, Sequence

import numpy as np

FORMAT_VERSION = 1
LOG_SUFFIX = ".sentinel.jsonl"

_LABEL_KEYS = {"label", "return_value", "return_threshold"}


class InvalidLogError(ValueError):
    """A log value violates a structural invariant."""


class LogParseError(ValueError):
    """A log file line could not be parsed or validated."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise InvalidLogError(message)


# A scalar annotation -> the types it accepts, its refusal's noun, its stored type.
_SCALAR_KINDS = {
    "int": ((int, np.integer), "an integer", int),
    "float": (numbers.Real, "a real number", float),
    "bool": ((bool, np.bool_), "a bool", bool),
    "str": (str, "a string", str),
}


def _check_scalar_fields(obj) -> None:
    """Refuse or convert each field of dataclass `obj` annotated int, float, bool or str,
    or ``Optional`` of one (which may hold None). A bool is no number, a number must fit
    a float, and a numpy scalar is stored as the annotated Python type."""
    for f in fields(obj):  # annotations are postponed, so `f.type` is a string
        optional = f.type.startswith("Optional[")
        kind = _SCALAR_KINDS.get(f.type[len("Optional["):-1] if optional else f.type)
        value = getattr(obj, f.name)
        if kind is None or (optional and value is None):
            continue
        accepted, what, stored = kind
        ok = isinstance(value, accepted) and (stored is bool or not isinstance(value, bool))
        if ok and stored in (int, float):
            try:
                float(value)
            except OverflowError:  # an int past the float range
                ok = False
        if not ok:
            raise InvalidLogError(f"{f.name} must be {what}, got {value!r}")
        object.__setattr__(obj, f.name, stored(value))  # `RolloutLabel` is frozen


def _json_fields(cls, obj, what: str) -> dict:
    """`obj` as keyword arguments for dataclass `cls`, refused unless it is a
    JSON object whose every key names a field of `cls`."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object")
    unknown = set(obj) - {f.name for f in fields(cls)}
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")
    return dict(obj)


def _numeric_array(value, name: str) -> np.ndarray:
    """`value` as a float64 array, refused unless it holds integers or floats."""
    array = np.asarray(value)
    # Not `_check`, which would format the dtype into its message on every record read.
    if array.dtype.kind not in "iuf":
        raise InvalidLogError(f"{name} must hold numbers, got dtype {array.dtype}")
    return array.astype(np.float64, copy=False)


@dataclass
class RolloutHeader:
    """Episode-level geometry shared by every record in a log.

    Fields mirror the on-disk header line: ``action_dim`` is the per-action
    dimension, ``prediction_horizon`` (h) and ``execution_horizon`` (k) the
    chunk lengths, ``episode_limit`` (H) the environment-step budget, and
    ``action_mask`` selects the dimensions used in distance computations
    (binary gripper-style dimensions are typically excluded).
    """

    action_dim: int
    prediction_horizon: int
    execution_horizon: int
    episode_limit: int
    step_duration: float
    action_mask: tuple[bool, ...]
    task_description: str
    task_time_limit: float
    format_version: int = FORMAT_VERSION

    def __post_init__(self):
        _check(self.format_version == FORMAT_VERSION,
               f"unsupported format_version {self.format_version!r} (supported: {FORMAT_VERSION})")
        _check_scalar_fields(self)
        _check(not isinstance(self.action_mask, str)
               and all(isinstance(b, (bool, np.bool_)) for b in self.action_mask),
               f"action_mask entries must be bools, got {self.action_mask!r}")
        self.action_mask = tuple(bool(b) for b in self.action_mask)
        _check(self.action_dim >= 1, "action_dim must be >= 1")
        _check(0 < self.execution_horizon, "execution_horizon must be > 0")
        _check(self.execution_horizon < self.prediction_horizon,
               "execution_horizon must be < prediction_horizon")
        _check(self.prediction_horizon <= self.episode_limit,
               "prediction_horizon must be <= episode_limit")
        _check(self.step_duration > 0, "step_duration must be > 0")
        _check(self.task_time_limit > 0, "task_time_limit must be > 0")
        _check(len(self.action_mask) == self.action_dim,
               "action_mask length must equal action_dim")
        _check(any(self.action_mask), "action_mask needs at least one true entry")

    def to_json_obj(self) -> dict:
        obj = asdict(self)
        return {"format_version": obj.pop("format_version"), **obj}


@dataclass(eq=False)
class InferenceRecord:
    """One policy inference step: a batch of sampled chunks plus bookkeeping.

    ``chunk_samples`` has shape (B, h, action_dim); ``executed_index`` names
    the row that was actually executed, so the executed action prefix is
    recoverable without storing it twice.
    """

    timestep: int
    chunk_samples: np.ndarray
    executed_index: int = 0
    embedding: Optional[np.ndarray] = None
    frame_ref: Optional[str] = None

    def __post_init__(self):
        _check_scalar_fields(self)
        _check(self.timestep >= 0, "timestep must be >= 0")
        chunks = _numeric_array(self.chunk_samples, "chunk_samples")
        _check(chunks.ndim == 3, f"chunk_samples must be B x h x action_dim, got shape {chunks.shape}")
        _check(chunks.shape[0] >= 1, "need at least one sampled chunk")
        _check(bool(np.isfinite(chunks).all()), "chunk_samples must be finite")
        self.chunk_samples = chunks
        _check(0 <= self.executed_index < chunks.shape[0],
               "executed_index out of range")
        if self.embedding is not None:
            emb = _numeric_array(self.embedding, "embedding")
            _check(emb.ndim == 1, "embedding must be a flat vector")
            _check(bool(np.isfinite(emb).all()), "embedding must be finite")
            self.embedding = emb

    @property
    def batch_size(self) -> int:
        return self.chunk_samples.shape[0]

    def executed_chunk(self) -> np.ndarray:
        return self.chunk_samples[self.executed_index]

    def to_json_obj(self) -> dict:
        obj = {
            "timestep": self.timestep,
            "chunk_samples": self.chunk_samples.tolist(),
            "executed_index": self.executed_index,
        }
        if self.embedding is not None:
            obj["embedding"] = self.embedding.tolist()
        if self.frame_ref is not None:
            obj["frame_ref"] = self.frame_ref
        return obj


@dataclass(frozen=True)
class RolloutLabel:
    """Terminal outcome: failure iff the return fell below the threshold."""

    outcome: str
    return_value: float
    return_threshold: float

    def __post_init__(self):
        _check_scalar_fields(self)
        _check(self.outcome in ("success", "failure"),
               f"label must be 'success' or 'failure', got {self.outcome!r}")
        _check(np.isfinite(self.return_value) and np.isfinite(self.return_threshold),
               "label return values must be finite")
        expected = "failure" if self.return_value < self.return_threshold else "success"
        _check(self.outcome == expected,
               f"label {self.outcome!r} inconsistent with return {self.return_value} "
               f"vs threshold {self.return_threshold}")

    @property
    def is_failure(self) -> bool:
        return self.outcome == "failure"

    def to_json_obj(self) -> dict:
        return {
            "label": self.outcome,
            "return_value": self.return_value,
            "return_threshold": self.return_threshold,
        }


_HEADER_KEYS = {f.name for f in fields(RolloutHeader)}
_RECORD_KEYS = {f.name for f in fields(InferenceRecord)}
_RECORD_REQUIRED = {f.name for f in fields(InferenceRecord) if f.default is MISSING}


def check_next(header: RolloutHeader, first: InferenceRecord,
               prev: Optional[InferenceRecord], record: InferenceRecord) -> None:
    """Refuse `record` unless it may follow `prev` (None for the first record).

    Every rule that spans records lives here, run by `RolloutLog`, by
    `read_log` on each record line and by `OnlineScorer.push` on each live
    record. Embeddings must match the shape of `first`, the log's first record.
    """
    h, k, d = header.prediction_horizon, header.execution_horizon, header.action_dim
    t = record.timestep
    _, horizon, dim = record.chunk_samples.shape
    if horizon != h:
        raise InvalidLogError(f"record at t={t}: chunk horizon {horizon} != prediction_horizon {h}")
    if dim != d:
        raise InvalidLogError(f"record at t={t}: action dim {dim} != action_dim {d}")
    if prev is None and t % k != 0:
        raise InvalidLogError(f"timestep {t} not a multiple of execution_horizon {k}")
    if prev is not None and t != prev.timestep + k:
        raise InvalidLogError(f"timesteps must increase by exactly {k}: {prev.timestep} -> {t}")
    if record.embedding is not None and first.embedding is not None:
        _check(record.embedding.shape == first.embedding.shape,
               "embedding dimensions differ between records")
    _check(t <= header.episode_limit - 1, "last timestep exceeds episode_limit - 1")


@dataclass(eq=False)
class RolloutLog:
    """A validated episode log: header, ordered inference records, optional label.

    Logs are immutable by convention after construction.
    """

    header: RolloutHeader
    records: list[InferenceRecord]
    label: Optional[RolloutLabel] = None

    def __post_init__(self):
        _check(len(self.records) >= 1, "log needs at least one record")
        prev = None
        for record in self.records:
            check_next(self.header, self.records[0], prev, record)
            prev = record

    @property
    def n_records(self) -> int:
        return len(self.records)

    def timesteps(self) -> list[int]:
        return [r.timestep for r in self.records]


def mask_array(mask: Sequence[bool]) -> np.ndarray:
    """An action mask as a boolean array, built once and passed to `apply_mask`."""
    return np.asarray([bool(b) for b in mask], dtype=bool)


def apply_mask(record: InferenceRecord, mask: Sequence[bool]) -> np.ndarray:
    """Restrict a record's chunk batch to the masked action dimensions.

    `mask` is a sequence of bools or a boolean array from `mask_array`.
    Returns a (B, h, d') array where d' counts the true mask entries; the
    retained dimensions keep their original order.
    """
    return record.chunk_samples[:, :, checked_mask(mask, record)]


def checked_mask(mask: Sequence[bool], record: InferenceRecord) -> np.ndarray:
    """`mask` as a boolean array, refused unless it fits `record`'s action dim and selects one."""
    if not (isinstance(mask, np.ndarray) and mask.dtype == bool):
        mask = mask_array(mask)
    if mask.shape[0] != record.chunk_samples.shape[2]:
        raise InvalidLogError(
            f"mask length {mask.shape[0]} != action_dim {record.chunk_samples.shape[2]}")
    if not mask.any():
        raise InvalidLogError("mask selects no dimensions")
    return mask


def _json_line(obj: dict) -> str:
    # allow_nan=False rejects NaN/Inf at serialization time; repr-based float
    # formatting gives shortest round-trip decimals.
    return json.dumps(obj, allow_nan=False, separators=(",", ":"))


def write_log(log: RolloutLog, destination) -> None:
    """Write a validated log as newline-delimited JSON.

    Line 1 is the header, lines 2..n+1 the inference records, and the label
    (when present) is the final line.
    """
    if not isinstance(log, RolloutLog):
        raise InvalidLogError("write_log expects a RolloutLog")
    # Revalidate: dataclasses are mutable, so a log edited after construction
    # could have drifted from its invariants.
    RolloutLog(header=log.header, records=log.records, label=log.label)
    lines = [_json_line(log.header.to_json_obj())]
    lines.extend(_json_line(r.to_json_obj()) for r in log.records)
    if log.label is not None:
        lines.append(_json_line(log.label.to_json_obj()))
    with open(destination, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")


def _reject_constant(token: str):
    raise ValueError(f"non-finite JSON token {token!r} not allowed")


def _load_line(text: str, line_no: int) -> dict:
    try:
        obj = json.loads(text, parse_constant=_reject_constant)
    except ValueError as exc:
        raise LogParseError(str(exc), line_no) from exc
    if not isinstance(obj, dict):
        raise LogParseError("expected a JSON object", line_no)
    return obj


def _line_kind(obj: dict, line_no: int, after_label: bool) -> str:
    """Name a parsed line "header", "label" or "record", after checking its fields."""
    if line_no == 1:
        kind, known, required = "header", _HEADER_KEYS, _HEADER_KEYS
    elif "label" in obj:
        if after_label:
            raise LogParseError("multiple label lines", line_no)
        kind, known, required = "label", _LABEL_KEYS, _LABEL_KEYS
    elif "timestep" in obj:
        if after_label:
            raise LogParseError("record after label line", line_no)
        kind, known, required = "record", _RECORD_KEYS, _RECORD_REQUIRED
    else:
        raise LogParseError("line is neither a record nor a label", line_no)
    unknown = set(obj) - known
    if unknown:
        raise LogParseError(f"unknown {kind} fields {sorted(unknown)}", line_no)
    missing = required - set(obj)
    if missing:
        raise LogParseError(f"missing {kind} fields {sorted(missing)}", line_no)
    return kind


def read_log(source) -> RolloutLog:
    """Parse and validate a `.sentinel.jsonl` file.

    Every fault raises LogParseError with the 1-based number of its line, a
    record that may not follow the one before it (`check_next`) included.
    """
    with open(source, "r", encoding="utf-8") as fh:
        raw_lines = fh.read().split("\n")
    while raw_lines and raw_lines[-1] == "":
        raw_lines.pop()
    if not raw_lines:
        raise LogParseError("empty file", 1)

    header: Optional[RolloutHeader] = None
    records: list[InferenceRecord] = []
    label: Optional[RolloutLabel] = None
    for line_no, text in enumerate(raw_lines, start=1):
        obj = _load_line(text, line_no)
        kind = _line_kind(obj, line_no, label is not None)
        try:
            if kind == "header":
                header = RolloutHeader(**obj)
            elif kind == "label":
                label = RolloutLabel(obj["label"], obj["return_value"], obj["return_threshold"])
            else:
                record = InferenceRecord(**obj)
                check_next(header, records[0] if records else record,
                           records[-1] if records else None, record)
                records.append(record)
        except (ValueError, TypeError) as exc:
            raise LogParseError(str(exc), line_no) from exc

    if not records:
        raise LogParseError("log contains no inference records", 1)
    return RolloutLog(header=header, records=records, label=label)
