"""Rollout data model and the `.sentinel.jsonl` on-disk log format.

A rollout log captures what an action-chunk policy did during one episode:
a header describing the policy/task geometry, one record per inference step
holding the sampled chunk batch, and an optional terminal label derived from
the episode return.
"""

from __future__ import annotations

import base64
import functools
import json
import math
import numbers
from dataclasses import MISSING, asdict, dataclass, fields
from typing import Optional

import numpy as np

FORMAT_VERSION = 2  # a header of version 1 (arrays as JSON lists) still reads
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


def _scalar(value, kind: str, name: str, error: type = ValueError):
    """`value` as the Python type `kind` names ("int", "float", "bool" or "str"), refused
    as `name` with `error` unless it is one. A bool is no number, a number must fit a
    float, and a numpy scalar is stored as the Python type. Only the log's own
    dataclasses pass InvalidLogError; config, calibration and score input keep ValueError."""
    accepted, what, stored = _SCALAR_KINDS[kind]
    ok = isinstance(value, accepted) and (stored is bool or not isinstance(value, bool))
    if ok and stored in (int, float):
        try:
            float(value)
        except OverflowError:  # an int past the float range
            ok = False
    if not ok:
        raise error(f"{name} must be {what}, got {value!r}")
    return stored(value)


@functools.cache
def _field_rules(cls) -> tuple:
    """(name, optional, kind, entry kind) of each field of dataclass `cls`, read once."""
    rules = []
    for f in fields(cls):  # annotations are postponed, so `f.type` is a string
        optional = f.type.startswith("Optional[")
        kind = f.type[len("Optional["):-1] if optional else f.type
        entry_kind = kind[len("tuple["):-len(", ...]")] if kind.startswith("tuple[") else None
        rules.append((f.name, optional, kind, entry_kind))
    return tuple(rules)


def _check_scalar_fields(obj, error: type = ValueError) -> None:
    """Refuse with `error` (`_scalar`) or convert each field of dataclass `obj` annotated
    int, float, bool or str, ``tuple[X, ...]`` of one (each entry named by its index),
    or ``Optional`` of either, which may hold None."""
    for name, optional, kind, entry_kind in _field_rules(type(obj)):
        value = getattr(obj, name)
        if optional and value is None:
            continue
        if kind in _SCALAR_KINDS:
            object.__setattr__(obj, name, _scalar(value, kind, name, error))  # some are frozen
        elif entry_kind in _SCALAR_KINDS:
            entries = tuple(_scalar(v, entry_kind, f"{name}[{i}]", error)
                            for i, v in enumerate(value))
            object.__setattr__(obj, name, entries)


def _json_fields(cls, obj, what: str) -> dict:
    """`obj` as keyword arguments for dataclass `cls`, refused unless it is a
    JSON object whose every key names a field of `cls`."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object")
    unknown = set(obj) - {f.name for f in fields(cls)}
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")
    return dict(obj)


def _array_json(array: np.ndarray, name: str, timestep: int) -> dict:
    """`array` as `{"shape": [...], "f8": base64 of its little-endian float64s in C order}`."""
    if not np.isfinite(array).all():
        raise InvalidLogError(f"record at t={timestep}: {name} must be finite")
    data = base64.b64encode(array.astype("<f8", copy=False).tobytes()).decode("ascii")
    return {"shape": list(array.shape), "f8": data}


def _numeric_array(value, name: str) -> np.ndarray:
    """`value` as a float64 array: the object `_array_json` writes, or nested lists (as
    format version 1 writes) of integers or floats."""
    if not isinstance(value, dict):
        array = np.asarray(value)
        # Not `_check`, which would format the dtype into its message on every record read.
        if array.dtype.kind not in "iuf":
            raise InvalidLogError(f"{name} must hold numbers, got dtype {array.dtype}")
        return array.astype(np.float64, copy=False)
    if value.keys() != {"shape", "f8"}:
        raise InvalidLogError(f"{name} keys must be ['f8', 'shape'], got {sorted(value)}")
    shape = value["shape"]
    if not (isinstance(shape, list) and all(type(n) is int and n >= 0 for n in shape)):
        raise InvalidLogError(f"{name} shape must list non-negative integers, got {shape!r}")
    try:
        data = base64.b64decode(value["f8"], validate=True)
    except (TypeError, ValueError) as exc:
        raise InvalidLogError(f"{name} f8 is not base64: {exc}") from exc
    if len(data) != 8 * math.prod(shape):  # before any array, whatever the shape claims
        raise InvalidLogError(f"{name} f8 holds {len(data)} bytes, not 8 for each of {shape}")
    return np.frombuffer(data, dtype="<f8").astype(np.float64).reshape(shape)


@dataclass
class RolloutHeader:
    """Episode-level geometry shared by every record in a log.

    Fields mirror the on-disk header line: ``action_dim`` is the per-action
    dimension, ``prediction_horizon`` (h) and ``execution_horizon`` (k) the
    chunk lengths, ``episode_limit`` (H) the environment-step budget, and
    ``action_mask`` selects the dimensions used in distance computations
    (binary gripper-style dimensions are typically excluded).

    Construction also sets ``mask``, not a field: ``action_mask`` as a read-only
    boolean array, which the scoring step indexes chunks with. It is built once
    the mask is known to fit ``action_dim`` and to select a dimension.
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
        _check(self.format_version in (1, FORMAT_VERSION),
               f"unsupported format_version {self.format_version!r} (supported: 1, 2)")
        _check_scalar_fields(self, InvalidLogError)
        self.format_version = FORMAT_VERSION  # a log read is written back in this format
        _check(self.action_dim >= 1, "action_dim must be >= 1")
        _check(0 < self.execution_horizon, "execution_horizon must be > 0")
        _check(self.execution_horizon < self.prediction_horizon,
               "execution_horizon must be < prediction_horizon")
        _check(self.prediction_horizon <= self.episode_limit,
               "prediction_horizon must be <= episode_limit")
        _check(0 < self.step_duration < math.inf, "step_duration must be finite and > 0")
        _check(0 < self.task_time_limit < math.inf, "task_time_limit must be finite and > 0")
        _check(len(self.action_mask) == self.action_dim,
               "action_mask length must equal action_dim")
        _check(any(self.action_mask), "action_mask needs at least one true entry")
        self.mask = np.array(self.action_mask, dtype=bool)
        self.mask.flags.writeable = False

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
        _check_scalar_fields(self, InvalidLogError)
        _check(self.timestep >= 0, "timestep must be >= 0")
        chunks = _numeric_array(self.chunk_samples, "chunk_samples")
        if chunks.ndim != 3:  # not `_check`, which would format the shape on every record
            raise InvalidLogError(f"chunk_samples must be B x h x action_dim, got shape {chunks.shape}")
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
            "chunk_samples": _array_json(self.chunk_samples, "chunk_samples", self.timestep),
            "executed_index": self.executed_index,
        }
        if self.embedding is not None:
            obj["embedding"] = _array_json(self.embedding, "embedding", self.timestep)
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
        _check_scalar_fields(self, InvalidLogError)
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


def _reject_constant(token: str):
    raise ValueError(f"non-finite JSON token {token!r} not allowed")


# What `json.loads`/`json.dumps` build on each call from these arguments, built once. The
# encoder refuses a NaN or inf scalar; arrays are base64 text by then (`_array_json`).
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)
_ENCODER = json.JSONEncoder(allow_nan=False, separators=(",", ":"))


def write_log(log: RolloutLog, destination) -> None:
    """Write a validated log as newline-delimited JSON.

    Line 1 is the header, lines 2..n+1 the inference records, and the label
    (when present) is the final line.
    """
    if not isinstance(log, RolloutLog):
        raise InvalidLogError("write_log expects a RolloutLog")
    # Revalidate, the header by rebuilding it: dataclasses are mutable, so a log
    # edited after construction could have drifted from its invariants.
    header = RolloutHeader(**{name: getattr(log.header, name) for name in _HEADER_KEYS})
    RolloutLog(header=header, records=log.records, label=log.label)
    lines = [_ENCODER.encode(header.to_json_obj())]
    lines.extend(_ENCODER.encode(r.to_json_obj()) for r in log.records)
    if log.label is not None:
        lines.append(_ENCODER.encode(log.label.to_json_obj()))
    with open(destination, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")


def _load_line(text: str, line_no: int) -> dict:
    try:
        if text.startswith("\ufeff"):  # refused with the message `json.loads` gives
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        obj = _DECODER.decode(text)
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
    with open(source, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:  # named at the line that holds the first bad byte
        raise LogParseError(f"byte {data[exc.start]:#04x} is not valid UTF-8",
                            len(data[:exc.start + 1].splitlines())) from None
    # Universal newlines, as a text-mode read gives them.
    raw_lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
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
