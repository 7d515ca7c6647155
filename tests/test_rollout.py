import base64
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sentinel import rollout
from sentinel.rollout import (InferenceRecord, InvalidLogError, LogParseError,
                              RolloutHeader, RolloutLabel, RolloutLog, read_log, write_log)

from conftest import (failure_label, make_header, make_log, make_record, records_equal,
                      same_bits, success_label, v1_text)


def test_header_invariants():
    make_header()  # baseline is valid
    with pytest.raises(ValueError):
        make_header(execution_horizon=0)
    with pytest.raises(ValueError):
        make_header(execution_horizon=4)  # k == h
    with pytest.raises(ValueError):
        make_header(prediction_horizon=20)  # h > H
    with pytest.raises(ValueError):
        make_header(action_mask=(False, False))
    with pytest.raises(ValueError):
        make_header(action_mask=(True,))  # length mismatch
    with pytest.raises(ValueError):
        make_header(step_duration=0.0)
    # The mask the scoring step reads: read-only, in the order of action_mask, and
    # no field, so it reaches neither the log bytes nor equality.
    header = make_header(action_mask=(False, True))
    assert header.mask.dtype == bool and header.mask.tolist() == [False, True]
    assert not header.mask.flags.writeable
    assert "mask" not in header.to_json_obj()
    assert header == make_header(action_mask=(False, True)) != make_header()


def test_record_invariants():
    # timestep alignment with k is a log-level invariant; the record alone
    # rejects negatives and malformed arrays
    make_record(1, np.zeros((2, 4, 2)))
    with pytest.raises(ValueError):
        make_record(-2, np.zeros((2, 4, 2)))
    with pytest.raises(ValueError):
        make_record(0, np.zeros((2, 4)))  # not 3-d
    with pytest.raises(ValueError):
        make_record(0, np.full((1, 4, 2), np.nan))
    with pytest.raises(ValueError):
        make_record(0, np.zeros((2, 4, 2)), executed_index=2)
    with pytest.raises(ValueError, match="executed_index must be an integer"):
        make_record(0, np.zeros((2, 4, 2)), executed_index=True)  # JSON true is not row 1


def _pinned_log():
    """A header, a record without its optional fields, one with both, and a label."""
    header = make_header(prediction_horizon=2, execution_horizon=1, episode_limit=4,
                         step_duration=0.25, action_mask=(True, False),
                         task_description="park", task_time_limit=1.0)
    records = [make_record(0, [[[0.0, -1.5], [2.0, 0.1]]]),
               make_record(1, [[[1.0, 2.0], [3.0, 4.0]], [[5.0, 6.0], [7.0, 8.5]]],
                           executed_index=1, embedding=[0.25, -3.0],
                           frame_ref="frames/t0001.png")]
    return RolloutLog(header=header, records=records, label=success_label())


# `_pinned_log` as format version 1 wrote it: arrays as nested lists of decimals.
PINNED_V1_BYTES = (
    b'{"format_version":1,"action_dim":2,"prediction_horizon":2,"execution_horizon":1,'
    b'"episode_limit":4,"step_duration":0.25,"action_mask":[true,false],'
    b'"task_description":"park","task_time_limit":1.0}\n'
    b'{"timestep":0,"chunk_samples":[[[0.0,-1.5],[2.0,0.1]]],"executed_index":0}\n'
    b'{"timestep":1,"chunk_samples":[[[1.0,2.0],[3.0,4.0]],[[5.0,6.0],[7.0,8.5]]],'
    b'"executed_index":1,"embedding":[0.25,-3.0],"frame_ref":"frames/t0001.png"}\n'
    b'{"label":"success","return_value":1.0,"return_threshold":1.0}\n')


def test_write_log_bytes_are_pinned(tmp_path):
    """The on-disk form, byte for byte: the header with format_version first, then each
    array as its shape and the base64 of its little-endian float64 bytes in C order."""
    log = _pinned_log()
    path = tmp_path / "pinned.sentinel.jsonl"
    write_log(log, path)
    assert path.read_bytes() == (
        b'{"format_version":2,"action_dim":2,"prediction_horizon":2,"execution_horizon":1,'
        b'"episode_limit":4,"step_duration":0.25,"action_mask":[true,false],'
        b'"task_description":"park","task_time_limit":1.0}\n'
        b'{"timestep":0,"chunk_samples":{"shape":[1,2,2],'
        b'"f8":"AAAAAAAAAAAAAAAAAAD4vwAAAAAAAABAmpmZmZmZuT8="},"executed_index":0}\n'
        b'{"timestep":1,"chunk_samples":{"shape":[2,2,2],"f8":"AAAAAAAA8D8AAAAAAAAAQAAAAAAAAAhA'
        b'AAAAAAAAEEAAAAAAAAAUQAAAAAAAABhAAAAAAAAAHEAAAAAAAAAhQA=="},"executed_index":1,'
        b'"embedding":{"shape":[2],"f8":"AAAAAAAA0D8AAAAAAAAIwA=="},'
        b'"frame_ref":"frames/t0001.png"}\n'
        b'{"label":"success","return_value":1.0,"return_threshold":1.0}\n')
    assert read_log(path).header == log.header
    # The test helper that rewrites a log as version 1 gives the pinned version 1 bytes.
    assert v1_text(path.read_text()).encode() == PINNED_V1_BYTES


def test_pinned_v1_bytes_still_read(tmp_path):
    """A version 1 log reads as the log it was written from, and writes back as version 2."""
    log = _pinned_log()
    path = tmp_path / "v1.sentinel.jsonl"
    path.write_bytes(PINNED_V1_BYTES)
    loaded = read_log(path)
    assert loaded.header == log.header
    assert loaded.header.format_version == 2
    assert len(loaded.records) == len(log.records)
    for a, b in zip(loaded.records, log.records):
        assert records_equal(a, b)
    assert loaded.label == log.label


def test_integral_step_duration_is_written_as_a_float(tmp_path):
    """A header built with an int where a float belongs writes the float."""
    path = tmp_path / "int-duration.sentinel.jsonl"
    write_log(make_log(header=make_header(step_duration=1)), path)
    assert path.read_bytes().split(b"\n")[0] == (
        b'{"format_version":2,"action_dim":2,"prediction_horizon":4,"execution_horizon":2,'
        b'"episode_limit":16,"step_duration":1.0,"action_mask":[true,true],'
        b'"task_description":"push the supply cart to either of the two marked loading docks '
        b'and bring it to rest inside the dock circle","task_time_limit":8.0}')


def test_header_int_past_the_float_range_is_located(tmp_path):
    """Refused at its line, not left to escape as an OverflowError."""
    path = tmp_path / "huge.sentinel.jsonl"
    write_log(make_log(), path)
    lines = path.read_text().splitlines()
    lines[0] = lines[0].replace('"step_duration":0.5', '"step_duration":1' + "0" * 400)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(LogParseError) as err:
        read_log(path)
    assert err.value.line == 1
    assert str(err.value) == "line 1: step_duration must be a real number, got 1" + "0" * 400


def _edited_log(tmp_path, line_no: int, old: str, new: str):
    """A written format-2 log with `old` replaced by `new` on line `line_no` (1-based)."""
    path = tmp_path / "edited.sentinel.jsonl"
    write_log(make_log(label=failure_label()), path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert old in lines[line_no - 1]
    lines[line_no - 1] = lines[line_no - 1].replace(old, new)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("line_no, old", [(1, '"step_duration":0.5'),
                                          (5, '"return_value":0.0')])
def test_the_shared_decoder_refuses_each_non_finite_token(tmp_path, token, line_no, old):
    """The decoder built once per process refuses what `json.loads` refused, per line."""
    key = old.split(":")[0]
    path = _edited_log(tmp_path, line_no, old, f"{key}:{token}")
    with pytest.raises(LogParseError) as err:
        read_log(path)
    assert err.value.line == line_no
    assert str(err.value) == f"line {line_no}: non-finite JSON token {token!r} not allowed"


@pytest.mark.parametrize("key", ["step_duration", "task_time_limit"])
def test_header_float_past_the_float_range_is_located(tmp_path, key):
    """1e999 parses as inf, which no header may hold: refused at line 1."""
    old = {"step_duration": '"step_duration":0.5', "task_time_limit": '"task_time_limit":8.0'}
    path = _edited_log(tmp_path, 1, old[key], f'"{key}":1e999')
    with pytest.raises(LogParseError) as err:
        read_log(path)
    assert str(err.value) == f"line 1: {key} must be finite and > 0"


def test_byte_order_mark_is_refused_as_json_loads_refuses_it(tmp_path):
    path = _edited_log(tmp_path, 1, "{", "\ufeff{")
    with pytest.raises(LogParseError) as err:
        read_log(path)
    assert str(err.value) == ("line 1: Unexpected UTF-8 BOM (decode using utf-8-sig): "
                              "line 1 column 1 (char 0)")


@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
def test_undecodable_byte_is_refused_at_its_line(tmp_path, newline):
    """A byte that is not UTF-8 is named with its line, whichever line ending
    the file uses; the same file without it reads as the written log."""
    log = make_log(label=failure_label())
    path = tmp_path / "log.sentinel.jsonl"
    write_log(log, path)
    lines = path.read_bytes().split(b"\n")
    path.write_bytes(newline.join(lines))
    read = read_log(path)
    assert read.label == log.label and len(read.records) == len(log.records)
    assert all(records_equal(a, b) for a, b in zip(read.records, log.records))
    lines[1] = lines[1][:8] + b"\xff\xfe" + lines[1][8:]
    path.write_bytes(newline.join(lines))
    with pytest.raises(LogParseError) as err:
        read_log(path)
    assert err.value.line == 2
    assert str(err.value) == "line 2: byte 0xff is not valid UTF-8"


def test_shared_codecs_match_the_per_call_ones(tmp_path):
    """Each written line is what `json.dumps` with the same arguments gives, and a
    line that is no JSON gets the message `json.loads` gives."""
    log = make_log(label=failure_label())
    path = tmp_path / "log.sentinel.jsonl"
    write_log(log, path)
    objs = [log.header.to_json_obj(), *(r.to_json_obj() for r in log.records),
            log.label.to_json_obj()]
    assert path.read_text(encoding="utf-8") == "".join(
        json.dumps(obj, allow_nan=False, separators=(",", ":")) + "\n" for obj in objs)
    for text in ("{", '{"a": 1} x', "", "[1, NaN"):
        with pytest.raises(ValueError) as want:
            json.loads(text, parse_constant=rollout._reject_constant)
        with pytest.raises(LogParseError) as got:
            rollout._load_line(text, 3)
        assert str(got.value) == f"line 3: {want.value}"
    with pytest.raises(ValueError, match="^Out of range float values are not JSON compliant"):
        rollout._ENCODER.encode({"return_value": float("nan")})


def test_record_without_chunk_samples_is_located(tmp_path):
    log = make_log()
    path = tmp_path / "missing.sentinel.jsonl"
    write_log(log, path)
    lines = path.read_text().splitlines()
    record = json.loads(lines[2])
    del record["chunk_samples"]
    lines[2] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(LogParseError, match=r"missing record fields \['chunk_samples'\]") as err:
        read_log(path)
    assert err.value.line == 3


def test_label_consistency():
    success_label()
    failure_label()
    with pytest.raises(ValueError):
        RolloutLabel(outcome="success", return_value=0.0, return_threshold=1.0)
    with pytest.raises(ValueError):
        RolloutLabel(outcome="failure", return_value=1.0, return_threshold=1.0)
    with pytest.raises(ValueError):
        RolloutLabel(outcome="meh", return_value=0.0, return_threshold=1.0)


def test_log_timestep_spacing(header):
    records = [make_record(0, np.zeros((1, 4, 2))), make_record(4, np.zeros((1, 4, 2)))]
    with pytest.raises(ValueError):
        RolloutLog(header=header, records=records, label=None)  # gap of 2k
    records = [make_record(0, np.zeros((1, 4, 2))), make_record(2, np.zeros((1, 4, 2)))]
    RolloutLog(header=header, records=records, label=None)


def test_log_rejects_timestep_past_limit(header):
    records = [make_record(16, np.zeros((1, 4, 2)))]
    with pytest.raises(ValueError):
        RolloutLog(header=header, records=records, label=None)


def test_minimal_log_is_three_lines(tmp_path):
    header = make_header(action_dim=1, prediction_horizon=2, execution_horizon=1,
                         action_mask=(True,))
    log = RolloutLog(header=header,
                     records=[make_record(0, np.zeros((1, 2, 1)))],
                     label=success_label())
    path = tmp_path / "minimal.sentinel.jsonl"
    write_log(log, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 3
    assert json.loads(lines[0])["format_version"] == 2
    assert json.loads(lines[1])["timestep"] == 0
    assert json.loads(lines[2])["label"] == "success"


def test_large_chunk_shape_accepted():
    header = make_header(prediction_horizon=16, execution_horizon=8, episode_limit=64)
    chunks = np.zeros((256, 16, 2))
    log = RolloutLog(header=header, records=[make_record(0, chunks)], label=None)
    assert log.records[0].batch_size == 256


def test_round_trip_simple(tmp_path):
    log = make_log(label=failure_label())
    path = tmp_path / "roundtrip.sentinel.jsonl"
    write_log(log, path)
    loaded = read_log(path)
    assert loaded.header == log.header
    assert len(loaded.records) == len(log.records)
    for a, b in zip(loaded.records, log.records):
        assert records_equal(a, b)
    assert loaded.label == log.label


def test_read_rejects_nan(tmp_path):
    """A NaN token in a list-form (version 1) array is refused at its line."""
    path = tmp_path / "nan.sentinel.jsonl"
    write_log(make_log(), path)
    lines = v1_text(path.read_text()).splitlines()
    record = json.loads(lines[1])
    record["chunk_samples"][0][0][0] = "NaN"
    lines[1] = json.dumps(record).replace('"NaN"', "NaN")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(LogParseError) as err:
        read_log(path)
    assert err.value.line == 2


def _f8(values) -> str:
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


def _drop_last_value(array: dict) -> None:
    array["f8"] = _f8(np.frombuffer(base64.b64decode(array["f8"]), dtype="<f8")[:-1])


@pytest.mark.parametrize("field, change, message", [
    ("chunk_samples", lambda a: a.update(f8=a["f8"][:4] + "!" + a["f8"][4:]),
     r"chunk_samples f8 is not base64"),
    ("embedding", lambda a: a.update(f8=a["f8"][:4] + " " + a["f8"][4:]),
     r"embedding f8 is not base64"),
    ("chunk_samples", _drop_last_value,
     r"chunk_samples f8 holds 248 bytes, not 8 for each of \[4, 4, 2\]"),
    ("embedding", _drop_last_value, r"embedding f8 holds 8 bytes, not 8 for each of \[2\]"),
    ("chunk_samples", lambda a: a.update(shape=[True, 4, 2]), r"shape must list non-negative"),
    ("chunk_samples", lambda a: a.update(shape=[4, -1, 2]), r"shape must list non-negative"),
    ("chunk_samples", lambda a: a.update(shape=[4, 4, 2.0]), r"shape must list non-negative"),
    ("embedding", lambda a: a.update(shape=2), r"shape must list non-negative"),
    ("chunk_samples", lambda a: a.update(dtype="f8"),
     r"chunk_samples keys must be \['f8', 'shape'\], got \['dtype', 'f8', 'shape'\]"),
    ("embedding", lambda a: a.pop("shape"),
     r"embedding keys must be \['f8', 'shape'\], got \['f8'\]"),
    ("chunk_samples", lambda a: a.update(f8=_f8([np.nan] + [0.0] * 31)),
     r"^line 2: chunk_samples must be finite$"),
    ("embedding", lambda a: a.update(f8=_f8([0.0, -np.inf])), r"^line 2: embedding must be finite$"),
], ids=["chunks-not-alphabet", "embedding-not-alphabet", "chunks-one-value-short",
        "embedding-one-value-short", "shape-true", "shape-negative", "shape-float",
        "shape-not-a-list", "unknown-key", "missing-key", "chunks-nan", "embedding-inf"])
def test_malformed_array_object_is_refused_at_its_line(tmp_path, field, change, message):
    path = tmp_path / "array.sentinel.jsonl"
    write_log(make_log(), path)
    lines = path.read_text().splitlines()
    record = json.loads(lines[1])
    change(record[field])
    lines[1] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(LogParseError, match=message) as err:
        read_log(path)
    assert err.value.line == 2


@pytest.mark.parametrize("field, value", [("chunk_samples", np.nan), ("embedding", np.inf)])
def test_write_refuses_a_non_finite_array_value_before_opening_the_file(tmp_path, field,
                                                                        value):
    log = make_log()
    getattr(log.records[1], field).flat[0] = value
    path = tmp_path / "nonfinite.sentinel.jsonl"
    with pytest.raises(InvalidLogError, match=rf"^record at t=2: {field} must be finite$"):
        write_log(log, path)
    assert not path.exists()


def test_write_refuses_a_header_edited_after_construction_before_opening_the_file(tmp_path):
    log = make_log()
    log.header.action_mask = (False,) * log.header.action_dim
    path = tmp_path / "edited.sentinel.jsonl"
    with pytest.raises(InvalidLogError, match="^action_mask needs at least one true entry$"):
        write_log(log, path)
    assert not path.exists()


def test_field_rules_are_read_once_per_class(monkeypatch):
    """Records resolve their field annotations once, not once per construction."""
    calls = []
    real_fields = rollout.fields
    monkeypatch.setattr(rollout, "fields", lambda cls: calls.append(cls) or real_fields(cls))
    rollout._field_rules.cache_clear()
    for t in range(100):
        InferenceRecord(timestep=t, chunk_samples=np.zeros((2, 4, 2)), frame_ref="f.png")
    assert calls == [InferenceRecord]


def test_round_trip_keeps_every_bit(tmp_path):
    """-0.0, subnormals and the extremes of float64 read back with the bits written,
    and the arrays read are writeable."""
    edge = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, np.nextafter(0.0, 1.0) * 3,
            1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1 / 3, -2.5, 1e-310]
    chunks = np.array(edge[:8], dtype=np.float64).reshape(2, 4, 1)
    header = make_header(action_dim=1, action_mask=(True,))
    log = RolloutLog(header=header, records=[
        make_record(0, chunks, embedding=edge[8:]),
        make_record(2, chunks[::-1], embedding=edge[:4])])
    path = tmp_path / "bits.sentinel.jsonl"
    write_log(log, path)
    loaded = read_log(path)
    for a, b in zip(loaded.records, log.records):
        assert records_equal(a, b)
        assert a.chunk_samples.flags.writeable and a.embedding.flags.writeable
    assert not same_bits(np.array([0.0]), np.array([-0.0]))


def test_read_rejects_bad_version(tmp_path):
    log = make_log()
    path = tmp_path / "version.sentinel.jsonl"
    write_log(log, path)
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    header["format_version"] = 99
    lines[0] = json.dumps(header)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(LogParseError) as err:
        read_log(path)
    assert err.value.line == 1


def test_unsupported_version_has_one_message(tmp_path):
    """The header refuses the version with the text read_log reports."""
    fields = make_header().to_json_obj()
    with pytest.raises(InvalidLogError, match=r"^unsupported format_version 99 \(supported: 1, 2\)$"):
        RolloutHeader(**dict(fields, format_version=99))
    path = tmp_path / "version.sentinel.jsonl"
    path.write_text(json.dumps(dict(fields, format_version="1")) + "\n")
    with pytest.raises(LogParseError) as err:
        read_log(path)
    assert str(err.value) == "line 1: unsupported format_version '1' (supported: 1, 2)"


def test_read_rejects_non_monotone(tmp_path):
    log = make_log(n_records=3)
    path = tmp_path / "order.sentinel.jsonl"
    write_log(log, path)
    lines = path.read_text().splitlines()
    lines[2], lines[3] = lines[3], lines[2]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(LogParseError):
        read_log(path)


def test_read_rejects_unknown_keys(tmp_path):
    log = make_log()
    path = tmp_path / "extra.sentinel.jsonl"
    write_log(log, path)
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    header["surprise"] = 1
    lines[0] = json.dumps(header)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(LogParseError):
        read_log(path)


def test_write_refuses_invalid(tmp_path):
    with pytest.raises(InvalidLogError):
        write_log(object(), tmp_path / "bad.sentinel.jsonl")


@st.composite
def valid_logs(draw):
    action_dim = draw(st.integers(1, 3))
    h = draw(st.integers(2, 5))
    k = draw(st.integers(1, h - 1))
    n_records = draw(st.integers(1, 4))
    episode_limit = k * (n_records - 1) + draw(st.integers(1, 2 * h))
    if episode_limit < h:
        episode_limit = h
    mask = draw(st.lists(st.booleans(), min_size=action_dim, max_size=action_dim)
                .filter(lambda m: any(m)))
    header = RolloutHeader(
        action_dim=action_dim, prediction_horizon=h, execution_horizon=k,
        episode_limit=episode_limit,
        step_duration=draw(st.floats(0.01, 10.0, allow_nan=False)),
        action_mask=tuple(mask),
        task_description=draw(st.text(min_size=1, max_size=20)),
        task_time_limit=draw(st.floats(0.5, 500.0, allow_nan=False)))
    batch = draw(st.integers(1, 3))
    finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
    with_embedding = draw(st.booleans())
    records = []
    for j in range(n_records):
        flat = draw(st.lists(finite, min_size=batch * h * action_dim,
                             max_size=batch * h * action_dim))
        chunks = np.array(flat, dtype=np.float64).reshape(batch, h, action_dim)
        embedding = None
        if with_embedding:
            emb = draw(st.lists(finite, min_size=2, max_size=2))
            embedding = np.array(emb, dtype=np.float64)
        frame = draw(st.one_of(st.none(), st.text(min_size=1, max_size=10)))
        records.append(InferenceRecord(timestep=j * k, chunk_samples=chunks,
                                       executed_index=draw(st.integers(0, batch - 1)),
                                       embedding=embedding, frame_ref=frame))
    label = None
    if draw(st.booleans()):
        value = draw(st.floats(-100, 100, allow_nan=False))
        threshold = draw(st.floats(-100, 100, allow_nan=False))
        outcome = "failure" if value < threshold else "success"
        label = RolloutLabel(outcome=outcome, return_value=value,
                             return_threshold=threshold)
    return RolloutLog(header=header, records=records, label=label)


@settings(max_examples=60, deadline=None)
@given(valid_logs())
def test_round_trip_property(tmp_path_factory, log):
    path = tmp_path_factory.mktemp("rt") / "log.sentinel.jsonl"
    write_log(log, path)
    loaded = read_log(path)
    assert loaded.header == log.header
    assert len(loaded.records) == len(log.records)
    for a, b in zip(loaded.records, log.records):
        assert records_equal(a, b)
    assert loaded.label == log.label
