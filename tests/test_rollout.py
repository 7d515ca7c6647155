import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sentinel.rollout import (InferenceRecord, InvalidLogError, LogParseError,
                              RolloutHeader, RolloutLabel, RolloutLog, apply_mask,
                              mask_array, read_log, write_log)

from conftest import (failure_label, make_header, make_log, make_record, records_equal,
                      success_label)


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


def test_write_log_bytes_are_pinned(tmp_path):
    """The on-disk form, byte for byte: the header with format_version first,
    a record without its optional fields, one with both, then the label."""
    header = make_header(prediction_horizon=2, execution_horizon=1, episode_limit=4,
                         step_duration=0.25, action_mask=(True, False),
                         task_description="park", task_time_limit=1.0)
    records = [make_record(0, [[[0.0, -1.5], [2.0, 0.1]]]),
               make_record(1, [[[1.0, 2.0], [3.0, 4.0]], [[5.0, 6.0], [7.0, 8.5]]],
                           executed_index=1, embedding=[0.25, -3.0],
                           frame_ref="frames/t0001.png")]
    path = tmp_path / "pinned.sentinel.jsonl"
    write_log(RolloutLog(header=header, records=records, label=success_label()), path)
    assert path.read_bytes() == (
        b'{"format_version":1,"action_dim":2,"prediction_horizon":2,"execution_horizon":1,'
        b'"episode_limit":4,"step_duration":0.25,"action_mask":[true,false],'
        b'"task_description":"park","task_time_limit":1.0}\n'
        b'{"timestep":0,"chunk_samples":[[[0.0,-1.5],[2.0,0.1]]],"executed_index":0}\n'
        b'{"timestep":1,"chunk_samples":[[[1.0,2.0],[3.0,4.0]],[[5.0,6.0],[7.0,8.5]]],'
        b'"executed_index":1,"embedding":[0.25,-3.0],"frame_ref":"frames/t0001.png"}\n'
        b'{"label":"success","return_value":1.0,"return_threshold":1.0}\n')
    assert read_log(path).header == header


def test_integral_step_duration_is_written_as_a_float(tmp_path):
    """A header built with an int where a float belongs writes the float."""
    path = tmp_path / "int-duration.sentinel.jsonl"
    write_log(make_log(header=make_header(step_duration=1)), path)
    assert path.read_bytes().split(b"\n")[0] == (
        b'{"format_version":1,"action_dim":2,"prediction_horizon":4,"execution_horizon":2,'
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
    assert json.loads(lines[0])["format_version"] == 1
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
    log = make_log()
    path = tmp_path / "nan.sentinel.jsonl"
    write_log(log, path)
    text = path.read_text().replace('"timestep":0', '"timestep":0')
    lines = text.splitlines()
    record = json.loads(lines[1])
    record["chunk_samples"][0][0][0] = "NaN"
    lines[1] = json.dumps(record).replace('"NaN"', "NaN")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(LogParseError) as err:
        read_log(path)
    assert err.value.line == 2


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
    with pytest.raises(InvalidLogError, match=r"^unsupported format_version 99 \(supported: 1\)$"):
        RolloutHeader(**dict(fields, format_version=99))
    path = tmp_path / "version.sentinel.jsonl"
    path.write_text(json.dumps(dict(fields, format_version="1")) + "\n")
    with pytest.raises(LogParseError) as err:
        read_log(path)
    assert str(err.value) == "line 1: unsupported format_version '1' (supported: 1)"


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


def test_apply_mask_identity_and_selection():
    record = make_record(0, np.arange(8.0).reshape(1, 4, 2))
    np.testing.assert_array_equal(apply_mask(record, (True, True)),
                                  record.chunk_samples)
    first_only = apply_mask(record, (True, False))
    assert first_only.shape == (1, 4, 1)
    np.testing.assert_array_equal(first_only[0, :, 0], [0.0, 2.0, 4.0, 6.0])
    with pytest.raises(ValueError):
        apply_mask(record, (False, False))
    with pytest.raises(ValueError):
        apply_mask(record, (True,))


def test_apply_mask_takes_a_prebuilt_array_with_the_same_refusals():
    record = make_record(0, np.arange(8.0).reshape(1, 4, 2))
    for mask in ((True, True), (True, False), (False, True)):
        np.testing.assert_array_equal(apply_mask(record, mask_array(mask)),
                                      apply_mask(record, mask))
    with pytest.raises(InvalidLogError, match="^mask selects no dimensions$"):
        apply_mask(record, mask_array((False, False)))
    with pytest.raises(InvalidLogError, match="^mask length 1 != action_dim 2$"):
        apply_mask(record, mask_array((True,)))


def test_apply_mask_many_dims():
    # 14 action dims with two masked out keeps order of the remaining 12.
    chunks = np.arange(14.0).reshape(1, 1, 14)
    record = make_record(0, chunks)
    mask = [True] * 14
    mask[6] = mask[13] = False
    out = apply_mask(record, mask)
    assert out.shape == (1, 1, 12)
    expected = [v for i, v in enumerate(range(14)) if i not in (6, 13)]
    np.testing.assert_array_equal(out[0, 0], expected)


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
