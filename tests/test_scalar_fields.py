"""One type rule for every int, float, bool and str field of the log, config and
calibration dataclasses, and for each entry of a ``tuple[X, ...]`` field, read from
each field's annotation: a bool is no number, a number must fit a float, a numpy
scalar is stored as the annotated Python type, and a refusal names the field (and
the entry's index). A log's own classes refuse with InvalidLogError, the config and
calibration classes with a plain ValueError."""

import dataclasses
import re

import numpy as np
import pytest

from sentinel.calibration import CalibrationResult, conformal_threshold
from sentinel.evaluation import BenchmarkConfig, ScriptedMonitor
from sentinel.policy import ScenarioConfig
from sentinel.rollout import InferenceRecord, InvalidLogError, RolloutHeader, RolloutLabel

from conftest import make_header, make_record, success_label

# A valid instance of each class, with every Optional scalar field holding a value.
VALID = {
    RolloutHeader: make_header,
    InferenceRecord: lambda: make_record(0, np.zeros((2, 4, 2)), frame_ref="frames/t0000.png"),
    RolloutLabel: success_label,
    ScenarioConfig: lambda: ScenarioConfig(task_time_limit=16.0),
    ScriptedMonitor: ScriptedMonitor,
    BenchmarkConfig: BenchmarkConfig,
    CalibrationResult: lambda: conformal_threshold([0.1, 0.2, 0.3], delta=0.4),
}

# The class each dataclass refuses with: only a log's own classes blame the log.
ERROR = {cls: InvalidLogError if cls in (RolloutHeader, InferenceRecord, RolloutLabel)
         else ValueError for cls in VALID}

# Annotation -> (stored type, the noun a refusal uses, a numpy scalar of a value).
KINDS = {
    "int": (int, "an integer", np.int64),
    "float": (float, "a real number", np.float32),
    "bool": (bool, "a bool", np.bool_),
    "str": (str, "a string", np.str_),
}

SCALAR_FIELDS = [
    pytest.param(cls, f.name, f.type.removeprefix("Optional[").removesuffix("]"),
                 id=f"{cls.__name__}.{f.name}")
    for cls in VALID for f in dataclasses.fields(cls)
    if f.type.removeprefix("Optional[").removesuffix("]") in KINDS
]


def _built(cls, name, value):
    return dataclasses.replace(VALID[cls](), **{name: value})


def _refusal(name, kind, value) -> str:
    return rf"^{name} must be {KINDS[kind][1]}, got {re.escape(repr(value))}$"


def test_every_class_has_its_scalar_fields_checked():
    counts = {}
    for param in SCALAR_FIELDS:
        cls = param.values[0]
        counts[cls.__name__] = counts.get(cls.__name__, 0) + 1
    assert counts == {"RolloutHeader": 8, "InferenceRecord": 3, "RolloutLabel": 3,
                      "ScenarioConfig": 17, "ScriptedMonitor": 3, "BenchmarkConfig": 4,
                      "CalibrationResult": 4}


@pytest.mark.parametrize("cls, name, kind", SCALAR_FIELDS)
def test_wrong_type_is_refused_naming_the_field(cls, name, kind):
    base = getattr(VALID[cls](), name)
    # A float equal to the int, a numeric string, an int for a bool, a number for a string.
    wrong = {"int": float, "float": str, "bool": int, "str": len}[kind](base)
    bad_values = [wrong] + ([True] if kind in ("int", "float") else [])
    for bad in bad_values:
        with pytest.raises(ValueError, match=_refusal(name, kind, bad)) as refused:
            _built(cls, name, bad)
        assert type(refused.value) is ERROR[cls]


@pytest.mark.parametrize("cls, name, kind", SCALAR_FIELDS)
def test_numpy_scalar_is_stored_as_the_annotated_type(cls, name, kind):
    stored, _, numpy_type = KINDS[kind]
    value = numpy_type(getattr(VALID[cls](), name))
    held = getattr(_built(cls, name, value), name)
    assert type(held) is stored
    assert held == value.item()


@pytest.mark.parametrize("cls, name, kind", [p for p in SCALAR_FIELDS
                                             if p.values[2] in ("int", "float")])
def test_int_past_the_float_range_is_a_located_refusal(cls, name, kind):
    if name == "format_version":
        # The supported version is checked first, so this is refused as unsupported.
        with pytest.raises(InvalidLogError, match="^unsupported format_version"):
            _built(cls, name, 10 ** 400)
        return
    with pytest.raises(ValueError, match=_refusal(name, kind, 10 ** 400)) as refused:
        _built(cls, name, 10 ** 400)
    assert type(refused.value) is ERROR[cls]


@pytest.mark.parametrize("cls, name, kind, bad", [
    (RolloutHeader, "action_mask", "bool", 1),
    (RolloutHeader, "action_mask", "bool", "x"),
    (CalibrationResult, "terminal_scores", "float", "0.2"),
    (CalibrationResult, "terminal_scores", "float", False),
    (ScenarioConfig, "start", "float", "0.1"),
    (ScenarioConfig, "drift_step", "float", True),
    (ScenarioConfig, "mode_weights", "float", "0.5"),
], ids=["mask-int", "mask-str", "score-str", "score-bool", "start-str", "drift-step-bool",
        "mode-weights-str"])
def test_tuple_entry_of_wrong_type_is_refused_naming_its_index(cls, name, kind, bad):
    good = getattr(VALID[cls](), name)
    with pytest.raises(ValueError, match=_refusal(rf"{name}\[1\]", kind, bad)) as refused:
        _built(cls, name, (good[0], bad) + good[2:])
    assert type(refused.value) is ERROR[cls]
    numpy_values = [KINDS[kind][2](v) for v in good]  # a list, with numpy entries
    held = getattr(_built(cls, name, numpy_values), name)
    assert type(held) is tuple and held == tuple(v.item() for v in numpy_values)
    assert all(type(v) is KINDS[kind][0] for v in held)


@pytest.mark.parametrize("bad, where, value", [
    (("2.5", 1.5), "[1][0]", "2.5"),
    ((2.5, True), "[1][1]", True),
])
def test_attractor_entry_of_wrong_type_is_refused_naming_its_indexes(bad, where, value):
    with pytest.raises(ValueError, match=_refusal(re.escape(f"attractors{where}"), "float",
                                                  value)) as refused:
        ScenarioConfig(attractors=((2.5, 1.5), bad))
    assert type(refused.value) is ValueError
    held = ScenarioConfig(attractors=[[np.float32(2.5), 1], (np.int64(3), -1.5)]).attractors
    assert held == ((2.5, 1.0), (3.0, -1.5))
    assert all(type(v) is float for a in held for v in a)
