"""Record types: validated immutable tuples built the same way on every path."""

import copy
import dataclasses
import pickle

import pytest

from oclbudget import (
    BudgetState,
    Knobs,
    MetricSnapshot,
    OptimizerMode,
    TraceRecord,
    TrainResult,
    UrgeScore,
)
from oclbudget.record import Record

SNAPSHOT = MetricSnapshot(0.5, 1.0, 2.5, 4096.0)
SCORE = UrgeScore(0.5 * 0.25 * 0.5 * 0.5, 0.5, 0.25, 0.5, 0.5)
KNOBS = Knobs(64, 2000, OptimizerMode.DEFAULT)
BUDGETS = BudgetState(batch_mb=2.9, replay_mb=90.0, optimizer_mb=4200.0)

# (type, field names, one valid record's values) for each record type.
VALID = [
    (
        MetricSnapshot,
        ("plasticity", "stability", "latency_s", "memory_peak_mb"),
        (0.5, 1.0, 2.5, 4096.0),
    ),
    (
        UrgeScore,
        ("value", "plasticity_factor", "stability_factor", "latency_factor", "memory_factor"),
        (0.5 * 0.25 * 0.5 * 0.5, 0.5, 0.25, 0.5, 0.5),
    ),
    (TrainResult, ("latency_s", "memory_peak_mb", "oom"), (12.5, 4300.0, False)),
    (Knobs, ("batch_size", "buffer_size", "optimizer_mode"), (64, 2000, OptimizerMode.ADVANCED)),
    (
        BudgetState,
        ("batch_mb", "replay_mb", "optimizer_mb", "optimizer_mode"),
        (2.9, 90.0, 4200.0, OptimizerMode.DEFAULT),
    ),
    (
        TraceRecord,
        (
            "experience",
            "knobs",
            "score",
            "threshold",
            "snapshot",
            "budgets",
            "memory_peak_mb",
            "oom",
        ),
        (3, KNOBS, SCORE, 0.06, SNAPSHOT, BUDGETS, 4300.0, False),
    ),
]
VALID_IDS = [cls.__name__ for cls, _, _ in VALID]

# (type, values, the ValueError message) for each check the types make.
INVALID = [
    (MetricSnapshot, (1.5, 1.0, 2.5, 4096.0), "plasticity 1.5 outside [0, 1]"),
    (MetricSnapshot, (float("nan"), 1.0, 2.5, 4096.0), "plasticity nan outside [0, 1]"),
    (MetricSnapshot, (0.5, -0.25, 2.5, 4096.0), "stability -0.25 outside [0, 1]"),
    (MetricSnapshot, (0.5, 1.0, -1.0, 4096.0), "latency must be finite and >= 0, got -1.0"),
    (MetricSnapshot, (0.5, 1.0, 2.5, -3), "memory peak must be finite and >= 0, got -3"),
    (UrgeScore, (0.0, 0.0, 0.5, 0.5, 0.5), "factor 0.0 outside the open interval (0, 1)"),
    # The first factor out of range is named, in the order p, s, l, m.
    (UrgeScore, (0.0, 0.5, 1.0, 0.0, 0.5), "factor 1.0 outside the open interval (0, 1)"),
    (UrgeScore, (0.0, 0.5, 0.5, 0.5, float("inf")), "factor inf outside the open interval (0, 1)"),
    (UrgeScore, (0.5, 0.5, 0.5, 0.5, 0.5), "score value does not equal the product of its factors"),
    # Non-finite latency, memory and score values.
    (UrgeScore, (float("nan"), 0.5, 0.5, 0.5, 0.5), "score value does not equal the product of its factors"),
    (MetricSnapshot, (0.5, 0.5, float("inf"), 4096.0), "latency must be finite and >= 0, got inf"),
    (MetricSnapshot, (0.5, 0.5, float("nan"), 4096.0), "latency must be finite and >= 0, got nan"),
    (MetricSnapshot, (0.5, 0.5, 2.5, float("inf")), "memory peak must be finite and >= 0, got inf"),
    (MetricSnapshot, (0.5, 0.5, 2.5, float("nan")), "memory peak must be finite and >= 0, got nan"),
    (BudgetState, (-1.0, 90.0, 4200.0, OptimizerMode.DEFAULT), "budgets must be >= 0"),
    (BudgetState, (2.9, -0.5, 4200.0, OptimizerMode.ADVANCED), "budgets must be >= 0"),
    (BudgetState, (2.9, float("-inf"), 4200.0, OptimizerMode.DEFAULT), "budgets must be >= 0"),
]
INVALID_IDS = [f"{cls.__name__}-{i}" for i, (cls, _, _) in enumerate(INVALID)]


def forged(cls, values):
    """A record with unchecked values, built around its __new__."""
    return tuple.__new__(cls, values)


@pytest.mark.parametrize("cls, fields, values", VALID, ids=VALID_IDS)
class TestValidRecord:
    def test_positional_and_keyword_construction_agree(self, cls, fields, values):
        record = cls(*values)
        assert cls(**dict(zip(fields, values))) == record
        assert cls._fields == fields
        assert tuple(getattr(record, name) for name in fields) == values

    def test_equals_a_plain_tuple_of_its_values(self, cls, fields, values):
        record = cls(*values)
        assert record == values and tuple(record) == values
        assert type(record) is cls

    def test_hash_is_the_tuples(self, cls, fields, values):
        record = cls(*values)
        assert hash(record) == hash(values) == hash(cls(*values))
        assert {record: 1}[cls(*values)] == 1

    def test_repr_names_every_field(self, cls, fields, values):
        inner = ", ".join(f"{name}={value!r}" for name, value in zip(fields, values))
        assert repr(cls(*values)) == f"{cls.__name__}({inner})"

    def test_assignment_raises(self, cls, fields, values):
        record = cls(*values)
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(record, name, values[0])
        with pytest.raises(AttributeError):
            record.extra = 1
        assert not hasattr(record, "__dict__")

    def test_pickle_and_copy_round_trip(self, cls, fields, values):
        record = cls(*values)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            loaded = pickle.loads(pickle.dumps(record, protocol=protocol))
            assert type(loaded) is cls and loaded == record
        for clone in (copy.copy(record), copy.deepcopy(record)):
            assert type(clone) is cls and clone == record

    def test_wrong_arity_raises_type_error(self, cls, fields, values):
        # TraceRecord.oom and BudgetState.optimizer_mode have defaults.
        required = len(values) - (cls in (TraceRecord, BudgetState))
        with pytest.raises(TypeError):
            cls(*values[: required - 1])
        with pytest.raises(TypeError):
            cls(*values, None)
        with pytest.raises(TypeError):
            cls(*values[:-1], unknown=values[-1])

    def test_no_unchecked_construction_path(self, cls, fields, values):
        for name in ("_make", "_replace"):
            assert not hasattr(cls, name)
        with pytest.raises(TypeError):
            dataclasses.replace(cls(*values), **{fields[0]: values[0]})


def test_trace_record_oom_defaults_to_false():
    record = TraceRecord(1, KNOBS, None, None, None, BUDGETS, 9000.0)
    assert record.oom is False
    assert record == (1, KNOBS, None, None, None, BUDGETS, 9000.0, False)


def test_budget_state_mode_defaults_to_default_and_total_is_the_sum():
    assert BUDGETS.optimizer_mode is OptimizerMode.DEFAULT
    assert BUDGETS == BudgetState(2.9, 90.0, 4200.0, OptimizerMode.DEFAULT)
    assert BUDGETS.total_mb == 2.9 + 90.0 + 4200.0


def test_knobs_and_budget_state_repr_is_the_dataclass_text():
    # The text the frozen dataclasses these records replaced wrote.
    assert repr(KNOBS) == (
        "Knobs(batch_size=64, buffer_size=2000, "
        "optimizer_mode=<OptimizerMode.DEFAULT: 'default'>)"
    )
    assert repr(BUDGETS) == (
        "BudgetState(batch_mb=2.9, replay_mb=90.0, optimizer_mb=4200.0, "
        "optimizer_mode=<OptimizerMode.DEFAULT: 'default'>)"
    )


def test_urge_score_components_are_the_four_factors():
    assert SCORE.components() == (0.5, 0.25, 0.5, 0.5)
    assert type(SCORE.components()) is tuple


@pytest.mark.parametrize("cls, values, message", INVALID, ids=INVALID_IDS)
class TestInvalidRecord:
    def test_positional_construction_raises(self, cls, values, message):
        with pytest.raises(ValueError) as info:
            cls(*values)
        assert str(info.value) == message

    def test_keyword_construction_raises(self, cls, values, message):
        with pytest.raises(ValueError) as info:
            cls(**dict(zip(cls._fields, values)))
        assert str(info.value) == message

    def test_unpickling_a_forged_record_raises(self, cls, values, message):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            data = pickle.dumps(forged(cls, values), protocol=protocol)
            with pytest.raises(ValueError) as info:
                pickle.loads(data)
            assert str(info.value) == message

    def test_copying_a_forged_record_raises(self, cls, values, message):
        for clone in (copy.copy, copy.deepcopy):
            with pytest.raises(ValueError) as info:
                clone(forged(cls, values))
            assert str(info.value) == message


class TestRecordDefinition:
    def test_new_must_take_the_fields_in_order(self):
        with pytest.raises(TypeError, match="must take the fields"):

            class Swapped(Record):
                __slots__ = ()
                a: int
                b: int

                def __new__(cls, b, a):
                    return tuple.__new__(cls, (a, b))

    def test_slots_are_required(self):
        with pytest.raises(TypeError, match="__slots__"):

            class NoSlots(Record):
                a: int

                def __new__(cls, a):
                    return tuple.__new__(cls, (a,))
