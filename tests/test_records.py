"""Record types: validated immutable tuples built the same way on every path."""

import ast
import copy
import dataclasses
import importlib
import pickle
import sys
from pathlib import Path

import pytest

import oclbudget
from oclbudget import (
    BudgetState,
    Knobs,
    MetricSnapshot,
    OptimizerMode,
    SchemaError,
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
    (TrainResult, ("latency_s", "memory_peak_mb"), (12.5, 4300.0)),
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
        ),
        (3, KNOBS, SCORE, 0.06, SNAPSHOT, BUDGETS, 4300.0),
    ),
]
VALID_IDS = [cls.__name__ for cls, _, _ in VALID]

HALF_SCORED = "score, threshold and snapshot must be all set or all None"

# (type, values, the ValueError message) for each check the types make; each
# but the half-scored trace record's is a SchemaError naming the field.
INVALID = [
    (MetricSnapshot, (1.5, 1.0, 2.5, 4096.0), "MetricSnapshot.plasticity: must be in [0, 1], got 1.5"),
    (MetricSnapshot, (float("nan"), 1.0, 2.5, 4096.0), "MetricSnapshot.plasticity: must be in [0, 1], got nan"),
    (MetricSnapshot, (0.5, -0.25, 2.5, 4096.0), "MetricSnapshot.stability: must be in [0, 1], got -0.25"),
    (MetricSnapshot, (0.5, 1.0, -1.0, 4096.0), "MetricSnapshot.latency_s: must be in [0, inf), got -1.0"),
    (MetricSnapshot, (0.5, 1.0, 2.5, -3), "MetricSnapshot.memory_peak_mb: must be in [0, inf), got -3"),
    (UrgeScore, (0.0, 0.0, 0.5, 0.5, 0.5), "UrgeScore.plasticity_factor: must be in (0, 1), got 0.0"),
    # The first factor out of range is named, in the order p, s, l, m.
    (UrgeScore, (0.0, 0.5, 1.0, 0.0, 0.5), "UrgeScore.stability_factor: must be in (0, 1), got 1.0"),
    (UrgeScore, (0.0, 0.5, 0.5, 0.5, float("inf")), "UrgeScore.memory_factor: must be in (0, 1), got inf"),
    (UrgeScore, (0.5, 0.5, 0.5, 0.5, 0.5), "UrgeScore.value: must equal the product of its factors, got 0.5"),
    # Non-finite latency, memory and score values.
    (UrgeScore, (float("nan"), 0.5, 0.5, 0.5, 0.5), "UrgeScore.value: must equal the product of its factors, got nan"),
    (MetricSnapshot, (0.5, 0.5, float("inf"), 4096.0), "MetricSnapshot.latency_s: must be in [0, inf), got inf"),
    (MetricSnapshot, (0.5, 0.5, float("nan"), 4096.0), "MetricSnapshot.latency_s: must be in [0, inf), got nan"),
    (MetricSnapshot, (0.5, 0.5, 2.5, float("inf")), "MetricSnapshot.memory_peak_mb: must be in [0, inf), got inf"),
    (MetricSnapshot, (0.5, 0.5, 2.5, float("nan")), "MetricSnapshot.memory_peak_mb: must be in [0, inf), got nan"),
    (BudgetState, (-1.0, 90.0, 4200.0, OptimizerMode.DEFAULT), "BudgetState.batch_mb: must be in [0, inf), got -1.0"),
    (BudgetState, (2.9, -0.5, 4200.0, OptimizerMode.ADVANCED), "BudgetState.replay_mb: must be in [0, inf), got -0.5"),
    (BudgetState, (2.9, float("-inf"), 4200.0, OptimizerMode.DEFAULT), "BudgetState.replay_mb: must be in [0, inf), got -inf"),
    # NaN and +inf, which a runaway grow step produced before it raised.
    (BudgetState, (float("nan"), 90.0, 4200.0, OptimizerMode.DEFAULT), "BudgetState.batch_mb: must be in [0, inf), got nan"),
    (BudgetState, (2.9, float("inf"), 4200.0, OptimizerMode.DEFAULT), "BudgetState.replay_mb: must be in [0, inf), got inf"),
    (BudgetState, (float("inf"), float("nan"), 4200.0, OptimizerMode.ADVANCED), "BudgetState.batch_mb: must be in [0, inf), got inf"),
    # A trace record is scored (score, threshold and snapshot) or OOM (none of them).
    *(
        (TraceRecord, (3, KNOBS, *half, BUDGETS, 4300.0), HALF_SCORED)
        for half in [
            (SCORE, None, None),
            (None, 0.06, None),
            (None, None, SNAPSHOT),
            (SCORE, 0.06, None),
            (SCORE, None, SNAPSHOT),
            (None, 0.06, SNAPSHOT),
        ]
    ),
    # Knobs: int sizes (a bool is not one), batch >= 1, buffer >= 0, each one
    # a double holds exactly, and a mode that is a member or names one.
    (Knobs, (0, 10, OptimizerMode.DEFAULT), "Knobs.batch_size: must be >= 1, got 0"),
    (Knobs, (16.5, 10, OptimizerMode.DEFAULT), "Knobs.batch_size: must be an int, got 16.5"),
    (Knobs, (True, 10, OptimizerMode.DEFAULT), "Knobs.batch_size: must be an int, got True"),
    (Knobs, (16, -1, OptimizerMode.DEFAULT), "Knobs.buffer_size: must be >= 0, got -1"),
    (Knobs, (16, True, OptimizerMode.ADVANCED), "Knobs.buffer_size: must be an int, got True"),
    (Knobs, (16, 10, "fast"), "Knobs.optimizer_mode: must be 'default' or 'advanced', got 'fast'"),
    (
        Knobs,
        (10**400, 10, OptimizerMode.DEFAULT),
        "Knobs.batch_size: must be an int a double holds exactly, got an int of 1329 bits",
    ),
    (
        Knobs,
        (16, int(sys.float_info.max) + 1, OptimizerMode.DEFAULT),
        "Knobs.buffer_size: must be an int a double holds exactly, got an int of 1024 bits",
    ),
    (Knobs, (32, 1000.0, OptimizerMode.DEFAULT), "Knobs.buffer_size: must be an int, got 1000.0"),
    # A float field takes a number a float can hold, as a trace packs each
    # one as a float; an int beyond the largest float is named.
    (
        MetricSnapshot,
        (0.5, 0.5, 10**400, 1.0),
        "MetricSnapshot.latency_s: must be within the float range, got an int of 1329 bits",
    ),
    (
        MetricSnapshot,
        (0.5, 0.5, 2.5, int(sys.float_info.max) + 1),
        "MetricSnapshot.memory_peak_mb: must be within the float range, got an int of 1024 bits",
    ),
    (
        BudgetState,
        (10**400, 1.0, 1.0, OptimizerMode.DEFAULT),
        "BudgetState.batch_mb: must be within the float range, got an int of 1329 bits",
    ),
    (
        BudgetState,
        (2.9, 90.0, -(10**400), OptimizerMode.DEFAULT),
        "BudgetState.optimizer_mb: must be within the float range, got an int of 1329 bits",
    ),
    (
        BudgetState,
        (2.9, 90.0, "4200", OptimizerMode.DEFAULT),
        "BudgetState.optimizer_mb: must be a number, got '4200'",
    ),
    (
        UrgeScore,
        (10**400, 0.5, 0.5, 0.5, 0.5),
        "UrgeScore.value: must be within the float range, got an int of 1329 bits",
    ),
    (
        UrgeScore,
        (0.0625, 0.5, 10**400, 0.5, 0.5),
        "UrgeScore.stability_factor: must be within the float range, got an int of 1329 bits",
    ),
    (
        MetricSnapshot,
        (10**400, 0.5, 2.5, 1.0),
        "MetricSnapshot.plasticity: must be within the float range, got an int of 1329 bits",
    ),
    (
        TraceRecord,
        (3, KNOBS, SCORE, 10**400, SNAPSHOT, BUDGETS, 4300.0),
        "TraceRecord.threshold: must be within the float range, got an int of 1329 bits",
    ),
    (
        TraceRecord,
        (1, KNOBS, None, None, None, BUDGETS, -(10**400)),
        "TraceRecord.memory_peak_mb: must be within the float range, got an int of 1329 bits",
    ),
    (
        TraceRecord,
        (1, KNOBS, None, None, None, BUDGETS, None),
        "TraceRecord.memory_peak_mb: must be a number, got None",
    ),
    (
        TraceRecord,
        (3.0, KNOBS, SCORE, 0.06, SNAPSHOT, BUDGETS, 4300.0),
        "TraceRecord.experience: must be an int, got 3.0",
    ),
    # A trace packs each optimizer mode as a bit, so a state holds a member.
    (
        BudgetState,
        (2.9, 90.0, 4200.0, "fast"),
        "BudgetState.optimizer_mode: must be 'default' or 'advanced', got 'fast'",
    ),
    # A value no float compares with fails the one-expression test by a
    # TypeError, and the field checks name it.
    (
        BudgetState,
        ("x", 1.0, 1.0, OptimizerMode.DEFAULT),
        "BudgetState.batch_mb: must be a number, got 'x'",
    ),
    (
        BudgetState,
        (2.9, None, 4200.0, OptimizerMode.DEFAULT),
        "BudgetState.replay_mb: must be a number, got None",
    ),
    (
        MetricSnapshot,
        (None, 0.5, 1.0, 1.0),
        "MetricSnapshot.plasticity: must be a number, got None",
    ),
    (
        MetricSnapshot,
        (0.5, 0.5, 1.0, "4300"),
        "MetricSnapshot.memory_peak_mb: must be a number, got '4300'",
    ),
    (
        UrgeScore,
        (0.5, "x", 0.5, 0.5, 0.5),
        "UrgeScore.plasticity_factor: must be a number, got 'x'",
    ),
    (
        UrgeScore,
        (0.0625, 0.5, 0.5, 0.5, [0.5]),
        "UrgeScore.memory_factor: must be a number, got [0.5]",
    ),
    # A knob size above 2**53 must equal its float.
    (
        Knobs,
        (2**53 + 1, 10, OptimizerMode.DEFAULT),
        "Knobs.batch_size: must be an int a double holds exactly, got an int of 54 bits",
    ),
    (
        Knobs,
        (16, 10**300, OptimizerMode.DEFAULT),
        "Knobs.buffer_size: must be an int a double holds exactly, got an int of 997 bits",
    ),
    # A bool is no number, as a file's true is not, wherever a value takes
    # the field checks.
    (
        BudgetState,
        (2.9, 90.0, True, OptimizerMode.DEFAULT),
        "BudgetState.optimizer_mb: must be a number, got True",
    ),
    (UrgeScore, (True, 0.5, 0.5, 0.5, 0.5), "UrgeScore.value: must be a number, got True"),
    (
        TraceRecord,
        (3, KNOBS, SCORE, False, SNAPSHOT, BUDGETS, 4300.0),
        "TraceRecord.threshold: must be a number, got False",
    ),
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
        # BudgetState.optimizer_mode has a default.
        required = len(values) - (cls is BudgetState)
        with pytest.raises(TypeError):
            cls(*values[: required - 1])
        with pytest.raises(TypeError):
            cls(*values, None)
        with pytest.raises(TypeError):
            cls(*values[:-1], unknown=values[-1])

    def test_direct_new_builds_what_the_class_call_builds(self, cls, fields, values):
        # The per-experience paths call a record's __new__ directly.
        record = cls.__new__(cls, *values)
        assert type(record) is cls and record == cls(*values)
        assert cls.__new__(cls, **dict(zip(fields, values))) == record

    def test_no_unchecked_construction_path(self, cls, fields, values):
        for name in ("_make", "_replace"):
            assert not hasattr(cls, name)
        with pytest.raises(TypeError):
            dataclasses.replace(cls(*values), **{fields[0]: values[0]})


def test_oom_follows_the_metrics_on_both_records():
    # oom is no field: a training result is an OOM when it has no latency,
    # a trace record when it has no snapshot.
    assert TrainResult(12.5, 4300.0).oom is False
    assert TrainResult(None, 9000.0).oom is True
    assert TraceRecord(3, KNOBS, SCORE, 0.06, SNAPSHOT, BUDGETS, 4300.0).oom is False
    record = TraceRecord(1, KNOBS, None, None, None, BUDGETS, 9000.0)
    assert record.oom is True
    assert record == (1, KNOBS, None, None, None, BUDGETS, 9000.0)


def test_oom_is_not_stored():
    assert "oom" not in TrainResult._fields and "oom" not in TraceRecord._fields
    assert len(TrainResult._fields) == 2 and len(TraceRecord._fields) == 7
    with pytest.raises(TypeError):
        TraceRecord(1, KNOBS, None, None, None, BUDGETS, 9000.0, oom=True)


def test_budget_state_mode_defaults_to_default_and_total_is_the_sum():
    assert BUDGETS.optimizer_mode is OptimizerMode.DEFAULT
    assert BUDGETS == BudgetState(2.9, 90.0, 4200.0, OptimizerMode.DEFAULT)
    assert BUDGETS.total_mb == 2.9 + 90.0 + 4200.0


def test_budget_state_mode_string_becomes_its_member():
    state = BudgetState(2.9, 90.0, 4200.0, "advanced")
    assert state.optimizer_mode is OptimizerMode.ADVANCED
    assert state == BudgetState(2.9, 90.0, 4200.0, OptimizerMode.ADVANCED)


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
        # A message naming Record.field is a SchemaError's.
        assert isinstance(info.value, SchemaError) == message.startswith(f"{cls.__name__}.")

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

    def test_direct_new_raises(self, cls, values, message):
        # What the per-experience paths call, bound once per module.
        with pytest.raises(ValueError) as info:
            cls.__new__(cls, *values)
        assert str(info.value) == message


# The module-level bindings the per-experience paths build records through:
# (module, name, record class). Each must be the class's own __new__.
NEW_BINDINGS = [
    ("controller", "_new_knobs", Knobs),
    ("controller", "_new_budgets", BudgetState),
    ("controller", "_new_snapshot", MetricSnapshot),
    ("controller", "_new_score", UrgeScore),
    ("controller", "_new_record", TraceRecord),
    ("metrics", "_new_snapshot", MetricSnapshot),
    ("urge", "_new_score", UrgeScore),
    ("simulator", "_new_result", TrainResult),
]
SOURCES = sorted(Path(oclbudget.__file__).parent.glob("*.py"))


def _calls(tree):
    return (node for node in ast.walk(tree) if isinstance(node, ast.Call))


@pytest.mark.parametrize("module, name, cls", NEW_BINDINGS, ids=lambda v: getattr(v, "__name__", v))
def test_new_binding_is_the_record_classes_own_new(module, name, cls):
    assert "__new__" in cls.__dict__
    assert getattr(importlib.import_module(f"oclbudget.{module}"), name) is cls.__new__


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_new_binding_is_called_with_its_own_class(path):
    # _new_knobs(BudgetState, ...) would build a BudgetState through Knobs'
    # rules; each call passes the class whose __new__ the name holds.
    module = importlib.import_module(
        "oclbudget" if path.stem == "__init__" else f"oclbudget.{path.stem}"
    )
    classes = {name: cls.__name__ for owner, name, cls in NEW_BINDINGS if owner == path.stem}
    assert {name for name in vars(module) if name.startswith("_new_")} == set(classes)
    for call in _calls(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(call.func, ast.Name) and call.func.id in classes:
            first = call.args[0]
            assert isinstance(first, ast.Name) and first.id == classes[call.func.id], (
                f"{path.name}:{call.lineno}"
            )


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_only_a_records_own_new_calls_tuple_new(path):
    # A bare tuple.__new__(Cls, values) would build a record past its
    # checks; only the record's __new__ itself may call it.
    tree = ast.parse(path.read_text(encoding="utf-8"))
    allowed = {
        id(call)
        for cls in tree.body if isinstance(cls, ast.ClassDef)
        for method in cls.body
        if isinstance(method, ast.FunctionDef) and method.name == "__new__"
        for call in _calls(method)
    }
    for call in _calls(tree):
        func = call.func
        if (
            isinstance(func, ast.Attribute) and func.attr == "__new__"
            and isinstance(func.value, ast.Name) and func.value.id == "tuple"
        ):
            assert id(call) in allowed, f"{path.name}:{call.lineno}"


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


@pytest.mark.parametrize("mode", list(OptimizerMode), ids=lambda mode: mode.value)
def test_knobs_mode_string_becomes_its_member(mode):
    # The simulator and the memory model test the mode by identity. A mode
    # string takes the slow path, which must accept batch 1 and buffer 0,
    # the least each may be, as the fast path does.
    for batch, buffer in ((32, 1000), (1, 0)):
        for knobs in (
            Knobs(batch, buffer, mode.value),
            Knobs(batch_size=batch, buffer_size=buffer, optimizer_mode=mode.value),
        ):
            assert knobs.optimizer_mode is mode and knobs == Knobs(batch, buffer, mode)
            assert pickle.loads(pickle.dumps(knobs)).optimizer_mode is mode
