"""Exception types shared across the package, and the number, range and int
checks each record runs on its own fields.

check_ranges is the one rule for a number field, in a file or in code: the
value must be a number a float can hold (check_number) and lie in the
field's interval. The loaders check no number themselves."""

import math
import sys
from operator import attrgetter

# The largest float: an int above it in magnitude has no float to be stored as.
MAX_FLOAT = sys.float_info.max


class OclBudgetError(Exception):
    """Base class for all package-specific errors; reject sets field and rule."""

    field = rule = None


class IncompleteMatrixError(OclBudgetError):
    """Accuracy matrix is missing entries required by a metric computation."""


class InvalidPreferenceError(OclBudgetError):
    """Preference ordering is not a permutation of the four metric names."""


class InfeasibleBudgetError(OclBudgetError):
    """A budget update left no feasible budgets; the run cannot continue.

    Raised when even the default optimizer budget does not fit, or a budget
    went negative or non-finite. Raised in a run, it carries the records so
    far as partial_trace, a RunTrace marked INFEASIBLE; otherwise that is None.
    """

    def __init__(self, message, partial_trace=None):
        super().__init__(message)
        self.partial_trace = partial_trace


class CalibrationError(OclBudgetError):
    """The calibration fit failed: non-physical parameters or a residual not
    finite or too large (malformed targets are CalibrationTargets' SchemaError)."""


class SchemaError(OclBudgetError, ValueError):
    """A config value breaks a rule. Its record raises it naming Record.field
    (reject); a loader re-raises it naming the file's dotted key path."""


def reject(record, field: str, rule: str):
    """Raise SchemaError("Record.field: rule"), keeping field and rule."""
    exc = SchemaError(f"{type(record).__name__}.{field}: {rule}")
    exc.field, exc.rule = field, rule
    raise exc


def interval(text: str) -> tuple[float, float]:
    """The closed bounds of an interval written like "[0, 1)" or "[1e-9, inf)":
    an open end is the nearest float inside it, so "inf)" excludes inf."""
    lo, hi = (float(end) for end in text[1:-1].split(","))
    lo = lo if text[0] == "[" else math.nextafter(lo, math.inf)
    hi = hi if text[-1] == "]" else math.nextafter(hi, -math.inf)
    return lo, hi


def ranges(intervals: dict[str, str]) -> tuple:
    """Compile {interval: "field field ..."} for check_ranges."""
    rules = []
    for text, fields in intervals.items():
        lo, hi = interval(text)
        rules += [(field, attrgetter(field), lo, hi, text) for field in fields.split()]
    return tuple(rules)


def check_number(record, field: str, value) -> None:
    """Reject value unless it is a number a float can hold: a float, or an
    int within the float range. A bool, a str or None is no number, as a
    file's true is not; an int beyond the largest float is named by its bit
    length, as its repr could be too long to write."""
    if isinstance(value, float):
        return
    if not isinstance(value, int) or isinstance(value, bool):
        reject(record, field, f"must be a number, got {value!r}")
    if not -MAX_FLOAT <= value <= MAX_FLOAT:
        rule = f"must be within the float range, got an int of {value.bit_length()} bits"
        reject(record, field, rule)


def check_ranges(record, rules: tuple) -> None:
    """Reject the first field that is no number (check_number) or lies
    outside its interval (ranges); NaN is in none."""
    for field, value_of, lo, hi, text in rules:
        value = value_of(record)
        check_number(record, field, value)
        if not lo <= value <= hi:
            reject(record, field, f"must be in {text}, got {value!r}")


def check_ints(record, fields: str) -> None:
    """Reject the first of the fields "field field ..." whose value is not an
    int; a bool is not one, as a file's true is not."""
    for field in fields.split():
        value = getattr(record, field)
        if not isinstance(value, int) or isinstance(value, bool):
            reject(record, field, f"must be an int, got {value!r}")


class SimulationStateError(OclBudgetError):
    """The simulated environment was asked to train after an OOM failed it."""
