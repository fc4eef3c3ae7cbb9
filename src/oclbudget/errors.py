"""Exception types shared across the package, and the range and int checks
each config record runs on its own fields."""

import math
from operator import attrgetter


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
    """Calibration targets are infeasible or the fit residual is too large."""


class SchemaError(OclBudgetError, ValueError):
    """A config value breaks a rule. Its record raises it naming Record.field
    (reject); a loader re-raises it naming the file's dotted key path."""


def reject(record, field: str, rule: str, error: type = SchemaError):
    """Raise error as "Record.field: rule", keeping field and rule."""
    exc = error(f"{type(record).__name__}.{field}: {rule}")
    exc.field, exc.rule = field, rule
    raise exc


def ranges(intervals: dict[str, str]) -> tuple:
    """Compile {interval: "field field ..."} for check_ranges. An interval is
    written like "[0, 1)" or "[1e-9, inf)", and an open end is the nearest
    float inside it, so "inf)" excludes the infinities."""
    rules = []
    for text, fields in intervals.items():
        lo, hi = (float(end) for end in text[1:-1].split(","))
        lo = lo if text[0] == "[" else math.nextafter(lo, math.inf)
        hi = hi if text[-1] == "]" else math.nextafter(hi, -math.inf)
        rules += [(field, attrgetter(field), lo, hi, text) for field in fields.split()]
    return tuple(rules)


def check_ranges(record, rules: tuple, error: type = SchemaError) -> None:
    """Reject the first field outside its interval (ranges); NaN is in none."""
    for field, value_of, lo, hi, text in rules:
        value = value_of(record)
        if not lo <= value <= hi:
            reject(record, field, f"must be in {text}, got {value!r}", error)


def check_ints(record, fields: str, error: type = SchemaError) -> None:
    """Reject the first of the fields "field field ..." whose value is not an
    int; a bool is not one, as a file's true is not."""
    for field in fields.split():
        value = getattr(record, field)
        if not isinstance(value, int) or isinstance(value, bool):
            reject(record, field, f"must be an int, got {value!r}", error)


class SimulationStateError(OclBudgetError):
    """The simulated environment was asked to train after an OOM failed it."""
