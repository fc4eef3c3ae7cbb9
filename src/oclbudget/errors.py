"""Exception types shared across the package."""


class OclBudgetError(Exception):
    """Base class for all package-specific errors."""


class IncompleteMatrixError(OclBudgetError):
    """Accuracy matrix is missing entries required by a metric computation."""


class InvalidPreferenceError(OclBudgetError):
    """Preference ordering is not a permutation of the four metric names."""


class NumericDomainError(OclBudgetError):
    """A score input was NaN or infinite."""


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


class SchemaError(OclBudgetError):
    """A declarative config file failed validation. Message names the key path."""


class SimulationStateError(OclBudgetError):
    """The simulated environment was driven out of protocol order."""
