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
    """Capacity projection pushed a budget below its minimum knob requirement.

    Raised only when even the default optimizer budget does not fit (or a
    budget went negative); the run cannot continue.
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
