"""Exception hierarchy.

Split by what the caller can do about it: fix the input (InputError,
DomainError) or change the numerical parameters (the rest).
"""


class CmvScatError(Exception):
    """Base class for all package errors."""


class InputError(CmvScatError):
    """Malformed or inconsistent input data (parsing, shapes, file formats)."""


class DomainError(CmvScatError):
    """Argument outside the mathematical domain of the operation."""


class ResolutionError(CmvScatError):
    """Requested data beyond what the current grid resolves; raise the grid size."""


class ConditioningError(CmvScatError):
    """A linear system is too ill-conditioned to solve reliably."""


class DegeneracyError(CmvScatError):
    """A defect residual collapsed to zero; the input is effectively non-contractive."""


class InconsistencyError(CmvScatError):
    """Computed quantity violates a structural bound (e.g. a coefficient of modulus >= 1)."""


class ConvergenceError(CmvScatError):
    """Section doubling hit its cap without meeting the convergence certificate."""


class EvaluationError(CmvScatError):
    """Pointwise evaluation hit a near-zero denominator."""


#: Errors attributable to the input data (CLI exit code 2).
INPUT_ERRORS = (InputError, DomainError)

#: Errors attributable to the numerics (CLI exit code 3).
NUMERICAL_ERRORS = (
    ResolutionError,
    ConditioningError,
    DegeneracyError,
    InconsistencyError,
    ConvergenceError,
    EvaluationError,
)
