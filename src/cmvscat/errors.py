"""Exception hierarchy.

Split by what the caller can do about it: fix the input (InputError,
DomainError) or change the numerical parameters (the rest). A case that
an earlier guard already rules out gets no class of its own: a defect
residual cannot vanish, since the Szego guard keeps every a0 at least
sqrt(1 - sup |R|^2).
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
    InconsistencyError,
    ConvergenceError,
    EvaluationError,
)
