"""Exception types raised across the package.

Validation failures name the violated invariant and carry the measured
defect in the message; domain errors signal parameter values outside the
mathematical domain of an operation, such as a count that is no integer.
"""

import operator


class ValidationError(ValueError):
    """An input object violates one of its structural invariants."""


class NotHermitian(ValidationError):
    """Matrix is not Hermitian within tolerance."""


class NotPositive(ValidationError):
    """Matrix or spectrum has an eigenvalue below the PSD tolerance, or a non-finite one."""


class TraceNotOne(ValidationError):
    """Matrix trace differs from 1 beyond tolerance."""


class NotNormalized(ValidationError):
    """Spectrum does not sum to 1 within tolerance."""


class ConstraintViolation(ValidationError):
    """A generator parameter bound is violated (names the first offender)."""


class DimensionMismatch(ValueError):
    """Operand dimensions are incompatible."""


class DomainError(ValueError):
    """Parameter outside the mathematical domain of the operation."""


class FractionalPowerOfNegative(DomainError):
    """Fractional power requested of a negative real quantity."""


class ConvergenceFailure(RuntimeError):
    """An iterative solver exhausted its iteration budget."""


class NonFiniteKernel(DomainError):
    """Kernel evaluation produced non-finite values at quadrature nodes."""


class NonPositiveDeterminant(DomainError):
    """Log-determinant requested for a matrix with determinant <= 0."""


class TruncationInsufficient(RuntimeError):
    """No truncation within the allowed budget satisfies the requested bounds."""


def _check_count(value, what: str, low: int = 1) -> int:
    """``value`` as an int; :class:`DomainError` unless it is an integer >= ``low``.

    An integer is whatever ``operator.index`` accepts, so ``np.int64(3)``
    passes and ``3.0``, ``np.float64(3.0)`` and NaN do not.
    """
    try:
        n = operator.index(value)
    except TypeError:
        raise DomainError(f"{what} must be an integer, got {value!r}") from None
    if n < low:
        raise DomainError(f"{what} must be >= {low}, got {n}")
    return n
