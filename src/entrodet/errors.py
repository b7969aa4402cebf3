"""Exception types raised across the package.

Validation failures name the violated invariant and carry the measured
defect in the message; domain errors signal parameter values outside the
mathematical domain of an operation, such as a count that is no integer.
Every scalar parameter passes :func:`_check_count` or :func:`_check_real`,
and a count inside its bounds whose arrays NumPy cannot allocate raises
the :class:`DomainError` of :func:`_unallocatable`.
"""

import math
import operator

import numpy as np

# a bound on lengths: every int up to it is an exact double, and no array that long fits in memory
_MAX_COUNT = 2**53


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


def _check_count(value, what: str, low: int = 1, high: int | float = math.inf) -> int:
    """``value`` as an int; :class:`DomainError` unless it is an integer in ``low..high``.

    An integer is whatever ``operator.index`` accepts, so ``np.int64(3)``
    passes and ``3.0``, ``np.float64(3.0)`` and NaN do not. A message gives
    an int past 64 bits by its size only: ``str`` refuses one of 4300 digits.
    """
    try:
        n = operator.index(value)
    except TypeError:
        raise DomainError(f"{what} must be an integer, got {value!r}") from None
    if not low <= n <= high:
        bound = f">= {low}" if n < low else f"<= {high}"
        shown = n if n.bit_length() <= 64 else f"an integer of {n.bit_length()} bits"
        raise DomainError(f"{what} must be {bound}, got {shown}")
    return n


def _check_real(value, what: str, low: float = -math.inf, high: float = math.inf) -> float:
    """``value`` as a Python float; :class:`DomainError` unless it is a real in ``(low, high)``.

    A real is whatever ``float()`` converts except a string, bytes or a
    complex number: Python ints, NumPy scalars and 0-d arrays pass, and a
    float32 order is computed with in double precision. The bounds are
    open, so NaN and the infinities fail; a range closed at 0 takes the
    bound just below it, ``math.nextafter(0.0, -1.0)``.
    """
    try:
        if isinstance(value, (str, bytes, complex, np.complexfloating)):
            raise TypeError
        x = float(value)
    except (TypeError, ValueError):
        raise DomainError(f"{what} must be a real number, got {value!r}") from None
    except OverflowError:  # an int past the float range, maybe too long to print
        raise DomainError(f"{what} is beyond the float range") from None
    if not low < x < high:  # NaN fails too
        lower = "[0" if math.nextafter(low, math.inf) == 0 else f"({low:g}"
        raise DomainError(f"{what} must be finite and in {lower}, {high:g}), got {x}")
    return x


def _unallocatable(what: str, n: int) -> DomainError:
    """The error for a count ``what`` = ``n`` inside its bounds whose arrays NumPy refuses:
    with ``MemoryError`` where no memory holds them, with ``ValueError`` where their
    byte size passes the address range. Callers catch both around the allocation only."""
    return DomainError(f"{what} {n} needs more memory than NumPy can allocate")
