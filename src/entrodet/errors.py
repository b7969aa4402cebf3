"""Exception types raised across the package.

Validation failures name the violated invariant and carry the measured
defect in the message; domain errors signal parameter values outside the
mathematical domain of an operation.
"""


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
