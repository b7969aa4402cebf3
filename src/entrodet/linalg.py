"""Dense Hermitian linear algebra for quantum states.

Containers for density matrices and spectra, plus the spectral operations
every entropy formula in this package is built on: validation, the one
reduction of any input to its spectrum (:func:`spectrum_of`),
eigendecomposition, matrix functions of Hermitian operators, partial
traces and Schatten norms.

All functions are pure; returned arrays are marked read-only so values can
be shared freely between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    DomainError,
    NotHermitian,
    NotNormalized,
    NotPositive,
    TraceNotOne,
    _check_count,
)

# Default tolerances; double precision leaves ample headroom at dim <= 2048.
HERM_TOL = 1e-12    # per-entry Hermiticity defect
PSD_TOL = 1e-10     # most negative admissible eigenvalue; [-PSD_TOL, 0) clamps to 0
TRACE_TOL = 1e-10   # |trace - 1|


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class DensityMatrix:
    """A Hermitian, positive semidefinite, unit-trace complex matrix.

    Construct through :func:`validate_density`, which enforces all three
    invariants and reports the measured defects on failure.
    """

    mat: np.ndarray

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues of a positive operator, sorted non-increasing.

    ``is_normalized`` records whether the values sum to 1; unnormalized
    positive spectra are legal (some determinant identities require them).

    Build one with :func:`as_spectrum` or :func:`spectrum_of`, which sort
    and admit the values. The entropy kernels read the positive values as
    the prefix of that order, so a ``Spectrum`` constructed directly from
    unsorted or negative values voids the invariant and gives wrong sums.
    """

    values: np.ndarray
    is_normalized: bool

    def __len__(self) -> int:
        return len(self.values)


SpectrumLike = Union[Spectrum, np.ndarray, list, tuple]
MatrixLike = Union[DensityMatrix, np.ndarray]


def _admit(lam: np.ndarray, normalized: bool) -> np.ndarray:
    """Admit one spectrum, or each row of a stack, in place; return the unit-sum flags.

    Values in ``[-PSD_TOL, 0)`` become 0. A value below ``-PSD_TOL`` or a
    non-finite sum raises :class:`NotPositive`, and with ``normalized`` a sum
    off 1 by more than ``TRACE_TOL`` raises :class:`NotNormalized`, naming
    the first bad row of a stack.
    """
    rows = lam if lam.ndim > 1 else lam[np.newaxis]
    where = "row {}: " if lam.ndim > 1 else ""
    low = rows.min(axis=1, initial=0.0)
    bad = np.flatnonzero(low < -PSD_TOL)
    if bad.size:
        i = bad[0]
        raise NotPositive(f"{where.format(i)}negative spectrum value {low[i]:.3e}")
    if (low < 0).any():  # the mask pass runs only when some value is negative
        lam[lam < 0] = 0.0
    total = rows.sum(axis=1)
    bad = np.flatnonzero(~np.isfinite(total))
    if bad.size:
        i = bad[0]
        raise NotPositive(f"{where.format(i)}spectrum has non-finite values (sum {total[i]})")
    is_norm = np.abs(total - 1.0) <= TRACE_TOL
    if normalized and not is_norm.all():
        i = np.flatnonzero(~is_norm)[0]
        raise NotNormalized(f"{where.format(i)}spectrum sums to {total[i]:.12g}, expected 1")
    return is_norm


def as_spectrum(values: SpectrumLike, normalized: bool | None = None) -> Spectrum:
    """Coerce a value sequence into a :class:`Spectrum`.

    Values are sorted non-increasing; entries in ``[-PSD_TOL, 0)`` are
    clamped to zero, anything more negative, NaN or infinite raises
    :class:`NotPositive`.
    With ``normalized=None`` the flag is detected from the sum; passing
    ``True`` demands normalization and raises :class:`NotNormalized`
    otherwise.
    """
    if isinstance(values, Spectrum):
        spec = values
        if normalized and not spec.is_normalized:
            raise NotNormalized(
                f"spectrum sums to {spec.values.sum():.12g}, expected 1"
            )
        return spec
    arr = np.array(values, dtype=float, order="C").ravel()  # the one copy
    # A positive, non-increasing copy is already sorted. Anything else
    # (NaN fails both tests) is sorted in place: negate, sort ascending,
    # negate back. Zeros always take the sort: its SIMD kernels may rewrite
    # the sign bit of a zero, and the output bits must not depend on the path.
    if not (arr.size and arr[-1] > 0 and (arr[:-1] >= arr[1:]).all()):
        np.negative(arr, out=arr)
        arr.sort()
        np.negative(arr, out=arr)
    is_norm = bool(_admit(arr, bool(normalized))[0]) and normalized is not False
    return Spectrum(_freeze(arr), is_norm)


def _positive_prefix(lam: np.ndarray) -> np.ndarray:
    """The positive values of admitted ``Spectrum.values``, as a view.

    Admitted values are sorted non-increasing and non-negative, so the
    positive ones are a prefix; one binary search over the reversed
    (non-decreasing) view counts the trailing zeros.
    """
    return lam[: len(lam) - np.searchsorted(lam[::-1], 0.0, side="right")]


def _as_matrix(q: MatrixLike) -> np.ndarray:
    if isinstance(q, DensityMatrix):
        return q.mat
    return np.asarray(q, dtype=complex)


def _check_hermitian(m: np.ndarray) -> None:
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    defect = np.abs(m - m.conj().T).max() if m.size else 0.0
    if not defect <= HERM_TOL:  # a NaN defect fails too
        raise NotHermitian(f"Hermiticity defect {defect:.3e} exceeds {HERM_TOL:.0e}")


def _hermitian(q: MatrixLike) -> np.ndarray:
    # the eigensolvers read one triangle, so a bare array is checked first
    m = _as_matrix(q)
    if not isinstance(q, DensityMatrix):
        _check_hermitian(m)
    return m


def _eigensolve(solver, m: np.ndarray):
    try:
        return solver(m)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigensolver did not converge: {exc}") from exc


def spectrum_of(
    x: Union[SpectrumLike, MatrixLike], normalized: bool | None = None
) -> Spectrum:
    """Reduce any input to its :class:`Spectrum`; the one path every entropy takes.

    A :class:`Spectrum` or a 1-D value sequence goes to :func:`as_spectrum`.
    A :class:`DensityMatrix` or a 2-D array is diagonalized by one
    ``eigvalsh`` (no eigenvectors), after the Hermiticity check for bare
    arrays, and its eigenvalues then get the same clamping, positivity,
    finiteness, sorting and ``normalized`` handling as any value sequence.

    Raises
    ------
    DimensionMismatch, NotHermitian
        If a bare 2-D array is not square, or not Hermitian within ``HERM_TOL``.
    NotPositive, NotNormalized
        As :func:`as_spectrum`.
    """
    if isinstance(x, DensityMatrix) or (isinstance(x, np.ndarray) and x.ndim == 2):
        x = _eigensolve(np.linalg.eigvalsh, _hermitian(x))
    return as_spectrum(x, normalized)


def validate_density(mat: MatrixLike) -> DensityMatrix:
    """Check the three density-matrix invariants and wrap the result.

    Hermiticity (``HERM_TOL`` per entry) and positivity (``PSD_TOL``) are
    checked by :func:`spectrum_of`, the trace by ``TRACE_TOL``.

    Raises
    ------
    DimensionMismatch, NotHermitian, NotPositive, TraceNotOne
        Naming the violated invariant and the measured defect.
    """
    m = _as_matrix(mat)
    spectrum_of(m)
    tr = m.trace().real
    if abs(tr - 1.0) > TRACE_TOL:
        raise TraceNotOne(f"trace {tr:.12g} differs from 1 by {abs(tr - 1.0):.3e}")
    out = m.astype(complex, copy=True)
    return DensityMatrix(_freeze(out))


def eig_hermitian(q: MatrixLike) -> tuple[Spectrum, np.ndarray]:
    """Eigendecomposition Q = U diag(sigma) U^dag for Hermitian Q.

    Returns the spectrum and the read-only unitary ``U`` whose columns are
    the eigenvectors. The solver's values, reversed to non-increasing
    order, are admitted by :func:`as_spectrum`; being in order already,
    none is moved away from its column. Use :func:`spectrum_of` when the
    eigenvectors are not needed.

    Raises
    ------
    DimensionMismatch, NotHermitian, NotPositive
        If a bare array is not square or not Hermitian within ``HERM_TOL``,
        or an eigenvalue is below ``-PSD_TOL`` or not finite.
    """
    lam, u = _eigensolve(np.linalg.eigh, _hermitian(q))
    return as_spectrum(lam[::-1]), _freeze(u[:, ::-1].copy())


def matrix_function(q: MatrixLike, f: Callable[[float], float]) -> np.ndarray:
    """Apply a scalar map to a Hermitian matrix through its eigenbasis.

    Returns ``U diag(f(lam_i)) U^dag``. Maps are expected to encode their
    own lambda -> 0+ limit at zero (e.g. ``lam**-lam - 1`` evaluates to 0
    at lam = 0, matching the entropy convention).

    Raises
    ------
    NotHermitian, NotPositive, DomainError
        As :func:`eig_hermitian`, or if ``f`` is not finite at some eigenvalue.
    """
    return _matrix_map(*eig_hermitian(q), f)


def _matrix_map(spec: Spectrum, u: np.ndarray, f: Callable[[float], float]) -> np.ndarray:
    """``U diag(f(lam_i)) U^dag`` from the output of :func:`eig_hermitian`."""
    vals = np.array([float(f(x)) for x in spec.values])
    if not np.all(np.isfinite(vals)):
        bad = spec.values[~np.isfinite(vals)][0]
        raise DomainError(f"scalar map is not finite at eigenvalue {bad!r}")
    return (u * vals) @ u.conj().T


def partial_trace(q: MatrixLike, d_a: int, d_b: int, keep: str = "A") -> DensityMatrix:
    """Trace out one factor of a bipartite state on C^dA (x) C^dB.

    ``keep="A"`` returns Tr_B Q (a dA x dA state), ``keep="B"`` returns
    Tr_A Q. Subsystem A is the first (slow, row-major) tensor factor. A
    bare array must pass :func:`validate_density` and raises its errors
    otherwise; a :class:`DensityMatrix` is taken as it is.
    """
    d_a = _check_count(d_a, "subsystem dimension d_a")
    d_b = _check_count(d_b, "subsystem dimension d_b")
    m = q.mat if isinstance(q, DensityMatrix) else validate_density(q).mat
    if m.shape[0] != d_a * d_b:
        raise DimensionMismatch(
            f"matrix dim {m.shape[0]} != {d_a} * {d_b}"
        )
    if keep not in ("A", "B"):
        raise DomainError(f"keep must be 'A' or 'B', got {keep!r}")
    m4 = m.reshape(d_a, d_b, d_a, d_b)
    if keep == "A":
        red = np.einsum("ijkj->ik", m4)
    else:
        red = np.einsum("ijil->jl", m4)
    return DensityMatrix(_freeze(np.ascontiguousarray(red)))


def singular_values(a: MatrixLike) -> np.ndarray:
    return np.linalg.svd(_as_matrix(a), compute_uv=False)


def schatten_norm(a: MatrixLike, p: float) -> float:
    """Schatten norm (sum_i s_i^p)^(1/p) over singular values.

    For ``p >= 1`` this is a norm; for ``p`` in (0, 1) a quasi-norm. On a
    Hermitian PSD input the singular values are the eigenvalues.
    """
    if not 0.0 < p < math.inf:  # NaN fails too
        raise DomainError(f"Schatten order must be positive and finite, got {p}")
    s = singular_values(a)
    return float((s**p).sum() ** (1.0 / p))


def trace_distance(a: MatrixLike, b: MatrixLike) -> float:
    """Trace norm ||A - B||_1 of two Hermitian matrices; bare arrays are checked first."""
    ma, mb = _hermitian(a), _hermitian(b)
    if ma.shape != mb.shape:
        raise DimensionMismatch(f"shape mismatch {ma.shape} vs {mb.shape}")
    eig = np.linalg.eigvalsh(ma - mb)
    return float(np.abs(eig).sum())
