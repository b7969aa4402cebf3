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
    """

    values: np.ndarray
    is_normalized: bool

    def __len__(self) -> int:
        return len(self.values)


SpectrumLike = Union[Spectrum, np.ndarray, list, tuple]
MatrixLike = Union[DensityMatrix, np.ndarray]


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
    # one copy, sorted in place: negate, sort ascending, negate back
    arr = np.negative(np.asarray(values, dtype=float).ravel())
    arr.sort()
    np.negative(arr, out=arr)
    if arr.size and arr.min() < -PSD_TOL:
        raise NotPositive(f"negative spectrum value {arr.min():.3e}")
    arr[arr < 0] = 0.0
    total = arr.sum()
    if not np.isfinite(total):
        raise NotPositive(f"spectrum has non-finite values (sum {total})")
    is_norm = bool(abs(total - 1.0) <= TRACE_TOL)
    if normalized and not is_norm:
        raise NotNormalized(f"spectrum sums to {total:.12g}, expected 1")
    if normalized is False:
        is_norm = False
    return Spectrum(_freeze(arr), is_norm)


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
    the eigenvectors. Eigenvalues come back sorted non-increasing, with
    values in ``[-PSD_TOL, 0)`` clamped to zero; equal eigenvalues keep
    the eigenvector order produced by the solver. Use :func:`spectrum_of`
    when the eigenvectors are not needed.

    Raises
    ------
    DimensionMismatch, NotHermitian
        If a bare array is not square, or not Hermitian within ``HERM_TOL``.
    """
    lam, u = _eigensolve(np.linalg.eigh, _hermitian(q))
    lam = lam[::-1].copy()
    u = u[:, ::-1].copy()
    lam[(lam < 0) & (lam >= -PSD_TOL)] = 0.0
    total = lam.sum()
    spec = Spectrum(_freeze(lam), bool(abs(total - 1.0) <= TRACE_TOL))
    return spec, _freeze(u)


def matrix_function(q: MatrixLike, f: Callable[[float], float]) -> np.ndarray:
    """Apply a scalar map to a Hermitian matrix through its eigenbasis.

    Returns ``U diag(f(lam_i)) U^dag``. Maps are expected to encode their
    own lambda -> 0+ limit at zero (e.g. ``lam**-lam - 1`` evaluates to 0
    at lam = 0, matching the entropy convention).

    Raises
    ------
    DomainError
        If ``f`` returns a non-finite value at some eigenvalue.
    """
    spec, u = eig_hermitian(q)
    vals = np.array([float(f(x)) for x in spec.values])
    if not np.all(np.isfinite(vals)):
        bad = spec.values[~np.isfinite(vals)][0]
        raise DomainError(f"scalar map is not finite at eigenvalue {bad!r}")
    return (u * vals) @ u.conj().T


def partial_trace(q: MatrixLike, d_a: int, d_b: int, keep: str = "A") -> DensityMatrix:
    """Trace out one factor of a bipartite state on C^dA (x) C^dB.

    ``keep="A"`` returns Tr_B Q (a dA x dA state), ``keep="B"`` returns
    Tr_A Q. Subsystem A is the first (slow, row-major) tensor factor.
    """
    m = _as_matrix(q)
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
    m = _as_matrix(a)
    return np.linalg.svd(m, compute_uv=False)


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
    """Trace norm ||A - B||_1 of the difference of two Hermitian matrices."""
    ma, mb = _as_matrix(a), _as_matrix(b)
    if ma.shape != mb.shape:
        raise DimensionMismatch(f"shape mismatch {ma.shape} vs {mb.shape}")
    eig = np.linalg.eigvalsh(ma - mb)
    return float(np.abs(eig).sum())
