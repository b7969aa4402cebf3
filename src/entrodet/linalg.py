"""Dense Hermitian linear algebra for quantum states.

Containers for density matrices and spectra, plus the spectral operations
every entropy formula in this package is built on: validation, the one
reduction of any input to its spectrum (:func:`spectrum_of`),
eigendecomposition, partial traces and the trace distance.

All functions are pure; returned arrays are marked read-only so values can
be shared freely between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import (
    _MAX_COUNT,
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
    the first bad row of a stack. Each bound is decided by one reduction
    over the whole stack; the offending row is looked up only after its
    bound has failed.
    """
    rows = lam if lam.ndim > 1 else lam[np.newaxis]
    where = "row {}: " if lam.ndim > 1 else ""
    low = rows.min(axis=1, initial=0.0)
    if (low < 0).any():  # the bound and the mask pass run only when some value is negative
        bad = np.flatnonzero(low < -PSD_TOL)
        if bad.size:
            i = bad[0]
            raise NotPositive(f"{where.format(i)}negative spectrum value {low[i]:.3e}")
        lam[lam < 0] = 0.0
    total = rows.sum(axis=1)
    finite = np.isfinite(total)
    if not finite.all():
        i = np.flatnonzero(~finite)[0]
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
    return _own_spectrum(arr, normalized)


def _own_spectrum(arr: np.ndarray, normalized: bool | None = None) -> Spectrum:
    """:func:`as_spectrum` of a fresh 1-D float64 buffer, sorted and admitted in place.

    The caller hands ``arr`` over: it is reordered, clamped and frozen, and
    becomes the spectrum's values, bit for bit those of
    ``as_spectrum(arr, normalized)`` on a copy.
    """
    # A positive, non-increasing buffer is already sorted. Anything else
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


# values per leaf of a long 1-D pass: 256 KiB of float64, so a leaf's passes stay
# in L2. At least 128, NumPy's pairwise leaf: a smaller one splits where NumPy does not
_BLOCK = 1 << 15


def _blocked_sum(x: np.ndarray, transform: Callable[..., np.ndarray], buffers: int = 1) -> float:
    """``float(transform(x).sum())`` in leaves of at most ``_BLOCK`` values, bit for bit.

    NumPy sums a contiguous float64 array pairwise: a run of more than 128
    values is split at half its length, rounded down to a multiple of 8, and
    the two halves' sums are added. Splitting ``x`` the same way down to runs
    of at most ``_BLOCK`` values and reducing each run's transform with
    ``np.add.reduce`` adds the same values in the same order, while every
    pass over a run stays in cache. ``transform(run, *scratch)`` gets
    ``buffers`` scratch arrays of the run's length, allocated once per call,
    and returns the array to reduce; it must map each value on its own.
    """
    scratch = np.empty((buffers, min(len(x), _BLOCK)))

    def tree(lo: int, hi: int):
        n = hi - lo
        if n <= _BLOCK:
            return np.add.reduce(transform(x[lo:hi], *scratch[:, :n]))
        half = lo + n // 2 - n // 2 % 8
        return tree(lo, half) + tree(half, hi)

    total = float(tree(0, len(x)))
    # tree refers to itself, so until a garbage collection the cycle would hold
    # the scratch, and the next call would write fresh pages: break it now
    del tree
    return total


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


def _is_matrix(x) -> bool:
    """Whether an input is read as a matrix: a :class:`DensityMatrix` or a 2-D array."""
    return isinstance(x, DensityMatrix) or (isinstance(x, np.ndarray) and x.ndim == 2)


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
    if _is_matrix(x):
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


def _matrix_map(spec: Spectrum, u: np.ndarray, f: Callable[[float], float]) -> np.ndarray:
    """``U diag(f(lam_i)) U^dag`` from the output of :func:`eig_hermitian`.

    ``f`` encodes its own lam -> 0+ limit at zero (``lam**-lam - 1`` is 0 at
    lam = 0, the entropy convention); a value that is not finite raises
    :class:`DomainError`.
    """
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
    d_a = _check_count(d_a, "subsystem dimension d_a", high=_MAX_COUNT)
    d_b = _check_count(d_b, "subsystem dimension d_b", high=_MAX_COUNT)
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


def trace_distance(a: MatrixLike, b: MatrixLike) -> float:
    """Trace norm ||A - B||_1 of two Hermitian matrices; bare arrays are checked first."""
    ma, mb = _hermitian(a), _hermitian(b)
    if ma.shape != mb.shape:
        raise DimensionMismatch(f"shape mismatch {ma.shape} vs {mb.shape}")
    eig = np.linalg.eigvalsh(ma - mb)
    return float(np.abs(eig).sum())
