"""Entropy functionals and their determinant reformulations.

The deformation family implemented here is built on the trace power sum
``I_r(Q) = sum_i lam_i^r`` of a state's spectrum:

* von Neumann          ``-sum lam log lam``
* Tsallis              ``(I_r - 1) / (1 - r)``
* Renyi                ``log(I_r) / (1 - r)``
* unified (two-param)  ``(I_r^s - 1) / ((1 - r) s)``

Each of these also has a determinant form. With ``f(Q) = Q^-Q - 1`` the
von Neumann entropy equals ``log det(1 + f(Q))``, and with
``f_r(Q) = exp(Q^r) - 1`` the power sum equals ``log det(1 + f_r(Q))``.
On truncations of infinite spectra the plain entropies can grow without
bound; the order-alpha regularized (Carleman) determinant

    det_alpha(1 + A) = det(1 + A) * exp(sum_{j=1}^{alpha-1} (-1)^j Tr(A^j) / j)

subtracts exactly the divergent part. ``vn_renormalized`` is
``log det_2(1 + f(Q))`` and ``hy_renormalized`` applies the same device
to the unified entropy for deformation orders r in (0, 1), where the
plain power sum may diverge.

Each entropy is a scalar map of one spectral statistic: the power sum
``trace_power``, ``von_neumann``'s ``-sum lam log lam``, ``vn_renormalized``,
or one of the log-determinants ``log_det_r`` and ``log_det_ren``.
:func:`evaluate` computes that statistic once, reports it as the
diagnostic and maps it to the entropy.

Every input reduces to its spectrum through
:func:`~entrodet.linalg.spectrum_of`: a :class:`~entrodet.linalg.Spectrum`
or a bare value sequence passes straight on, so truncated
infinite-dimensional spectra skip the matrix algebra, and a density
matrix costs one ``eigvalsh``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Union

import numpy as np

from .errors import DomainError, FractionalPowerOfNegative, NotNormalized
from .linalg import (
    PSD_TOL,
    TRACE_TOL,
    DensityMatrix,
    MatrixLike,
    SpectrumLike,
    matrix_function,
    spectrum_of,
)

_LN2 = math.log(2.0)


def _base_scale(log_base: str) -> float:
    if log_base in ("e", "natural"):
        return 1.0
    if log_base in ("2", "two"):
        return 1.0 / _LN2
    raise DomainError(f"log base must be 'e' or '2', got {log_base!r}")


def _check_order(r: float, what: str) -> None:
    if not 0.0 < r < math.inf:  # NaN fails too
        raise DomainError(f"{what} must be positive and finite, got {r}")


def _check_deformation(r: float, what: str) -> None:
    if not 0.0 < r < math.inf or r == 1:
        raise DomainError(f"{what} must be positive, finite and != 1, got {r}")


def _check_s(s: float) -> None:
    if not math.isfinite(s) or s == 0:
        raise DomainError(f"deformation order s must be finite and nonzero, got {s}")


def _check_unified_params(r: float, s: float) -> None:
    _check_deformation(r, "deformation order r")
    _check_s(s)


def _power_sum(lam: np.ndarray, r: float) -> float:
    pos = lam[lam > 0]
    return float((pos**r).sum())


# ---------------------------------------------------------------------------
# the statistics
# ---------------------------------------------------------------------------


def trace_power(x: Union[SpectrumLike, MatrixLike], r: float) -> float:
    """Trace power sum I_r = sum_i lam_i^r of a spectrum (0 log-safe)."""
    _check_order(r, "trace power order")
    return _power_sum(spectrum_of(x).values, r)


def von_neumann(x: Union[SpectrumLike, MatrixLike], log_base: str = "e") -> float:
    """Entropy -sum lam log lam with the 0 log 0 = 0 convention."""
    lam = spectrum_of(x, normalized=True).values
    lam = lam[lam > 0]
    value = float(-(lam * np.log(lam)).sum())
    # clip spectral-noise negatives: the exact value is >= 0
    return max(value, 0.0) * _base_scale(log_base)


def vn_via_fredholm(q: MatrixLike) -> float:
    """von Neumann entropy as log det(1 + f(Q)) with f(Q) = Q^-Q - 1.

    Goes through the actual matrix determinant rather than the spectral
    sum, so it cross-checks the direct formula on finite states.
    """
    fq = matrix_function(q, lambda lam: lam ** (-lam) - 1.0)
    sign, logdet = np.linalg.slogdet(np.eye(fq.shape[0]) + fq)
    if sign <= 0:
        raise DomainError("det(1 + f(Q)) is not positive")
    return float(logdet)


def vn_renormalized(x: Union[SpectrumLike, MatrixLike]) -> float:
    """Renormalized von Neumann entropy log det_2(1 + f(Q)).

    Per eigenvalue this is ``-lam log lam - (lam^-lam - 1)``, i.e. the
    entropy with its own linearization subtracted. Each term is <= 0 and
    of second order in ``-lam log lam``, which keeps the sum finite on
    truncated spectra whose plain entropy grows without bound.
    """
    lam = spectrum_of(x).values
    lam = lam[lam > 0]
    ent = -lam * np.log(lam)           # eigenvalues of -Q log Q
    return float((ent - np.expm1(ent)).sum())


def f_r(q: MatrixLike, r: float) -> np.ndarray:
    """The positive operator exp(Q^r) - 1 via the functional calculus."""
    _check_order(r, "order r")
    return matrix_function(q, lambda lam: math.expm1(lam**r))


def log_det_r(x: Union[SpectrumLike, MatrixLike], r: float) -> float:
    """log det(1 + f_r(Q)) for f_r(Q) = exp(Q^r) - 1.

    A matrix input goes through the dense log-determinant. On a spectrum
    the determinant is the product of ``exp(lam^r)``, so its log is the
    power sum ``I_r`` itself, returned directly: finite wherever ``I_r``
    is, with no ``log1p(expm1(.))`` round trip to overflow past ~709.
    """
    _check_order(r, "order r")
    if isinstance(x, DensityMatrix) or (isinstance(x, np.ndarray) and x.ndim == 2):
        m = f_r(x, r)
        sign, logdet = np.linalg.slogdet(np.eye(m.shape[0]) + m)
        if sign <= 0:
            raise DomainError("det(1 + f_r(Q)) is not positive")
        return float(logdet)
    return _power_sum(spectrum_of(x).values, r)


def alpha_star(r: float) -> int:
    """Smallest integer alpha with alpha * r >= 1, for r in (0, 1)."""
    if not 0.0 < r < 1.0:
        raise DomainError(
            f"regularization order is defined for r in (0, 1), got {r}"
        )
    a = int(math.floor(1.0 / r))
    if a * r < 1.0:
        a += 1
    return a


def _resolve_alpha(r: float, alpha: int | None) -> int:
    a_min = alpha_star(r)
    if alpha is None:
        return a_min
    if alpha < a_min:
        raise DomainError(
            f"alpha = {alpha} is below the minimal admissible order {a_min}"
        )
    return alpha


def log_det_ren(x: SpectrumLike, r: float, alpha: int | None = None) -> float:
    """Log of the order-alpha regularized determinant det_alpha(1 + f_r(Q)).

    Per eigenvalue, with g = exp(lam^r) - 1:

        log(1 + g) + sum_{j=1}^{alpha-1} (-1)^j g^j / j

    where ``log(1 + g)`` is ``lam^r`` exactly. For alpha = 2 every
    summand is <= 0 (it is log(1+g) - g), so the result is non-positive.
    ``alpha=None`` resolves to the smallest admissible order
    :func:`alpha_star`. The spectrum need not be normalized, only
    non-negative.
    """
    if not 0.0 < r < 1.0:
        raise DomainError(f"renormalization applies to r in (0, 1), got {r}")
    alpha = _resolve_alpha(r, alpha)
    lam = spectrum_of(x).values
    acc = lam[lam > 0] ** r
    g = np.expm1(acc)
    gj = np.ones_like(g)
    for j in range(1, alpha):
        gj = gj * g
        acc = acc + ((-1) ** j / j) * gj
    return float(acc.sum())


# ---------------------------------------------------------------------------
# the entropies: scalar maps of one statistic
# ---------------------------------------------------------------------------


def _tsallis(i_r: float, r: float) -> float:
    _check_deformation(r, "Tsallis order")
    return (i_r - 1.0) / (1.0 - r)


def _renyi(i_r: float, r: float, log_base: str) -> float:
    _check_deformation(r, "Renyi order")
    return math.log(i_r) / (1.0 - r) * _base_scale(log_base)


def _unified(p, r: float, s: float):
    # the unified entropy as a map of the power sum I_r (or of log det = I_r)
    _check_unified_params(r, s)
    return (p**s - 1.0) / ((1.0 - r) * s) + 0.0  # +0.0 folds away -0.0


def _unified_fredholm(log_det: float, r: float, s: float) -> float:
    if not 1.0 < r < math.inf:
        raise DomainError(f"determinant form requires finite r > 1, got {r}")
    return _unified(log_det, r, s)


def _unified_renormalized(log_det: float, r: float, s: float) -> float:
    _check_s(s)
    if log_det < 0 and float(s) != round(s):
        raise FractionalPowerOfNegative(
            f"(log det_ren)^s with log det_ren = {log_det:.6g} < 0 and fractional s = {s}"
        )
    powered = log_det ** int(round(s)) if float(s) == round(s) else log_det**s
    return (powered - 1.0) / ((1.0 - r) * s)


def tsallis(x: Union[SpectrumLike, MatrixLike], r: float) -> float:
    """Tsallis entropy (I_r - 1) / (1 - r); the s = 1 unified member."""
    return _tsallis(trace_power(spectrum_of(x, normalized=True), r), r)


def renyi(x: Union[SpectrumLike, MatrixLike], r: float, log_base: str = "e") -> float:
    """Renyi entropy log(I_r) / (1 - r); the s -> 0 unified member."""
    return _renyi(trace_power(spectrum_of(x, normalized=True), r), r, log_base)


def hu_ye(x: Union[SpectrumLike, MatrixLike], r: float, s: float) -> float:
    """Two-parameter unified entropy (I_r^s - 1) / ((1 - r) s).

    Interpolates the family: s = 1 gives Tsallis, s -> 0 Renyi, and
    r -> 1 (at s = 1) the von Neumann entropy. Non-negative on states,
    bounded by :func:`hy_bound` of the dimension.
    """
    return _unified(trace_power(spectrum_of(x, normalized=True), r), r, s)


def hu_ye_rows(lam: np.ndarray, r: float, s: float) -> np.ndarray:
    """:func:`hu_ye` of each row of a stack of Hermitian eigenvalues.

    ``lam`` has shape (S, n); rows need not be sorted. As for a matrix
    passed to :func:`hu_ye`, values in ``[-PSD_TOL, 0)`` count as zero
    and every row must sum to 1.

    Raises
    ------
    NotNormalized
        Naming the first row whose sum is off by more than ``TRACE_TOL``.
    """
    lam = np.where((lam < 0) & (lam >= -PSD_TOL), 0.0, lam)
    total = lam.sum(axis=1)
    bad = np.flatnonzero(np.abs(total - 1.0) > TRACE_TOL)
    if bad.size:
        raise NotNormalized(
            f"row {bad[0]}: entropy requires a normalized spectrum, "
            f"sum is {total[bad[0]]:.12g}"
        )
    return _unified((np.where(lam > 0, lam, 0.0) ** r).sum(axis=1), r, s)


def hy_bound(d: int, r: float, s: float) -> float:
    """Maximum of the unified entropy on rank-d states.

    ``(d^((1-r)s) - 1) / ((1-r)s)``, attained exactly by the maximally
    mixed state of rank d.
    """
    _check_unified_params(r, s)
    if d < 1:
        raise DomainError(f"dimension must be >= 1, got {d}")
    e = (1.0 - r) * s
    return (float(d) ** e - 1.0) / e


def hy_fredholm(x: Union[SpectrumLike, MatrixLike], r: float, s: float) -> float:
    """Unified entropy through the determinant: uses log det(1 + f_r(Q)).

    Valid for r > 1, where the determinant is finite on any state; equal
    to :func:`hu_ye` by the identity log det = I_r.
    """
    return _unified_fredholm(log_det_r(spectrum_of(x, normalized=True), r), r, s)


def hy_renormalized(
    x: SpectrumLike, r: float, s: float, alpha: int | None = None
) -> float:
    """Renormalized unified entropy for r in (0, 1).

    ``((log det_alpha)^s - 1) / ((1 - r) s)`` over the regularized
    determinant. The regularized log-determinant is typically negative,
    so fractional ``s`` is rejected rather than guessing a signed-power
    convention; the value itself may be negative (renormalization
    forfeits the lower bound of the plain entropy).
    """
    return _unified_renormalized(log_det_ren(x, r, alpha), r, s)


@dataclass(frozen=True)
class ProbeResult:
    """Outcome of a divergence probe over a spectrum generator.

    ``reached`` tells whether the partial power sums crossed the
    threshold; ``index`` is the first crossing index, or the last index
    scanned when the threshold was not reached.
    """

    reached: bool
    index: int
    partial_sum: float


def divergence_probe(
    lam_of_k: Callable[[np.ndarray], np.ndarray],
    r: float,
    threshold: float,
    k_max: int = 10_000_000,
    chunk: int = 1_000_000,
) -> ProbeResult:
    """Scan partial sums sum_{k<=K} lam_k^r for a threshold crossing.

    ``lam_of_k`` maps an array of 1-based indices to eigenvalues; it is
    consumed in chunks so generators over 10^7 indices stay cheap. For
    spectra whose power sum diverges the crossing arrives at finite K;
    for convergent sums the probe reports ``reached=False`` at ``k_max``.
    """
    _check_order(r, "probe order")
    if chunk < 1:
        raise DomainError(f"chunk size must be >= 1, got {chunk}")
    if math.isnan(threshold):
        raise DomainError("threshold must not be NaN")
    total = 0.0
    start = 1
    while start <= k_max:
        stop = min(start + chunk - 1, k_max)
        ks = np.arange(start, stop + 1, dtype=float)
        vals = np.asarray(lam_of_k(ks), dtype=float)
        partial = vals**r
        np.cumsum(partial, out=partial)
        partial += total
        i = int((partial > threshold).argmax())  # 0 when nothing crosses
        if partial[i] > threshold:
            return ProbeResult(True, start + i, float(partial[i]))
        total = float(partial[-1])
        start = stop + 1
    return ProbeResult(False, k_max, total)


# ---------------------------------------------------------------------------
# parameter bundle / dispatch used by the command-line front end
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EntropyParams:
    """Deformation parameters shared by the unified-entropy family.

    ``alpha=None`` means the regularization order is resolved to the
    smallest admissible value for the given r.
    """

    r: float = 2.0
    s: float = 1.0
    alpha: int | None = None
    log_base: str = "e"


@dataclass(frozen=True)
class EntropyResult:
    """A computed entropy value plus the route and diagnostics behind it."""

    value: float
    method: str
    diagnostics: dict = field(default_factory=dict)
    divergent: bool = False


# kind -> (method, statistic of (spectrum, params), scalar map of
# (statistic, params), diagnostic key the statistic is reported under).
# The entries call the kernels through their module-global names, so a
# wrapper installed on the module sees every call.
_ROUTES = {
    "vn": ("direct-spectral", lambda spec, p: von_neumann(spec),
           lambda h, p: h * _base_scale(p.log_base), None),
    "vn-ren": ("renormalized", lambda spec, p: vn_renormalized(spec),
               lambda h, p: h, None),
    "tsallis": ("direct-spectral", lambda spec, p: trace_power(spec, p.r),
                lambda i_r, p: _tsallis(i_r, p.r), "trace_power"),
    "renyi": ("direct-spectral", lambda spec, p: trace_power(spec, p.r),
              lambda i_r, p: _renyi(i_r, p.r, p.log_base), "trace_power"),
    "hy": ("direct-spectral", lambda spec, p: trace_power(spec, p.r),
           lambda i_r, p: _unified(i_r, p.r, p.s), "trace_power"),
    "hy-fredholm": ("fredholm", lambda spec, p: log_det_r(spec, p.r),
                    lambda ld, p: _unified_fredholm(ld, p.r, p.s), "log_det"),
    "hy-ren": ("renormalized", lambda spec, p: log_det_ren(spec, p.r, p.alpha),
               lambda ld, p: _unified_renormalized(ld, p.r, p.s), "log_det"),
}
KINDS = tuple(_ROUTES)


def evaluate(
    kind: str,
    x: Union[SpectrumLike, MatrixLike],
    params: EntropyParams = EntropyParams(),
) -> EntropyResult:
    """Evaluate one entropy kind with shared diagnostics.

    ``kind`` is one of ``vn, vn-ren, tsallis, renyi, hy, hy-fredholm,
    hy-ren``. The input is reduced to its spectrum once and the kind's
    statistic is computed once; the diagnostics carry the dimension,
    that statistic (the trace power sum or the log-determinant) and, on
    the renormalized routes, the regularization order used.
    """
    if kind not in _ROUTES:
        raise DomainError(f"unknown entropy kind {kind!r}; choose from {KINDS}")
    method, statistic, scalar_map, key = _ROUTES[kind]
    if kind == "hy-ren":
        params = replace(params, alpha=_resolve_alpha(params.r, params.alpha))
    # the renormalized routes take any positive spectrum, the others a state
    spec = spectrum_of(x, normalized=None if method == "renormalized" else True)
    stat = statistic(spec, params)
    value = scalar_map(stat, params)
    diagnostics: dict = {"dim": len(spec)}
    if method == "renormalized":
        diagnostics["alpha"] = params.alpha if kind == "hy-ren" else 2
    if key is not None:
        diagnostics[key] = stat
    return EntropyResult(value, method, diagnostics, not math.isfinite(value))
