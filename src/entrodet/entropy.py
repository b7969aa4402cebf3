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

from .errors import (
    DimensionMismatch,
    DomainError,
    FractionalPowerOfNegative,
    NotPositive,
    _check_count,
)
from .linalg import (
    DensityMatrix,
    MatrixLike,
    SpectrumLike,
    _admit,
    _matrix_map,
    _positive_prefix,
    as_spectrum,
    eig_hermitian,
    matrix_function,
    spectrum_of,
)
from .states import _PowerLaw

_LN2 = math.log(2.0)


def _base_scale(log_base: str) -> float:
    if log_base == "e":
        return 1.0
    if log_base == "2":
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
    return float((_positive_prefix(lam) ** r).sum())


# ---------------------------------------------------------------------------
# the statistics
# ---------------------------------------------------------------------------


def trace_power(x: Union[SpectrumLike, MatrixLike], r: float) -> float:
    """Trace power sum I_r = sum_i lam_i^r of a spectrum (0 log-safe)."""
    _check_order(r, "trace power order")
    return _power_sum(spectrum_of(x).values, r)


def von_neumann(x: Union[SpectrumLike, MatrixLike], log_base: str = "e") -> float:
    """Entropy -sum lam log lam with the 0 log 0 = 0 convention."""
    scale = _base_scale(log_base)
    lam = _positive_prefix(spectrum_of(x, normalized=True).values)
    h = np.log(lam)
    h *= lam
    # clip spectral-noise negatives: the exact value is >= 0
    return max(-float(h.sum()), 0.0) * scale


def _log_det_one_plus(
    q: MatrixLike, g: Callable[[float], float], name: str, normalized: bool | None = None
) -> float:
    """log det(1 + g(Q)) by the dense ``slogdet``, after one eigensolve of Q."""
    spec, u = eig_hermitian(q)
    gq = _matrix_map(as_spectrum(spec, normalized), u, g)
    sign, logdet = np.linalg.slogdet(np.eye(len(gq)) + gq)
    if sign <= 0:
        raise DomainError(f"det(1 + {name}) is not positive")
    return float(logdet)


def vn_via_fredholm(q: MatrixLike) -> float:
    """von Neumann entropy as log det(1 + f(Q)) with f(Q) = Q^-Q - 1.

    Goes through the actual matrix determinant rather than the spectral
    sum, so it cross-checks the direct formula on finite states. Like
    :func:`von_neumann` it requires a normalized state.
    """
    return _log_det_one_plus(q, lambda lam: lam ** (-lam) - 1.0, "f(Q)", normalized=True)


def vn_renormalized(x: Union[SpectrumLike, MatrixLike]) -> float:
    """Renormalized von Neumann entropy log det_2(1 + f(Q)).

    Per eigenvalue this is ``-lam log lam - (lam^-lam - 1)``, i.e. the
    entropy with its own linearization subtracted. Each term is <= 0 and
    of second order in ``-lam log lam``, which keeps the sum finite on
    truncated spectra whose plain entropy grows without bound.
    """
    lam = _positive_prefix(spectrum_of(x).values)
    ent = np.log(lam)
    ent *= lam
    np.negative(ent, out=ent)          # eigenvalues of -Q log Q
    return float(np.subtract(ent, np.expm1(ent), out=ent).sum())


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
        return _log_det_one_plus(x, lambda lam: math.expm1(lam**r), "f_r(Q)")
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
    return _check_count(alpha, "regularization order alpha", a_min)


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
    acc = _positive_prefix(spectrum_of(x).values) ** r
    g = np.expm1(acc)
    acc -= g  # the j = 1 term: (-1) * g is exactly -g
    gj = g
    for j in range(2, alpha):
        gj = gj * g
        acc += ((-1) ** j / j) * gj
    return float(acc.sum())


# ---------------------------------------------------------------------------
# the entropies: scalar maps of one statistic
# ---------------------------------------------------------------------------
# Each map is built by a function that checks its parameters and returns
# statistic -> entropy, so callers check before any spectral work.


def _scaled(log_base: str) -> Callable[[float], float]:
    scale = _base_scale(log_base)
    return lambda h: h * scale


def _tsallis(r: float) -> Callable[[float], float]:
    _check_deformation(r, "Tsallis order")
    return lambda i_r: (i_r - 1.0) / (1.0 - r)


def _renyi(r: float, log_base: str) -> Callable[[float], float]:
    _check_deformation(r, "Renyi order")
    scale = _base_scale(log_base)
    return lambda i_r: math.log(i_r) / (1.0 - r) * scale


def _unified(r: float, s: float) -> Callable:
    # the unified entropy as a map of the power sum I_r (or of log det = I_r),
    # elementwise on an array of them
    _check_unified_params(r, s)
    return lambda p: (p**s - 1.0) / ((1.0 - r) * s) + 0.0  # +0.0 folds away -0.0


def _unified_fredholm(r: float, s: float) -> Callable[[float], float]:
    if not 1.0 < r < math.inf:
        raise DomainError(f"determinant form requires finite r > 1, got {r}")
    return _unified(r, s)


def _unified_renormalized(r: float, s: float) -> Callable[[float], float]:
    _check_s(s)

    def value(log_det: float) -> float:
        if log_det < 0 and float(s) != round(s):
            raise FractionalPowerOfNegative(
                f"(log det_ren)^s with log det_ren = {log_det:.6g} < 0 and fractional s = {s}"
            )
        powered = log_det ** int(round(s)) if float(s) == round(s) else log_det**s
        return (powered - 1.0) / ((1.0 - r) * s)

    return value


def tsallis(x: Union[SpectrumLike, MatrixLike], r: float) -> float:
    """Tsallis entropy (I_r - 1) / (1 - r); the s = 1 unified member."""
    return _tsallis(r)(trace_power(spectrum_of(x, normalized=True), r))


def renyi(x: Union[SpectrumLike, MatrixLike], r: float, log_base: str = "e") -> float:
    """Renyi entropy log(I_r) / (1 - r); the s -> 0 unified member."""
    return _renyi(r, log_base)(trace_power(spectrum_of(x, normalized=True), r))


def hu_ye(x: Union[SpectrumLike, MatrixLike], r: float, s: float) -> float:
    """Two-parameter unified entropy (I_r^s - 1) / ((1 - r) s).

    Interpolates the family: s = 1 gives Tsallis, s -> 0 Renyi, and
    r -> 1 (at s = 1) the von Neumann entropy. Non-negative on states,
    bounded by :func:`hy_bound` of the dimension.
    """
    return _unified(r, s)(trace_power(spectrum_of(x, normalized=True), r))


def hu_ye_rows(lam: np.ndarray, r: float, s: float) -> np.ndarray:
    """:func:`hu_ye` of each row of a stack of Hermitian eigenvalues.

    ``lam`` has shape (S, n); rows need not be sorted. Each row is admitted
    as a state by the same policy as a spectrum passed to :func:`hu_ye`.

    Raises
    ------
    DimensionMismatch
        If ``lam`` is not two-dimensional.
    NotPositive
        Naming the first row with a value below ``-PSD_TOL`` or a
        non-finite value.
    NotNormalized
        Naming the first row whose sum is off 1 by more than ``TRACE_TOL``.
    """
    to_value = _unified(r, s)
    lam = np.array(lam, dtype=float)
    if lam.ndim != 2:
        raise DimensionMismatch(f"expected a stack of spectra of shape (S, n), got {lam.shape}")
    _admit(lam, normalized=True)
    return to_value((lam**r).sum(axis=1))


def hy_bound(d: int, r: float, s: float) -> float:
    """Maximum of the unified entropy on rank-d states.

    ``(d^((1-r)s) - 1) / ((1-r)s)``, attained exactly by the maximally
    mixed state of rank d.
    """
    _check_unified_params(r, s)
    d = _check_count(d, "dimension")
    e = (1.0 - r) * s
    return (float(d) ** e - 1.0) / e


def hy_fredholm(x: Union[SpectrumLike, MatrixLike], r: float, s: float) -> float:
    """Unified entropy through the determinant: uses log det(1 + f_r(Q)).

    Valid for r > 1, where the determinant is finite on any state; equal
    to :func:`hu_ye` by the identity log det = I_r.
    """
    return _unified_fredholm(r, s)(log_det_r(spectrum_of(x, normalized=True), r))


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
    return _unified_renormalized(r, s)(log_det_ren(x, r, alpha))


@dataclass(frozen=True)
class ProbeResult:
    """Outcome of a divergence probe over a spectrum generator.

    ``reached`` tells whether the partial power sums crossed the
    threshold; ``index`` is the first crossing index, or ``k_max`` when
    the threshold was not reached; ``partial_sum`` is the sum up to ``index``.
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
    """Find the first K with partial sum sum_{k<=K} lam_k^r above a threshold.

    ``lam_of_k`` maps an array of 1-based indices to eigenvalues. For
    spectra whose power sum diverges the crossing arrives at finite K;
    for convergent sums the probe reports ``reached=False`` at ``k_max``.
    The probe takes one of two routes:

    * A :func:`~entrodet.states.power_law_generator` knows its partial
      sums in closed form (1024 terms summed directly plus an
      Euler-Maclaurin remainder, within a few ulps of the exact sum).
      The probe evaluates the sum at ``k_max`` once and, if that
      crosses, doubles from K = 1 and bisects to the first crossing:
      O(log k_max) sums and no index arrays. ``chunk`` plays no part.
    * Any other callable is scanned: it is called on ``chunk`` indices
      at a time and its values are accumulated by ``cumsum``.

    Raises
    ------
    DomainError
        If r is not positive and finite, the threshold is NaN,
        ``k_max`` or ``chunk`` is not an integer >= 1, or ``k_max``
        exceeds 2**53.
    DimensionMismatch
        If a scanned chunk of values does not have the shape of its indices.
    NotPositive
        If a scanned value is negative or not finite, naming its index.
    """
    _check_order(r, "probe order")
    k_max = _check_count(k_max, "probe length k_max")
    if k_max > 2**53:  # no digits in the message: str() refuses ints past 4300 digits
        raise DomainError(
            "probe length k_max exceeds 2**53, past which indices are not exact doubles"
        )
    chunk = _check_count(chunk, "chunk size")
    if math.isnan(threshold):
        raise DomainError("threshold must not be NaN")
    if isinstance(lam_of_k, _PowerLaw):
        return _bisect_probe(lambda k: lam_of_k.power_sum(r, k), threshold, k_max)
    total = 0.0
    start = 1
    while start <= k_max:
        stop = min(start + chunk - 1, k_max)
        ks = np.arange(start, stop + 1, dtype=float)
        vals = np.asarray(lam_of_k(ks), dtype=float)
        if vals.shape != ks.shape:
            raise DimensionMismatch(
                f"generator returned shape {vals.shape} for indices {start}..{stop}"
            )
        if not (vals.min() >= 0 and vals.max() < math.inf):  # NaN fails too
            i = int(np.argmax(~((vals >= 0) & (vals < math.inf))))
            raise NotPositive(
                f"generator value lam_{start + i} = {vals[i]:.6g} is negative or not finite"
            )
        partial = vals**r
        np.cumsum(partial, out=partial)
        partial += total
        i = int((partial > threshold).argmax())  # 0 when nothing crosses
        if partial[i] > threshold:
            return ProbeResult(True, start + i, float(partial[i]))
        total = float(partial[-1])
        start = stop + 1
    return ProbeResult(False, k_max, total)


def _bisect_probe(
    partial_sum: Callable[[int], float], threshold: float, k_max: int
) -> ProbeResult:
    """divergence_probe on a nondecreasing partial sum known at any K."""
    total = partial_sum(k_max)
    if not total > threshold:
        return ProbeResult(False, k_max, total)
    # invariant: partial_sum(lo) <= threshold < partial_sum(hi) = total
    lo, hi = 0, 1
    while hi < k_max:
        s = partial_sum(hi)
        if s > threshold:
            total = s
            break
        lo, hi = hi, min(2 * hi, k_max)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        s = partial_sum(mid)
        if s > threshold:
            hi, total = mid, s
        else:
            lo = mid
    return ProbeResult(True, hi, total)


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


# kind -> (method, statistic of (spectrum, params), checked scalar map of
# params (see above), diagnostic key the statistic is reported under).
# The entries call the kernels through their module-global names, so a
# wrapper installed on the module sees every call.
_ROUTES = {
    "vn": ("direct-spectral", lambda spec, p: von_neumann(spec),
           lambda p: _scaled(p.log_base), None),
    "vn-ren": ("renormalized", lambda spec, p: vn_renormalized(spec),
               lambda p: lambda h: h, None),
    "tsallis": ("direct-spectral", lambda spec, p: trace_power(spec, p.r),
                lambda p: _tsallis(p.r), "trace_power"),
    "renyi": ("direct-spectral", lambda spec, p: trace_power(spec, p.r),
              lambda p: _renyi(p.r, p.log_base), "trace_power"),
    "hy": ("direct-spectral", lambda spec, p: trace_power(spec, p.r),
           lambda p: _unified(p.r, p.s), "trace_power"),
    "hy-fredholm": ("fredholm", lambda spec, p: log_det_r(spec, p.r),
                    lambda p: _unified_fredholm(p.r, p.s), "log_det"),
    "hy-ren": ("renormalized", lambda spec, p: log_det_ren(spec, p.r, p.alpha),
               lambda p: _unified_renormalized(p.r, p.s), "log_det"),
}
KINDS = tuple(_ROUTES)


def _route(kind: str, params: EntropyParams):
    """(method, statistic, checked scalar map, diagnostic key, params) of ``kind``."""
    if kind not in _ROUTES:
        raise DomainError(f"unknown entropy kind {kind!r}; choose from {KINDS}")
    method, statistic, scalar_map, key = _ROUTES[kind]
    if kind == "hy-ren":
        params = replace(params, alpha=_resolve_alpha(params.r, params.alpha))
    return method, statistic, scalar_map(params), key, params


def evaluate(
    kind: str,
    x: Union[SpectrumLike, MatrixLike],
    params: EntropyParams = EntropyParams(),
) -> EntropyResult:
    """Evaluate one entropy kind with shared diagnostics.

    ``kind`` is one of ``vn, vn-ren, tsallis, renyi, hy, hy-fredholm,
    hy-ren``. The kind's parameters (r, s, alpha, log base) are checked
    first; then the input is reduced to its spectrum once and the kind's
    statistic is computed once. The diagnostics carry the dimension,
    that statistic (the trace power sum or the log-determinant) and, on
    the renormalized routes, the regularization order used.
    """
    method, statistic, to_value, key, params = _route(kind, params)
    # the renormalized routes take any positive spectrum, the others a state
    spec = spectrum_of(x, normalized=None if method == "renormalized" else True)
    stat = statistic(spec, params)
    value = to_value(stat)
    diagnostics: dict = {"dim": len(spec)}
    if method == "renormalized":
        diagnostics["alpha"] = params.alpha if kind == "hy-ren" else 2
    if key is not None:
        diagnostics[key] = stat
    return EntropyResult(value, method, diagnostics, not math.isfinite(value))
