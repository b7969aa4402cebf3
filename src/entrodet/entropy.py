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

Every value is in nats, as the natural-log statistics give it; a caller
who wants bits divides by ``log 2``.

Each entropy is a scalar map of one spectral statistic: the power sum
``trace_power``, ``von_neumann``'s ``-sum lam log lam``, ``vn_renormalized``,
or one of the log-determinants ``log_det_r`` and ``log_det_ren``.
:func:`evaluate` computes that statistic once, reports it as the
diagnostic and maps it to the entropy. A :class:`~entrodet.linalg.Spectrum`
with read-only values keeps the last order of each statistic, so Tsallis,
Renyi and both unified forms of one spectrum at one r share one power sum.
One builder makes the map of the Tsallis, Renyi, unified, determinant
and renormalized forms, ``x -> (x^s - 1) / ((1 - r) s)`` of the statistic x: Tsallis is s = 1
and Renyi the ``(1 - r) s = 0`` limit ``log(x) / (1 - r)``. Each public
entropy is :func:`evaluate`'s route for its kind, so each statistic is
paired with its map in one place. Each statistic is summed by
:func:`~entrodet.linalg._blocked_sum`: in leaves that stay in cache, on
NumPy's own pairwise summation tree, so its bits are those of the
whole-array formula.

Every input reduces to its spectrum through
:func:`~entrodet.linalg.spectrum_of`: a :class:`~entrodet.linalg.Spectrum`
or a bare value sequence passes straight on, so truncated
infinite-dimensional spectra skip the matrix algebra, and a density
matrix costs one ``eigvalsh``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from typing import Callable, Union

import numpy as np

from .errors import (
    _MAX_COUNT,
    DomainError,
    FractionalPowerOfNegative,
    _check_count,
    _check_real,
)
from .linalg import (
    MatrixLike,
    SpectrumLike,
    _admit,
    _blocked_sum,
    _memoized,
    _positive_prefix,
    as_spectrum,
    eig_hermitian,
    spectrum_of,
)
from .states import _PowerLaw

_LOG_MAX = math.log(sys.float_info.max)
_LOG_LOG3 = math.log(math.log(3.0))


def _check_deformation(r: float, what: str) -> float:
    r = _check_real(r, what, 0.0)
    if r == 1:
        raise DomainError(f"{what} must be != 1, got {r}")
    return r


def _check_s(s: float) -> float:
    s = _check_real(s, "deformation order s")
    if s == 0:
        raise DomainError(f"deformation order s must be nonzero, got {s}")
    return s


def _check_unified_params(r: float, s: float) -> tuple[float, float]:
    return _check_deformation(r, "deformation order r"), _check_s(s)


# the ufuncs that ``x ** r`` calls in place of ``power`` at these exponents
_POWER_SHORTCUTS = {0.5: np.sqrt, 1.0: np.positive, 2.0: np.square}


def _power(x: np.ndarray, r: float, out: np.ndarray) -> np.ndarray:
    """``x ** r`` written into ``out``, by the ufunc that the operator calls."""
    shortcut = _POWER_SHORTCUTS.get(r)
    return shortcut(x, out=out) if shortcut else np.power(x, r, out=out)


def _power_sum(lam: np.ndarray, r: float) -> float:
    return _blocked_sum(_positive_prefix(lam), lambda x, out: _power(x, r, out))


def _i_r(x: Union[SpectrumLike, MatrixLike], r: float) -> float:
    """The power sum I_r of checked r, once per spectrum: shared by trace_power and log_det_r."""
    spec = spectrum_of(x)
    return _memoized(spec, "I_r", r, lambda: _power_sum(spec.values, r))


def _lam_log_lam(lam: np.ndarray, out: np.ndarray) -> np.ndarray:
    np.log(lam, out=out)
    out *= lam
    return out


def _vn_ren_terms(lam: np.ndarray, ent: np.ndarray, g: np.ndarray) -> np.ndarray:
    np.negative(_lam_log_lam(lam, ent), out=ent)  # eigenvalues of -Q log Q
    return np.subtract(ent, np.expm1(ent, out=g), out=ent)


# ---------------------------------------------------------------------------
# the statistics
# ---------------------------------------------------------------------------


def trace_power(x: Union[SpectrumLike, MatrixLike], r: float) -> float:
    """Trace power sum I_r = sum_i lam_i^r of a spectrum (0 log-safe)."""
    return _i_r(x, _check_real(r, "trace power order", 0.0))


def _vn_sum(lam: np.ndarray) -> float:
    """``-sum lam log lam`` of positive values in one pass, the top term in complement form."""
    if not (len(lam) and lam[0] > 0.5):
        return -_blocked_sum(lam, _lam_log_lam)
    top, rest = float(lam[0]), lam[1:]
    s, t = _blocked_sum(rest, lambda x, out: np.stack((_lam_log_lam(x, out), x)))
    return top * math.log1p(t / top) - s


def von_neumann(x: Union[SpectrumLike, MatrixLike]) -> float:
    """Entropy -sum lam log lam in nats, with the 0 log 0 = 0 convention.

    A top value lam_0 above 1/2 enters as ``lam_0 log1p(t / lam_0)``, t the
    sum of the others: on a unit sum that is ``-lam_0 log lam_0``, and it
    keeps the relative accuracy that ``log lam_0`` rounds away near 1.
    """
    spec = spectrum_of(x, normalized=True)
    h = _memoized(spec, "vn", None, lambda: _vn_sum(_positive_prefix(spec.values)))
    # clip spectral-noise negatives: the exact value is >= 0; +0.0 folds away -0.0
    return max(h, 0.0) + 0.0


def vn_via_fredholm(q: MatrixLike) -> float:
    """von Neumann entropy as log det(1 + f(Q)) with f(Q) = Q^-Q - 1.

    Goes through the actual matrix determinant rather than the spectral
    sum, so it cross-checks the direct formula on finite states. Like
    :func:`von_neumann` it requires a normalized state. ``0**-0`` is 1, so
    a zero eigenvalue maps to 0: the ``0 log 0 = 0`` convention.
    """
    spec, u = eig_hermitian(q)
    lam = as_spectrum(spec, normalized=True).values
    sign, logdet = np.linalg.slogdet(np.eye(len(lam)) + (u * (lam**-lam - 1.0)) @ u.conj().T)
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
    spec = spectrum_of(x)
    return _memoized(spec, "vn-ren", None, lambda: _blocked_sum(
        _positive_prefix(spec.values), _vn_ren_terms, buffers=2))


def log_det_r(x: Union[SpectrumLike, MatrixLike], r: float) -> float:
    """log det(1 + f_r(Q)) for f_r(Q) = exp(Q^r) - 1.

    The determinant is the product of ``exp(lam^r)`` over the spectrum, so
    its log is the power sum ``I_r`` itself, returned directly for every
    input, a matrix reduced by :func:`~entrodet.linalg.spectrum_of` like any
    other: finite wherever ``I_r`` is, with no ``log1p(expm1(.))`` round trip
    to overflow past ~709.
    """
    return _i_r(x, _check_real(r, "order r", 0.0))


def alpha_star(r: float) -> int:
    """Smallest integer alpha with alpha * r >= 1, for r in (0, 1)."""
    return _resolve_alpha(r, None)[1]


def _resolve_alpha(r: float, alpha: int | None) -> tuple[float, int]:
    """``(r, alpha)`` checked: r a float in (0, 1) with ``1 / r`` finite, and alpha an int
    from :func:`alpha_star` to 2**53, or :func:`alpha_star` itself for ``alpha=None``."""
    r = _check_real(r, "deformation order r", 1.0 / sys.float_info.max, 1.0)
    a_min = int(math.floor(1.0 / r))
    if a_min * r < 1.0:
        a_min += 1
    if alpha is None:
        return r, a_min
    return r, _check_count(alpha, "regularization order alpha", a_min, _MAX_COUNT)


def log_det_ren(x: SpectrumLike, r: float, alpha: int | None = None) -> float:
    """Log of the order-alpha regularized determinant det_alpha(1 + f_r(Q)).

    Per eigenvalue, with g = exp(lam^r) - 1 and n = alpha - 1:

        log(1 + g) + sum_{j=1}^{n} (-1)^j g^j / j  =  (-1)^n int_0^g t^n / (1 + t) dt

    where ``log(1 + g)`` is ``lam^r`` exactly: at alpha = 2 that is ``lam^r - g <= 0``.
    Past it the sum cancels to far below ``lam^r``, so where g <= 2 the integral is
    summed instead, as ``(-1)^n g^n y / (n + 1) sum_k c_k y^k`` with ``y = 1 - e^-lam^r``,
    ``c_0 = 1`` and ``c_{k+1} = c_k (k + 1) / (n + 2 + k)``: positive terms that fall by
    ``y <= 2/3`` or faster. Where g > 2 the terms grow with j and are summed as written.
    ``alpha=None`` resolves to the smallest admissible order :func:`alpha_star`. The
    spectrum need not be normalized, only non-negative. Where ``g^n`` overflows at the
    largest eigenvalue, the top term ``(-1)^n g^n / n`` outgrows the float range and the
    result is ``(-1)^n inf``.
    """
    r, alpha = _resolve_alpha(r, alpha)
    spec = spectrum_of(x)
    lam = _positive_prefix(spec.values)
    if not len(lam):
        return 0.0
    top = float(lam[0]) ** r  # the largest eigenvalue comes first
    # log g = top + log(1 - e^-top), exact where expm1(top) would overflow
    if (alpha - 1) * (top + math.log(-math.expm1(-top))) > _LOG_MAX:
        return math.copysign(math.inf, (-1) ** (alpha - 1))
    n, e = alpha - 1, _LOG_LOG3 / r  # lam above e^e has lam^r > log 3: g > 2
    cut = math.exp(e) if e < _LOG_MAX else math.inf
    # one coefficient list per call, from a bound on every y, so no value's bits depend on its leaf
    coeffs, y_top = [1.0], min(2 / 3, -math.expm1(-top))
    while alpha > 2 and coeffs[-1] * y_top ** (len(coeffs) - 1) > 2**-56:
        coeffs.append(coeffs[-1] * len(coeffs) / (n + 1 + len(coeffs)))

    def terms(v, acc, g, h=None):
        _power(v, r, acc)
        np.expm1(acc, out=g)
        if alpha == 2:
            return np.subtract(acc, g, out=acc)
        p = len(v) - np.searchsorted(v[::-1], cut, side="right")  # the values with g > 2
        for j in range(1, n + 1 if p else 1):  # (-1) * g is exactly -g
            gj = g[:p] if j == 1 else np.multiply(gj, g[:p], out=h[:p])
            acc[:p] += gj * ((-1) ** j / j)
        y, gn, s = acc[p:], g[p:], h[p:]
        _power(gn, n, gn)
        np.negative(np.expm1(np.negative(y, out=y), out=y), out=y)  # y = -expm1(-lam^r)
        s.fill(coeffs[-1])
        for c in coeffs[-2::-1]:  # Horner
            s *= y
            s += c
        s *= y
        s *= (-1) ** n / (n + 1)
        np.multiply(s, gn, out=y)
        return acc

    with np.errstate(over="ignore"):  # every term has the sign of (-1)^(alpha-1)
        return _memoized(spec, "log_det_ren", (r, alpha),
                         lambda: _blocked_sum(lam, terms, buffers=min(alpha, 3)))


# ---------------------------------------------------------------------------
# the entropies: scalar maps of one statistic
# ---------------------------------------------------------------------------
# Each map is built from parameters that its route checks first, and returns
# statistic -> entropy, so callers check before any spectral work.


def _float_power(x, e: float):
    """``x ** e``, with the signed inf that an array's power gives past the float range."""
    try:
        return x**e
    except OverflowError:  # only a negative x to an odd integer power is negative
        return -math.inf if x < 0 and e % 2 else math.inf


def _deformed(r: float, s: float, stat: str = "I_r") -> Callable:
    """The map ``x -> (x^s - 1) / ((1 - r) s)`` of checked r and s, elementwise on an array.

    ``x`` is the statistic named ``stat``: the power sum ``I_r`` (which
    ``log det_r`` equals) or ``log det_ren``. s = 1 gives Tsallis. Where ``(1 - r) s``
    is 0, at s = 0 (Renyi) or where the product underflows, the map is the s -> 0
    limit ``log(x) / (1 - r)``, in nats: then ``x^s - 1 = s log x`` to
    within ``(s log x)^2``, far below the float precision, and the quotient itself
    would be 0 / 0. A scalar 0 with ``s <= 0`` (log 0, or 0 to a negative power)
    raises ``DomainError``, and a negative scalar (only ``log det_ren`` can be one)
    to a fractional s raises ``FractionalPowerOfNegative``; an array gives NumPy's
    infinities there. A power past the float range is its signed infinity, and
    +0.0 folds away -0.0.
    """
    e = (1.0 - r) * s

    def value(x):
        scalar = not isinstance(x, np.ndarray)
        if scalar and x < 0 and s != round(s):
            raise FractionalPowerOfNegative(
                f"({stat})^s with {stat} = {x:.6g} < 0 and fractional s = {s}"
            )
        if scalar and x == 0 and s <= 0:
            power = f"log {stat}" if s == 0 else f"({stat})^s with s = {s} < 0"
            raise DomainError(f"{power} is undefined at {stat} = 0: every term of {stat} "
                              f"underflows to 0 at r = {r}, or there is none")
        if e != 0:
            return (_float_power(x, s) - 1.0) / e + 0.0
        if scalar:  # math.log, not np.log: the two differ in the last bit on some doubles
            return (math.log(x) if x else -math.inf) / (1.0 - r) + 0.0
        with np.errstate(divide="ignore"):  # log 0 = -inf
            return np.log(x) / (1.0 - r) + 0.0

    return value


def tsallis(x: Union[SpectrumLike, MatrixLike], r: float) -> float:
    """Tsallis entropy (I_r - 1) / (1 - r); the s = 1 unified member."""
    return evaluate("tsallis", x, EntropyParams(r=r)).value


def renyi(x: Union[SpectrumLike, MatrixLike], r: float) -> float:
    """Renyi entropy log(I_r) / (1 - r) in nats; the s -> 0 unified member."""
    return evaluate("renyi", x, EntropyParams(r=r)).value


def hu_ye(x: Union[SpectrumLike, MatrixLike], r: float, s: float) -> float:
    """Two-parameter unified entropy (I_r^s - 1) / ((1 - r) s).

    Interpolates the family: s = 1 gives Tsallis, s -> 0 Renyi, and
    r -> 1 (at s = 1) the von Neumann entropy. Non-negative on states,
    bounded by :func:`hy_bound` of the dimension.
    """
    return evaluate("hy", x, EntropyParams(r=r, s=s)).value


def _hu_ye_own_rows(
    lam: np.ndarray, r: float, s: float, name: Callable[[int], str] | None = None
) -> np.ndarray:
    """:func:`hu_ye` of each row of a fresh (S, n) float64 stack that the caller hands over.

    The stack is admitted in place, by :func:`hu_ye`'s policy, so its negative
    rounding values become 0; the first bad row i is named, as ``name(i)`` if given.
    """
    r, s = _check_unified_params(r, s)
    to_value = _deformed(r, s)
    _admit(lam, normalized=True, name=name)
    return to_value((lam**r).sum(axis=1))


def hy_bound(d: int, r: float, s: float) -> float:
    """Maximum of the unified entropy on rank-d states.

    ``(d^((1-r)s) - 1) / ((1-r)s)``, attained exactly by the maximally
    mixed state of rank d.
    """
    r, s = _check_unified_params(r, s)
    d = _check_count(d, "dimension")
    e = (1.0 - r) * s
    if e == 0:  # (1 - r) s underflowed: the s -> 0 (Renyi) limit, log d
        return math.log(d)
    return (_float_power(_check_real(d, "dimension"), e) - 1.0) / e + 0.0  # +0.0 folds away -0.0


def hy_fredholm(x: Union[SpectrumLike, MatrixLike], r: float, s: float) -> float:
    """Unified entropy through the determinant: uses log det(1 + f_r(Q)).

    Valid for r > 1, where the determinant is finite on any state; equal
    to :func:`hu_ye` by the identity log det = I_r.
    """
    return evaluate("hy-fredholm", x, EntropyParams(r=r, s=s)).value


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
    return evaluate("hy-ren", x, EntropyParams(r=r, s=s, alpha=alpha)).value


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
) -> ProbeResult:
    """Find the first K with partial sum sum_{k<=K} lam_k^r above a threshold.

    ``lam_of_k`` is a :func:`~entrodet.states.power_law_generator`, which
    knows its partial sums in closed form (1024 terms summed directly plus
    an Euler-Maclaurin remainder, within a few ulps of the exact sum) at
    the same cost for every K. For spectra whose power sum diverges the
    crossing arrives at finite K; for convergent sums the probe reports
    ``reached=False`` at ``k_max``. The probe evaluates the sum at
    ``k_max`` once and, if that crosses, bisects ``[0, k_max]`` to the
    first crossing: at most ``ceil(log2 k_max) + 1`` sums and no index arrays.

    Raises
    ------
    DomainError
        If ``lam_of_k`` is not a ``power_law_generator`` sequence, r is not
        positive and finite, the threshold is not finite, or ``k_max`` is
        not an integer in 1..2**53, past which indices are not exact doubles.
    """
    if not isinstance(lam_of_k, _PowerLaw):
        raise DomainError(
            f"divergence_probe needs a power_law_generator sequence, got {type(lam_of_k).__name__}"
        )
    r = _check_real(r, "probe order", 0.0)
    k_max = _check_count(k_max, "probe length k_max", high=_MAX_COUNT)
    threshold = _check_real(threshold, "threshold")
    total = lam_of_k.power_sum(r, k_max)
    if not total > threshold:
        return ProbeResult(False, k_max, total)
    # the partial sums do not decrease: the sum at hi (total) crosses and none
    # at 1 <= K <= lo does; K = 0 is never summed, so hi ends at 1 or more
    lo, hi = 0, k_max
    while hi - lo > 1:
        mid = (lo + hi) // 2
        s = lam_of_k.power_sum(r, mid)
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
    smallest admissible value for the given r. There is no log base:
    every entropy is in nats.
    """

    r: float = 2.0
    s: float = 1.0
    alpha: int | None = None


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
    "vn": ("direct-spectral", lambda spec, p: von_neumann(spec), lambda p: lambda h: h, None),
    "vn-ren": ("renormalized", lambda spec, p: vn_renormalized(spec),
               lambda p: lambda h: h, None),
    "tsallis": ("direct-spectral", lambda spec, p: trace_power(spec, p.r),
                lambda p: _deformed(_check_deformation(p.r, "Tsallis order"), 1.0),
                "trace_power"),
    "renyi": ("direct-spectral", lambda spec, p: trace_power(spec, p.r),
              lambda p: _deformed(_check_deformation(p.r, "Renyi order"), 0.0),
              "trace_power"),
    "hy": ("direct-spectral", lambda spec, p: trace_power(spec, p.r),
           lambda p: _deformed(*_check_unified_params(p.r, p.s)), "trace_power"),
    "hy-fredholm": ("fredholm", lambda spec, p: log_det_r(spec, p.r),
                    lambda p: _deformed(_check_real(p.r, "determinant order r", 1.0),
                                        _check_s(p.s)),
                    "log_det"),
    "hy-ren": ("renormalized", lambda spec, p: log_det_ren(spec, p.r, p.alpha),  # _route checks r
               lambda p: _deformed(p.r, _check_s(p.s), stat="log det_ren"), "log_det"),
}
KINDS = tuple(_ROUTES)


def _route(kind: str, params: EntropyParams):
    """(method, statistic, checked scalar map, diagnostic key, params) of ``kind``."""
    if kind not in _ROUTES:
        raise DomainError(f"unknown entropy kind {kind!r}; choose from {KINDS}")
    method, statistic, scalar_map, key = _ROUTES[kind]
    if kind == "hy-ren":
        r, alpha = _resolve_alpha(params.r, params.alpha)
        params = replace(params, r=r, alpha=alpha)
    return method, statistic, scalar_map(params), key, params


def evaluate(
    kind: str,
    x: Union[SpectrumLike, MatrixLike],
    params: EntropyParams = EntropyParams(),
) -> EntropyResult:
    """Evaluate one entropy kind with shared diagnostics.

    ``kind`` is one of ``vn, vn-ren, tsallis, renyi, hy, hy-fredholm,
    hy-ren``. The kind's parameters (r, s, alpha) are checked
    first; then the input is reduced to its spectrum once and the kind's
    statistic is computed once. The diagnostics carry the dimension,
    that statistic (the trace power sum or the log-determinant) and, on
    the renormalized routes, the regularization order used. The value is
    in nats.
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
