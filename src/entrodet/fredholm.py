"""Fredholm determinants of integral kernels, with prime/zeta utilities.

An integral operator ``(K u)(x) = int_a^b K(x, y) u(y) dy`` is
discretized on an m-point Gauss-Legendre rule; the determinant of the
symmetric Nystrom matrix

    1 + z * sqrt(w_i) sqrt(w_j) K(x_i, x_j)

converges (spectrally fast for analytic kernels) to det(1 + z K)
(Bornemann, Math. Comp. 2010). It is the only weighting: ``1 + z K W``
is similar to it and has the same determinant. ``fredholm_det`` and
``log_fredholm_det`` share one route. Adaptive cross approximation
(Bebendorf, Numer. Math. 2000) factors ``A = z W^1/2 K W^1/2 ~ U V^T``
from a few kernel rows and columns, dropping as rounding noise, at every
rank, a cross at most 1e-12 of the largest cross so far; every entry of A
is checked for finiteness and every entry of ``A - U V^T`` against ``1e-12
max(|A_ij|, 1)``, the 1 for the identity in ``1 + A``, on a grid of one
block as one array and on a larger one in one pass of row blocks of kernel
values (for a kernel the library builds symmetric, blocks of the upper
triangle, compared with both triangles of ``U V^T``); then ``det(1 + A) =
det(I_k + V^T U)`` for the numerical rank k. A kernel with no low rank
takes the dense LU, refused (``DomainError``) where ``m eps max|A|``
reaches 1. Both accumulate the determinant in log space and never form
the product, so the log-determinant stays usable where the determinant
itself overflows: a k x k core that overflows is scaled by a power of
two first, and only an entry of A that overflows raises ``DomainError``.

The prime and zeta helpers, built on the Euler factors of
``_log_euler_factors``, give the zeta-ratio closed forms of prime spectra.
``first_k_primes`` returns a read-only view of one per-process table of
primes, sieved again only when a larger k asks for it; the table keeps at
most 16 MiB of primes, and a count above ``MAX_PRIMES`` is refused.
Every zeta-type sum, partial (``_partial_zeta``, read by the power-law
spectra of ``states``) or complete (``zeta_series``), is one
Euler-Maclaurin sum: 1024 terms summed directly plus B_2..B_8
corrections, within 4e-16 relative of 50-digit mpmath for the complete
sum at q from 1.1 to 50.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import (
    _MAX_COUNT,
    ConvergenceFailure,
    DomainError,
    NonFiniteKernel,
    NonPositiveDeterminant,
    _check_count,
    _check_real,
    _unallocatable,
)

# the dense fallback (and nystrom_matrix) materializes the full m x m
# matrix, and the low-rank route still reads all m^2 kernel values; keep
# the quadratic cost visible
MAX_NODES = 10_000
# the first k primes as int64 take 8 k bytes, and the sieve array is sized
# by Rosser and Schoenfeld's bound above that: under 1 GB at this cap, about
# the size of MAX_NODES' dense matrix
MAX_PRIMES = 10**8

# low-rank route: ACA drops a cross at most _GRID_TOL of the largest cross so
# far, and the grid check allows each entry of A - U V^T up to _GRID_TOL times
# max(|A_ij|, 1)
_GRID_TOL = 1e-12
# kernel values per block of the grid check: 256 KiB per block. The kernel's
# values and temporaries are fresh arrays each block, which glibc may serve by
# mmap and fault in anew: a fredholm-nystrom cycle took a median 135-151 ms at
# 16K-32K values, 149-157 ms at 8K and 64K and 245 ms at 128K (shared Xeon vCPU)
_BLOCK_VALUES = 1 << 15
# a blocked grid check whose upper bound on max|A| reaches this is re-decided in
# A's own units: far above any rounding gap, far below the float maximum
_NEAR_MAX = 2.0**1020

# odd sieve candidates per block: 1 MiB of bool, half the 2 MiB L2 per core of
# the Xeon host it was timed on; a sieve to 15.49M took 25-29 ms there at 1 MiB
# and 512 KiB, 31 ms at 256 KiB and 30-36 ms at 2 MiB
_SIEVE_BLOCK = 1 << 20

# every prime up to the largest limit sieved so far in this process, read-only
# and replaced whole by one assignment, so a race between threads can only
# cost another sieve; a sieve of more than _PRIMES_KEPT primes (16 MiB) is
# returned but not kept
_PRIMES_KEPT = 1 << 21
_PRIMES = np.empty(0, dtype=np.int64)
_PRIMES.setflags(write=False)

_NEWTON_MAX_ITER = 100
_NEWTON_TOL = 1e-15


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights of an m-point Gauss-Legendre rule on (a, b)."""

    nodes: np.ndarray
    weights: np.ndarray
    a: float
    b: float

    @property
    def m(self) -> int:
        return len(self.nodes)


@dataclass(frozen=True)
class KernelSpec:
    """A two-point kernel ``K(x, y)`` with a name.

    ``evaluator`` must work elementwise under numpy broadcasting: it is
    called on blocks of the grid of nodes, each time with a column of row
    nodes (``x[i:j, None]``) and a row of column nodes (``x[None, :]``,
    ``x[None, i:]`` from the diagonal for a kernel the library marks
    symmetric, or ``x[None, j:j + 1]`` for one column), and its result
    must broadcast to the block. ``nystrom_matrix`` and every grid built
    whole (of one block, factored dense, or not decided in kernel units)
    call it once on ``x[:, None]`` and ``x[None, :]``.
    """

    evaluator: Callable[[np.ndarray, np.ndarray], np.ndarray]
    name: str


@dataclass(frozen=True)
class _SymmetricKernel(KernelSpec):
    """A kernel the library builds symmetric bit for bit: ``K(x, y) == K(y, x)``.

    A determinant on a grid of many blocks checks one triangle of it
    (``_within_tolerance``). The mark is private, so a user's
    own kernel is never taken as symmetric and never skips a check.
    """


KernelLike = Union[KernelSpec, Callable[[np.ndarray, np.ndarray], np.ndarray]]


def _legendre_and_derivative(x: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    p0 = np.ones_like(x)
    p1 = x.copy()
    for j in range(2, m + 1):
        p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
    dp = m * (x * p1 - p0) / (x * x - 1.0)
    return p1, dp


@functools.lru_cache(maxsize=64)
def _reference_rule(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only nodes and weights of the m-point rule on [-1, 1].

    Cached by m: every interval reuses the O(m^2) Newton refinement.
    At ``MAX_NODES`` the 64 entries hold at most about 10 MB.
    """
    try:
        k = np.arange(1, m + 1)
    except (MemoryError, ValueError):
        raise _unallocatable("node count", m) from None
    x = np.cos(np.pi * (k - 0.25) / (m + 0.5))
    for _ in range(_NEWTON_MAX_ITER):
        p, dp = _legendre_and_derivative(x, m)
        dx = p / dp
        x -= dx
        if np.max(np.abs(dx)) < _NEWTON_TOL:
            break
    else:
        raise ConvergenceFailure(
            f"Legendre root refinement did not reach {_NEWTON_TOL:g} "
            f"in {_NEWTON_MAX_ITER} iterations (m = {m})"
        )
    _, dp = _legendre_and_derivative(x, m)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    x = x[::-1].copy()
    w = w[::-1].copy()
    x = 0.5 * (x - x[::-1])
    w = 0.5 * (w + w[::-1])
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def gauss_legendre(m: int, a: float, b: float) -> QuadratureRule:
    """Gauss-Legendre rule: Newton iteration from Chebyshev initial guesses.

    Nodes are the degree-m Legendre roots mapped affinely to (a, b);
    weights are ``(b-a) / ((1-x^2) P_m'(x)^2)``. The computed rule is
    mirror-symmetrized so nodes are exactly symmetric about the interval
    midpoint. The rule on [-1, 1] is built once per m and cached.

    Raises
    ------
    DomainError
        If m is not an integer from 1 to 2**53, the interval is not finite
        with a < b, or the width b - a overflows (then so would the weights,
        which sum to it).
    """
    m = _check_count(m, "node count", high=_MAX_COUNT)
    a, b = _check_interval(a, b)  # Python floats overflow to inf without a warning
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    if math.isinf(mid):  # a + b overflows; halves of floats this large are exact
        mid = 0.5 * a + 0.5 * b
    if math.isinf(half):
        raise DomainError(f"the rule on ({a}, {b}) overflows: b - a is beyond the float range")
    x, w = _reference_rule(m)
    nodes = mid + half * x
    weights = half * w
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule(nodes, weights, a, b)


def _evaluator(kernel: KernelLike) -> Callable:
    return kernel.evaluator if isinstance(kernel, KernelSpec) else kernel


def _check_interval(a: float, b: float) -> tuple[float, float]:
    """``(a, b)`` as Python floats, once checked finite with a < b."""
    a, b = _check_real(a, "interval endpoint a"), _check_real(b, "interval endpoint b")
    if not a < b:
        raise DomainError(f"interval endpoints must satisfy a < b, got ({a}, {b})")
    return a, b


def _weighted_block(
    f: Callable, rule: QuadratureRule, z: float, sw: np.ndarray, rows: slice, cols: slice
) -> np.ndarray:
    """The block ``rows x cols`` of ``A = z sqrt(w_i) K(x_i, x_j) sqrt(w_j)``, checked finite.

    The evaluator gets a column of the row nodes and a row of the column
    nodes; its result need only broadcast to the block. The block is a
    fresh array, never the evaluator's own (maybe read-only), and every
    entry rounds as in ``z * np.outer(sw, sw) * kmat``, whatever the block.
    Callers hold ``np.errstate(all="ignore")``, which silences the
    evaluator's own floating-point warnings too: a non-finite entry raises
    here instead.

    Raises
    ------
    NonFiniteKernel
        If a kernel value is not finite.
    DomainError
        If the kernel is finite but an entry of A overflows.
    """
    x = rule.nodes
    kvals = np.asarray(f(x[rows, None], x[None, cols]), dtype=float)
    out = np.outer(sw[rows], sw[cols])
    out *= z
    out *= kvals
    if not np.isfinite(out).all():
        if not np.isfinite(kvals).all():
            raise NonFiniteKernel(
                f"kernel produced non-finite values on ({rule.a}, {rule.b}) nodes"
            )
        raise DomainError(
            f"z sqrt(w_i w_j) K(x_i, x_j) overflows at z = {z} on ({rule.a}, {rule.b}), "
            f"m = {rule.m}"
        )
    return out


def nystrom_matrix(kernel: KernelLike, z: float, rule: QuadratureRule) -> np.ndarray:
    """The symmetric Nystrom matrix ``1 + z sqrt(w_i) K(x_i, x_j) sqrt(w_j)``.

    Its determinant approximates det(1 + z K); it is similar to
    ``1 + z K W`` and has the same determinant.

    Raises
    ------
    NonFiniteKernel
        If a kernel value is not finite.
    DomainError
        If an entry overflows.
    """
    m = _check_count(rule.m, "node count", high=MAX_NODES)
    z = _check_real(z, "coupling z")
    every = slice(None)
    with np.errstate(all="ignore"):
        out = _weighted_block(_evaluator(kernel), rule, z, np.sqrt(rule.weights), every, every)
    out.flat[:: m + 1] += 1.0
    return out


def _rank_cap(m: int) -> int:
    # Cost model, fitted on one core of a shared Xeon host: a failed ACA of k
    # crosses takes about k * 25 us + m k^2 * 1.75 ns, the m-node LU it falls
    # back to about m^3 * 0.04 ns. The cap keeps a failure to a tenth or so
    # of the LU (a fifth at m = 500, where both terms meet); two crosses
    # always run, enough for a rank-one kernel.
    return max(2, min(m // 20, m**3 // 5_000_000))


def _aca(
    row: Callable[[int], np.ndarray], col: Callable[[int], np.ndarray], m: int, cap: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """Adaptive cross approximation with partial pivoting (Bebendorf 2000).

    Returns ``(u, vt)`` with ``A ~ u @ vt`` from the rows and columns of A
    that ``row(i)`` and ``col(j)`` give, or None when ``cap`` crosses
    are not enough. One rule stops it, at every rank: a cross whose
    Frobenius norm is at most ``_GRID_TOL`` times the largest cross so far
    is taken for rounding noise and dropped, so no noise cross of a steep
    or huge exact-rank matrix enters the determinant; the caller's grid
    check then decides whether the crosses before it suffice.

    Cross l is ``peaks[l]`` times the outer product of ``ut[l]``, the
    residual column over its largest entry, and ``vt[l]``, the residual
    row over its pivot. Norms are taken of those unit-peak vectors and
    kept in units of the first peak, so neither a norm of entries near
    the float maximum nor a square overflows.
    """
    ut = np.empty((min(cap, 4), m))
    vt = np.empty_like(ut)
    peaks = np.empty(len(ut))
    used: list[int] = []
    largest = 0.0
    k = i = 0
    while True:
        used.append(i)
        r = row(i)
        if k:
            r = r - (ut[:k, i] * peaks[:k]) @ vt[:k]
        j = int(np.abs(r).argmax())
        pivot = float(r[j])
        c = col(j)
        if k:
            c = c - (peaks[:k] * vt[:k, j]) @ ut[:k]
        a = np.abs(c)
        peak = float(a.max())
        if pivot == 0.0 or peak == 0.0:  # the row is reproduced; the grid check decides
            break
        r = r / pivot
        c = c / peak
        if not k:
            unit = peak
        size = peak / unit * math.sqrt((c @ c) * (r @ r))
        largest = max(largest, size)
        if size <= _GRID_TOL * largest:  # rounding noise: the grid check decides
            break
        if k + 1 == cap:
            return None
        if k == len(peaks):  # double the buffers: a rank-one kernel never holds cap x m
            grown = min(2 * k, cap) - k
            ut = np.concatenate((ut, np.empty((grown, m))))
            vt = np.concatenate((vt, np.empty((grown, m))))
            peaks = np.concatenate((peaks, np.empty(grown)))
        ut[k] = c
        vt[k] = r
        peaks[k] = peak
        k += 1
        if k == m:
            break
        a[used] = -1.0
        i = int(a.argmax())
    return (ut[:k] * peaks[:k, None]).T, vt[:k]


def _one_block_within_tolerance(amat: np.ndarray, u: np.ndarray, vt: np.ndarray) -> bool:
    """Whether ``|A - u @ vt| <= _GRID_TOL max(|A|, 1)`` on a one-block grid ``amat``.

    A residual (formed in place) within ``_GRID_TOL`` passes at once, any
    other entry by entry; one that is not finite fails.
    """
    r = (np.dot if len(vt) == 1 else np.matmul)(u, vt)  # matmul's k = 1 path is slow
    r -= amat
    if max(r.max(), -r.min()) <= _GRID_TOL:
        return True
    return bool((np.abs(r, out=r) <= _GRID_TOL * np.maximum(np.abs(amat), 1.0)).all())


def _within_tolerance(
    kernel: KernelLike, rule: QuadratureRule, z: float, sw: np.ndarray, u: np.ndarray,
    vt: np.ndarray,
) -> tuple[bool, np.ndarray | None]:
    """Whether ``|A - u @ vt| <= _GRID_TOL max(|A|, 1)`` on a blocked grid; and A, if built.

    One pass over the grid in row blocks of about ``_BLOCK_VALUES`` values
    compares the factors, brought to kernel units once (``us_i = u_i / (z
    sqrt(w_i))``, ``vs_j = vt_j / sqrt(w_j)``, 0 where the divisor is 0),
    with the kernel values K: ``(A - u @ vt)_ij = -z sqrt(w_i w_j) R_ij``
    for ``R = us @ vs - K``, formed in one reused buffer and reduced by
    max and min. Row block ``s:e`` covers the columns ``lo:``: all,
    or for a ``_SymmetricKernel`` those from the diagonal, ``lo = s``, where
    the pair ``(vs^T, us^T)`` checks the mirrored entries (j, i) too: ACA
    with partial pivoting gives a non-symmetric ``u @ vt`` for a symmetric A.

    A block passes on ``|z| max sqrt(w)^2 max|R| <= _GRID_TOL``, a bound on
    its residual in A's units; a block above it is tested entry by entry
    while in hand, ``|R_ij| <= _GRID_TOL max(|K_ij|, 1 / (|z| sqrt(w_i
    w_j)))``. Where ``sum_l max|u_l| max|vt_l|`` plus the largest block bound
    is not below ``_NEAR_MAX`` or not finite, ``_weighted_block`` builds A
    (raising as ``nystrom_matrix`` does) and ``_one_block_within_tolerance``
    decides; A is returned for the fallback to factor.
    """
    f = _evaluator(kernel)
    symmetric = isinstance(kernel, _SymmetricKernel)
    m = rule.m
    x = rule.nodes
    product = np.dot if len(vt) == 1 else np.matmul  # matmul's k = 1 path is slow
    scale = z * sw
    us = np.divide(u, scale[:, None], out=np.zeros_like(u), where=(scale != 0.0)[:, None])
    vs = np.divide(vt, sw, out=np.zeros_like(vt), where=sw != 0.0)
    pairs = [(us, vs), (vs.T, us.T)] if symmetric else [(us, vs)]
    res = np.empty(max(_BLOCK_VALUES, m))
    coarse = abs(z) * float(sw.max()) ** 2
    top, passed, s = 0.0, True, 0
    while s < m:
        lo = s if symmetric else 0
        e = min(m, s + max(1, _BLOCK_VALUES // (m - lo)))
        kvals = np.asarray(f(x[s:e, None], x[None, lo:]), dtype=float)
        r = res[: (e - s) * (m - lo)].reshape(e - s, m - lo)
        for left, right in pairs:
            product(left[s:e], right[:, lo:], out=r)
            r -= kvals
            # the ufuncs' own reduce: np.max's wrapper adds about 3 us a call
            peak = coarse * max(np.maximum.reduce(r, axis=None), -np.minimum.reduce(r, axis=None))
            top = max(top, peak if peak == peak else math.inf)  # NaN (maybe 0 * inf) as inf
            if passed and not peak <= _GRID_TOL:
                # tol / (|z| sqrt(w_i w_j)) overflows only where no finite R_ij can exceed it
                limit = _GRID_TOL / (np.abs(scale[s:e, None]) * sw[lo:])
                np.maximum(limit, _GRID_TOL * np.abs(kvals), out=limit)
                passed = bool((np.abs(r) <= limit).all())
        del kvals  # before the next block's evaluator call: one block alive
        s = e
    size = float(np.maximum(u.max(0), -u.min(0)) @ np.maximum(vt.max(1), -vt.min(1)))
    if size + top < _NEAR_MAX:
        return passed, None
    every = slice(None)  # not finite, or near the float maximum: decided in A's units
    amat = _weighted_block(f, rule, z, sw, every, every)
    return _one_block_within_tolerance(amat, u, vt), amat


def _core_slogdet(u: np.ndarray, vt: np.ndarray) -> tuple[float, float, int]:
    """``(sign, log|det|, k)`` of ``det(I_m + u @ vt) = det(I_k + vt @ u)``.

    A core that overflows is taken as ``s^k det(I / s + V^T (U / s))`` for
    s = 2^e above max|U|, where every |V| <= 1 keeps ``V^T (U / s)`` below m.
    """
    k = len(vt)
    core = np.eye(k) + vt @ u
    if np.isfinite(core).all():
        sign, logdet = np.linalg.slogdet(core)
    else:
        e = math.frexp(float(np.abs(u).max()))[1]
        sign, logdet = np.linalg.slogdet(np.eye(k) * 2.0**-e + vt @ np.ldexp(u, -e))
        logdet += k * e * math.log(2.0)
    return float(sign), float(logdet), k


def _nystrom_logdet(
    kernel: KernelLike, z: float, a: float, b: float, m: int
) -> tuple[float, float, int]:
    """``(sign, log|det|, rank)`` of the m-node Nystrom matrix of ``det(1 + z K)``.

    ACA factors ``A = z W^1/2 K W^1/2 ~ U V^T`` from a few kernel rows and
    columns. If every entry obeys ``|A - U V^T| <= _GRID_TOL max(|A|, 1)``,
    the rank is k and the determinant is ``_core_slogdet``'s; if not, or if
    ACA reaches the rank cap, the rank is m and it is the dense ``slogdet``.
    A grid of at most ``_BLOCK_VALUES`` values is evaluated once: ACA reads
    it, ``_one_block_within_tolerance`` checks it and the fallback factors
    it in place. A larger grid is read by single rows and columns, checked
    in one pass of row blocks by ``_within_tolerance`` (on the upper
    triangle for a ``_SymmetricKernel``) and built whole at most once, by
    ``_weighted_block``: where that check's bounds near the float maximum,
    or where it or ACA fails; the fallback factors that array in place.

    Raises
    ------
    NonFiniteKernel
        If a kernel value is not finite.
    DomainError
        If an entry of A overflows: the determinant is then out of reach of
        both routes, whose rounding is relative to the largest entry; or if
        the dense LU's rounding, ``m eps max|A|``, buries the identity (>= 1).
    """
    m = _check_count(m, "node count", high=MAX_NODES)
    rule = gauss_legendre(m, a, b)
    z = _check_real(z, "coupling z")
    f = _evaluator(kernel)
    sw = np.sqrt(rule.weights)
    every = slice(None)
    if m * m <= _BLOCK_VALUES:
        with np.errstate(all="ignore"):
            dense = _weighted_block(f, rule, z, sw, every, every)
            factors = _aca(dense.__getitem__, lambda j: dense[:, j], m, _rank_cap(m))
            if factors is not None and _one_block_within_tolerance(dense, *factors):
                return _core_slogdet(*factors)
    else:
        with np.errstate(all="ignore"):
            factors = _aca(
                lambda i: _weighted_block(f, rule, z, sw, slice(i, i + 1), every)[0],
                lambda j: _weighted_block(f, rule, z, sw, every, slice(j, j + 1))[:, 0],
                m, _rank_cap(m),
            )
            passed, dense = (False, None) if factors is None else _within_tolerance(
                kernel, rule, z, sw, *factors)
            if passed:
                return _core_slogdet(*factors)
            dense = _weighted_block(f, rule, z, sw, every, every) if dense is None else dense
    if (noise := m * np.finfo(float).eps * max(dense.max(), -dense.min())) >= 1.0:
        raise DomainError(f"the dense LU at z = {z} on ({a}, {b}), m = {m} is rounding noise: "
                          f"m eps max|A| = {noise:.3g} buries the identity")
    dense.flat[:: m + 1] += 1.0  # nystrom_matrix's array
    sign, logdet = np.linalg.slogdet(dense)
    return float(sign), float(logdet), m


def fredholm_det(kernel: KernelLike, z: float, a: float, b: float, m: int) -> float:
    """Nystrom approximation of the Fredholm determinant det(1 + z K).

    ``sign * exp(log|det|)`` of ``log_fredholm_det``'s low-rank or dense
    route. It is ``+-inf`` beyond the float range.
    Exact already at m = 1 for z = 0 and for rank-one kernels whose factor
    is integrated exactly by the rule; spectrally convergent for analytic
    kernels.
    """
    sign, logdet, _ = _nystrom_logdet(kernel, z, a, b, m)
    try:
        return sign * math.exp(logdet)
    except OverflowError:
        return sign * math.inf


def log_fredholm_det(kernel: KernelLike, z: float, a: float, b: float, m: int) -> float:
    """log of the Nystrom determinant, computed in log space.

    For a kernel of numerical rank k the determinant is that of a k x k
    matrix from adaptive cross approximation, checked over the whole
    kernel grid; otherwise it is the dense LU's sign/log-magnitude split.
    Neither forms the product, so large determinants do not overflow.

    Raises
    ------
    NonPositiveDeterminant
        If the determinant sign is zero or negative.
    """
    sign, logdet, _ = _nystrom_logdet(kernel, z, a, b, m)
    if sign <= 0:
        raise NonPositiveDeterminant(
            f"determinant sign {sign:+.0f} at z = {z}, interval ({a}, {b}), m = {m}"
        )
    return logdet


def _prime_bound(k: int) -> int:
    """First sieve bound for the k-th prime, p_k <= bound.

    Dusart's ``p_k <= k (ln k + ln ln k - 0.9484)`` for k >= 39017 (Math.
    Comp. 68, 1999), Rosser's ``p_k < k (ln k + ln ln k)`` for 6 <= k < 39017,
    and 15 below that.
    """
    if k < 6:
        return 15
    lk = math.log(k)
    shift = 0.9484 if k >= 39017 else 0.0
    return int(k * (lk + math.log(lk) - shift)) + 3


def _primes_up_to(limit: int) -> np.ndarray:
    """All primes <= limit, ascending, as a C-contiguous int64 array.

    Slot i of the sieve stands for the odd number 2 i + 1. One buffer of
    ``_SIEVE_BLOCK`` slots is reused block after block: it starts all True,
    then the odd base primes from 3 up to isqrt(limit) (found by the same
    routine) strike it from the slot of p^2 on, each carrying its next
    strike offset from block to block, and its primes are read off while
    it is still in cache. They go into one array sized by Rosser and
    Schoenfeld's ``pi(x) < 1.25506 x / ln x``, whose unused end is never
    written and is cut off in place at the end, so the result owns exactly
    its primes. Slot 0 (the number 1) becomes the prime 2.
    """
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    n_slots = (limit + 1) // 2
    primes = np.empty(int(1.25506 * limit / math.log(limit)) + 2, dtype=np.int64)
    buf = np.empty(min(_SIEVE_BLOCK, n_slots), dtype=bool)
    base = _primes_up_to(math.isqrt(limit)).tolist()[1:]  # the odd ones
    nxt = [(p * p) // 2 for p in base]  # slot of p^2, the first multiple to strike
    active = count = 0
    for lo in range(0, n_slots, _SIEVE_BLOCK):
        hi = min(lo + _SIEVE_BLOCK, n_slots)
        block = buf[: hi - lo]
        block.fill(True)
        while active < len(base) and nxt[active] < hi:
            active += 1
        for j in range(active):
            s, p = nxt[j], base[j]
            if s < hi:
                # odd multiples of p are 2 p apart: p slots
                block[s - lo :: p] = False
                nxt[j] = s + (hi - s + p - 1) // p * p
        found = np.flatnonzero(block)
        out = primes[count : count + len(found)]
        np.multiply(found, 2, out=out)
        out += 2 * lo + 1
        count += len(found)
    del out  # the last view of primes: the shrink below may move its data
    primes[0] = 2
    primes.resize(count, refcheck=False)
    return primes


def first_k_primes(k: int) -> np.ndarray:
    """The first k primes, as a read-only, C-contiguous int64 array.

    The result is a view of a per-process table that holds every prime up
    to the largest limit sieved so far; the table is sieved again, larger,
    only when it holds fewer than k primes. The array that owns the table
    is read-only too, so the view cannot be made writeable. A sieve of
    more than ``1 << 21`` primes (16 MiB) is returned but not kept, so the
    table never holds more than that.

    A segmented sieve of Eratosthenes over odd numbers only, run in one
    cache-sized buffer reused block after block (see ``_primes_up_to``).
    The sieve bound is ``_prime_bound``'s: Dusart's bound for k >= 39017,
    so the sieve to the millionth prime stops at 15.49M. The bound is
    doubled (never needed in practice) if the sieve comes up short.

    Raises
    ------
    DomainError
        If k is not an integer (``operator.index`` refuses it), k < 1 or
        k > ``MAX_PRIMES``; all are checked before any sieving.
    """
    global _PRIMES
    k = _check_count(k, "prime count", high=MAX_PRIMES)
    primes = _PRIMES
    if len(primes) < k:
        limit = _prime_bound(k)
        while len(primes := _primes_up_to(limit)) < k:
            limit *= 2
        primes.setflags(write=False)
        if len(primes) <= _PRIMES_KEPT:
            _PRIMES = primes
    return primes[:k]


def _log_euler_factors(q: float, primes: np.ndarray) -> np.ndarray:
    """The log Euler factors log(1 + p^-q) of zeta(q)/zeta(2q), one per prime."""
    q = _check_real(q, "zeta order q", 1.0)
    factors = primes.astype(float)
    np.power(factors, -q, out=factors)
    return np.log1p(factors, out=factors)


def zeta_ratio_product(q: float, k: int) -> float:
    """Truncated Euler-type product prod_{i<=k} (1 + p_i^-q).

    Increases monotonically in k and converges to zeta(q) / zeta(2q)
    for q > 1.
    """
    q = _check_real(q, "zeta order q", 1.0)  # before the sieve
    return float(np.exp(_log_euler_factors(q, first_k_primes(k)).sum()))


_EM_HEAD = 1024
# B_2j / (2j)! for j = 1..4, the Euler-Maclaurin weights of f^(2j-1)
_EM_WEIGHTS = (1.0 / 12.0, -1.0 / 720.0, 1.0 / 30240.0, -1.0 / 1209600.0)


def _partial_zeta(s: float, k: float) -> float:
    """sum_{j<=k} j^-s for s > 0: term by term up to a head, Euler-Maclaurin past it.

    Past ``_EM_HEAD = N`` terms the sum is the head plus
    ``int_N^k x^-s dx + (k^-s - N^-s) / 2`` and the B_2..B_8 corrections.
    The first omitted one, ``|B_10| / 10! (s)_9 N^(-s-9)``, is below 1e-30
    for every s > 0, so rounding sets the error: a few ulps, growing like
    ``log(k)`` ulps through the rounding of s in ``k^(1-s)``. ``k`` is a
    count or, for s > 1, ``math.inf``, where every power of k is 0. Once
    ``N^-s`` underflows the head is returned (the rest is below its ulp).
    """
    n = min(k, _EM_HEAD)
    head = float((np.arange(1, n + 1, dtype=float) ** -s).sum())
    if k <= _EM_HEAD or n**-s == 0.0:
        return head
    log_ratio = math.log(k / n)
    # int_N^k x^-s dx: for |u| > 1 the plain difference loses at most a factor
    # e / (e - 1) to cancellation; nearer s = 1 it is N^(1-s) log(k/N) expm1(u) / u
    u = (1.0 - s) * log_ratio
    if abs(u) > 1.0:
        integral = (k ** (1.0 - s) - n ** (1.0 - s)) / (1.0 - s)
    else:
        integral = n ** (1.0 - s) * (log_ratio * math.expm1(u) / u if u else log_ratio)
    tail = integral + 0.5 * (k**-s - n**-s)
    rising = s  # (s)_(2j-1), the rising factorial in f^(2j-1)(x) = -(s)_(2j-1) x^(-s-2j+1)
    for j, weight in enumerate(_EM_WEIGHTS):
        tail += weight * rising * (n ** (-s - 2 * j - 1) - k ** (-s - 2 * j - 1))
        rising *= (s + 2 * j + 1) * (s + 2 * j + 2)
    return head + tail


def zeta_series(q: float) -> float:
    """zeta(q) = sum n^-q, as the head-plus-Euler-Maclaurin sum ``_partial_zeta(q, inf)``.

    Within 4e-16 relative of 50-digit mpmath for q from 1.1 to 50.
    """
    q = _check_real(q, "zeta order q", 1.0)
    return _partial_zeta(q, math.inf)


def _prime_tail_bound(q: float, p_last: int) -> float:
    """Upper bound on sum_{p > p_last} log(1 + p^-q) over primes.

    log(1+x) <= x and primes thin out inside the integers, so the tail
    is below the integral bound p_last^(1-q) / (q - 1).

    Raises
    ------
    DomainError
        If q is not finite and above 1, or ``p_last`` is not an integer >= 2.
    """
    q = _check_real(q, "zeta order q", 1.0)
    p_last = _check_count(p_last, "last prime", 2)
    return _check_real(p_last, "last prime") ** (1.0 - q) / (q - 1.0)
