"""Fredholm determinants of integral kernels, with prime/zeta utilities.

An integral operator ``(K u)(x) = int_a^b K(x, y) u(y) dy`` is
discretized on an m-point Gauss-Legendre rule; the determinant of the
symmetrized Nystrom matrix

    1 + z * sqrt(w_i) sqrt(w_j) K(x_i, x_j)

converges (spectrally fast for analytic kernels) to det(1 + z K)
(Bornemann, Math. Comp. 2010). ``fredholm_det`` and ``log_fredholm_det``
share one route. Adaptive cross approximation (Bebendorf, Numer. Math.
2000) factors ``A = z W^1/2 K W^1/2 ~ U V^T`` from a few kernel rows and
columns; one pass over the kernel grid, in row blocks, checks every
kernel value for finiteness and every entry of ``A - U V^T``; then
``det(1 + A) = det(I_k + V^T U)`` for the numerical rank k. Kernels with
no low rank fall back to the LU of the dense matrix. Both accumulate the
determinant in log space and never form the product, so the
log-determinant stays usable where the determinant itself overflows.

The prime and zeta helpers, built on the Euler factors of
``log_euler_factors``, give the zeta-ratio closed forms of prime spectra.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Union

import numpy as np

from .errors import (
    ConvergenceFailure,
    DomainError,
    NonFiniteKernel,
    NonPositiveDeterminant,
)

# the dense fallback (and nystrom_matrix) materializes the full m x m
# matrix, and the low-rank route still reads all m^2 kernel values; keep
# the quadratic cost visible
MAX_NODES = 10_000

# low-rank route: ACA stops at crosses below _ACA_TOL of the Frobenius
# estimate, a decade above the rounding floor of about 1e-15; the grid check
# allows entries of A - U V^T up to _GRID_TOL of max|A|; kernel values per
# block of the grid pass
_ACA_TOL = 1e-14
_GRID_TOL = 1e-12
_BLOCK_VALUES = 1 << 16

# odd sieve candidates struck per block: 256 KiB of bool, well inside L2
_SIEVE_BLOCK = 1 << 18

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
    or ``x[None, j:j + 1]`` for one column), and its result must
    broadcast to the block. ``nystrom_matrix``, and a determinant whose
    grid is one block, call it once on ``x[:, None]`` and ``x[None, :]``.
    """

    evaluator: Callable[[np.ndarray, np.ndarray], np.ndarray]
    name: str


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
    if m == 1:
        x = np.array([0.0])
        w = np.array([2.0])
    else:
        k = np.arange(1, m + 1)
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
    """
    if m < 1:
        raise DomainError(f"node count must be >= 1, got {m}")
    if not -math.inf < a < b < math.inf:  # NaN fails too
        raise DomainError(f"interval endpoints must be finite with a < b, got ({a}, {b})")
    x, w = _reference_rule(m)
    nodes = 0.5 * (a + b) + 0.5 * (b - a) * x
    weights = 0.5 * (b - a) * w
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule(nodes, weights, float(a), float(b))


def _evaluator(kernel: KernelLike) -> Callable:
    return kernel.evaluator if isinstance(kernel, KernelSpec) else kernel


def _check_node_cap(m: int) -> None:
    if m > MAX_NODES:
        raise DomainError(f"node count {m} exceeds the {MAX_NODES} materialization cap")


def _check_coupling(z: float) -> None:
    if not math.isfinite(z):
        raise DomainError(f"coupling z must be finite, got {z}")


def _kernel_values(f: Callable, rule: QuadratureRule, rows: slice, cols: slice) -> np.ndarray:
    """The kernel on the grid block ``rows x cols``, checked finite.

    The evaluator gets a column of the row nodes and a row of the column
    nodes; its result need only broadcast to the block.
    """
    x = rule.nodes
    kvals = np.asarray(f(x[rows, None], x[None, cols]), dtype=float)
    if not np.all(np.isfinite(kvals)):
        raise NonFiniteKernel(
            f"kernel produced non-finite values on ({rule.a}, {rule.b}) nodes"
        )
    return kvals


def _weighted(
    kvals: np.ndarray, z: float, sw_rows: np.ndarray, sw_cols: np.ndarray
) -> np.ndarray:
    """The block ``z sqrt(w_i) K(x_i, x_j) sqrt(w_j)`` of A, in a fresh array.

    Never ``kvals`` itself (the evaluator's own, maybe read-only); every
    entry rounds as in ``z * np.outer(sw, sw) * kmat``, whatever the block.
    """
    out = np.outer(sw_rows, sw_cols)
    out *= z
    out *= kvals
    return out


def nystrom_matrix(
    kernel: KernelLike, z: float, rule: QuadratureRule, symmetrize: bool = True
) -> np.ndarray:
    """The discretized matrix 1 + z W K whose determinant approximates det(1+zK).

    ``symmetrize=True`` uses the similarity-equivalent weighting
    ``sqrt(w_i) K sqrt(w_j)``; both forms have identical determinants.
    """
    m = rule.m
    _check_node_cap(m)
    _check_coupling(z)
    kmat = _kernel_values(_evaluator(kernel), rule, slice(None), slice(None))
    if symmetrize:
        sw = np.sqrt(rule.weights)
        out = _weighted(kmat, z, sw, sw)
    else:
        out = np.empty((m, m))
        np.multiply(kmat, (z * rule.weights)[None, :], out=out)
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
    are not enough. It stops before a cross whose Frobenius norm is below
    ``_ACA_TOL`` times the running estimate of ``||u @ vt||_F``, so a
    rounding-noise cross of a huge exact-rank matrix is never added.

    Cross l is ``peaks[l]`` times the outer product of ``ut[l]``, the
    residual column over its largest entry, and ``vt[l]``, the residual
    row over its pivot. Norms and inner products are taken of those
    unit-peak vectors, and the estimate is updated relative to the larger
    of two norms, so no square overflows.
    """
    ut = np.empty((cap, m))
    vt = np.empty((cap, m))
    peaks = np.empty(cap)
    used: list[int] = []
    frob = 0.0
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
        size = peak * math.sqrt((c @ c) * (r @ r))
        if k:
            # ||S + t||^2 = ||S||^2 + 2 <S, t> + ||t||^2, all over scale^2
            scale = max(frob, size)
            cross = (ut[:k] @ c) * (peaks[:k] / scale) @ (vt[:k] @ r) * (peak / scale)
            frob2 = (frob / scale) ** 2 + 2.0 * cross + (size / scale) ** 2
            frob = scale * math.sqrt(max(0.0, frob2))
            if size <= _ACA_TOL * frob:
                break
        else:
            frob = size
        if k + 1 == cap:
            return None
        ut[k] = c
        vt[k] = r
        peaks[k] = peak
        k += 1
        if k == m:
            break
        a[used] = -1.0
        i = int(a.argmax())
    return (ut[:k] * peaks[:k, None]).T, vt[:k]


def _within_tolerance(
    blocks: Iterable[tuple[int, np.ndarray]], u: np.ndarray, vt: np.ndarray
) -> bool:
    """Whether ``max|A - u @ vt| <= _GRID_TOL * max|A|`` over the row blocks of A."""
    worst = peak = 0.0
    for start, block in blocks:
        peak = max(peak, float(np.abs(block).max()))
        residual = u[start : start + len(block)] @ vt
        residual -= block
        worst = max(worst, float(np.abs(residual).max()))
    return worst <= _GRID_TOL * peak


def _nystrom_logdet(
    kernel: KernelLike, z: float, a: float, b: float, m: int, symmetrize: bool = True
) -> tuple[float, float, int]:
    """``(sign, log|det|, rank)`` of the m-node Nystrom matrix of ``det(1 + z K)``.

    ACA factors ``A = z W^1/2 K W^1/2 ~ U V^T`` from a few kernel rows and
    columns. One pass over the kernel grid, in row blocks of about
    ``_BLOCK_VALUES`` values, then checks every kernel value for
    finiteness and every entry of ``A - U V^T`` against the tolerance;
    when it holds, ``det(I_m + U V^T) = det(I_k + V^T U)`` and the rank is
    k. When ACA reaches the rank cap or the check fails, the rank is m and
    the determinant is the dense ``slogdet`` of ``nystrom_matrix``. A grid
    that fits one block is evaluated once, before ACA, which reads its
    rows and columns from it.
    """
    _check_node_cap(m)
    rule = gauss_legendre(m, a, b)
    _check_coupling(z)
    f = _evaluator(kernel)
    sw = np.sqrt(rule.weights)
    step = max(1, _BLOCK_VALUES // m)
    every = slice(None)
    if m <= step:
        # one block holds the grid: evaluate it once and read ACA rows from it
        amat = _weighted(_kernel_values(f, rule, every, every), z, sw, sw)
        factors = _aca(amat.__getitem__, lambda j: amat[:, j], m, _rank_cap(m))
        blocks = [(0, amat)]
    else:
        amat = None

        def block(rows: slice, cols: slice) -> np.ndarray:
            return _weighted(_kernel_values(f, rule, rows, cols), z, sw[rows], sw[cols])

        factors = _aca(
            lambda i: block(slice(i, i + 1), every)[0],
            lambda j: block(every, slice(j, j + 1))[:, 0],
            m,
            _rank_cap(m),
        )
        blocks = ((s, block(slice(s, s + step), every)) for s in range(0, m, step))
    if factors is not None and _within_tolerance(blocks, *factors):
        u, vt = factors
        sign, logdet = np.linalg.slogdet(np.eye(len(vt)) + vt @ u)
        return float(sign), float(logdet), len(vt)
    if amat is not None and symmetrize:  # nystrom_matrix's array but for the identity
        dense = amat
        dense.flat[:: m + 1] += 1.0
    else:
        dense = nystrom_matrix(kernel, z, rule, symmetrize)
    sign, logdet = np.linalg.slogdet(dense)
    return float(sign), float(logdet), m


def fredholm_det(
    kernel: KernelLike,
    z: float,
    a: float,
    b: float,
    m: int,
    symmetrize: bool = True,
) -> float:
    """Nystrom approximation of the Fredholm determinant det(1 + z K).

    ``sign * exp(log|det|)`` of ``log_fredholm_det``'s low-rank or dense
    route; ``symmetrize`` picks the dense matrix's weighting (the
    determinant is the same). It is ``+-inf`` beyond the float range.
    Exact already at m = 1 for z = 0 and for rank-one kernels whose factor
    is integrated exactly by the rule; spectrally convergent for analytic
    kernels.
    """
    sign, logdet, _ = _nystrom_logdet(kernel, z, a, b, m, symmetrize)
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
    """First sieve bound for the k-th prime: p_k < k (ln k + ln ln k) for k >= 6."""
    if k < 6:
        return 15
    lk = math.log(k)
    return int(k * (lk + math.log(lk))) + 3


def _primes_up_to(limit: int) -> np.ndarray:
    """All primes <= limit, ascending, as a C-contiguous int64 array.

    Slot i of the sieve stands for the odd number 2 i + 1. The odd base
    primes up to isqrt(limit) (found by the same routine) strike one
    block of ``_SIEVE_BLOCK`` slots at a time, so the strikes of every
    base prime stay in cache; each prime carries its next strike offset
    from block to block. Slot 0 (the number 1) becomes the prime 2.
    """
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    n_slots = (limit + 1) // 2
    is_prime = np.ones(n_slots, dtype=bool)
    base = _primes_up_to(math.isqrt(limit))[1:].tolist()
    nxt = [(p * p) // 2 for p in base]  # slot of p^2, the first multiple to strike
    active = 0
    for lo in range(0, n_slots, _SIEVE_BLOCK):
        hi = min(lo + _SIEVE_BLOCK, n_slots)
        block = is_prime[lo:hi]
        while active < len(base) and nxt[active] < hi:
            active += 1
        for j in range(active):
            s, p = nxt[j], base[j]
            if s < hi:
                # odd multiples of p are 2 p apart: p slots
                block[s - lo :: p] = False
                nxt[j] = s + (hi - s + p - 1) // p * p
    primes = np.flatnonzero(is_prime).astype(np.int64, copy=False)
    primes *= 2
    primes += 1
    primes[0] = 2
    return primes


def first_k_primes(k: int) -> np.ndarray:
    """The first k primes, as a C-contiguous int64 array.

    A segmented sieve of Eratosthenes over odd numbers only: one bool
    per odd candidate, about ``limit / 2`` bytes where a sieve over all
    integers takes ``limit``, struck one cache-sized block at a time
    (see ``_primes_up_to``). The sieve bound uses
    p_k < k (ln k + ln ln k) for k >= 6 and a fixed cap below that; the
    bound is doubled (never needed in practice) if the sieve comes up
    short.

    Raises
    ------
    DomainError
        If k is not an integer (``operator.index`` refuses it) or k < 1;
        both are checked before any sieving.
    """
    try:
        k = operator.index(k)
    except TypeError:
        raise DomainError(f"prime count must be an integer, got {k!r}") from None
    if k < 1:
        raise DomainError(f"prime count must be >= 1, got {k}")
    limit = _prime_bound(k)
    while True:
        primes = _primes_up_to(limit)
        if len(primes) >= k:
            return primes[:k]
        limit *= 2


def _check_product_order(q: float) -> None:
    if not 1.0 < q < math.inf:  # NaN fails too
        raise DomainError(f"product converges for finite q > 1, got {q}")


def log_euler_factors(q: float, primes: np.ndarray) -> np.ndarray:
    """The log Euler factors log(1 + p^-q) of zeta(q)/zeta(2q), one per prime."""
    _check_product_order(q)
    return np.log1p(primes.astype(float) ** -q)


def _first_log_euler_factors(q: float, k: int) -> np.ndarray:
    """``log_euler_factors`` over the first k primes; q is checked before the sieve."""
    _check_product_order(q)
    return log_euler_factors(q, first_k_primes(k))


def zeta_ratio_product(q: float, k: int) -> float:
    """Truncated Euler-type product prod_{i<=k} (1 + p_i^-q).

    Increases monotonically in k and converges to zeta(q) / zeta(2q)
    for q > 1.
    """
    return float(np.exp(_first_log_euler_factors(q, k).sum()))


def zeta_series(q: float, tol: float = 1e-12) -> float:
    """zeta(q) = sum n^-q by partial sum plus Euler-Maclaurin tail.

    The cutoff N is grown until the first omitted correction term is
    below tol/2, so the absolute error is <= tol (down to roundoff).
    """
    if not 1.0 < q < math.inf:  # NaN fails too
        raise DomainError(f"zeta series converges for finite q > 1, got {q}")
    if not tol > 0:
        raise DomainError(f"tolerance must be positive, got {tol}")
    n_cut = 16
    while q * (q + 1) * (q + 2) * n_cut ** (-q - 3) / 720.0 > 0.5 * tol:
        n_cut *= 2
        if n_cut >= 1 << 24:
            break
    n = np.arange(1, n_cut + 1, dtype=float)
    partial = float((n**-q).sum())
    tail = n_cut ** (1.0 - q) / (q - 1.0) - 0.5 * n_cut**-q + q * n_cut ** (-q - 1.0) / 12.0
    return partial + tail


def prime_tail_bound(q: float, p_last: int) -> float:
    """Upper bound on sum_{p > p_last} log(1 + p^-q) over primes.

    log(1+x) <= x and primes thin out inside the integers, so the tail
    is below the integral bound p_last^(1-q) / (q - 1).
    """
    if not 1.0 < q < math.inf:  # NaN fails too
        raise DomainError(f"tail bound requires finite q > 1, got {q}")
    return float(p_last) ** (1.0 - q) / (q - 1.0)
