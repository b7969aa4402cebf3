"""Fredholm determinants of integral kernels, with prime/zeta utilities.

An integral operator ``(K u)(x) = int_a^b K(x, y) u(y) dy`` is
discretized on an m-point Gauss-Legendre rule; the determinant of the
symmetrized Nystrom matrix

    1 + z * sqrt(w_i) sqrt(w_j) K(x_i, x_j)

converges (spectrally fast for analytic kernels) to det(1 + z K). The
log-determinant variant accumulates LU pivots in log space and never
forms the product, so it stays usable where the determinant itself
overflows.

The prime and zeta helpers, built on the Euler factors of
``log_euler_factors``, give the zeta-ratio closed forms of prime spectra.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import (
    ConvergenceFailure,
    DomainError,
    NonFiniteKernel,
    NonPositiveDeterminant,
)

# full m x m kernel matrix is materialized; keep the quadratic cost visible
MAX_NODES = 10_000

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
    called once with a column ``x[:, None]`` and a row ``x[None, :]`` of
    the nodes, and its result must broadcast to the m x m kernel matrix.
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


def nystrom_matrix(
    kernel: KernelLike, z: float, rule: QuadratureRule, symmetrize: bool = True
) -> np.ndarray:
    """The discretized matrix 1 + z W K whose determinant approximates det(1+zK).

    ``symmetrize=True`` uses the similarity-equivalent weighting
    ``sqrt(w_i) K sqrt(w_j)``; both forms have identical determinants.
    """
    m = rule.m
    _check_node_cap(m)
    if not math.isfinite(z):
        raise DomainError(f"coupling z must be finite, got {z}")
    x = rule.nodes
    kmat = np.asarray(_evaluator(kernel)(x[:, None], x[None, :]), dtype=float)
    if not np.all(np.isfinite(kmat)):
        raise NonFiniteKernel(
            f"kernel produced non-finite values on ({rule.a}, {rule.b}) nodes"
        )
    # A fresh array, never kmat (the evaluator's own, maybe read-only); the
    # products round as in np.eye(m) + z * np.outer(sw, sw) * kmat.
    if symmetrize:
        sw = np.sqrt(rule.weights)
        out = np.outer(sw, sw)
        out *= z
        out *= kmat
    else:
        out = np.empty((m, m))
        np.multiply(kmat, (z * rule.weights)[None, :], out=out)
    out.flat[:: m + 1] += 1.0
    return out


def _nystrom_det_matrix(
    kernel: KernelLike, z: float, a: float, b: float, m: int, symmetrize: bool = True
) -> np.ndarray:
    _check_node_cap(m)
    return nystrom_matrix(kernel, z, gauss_legendre(m, a, b), symmetrize)


def fredholm_det(
    kernel: KernelLike,
    z: float,
    a: float,
    b: float,
    m: int,
    symmetrize: bool = True,
) -> float:
    """Nystrom approximation of the Fredholm determinant det(1 + z K).

    Exact already at m = 1 for z = 0 and for rank-one kernels whose
    factor is integrated exactly by the rule; spectrally convergent for
    analytic kernels.
    """
    return float(np.linalg.det(_nystrom_det_matrix(kernel, z, a, b, m, symmetrize)))


def log_fredholm_det(kernel: KernelLike, z: float, a: float, b: float, m: int) -> float:
    """log of the Nystrom determinant, accumulated in log space.

    Uses the LU-based sign/log-magnitude split, never forming the
    product, so large determinants do not overflow.

    Raises
    ------
    NonPositiveDeterminant
        If the determinant sign is zero or negative.
    """
    sign, logdet = np.linalg.slogdet(_nystrom_det_matrix(kernel, z, a, b, m))
    if sign <= 0:
        raise NonPositiveDeterminant(
            f"determinant sign {sign:+.0f} at z = {z}, interval ({a}, {b}), m = {m}"
        )
    return float(logdet)


def first_k_primes(k: int) -> np.ndarray:
    """The first k primes, by Eratosthenes sieve.

    The sieve bound uses p_k < k (ln k + ln ln k) for k >= 6 and a fixed
    cap below that; the bound is enlarged (never hit in practice) if the
    sieve comes up short.
    """
    if k < 1:
        raise DomainError(f"prime count must be >= 1, got {k}")
    if k < 6:
        limit = 15
    else:
        lk = math.log(k)
        limit = int(k * (lk + math.log(lk))) + 3
    while True:
        sieve = np.ones(limit + 1, dtype=bool)
        sieve[:2] = False
        for p in range(2, int(limit**0.5) + 1):
            if sieve[p]:
                sieve[p * p :: p] = False
        primes = np.nonzero(sieve)[0]
        if len(primes) >= k:
            return primes[:k].astype(np.int64)
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
