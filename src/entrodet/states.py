"""Generators for the state families used throughout the package.

Finite-dimensional: X-shaped bipartite density matrices, each held as
its diagonal ``a`` and anti-diagonal couplings ``c`` in one layout from
the sampler to the sweep, with a positivity-guaranteeing sampler, the
closed-form spectra and reductions of stacked X states, and embeddings
of spectra as diagonal states. Sampled stacks are states by construction;
their spectra are admitted where they are consumed.

Infinite-dimensional spectra: the power law ``k^-(1+eps)`` as an
index map (divergent power sums for small orders), truncated log-power laws
``1/(n log^beta n)`` (finite but entropy-divergent for beta in (1, 2)),
prime-zeta spectra whose determinant is a zeta ratio, and the geometric
Schmidt spectrum of the two-mode squeezed vacuum together with its
closed-form entanglement entropy in a naive and an overflow-free
evaluation, and the entropy of its renormalized truncation in closed form.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    _MAX_COUNT,
    ConstraintViolation,
    DomainError,
    NotNormalized,
    NotPositive,
    _check_count,
    _check_real,
    _unallocatable,
)
from .fredholm import (
    KernelSpec,
    _log_euler_factors,
    _partial_zeta,
    _SymmetricKernel,
    first_k_primes,
    zeta_series,
)
from .linalg import (
    _BLOCK,
    DensityMatrix,
    Spectrum,
    SpectrumLike,
    _admit,
    _freeze,
    _own_spectrum,
    as_spectrum,
    validate_density,
)


# An X state on n = d^2 levels is held as its diagonal ``a`` (n entries) and
# couplings ``c`` (n // 2 entries), c[p] sitting at (p, n-1-p): the l = n // 4
# outer couplings w come first and the l inner ones z after them; for odd n
# the central diagonal entry is uncoupled. Stacks of S states have shapes
# (S, n) and (S, n // 2). Positivity holds iff the diagonal is non-negative and
# every coupling obeys its 2x2 Schur bound |c_p|^2 <= a_p a_{n-1-p}.


def _broken_x_bound(a: np.ndarray, c: np.ndarray, lam: np.ndarray) -> str:
    """The X bound behind ``lam = x_eigvalsh(a, c)``, refused as negative or not finite:
    that of its first NaN or lowest value, or the sum, if not finite or far from 1."""
    n, h = len(a), len(c)
    total = a.sum()
    if np.isfinite(total):
        k = np.argmin(lam)  # the first NaN, if any
        if k >= 2 * h:  # the uncoupled centre entry is its own eigenvalue
            return f"diagonal entry a[{h}] = {a[h]:.3e} < 0"
        p = k % h  # pair p's eigenvalues sit at p and h + p
        for i in (p, n - 1 - p):
            if a[i] < 0:
                return f"diagonal entry a[{i}] = {a[i]:.3e} < 0"
        mag2, bound = abs(c[p]) ** 2, a[p] * a[n - 1 - p]
        if not mag2 <= bound:  # NaN fails too
            name, i = ("w", p + 1) if p < n // 4 else ("z", p - n // 4 + 1)
            return (f"|{name}_{i}|^2 = {mag2:.6g} exceeds "
                    f"Schur bound a_{p + 1} a_{n - p} = {bound:.6g}")
    return f"diagonal sums to {total:.12g}, expected 1"


def x_state(a: np.ndarray, c: np.ndarray) -> DensityMatrix:
    """Assemble one X-shaped density matrix from its ``(a, c)``.

    The matrix is Hermitian by construction, and a state if its closed-form
    spectrum (:func:`x_eigvalsh`) passes the admission that every spectrum
    takes (:func:`~entrodet.linalg.spectrum_of`), so no eigensolver runs.

    Raises
    ------
    ConstraintViolation
        On a bad shape or a non-real diagonal entry, or naming the X bound
        behind a refused spectrum: a negative ``a[p]``, the sum, or a Schur bound.
    """
    a = np.asarray(a)  # not yet float: the cast would drop an imaginary part
    c = np.asarray(c, dtype=complex)
    n = a.size
    if a.ndim != 1 or not n or math.isqrt(n) ** 2 != n:
        raise ConstraintViolation(f"diagonal must be 1-D of square length, got shape {a.shape}")
    if c.shape != (n // 2,):
        raise ConstraintViolation(f"expected {n // 2} couplings for {n} levels, got {c.shape}")
    if np.iscomplexobj(a) and a.imag.any():  # a NaN imaginary part counts too
        p = np.flatnonzero(a.imag)[0]
        raise ConstraintViolation(f"diagonal entry a[{p}] = {a[p]:.3e} is not real")
    a = np.asarray(a.real, dtype=float)
    lam = x_eigvalsh(a, c)
    try:
        _admit(lam, normalized=True)
    except NotNormalized:
        raise ConstraintViolation(f"diagonal sums to {a.sum():.12g}, expected 1") from None
    except NotPositive:
        raise ConstraintViolation(_broken_x_bound(a, c, lam)) from None
    p = np.arange(len(c))
    mat = np.diag(a).astype(complex)
    mat[p, n - 1 - p] = c
    mat[n - 1 - p, p] = c.conj()
    return DensityMatrix(_freeze(mat))


def _x_samples(d: int, seed, first: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    # samples first .. first + count - 1 of the (seed, d) stream; sample i reads
    # the w = n + 2 (n // 2) doubles from draw i w on: n uniforms for the diagonal's
    # exponentials, then one (magnitude, phase) pair per coupling, outer block first
    n, h = d * d, d * d // 2
    bits = np.random.PCG64(np.random.SeedSequence([_check_count(seed, "seed", 0), d]))
    try:
        u = np.random.Generator(bits.advance(first * (n + 2 * h))).random((count, n + 2 * h))
    except (MemoryError, ValueError):
        raise _unallocatable("sample count", count) from None
    e = -np.log1p(-u[:, :n])
    a = e / e.sum(axis=1, keepdims=True)
    pairs = u[:, n:].reshape(count, h, 2)
    mag = pairs[..., 0] * np.sqrt(a[:, :h] * a[:, ::-1][:, :h])
    return a, mag * np.exp(2j * np.pi * pairs[..., 1])


def x_state_random(d: int, seed: int, index: int = 0) -> DensityMatrix:
    """Draw a random X-shaped state, deterministic in (seed, index).

    The diagonal is sampled from normalized exponentials (Dirichlet(1, ..., 1));
    each coupling magnitude is uniform in [0, 1) times its Schur bound with an
    independent uniform phase, so every sample is positive by construction.

    All samples of one d read one PCG64 stream keyed by ``SeedSequence([seed,
    d])``: sample i takes the ``w = n + 2 (n // 2)`` doubles (n = d^2) that
    start at draw ``i * w``, which this function reaches by an O(1)
    ``advance``. The state equals row ``index`` of :func:`x_states_random`
    bit for bit. Versions before this layout keyed one generator per sample,
    so their X-state samples and CSV values differ.
    """
    d = _check_count(d, "subsystem dimension", 2, 8)
    a, c = _x_samples(d, seed, _check_count(index, "sample index", 0), 1)
    return x_state(a[0], c[0])


def x_states_random(d: int, seed: int, samples: int) -> tuple[np.ndarray, np.ndarray]:
    """The states ``x_state_random(d, seed, i)``, i < samples, stacked.

    Returns ``a`` of shape (samples, d^2) and ``c`` of shape
    (samples, d^2 // 2), with ``c[:, p]`` the entry at (p, d^2-1-p).
    Every sample comes from one draw of ``samples * w`` doubles off the
    stream described in :func:`x_state_random`, so row i equals
    ``x_state_random(d, seed, i)`` bit for bit. Only the parameters are
    checked, as the samples are states by construction; their spectra
    (:func:`x_eigvalsh`) are left to the caller to admit.

    Raises
    ------
    DomainError
        If d is not an integer in 2..8, samples not one in 0..2**53, or
        seed not one >= 0.
    """
    d = _check_count(d, "subsystem dimension", 2, 8)
    return _x_samples(d, seed, 0, _check_count(samples, "sample count", 0, _MAX_COUNT))


def x_eigvalsh(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Eigenvalues of stacked X-shaped Hermitian matrices, in closed form.

    ``a`` (..., n) is the real diagonal and ``c`` (..., n // 2) the
    couplings at (p, n-1-p). Each pair is a 2x2 block with eigenvalues
    ``m +- hypot((a_p - a_q) / 2, |c_p|)`` around its mean m; for odd n the
    centre entry is its own eigenvalue. Returns (..., n), unsorted.
    """
    n = a.shape[-1]
    h = n // 2
    ap, aq = a[..., :h], a[..., ::-1][..., :h]
    mean = 0.5 * (ap + aq)
    rad = np.hypot(0.5 * (ap - aq), np.abs(c))
    return np.concatenate([mean + rad, mean - rad, a[..., h : n - h]], axis=-1)


def x_partial_traces(
    a: np.ndarray, c: np.ndarray, d: int
) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Both reductions of stacked d x d X states, themselves X-shaped.

    Returns ``((a_A, c_A), (a_B, c_B))`` for Tr_B and Tr_A in the layout
    of :func:`x_eigvalsh`. Row i*d + j of the full state couples only to
    row (d-1-i)*d + (d-1-j), so a reduction keeps a coupling only from
    the middle row k = (d-1)/2 of the traced factor: none for even d.
    """
    a4 = a.reshape(-1, d, d)
    half = np.arange(d // 2)
    if d % 2:
        k = (d - 1) // 2
        c_a, c_b = c[:, half * d + k], c[:, k * d + half]
    else:
        c_a = c_b = np.zeros((len(a), d // 2), dtype=complex)
    return (a4.sum(axis=2), c_a), (a4.sum(axis=1), c_b)


def diag_state(spec: SpectrumLike) -> DensityMatrix:
    """Embed a normalized spectrum as a diagonal density matrix; no eigensolver runs."""
    lam = as_spectrum(spec, normalized=True).values
    return DensityMatrix(_freeze(np.diag(lam.astype(complex))))


def random_density(dim: int, seed: int) -> DensityMatrix:
    """A Haar-ish (Hilbert-Schmidt measure) random mixed state.

    Raises :class:`DomainError` unless dim is an integer, 1 <= dim^2 <= 2**53, and seed one >= 0.
    """
    dim = _check_count(dim, "dimension", high=math.isqrt(_MAX_COUNT))
    rng = np.random.default_rng(_check_count(seed, "seed", 0))
    try:
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    except (MemoryError, ValueError):
        raise _unallocatable("dimension", dim) from None
    q = g @ g.conj().T
    return validate_density(q / q.trace().real)


# ---------------------------------------------------------------------------
# truncated infinite-dimensional spectra
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _PowerLaw:
    """k -> k^-p / z with p = 1 + eps and z = zeta(p), plus its partial power sums."""

    p: float
    z: float

    def __call__(self, ks: np.ndarray) -> np.ndarray:
        return np.asarray(ks, dtype=float) ** -self.p / self.z

    def power_sum(self, r: float, k: int) -> float:
        """sum_{j<=k} lam_j^r = z^-r sum_{j<=k} j^-(r p), in O(1) for any k."""
        return self.z**-r * _partial_zeta(r * self.p, k)


def power_law_generator(eps: float) -> _PowerLaw:
    """Index-to-eigenvalue map k -> k^-(1+eps) / zeta(1+eps).

    Normalized against the full infinite sum (not a truncation window),
    so it can feed :func:`entrodet.entropy.divergence_probe` on demand.
    The map also knows its partial power sums ``sum_{k<=K} lam_k^r`` in
    closed form: the first 1024 terms summed directly plus an
    Euler-Maclaurin remainder through B_8, within a few ulps of the exact
    sum (3e-16 relative against mpmath for r (1+eps) in [0.5, 2.5] and
    K up to 1e12). The normalizer ``zeta(1+eps)`` is the same sum taken
    to K = inf, so the values and their partial sums agree to rounding.
    The probe uses the partial sums to find a crossing in O(log K) sums.
    An eps at or below 2**-53 is refused, as ``1 + eps`` rounds to 1.
    """
    eps = _check_real(eps, "power-law exponent", 2.0**-53)
    return _PowerLaw(1.0 + eps, zeta_series(1.0 + eps))


def log_power_spectrum(beta: float, k: int) -> Spectrum:
    """Normalized truncation of lam_n ~ 1/(n log^beta n), n = 2..k+1.

    Indexing starts at n = 2 because log 1 = 0. The spectrum is summable
    for beta > 1, yet its entropy -sum lam log lam diverges for beta in
    (1, 2): the canonical example separating the plain and renormalized
    von Neumann entropies.
    """
    beta = _check_real(beta, "log-power exponent", 1.0)
    k = _check_count(k, "truncation length", high=_MAX_COUNT)
    # one buffer, filled with 1 / (n log^beta n) a cache-sized chunk at a time,
    # then normalized and admitted in place. Where log(2)^beta is below the normal
    # range or (k + 1) log(k + 1)^beta overflows (beta past 315 at k = 10^4, never
    # below 186), it holds the ratios to the first value, (2 / n) (log 2 / log n)^beta
    ratio = (beta * math.log(math.log(2.0)) < math.log(sys.float_info.min) + 1.0
             or math.log(k + 1) + beta * math.log(math.log(k + 1))
             > math.log(sys.float_info.max) - 1.0)
    try:
        w = np.empty(k)
    except (MemoryError, ValueError):
        raise _unallocatable("truncation length", k) from None
    for lo in range(0, k, _BLOCK):
        chunk = w[lo : lo + _BLOCK]
        n = np.arange(lo + 2, lo + 2 + len(chunk), dtype=float)
        np.log(n, out=chunk)
        if ratio:
            np.divide(math.log(2.0), chunk, out=chunk)
            chunk **= beta
            chunk *= 2.0
            chunk /= n
        else:
            chunk **= beta
            chunk *= n
            np.reciprocal(chunk, out=chunk)
    w /= w.sum()
    return _own_spectrum(w)


def zeta_spectrum(q: float, r: float, k: int, normalized: bool = True) -> Spectrum:
    """Prime spectrum lam_i = (log(1 + p_i^-q))^(1/r) over the first k primes.

    With ``normalized=False`` the raw values are returned; their order-r
    determinant log is then exactly sum_i log(1 + p_i^-q), which
    converges to log(zeta(q) / zeta(2q)) as k grows. Normalized, every value
    that is a double is kept, also where raw ones are not (q past about 1000).
    """
    r = _check_real(r, "deformation order", 1.0)
    q = _check_real(q, "zeta order q", 1.0)
    primes = first_k_primes(k)
    lam = _log_euler_factors(q, primes)
    if normalized and lam[-1] < sys.float_info.min:
        # the last factors f = log1p(p^-q) are subnormal or 0, and their powers would
        # lose values: there log f = -q log p to rounding, so each log f is held as
        # log f + q log 2 = -q log(p / 2), and lam_i / lam_1 = exp((log f_i - log f_1) / r)
        log_f = np.log(primes / 2.0)
        with np.errstate(over="ignore"):  # -inf past the float range: a value of 0
            log_f *= -q
        normal = lam >= sys.float_info.min
        log_f[normal] = np.log(lam[normal]) + q * math.log(2.0)
        lam = np.exp((log_f - log_f[0]) / r, out=lam)
    else:
        lam **= 1.0 / r
    if normalized:
        lam /= lam.sum()
    return _own_spectrum(lam)


# ---------------------------------------------------------------------------
# two-mode squeezed vacuum
# ---------------------------------------------------------------------------


def squeezed_schmidt_spectrum(r: float, n_max: int) -> Spectrum:
    """Schmidt spectrum p_N = (1 - t) t^N, t = tanh^2 r, renormalized.

    The reduced state of the two-mode squeezed vacuum is geometric in
    the particle number; truncation at N <= n_max is renormalized so the
    result is an exact state.
    """
    r = _check_real(r, "squeezing parameter", math.nextafter(0.0, -1.0))
    n_max = _check_count(n_max, "truncation order", high=_MAX_COUNT)
    t = math.tanh(r) ** 2
    if t == 0.0:
        return _own_spectrum(np.array([1.0]))
    try:
        p = np.zeros(n_max + 1)
    except (MemoryError, ValueError):
        raise _unallocatable("truncation order", n_max) from None
    if t == 1.0:
        # t rounds up to 1 in double precision (r above ~19); the
        # renormalized truncation converges to the uniform window there
        p += 1.0 / (n_max + 1)
        return _own_spectrum(p)
    # t**n rounds to exactly 0 once t**n < 2^-1075, i.e. for n > 1075 ln 2 / -ln t;
    # evaluating pow on that underflowing tail is slow, so it is left as zeros
    live = min(n_max + 1, math.ceil(1075 * math.log(2) / -math.log(t)) + 2)
    p[:live] = (1.0 - t) * t ** np.arange(live, dtype=float)
    p /= p.sum()
    return _own_spectrum(p)


def _squeezed_schmidt_entropy(r: float, n_max: int) -> tuple[float, float]:
    """Entropy of ``squeezed_schmidt_spectrum(r, n_max)`` in closed form, and the mass it drops.

    With t = tanh^2 r, u = 1 - t = sech^2 r, a = -log t and L = (N + 1) a,
    the truncation p_n = t^n (1 - t) / (1 - e^-L), n <= N = n_max, has entropy
    log((1 - e^-L) / u) + a t / u - L e^-L / (1 - e^-L); the untruncated
    series puts mass t^(N + 1) = e^-L past N. Within 1e-15 relative of a
    high-precision evaluation wherever t is a normal double; finite and >= 0
    where t is subnormal. Arguments are admitted by the caller.
    """
    t = math.tanh(r) ** 2
    if t == 0.0:
        return 0.0, 0.0
    n1 = n_max + 1
    if t <= 0.5:
        u, a, log_u = 1.0 - t, -math.log(t), math.log1p(-t)
    else:
        # 1 - t rounds to 0 past r ~ 19: u comes from x = e^-2r instead, with no
        # cosh^2 to overflow, and underflows to 0 where the truncation is uniform
        x = math.exp(-2.0 * r)
        u = 4.0 * x / (1.0 + x) ** 2
        if u == 0.0:
            return math.log(n1), 1.0
        a, log_u = -math.log1p(-u), math.log(u)
    big_l = n1 * a
    q, d = math.exp(-big_l), -math.expm1(-big_l)  # e^-L and 1 - e^-L
    if big_l < 1.0:  # d and u are both small: log(d / u) as the product of bounded ratios
        log_z = math.log(n1) + math.log(a / u) + math.log(d / big_l)
    else:
        log_z = math.log1p(-q) - log_u
    return log_z + a * t / u - big_l * q / d, q


def gaussian_entropy_analytic(r: float, mode: str = "stable") -> float:
    """Closed-form entanglement entropy of the two-mode squeezed vacuum.

    cosh^2(r) log cosh^2(r) - sinh^2(r) log sinh^2(r), in nats.

    ``mode="naive"`` evaluates the formula through the Schmidt parameter
    t = tanh^2 r exactly as written, with no rearrangement; once t
    rounds to 1 in double precision (r above roughly 19) it returns a
    non-finite value. ``mode="stable"`` evaluates the same quantity as
    log1p(s2) + s2 * log1p(1/s2) over s2 = sinh^2 r, switching to the
    exact large-r asymptote once sinh^2 overflows; it is finite and
    accurate for any finite r >= 0.
    """
    r = _check_real(r, "squeezing parameter", math.nextafter(0.0, -1.0))
    if mode == "naive":
        t = np.tanh(r) ** 2
        if t == 0.0:
            return 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            return float(-np.log(1.0 - t) - t / (1.0 - t) * np.log(t))
    if mode == "stable":
        if r > 350.0:
            # sinh^2 would overflow; the dropped 1/(2 sinh^2) term is ~e^-2r
            return 2.0 * r - 2.0 * math.log(2.0) + 1.0
        s2 = math.sinh(r) ** 2
        if s2 == 0.0 or math.isinf(1.0 / s2):  # no reciprocal to overflow; 0 once s2 underflows
            return (1.0 + s2) * math.log1p(s2) - s2 * math.log(s2) if s2 else 0.0
        return math.log1p(s2) + s2 * math.log1p(1.0 / s2)
    raise DomainError(f"mode must be 'naive' or 'stable', got {mode!r}")


def _squeezed_kernel_eval(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # tanh(x + y) / cosh(x - y) in two arrays: each ufunc after the first writes in place
    out = np.add(x, y, out=np.empty(np.broadcast(x, y).shape))
    np.tanh(out, out=out)
    den = np.subtract(x, y, out=np.empty_like(out))
    np.cosh(den, out=den)
    out /= den
    return out


def squeezed_kernel() -> KernelSpec:
    """The symmetric kernel tanh(x + y) / cosh(x - y).

    Symmetric bit for bit, as ``x + y`` and ``cosh`` of ``x - y`` are, so
    a determinant on a grid of many blocks checks the upper triangle of
    it only, row blocks ``x[s:e, None]`` against ``x[None, s:]``.
    """
    return _SymmetricKernel(_squeezed_kernel_eval, "squeezed")
