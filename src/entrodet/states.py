"""Generators for the state families used throughout the package.

Finite-dimensional: X-shaped bipartite density matrices (diagonal plus
anti-diagonal couplings) with a positivity-guaranteeing sampler, the
closed-form spectra and reductions of stacked X states, and embeddings
of spectra as diagonal states.

Truncated infinite-dimensional spectra: power laws ``k^-(1+eps)``
(divergent power sums for small orders), log-power laws
``1/(n log^beta n)`` (finite but entropy-divergent for beta in (1, 2)),
prime-zeta spectra whose determinant is a zeta ratio, and the geometric
Schmidt spectrum of the two-mode squeezed vacuum together with its
closed-form entanglement entropy in a naive and an overflow-free
evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConstraintViolation,
    DomainError,
    NotNormalized,
    NotPositive,
    TraceNotOne,
    TruncationInsufficient,
)
from .fredholm import KernelSpec, _first_log_euler_factors, zeta_series
from .linalg import (
    PSD_TOL,
    TRACE_TOL,
    DensityMatrix,
    Spectrum,
    SpectrumLike,
    as_spectrum,
    validate_density,
)


@dataclass(frozen=True)
class XStateParams:
    """Parameters of a d x d bipartite X-shaped state (n = d^2 total).

    ``diag`` holds the n diagonal entries (non-negative, summing to 1).
    The anti-diagonal carries l = floor(n/4) outer couplings ``w`` on
    pairs (i, n+1-i), i = 1..l, and l inner couplings ``z`` on pairs
    (l+i, n-l+1-i); for odd n the central diagonal entry is uncoupled.
    Positivity holds iff every coupling obeys its 2x2 Schur bound
    |c|^2 <= a_i a_j over its anti-diagonal pair.
    """

    d: int
    diag: np.ndarray
    outer: np.ndarray
    inner: np.ndarray
    seed: int | None = None

    @property
    def n(self) -> int:
        return self.d * self.d

    @property
    def l(self) -> int:
        return (self.d * self.d) // 4


# Stacked X states are held as diagonals ``a`` of shape (S, n) and
# couplings ``c`` of shape (S, n // 2): c[:, p] sits at (p, n-1-p), so the
# l outer couplings come first and the l inner ones after them.


def _check_x(a: np.ndarray, c: np.ndarray) -> None:
    """x_state's bounds on stacked states; names the first offender."""
    if not a.size:
        return
    n = a.shape[1]
    l = n // 4

    def where(s: int) -> str:
        return f"sample {s}: " if len(a) > 1 else ""

    neg = np.argwhere(a < 0)
    if neg.size:
        s, p = neg[0]
        raise ConstraintViolation(f"{where(s)}diagonal entry a[{p}] = {a[s, p]:.3e} < 0")
    sums = a.sum(axis=1)
    bad = np.flatnonzero(np.abs(sums - 1.0) > 1e-10)
    if bad.size:
        s = bad[0]
        raise ConstraintViolation(f"{where(s)}diagonal sums to {sums[s]:.12g}, expected 1")
    bound = a[:, : n // 2] * a[:, ::-1][:, : n // 2]
    mag2 = np.abs(c) ** 2
    over = np.argwhere(mag2 > bound + 1e-12)
    if over.size:
        s, p = over[0]
        name, i = ("w", p + 1) if p < l else ("z", p - l + 1)
        raise ConstraintViolation(
            f"{where(s)}|{name}_{i}|^2 = {mag2[s, p]:.6g} exceeds "
            f"Schur bound a_{p + 1} a_{n - p} = {bound[s, p]:.6g}"
        )


def x_state(params: XStateParams) -> DensityMatrix:
    """Assemble and validate the X-shaped density matrix.

    Raises
    ------
    ConstraintViolation
        Naming the first violated bound (diagonal normalization,
        negativity, coupling length, or a Schur pair bound).
    """
    n = params.n
    a = np.asarray(params.diag, dtype=float)
    if a.shape != (n,):
        raise ConstraintViolation(f"diagonal must have length {n}, got {a.shape}")
    w = np.asarray(params.outer, dtype=complex)
    z = np.asarray(params.inner, dtype=complex)
    if w.shape != (params.l,) or z.shape != (params.l,):
        raise ConstraintViolation(
            f"expected {params.l} outer and {params.l} inner couplings, "
            f"got {w.shape} and {z.shape}"
        )
    c = np.concatenate([w, z])
    _check_x(a[np.newaxis], c[np.newaxis])
    p = np.arange(len(c))
    mat = np.diag(a).astype(complex)
    mat[p, n - 1 - p] = c
    mat[n - 1 - p, p] = c.conj()
    return validate_density(mat)


def _x_draw(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    # one (magnitude, phase) pair per coupling, outer block then inner
    a = rng.exponential(size=n)
    a = a / a.sum()
    u = rng.random(2 * (n // 2)).reshape(-1, 2)
    mag = u[:, 0] * np.sqrt(a[: n // 2] * a[::-1][: n // 2])
    return a, mag * np.exp(2j * np.pi * u[:, 1])


def _check_dim(d: int) -> None:
    if not 2 <= d <= 8:
        raise DomainError(f"subsystem dimension must be in 2..8, got {d}")


def x_state_random(d: int, seed: int, index: int = 0) -> DensityMatrix:
    """Draw a random X-shaped state, deterministic in (seed, index).

    The diagonal is sampled from normalized exponentials; each coupling
    magnitude is uniform in [0, 1) times its Schur bound with an
    independent uniform phase, so every sample is positive by
    construction. Distinct (seed, index) keys give independent streams
    regardless of how samples are scheduled.
    """
    _check_dim(d)
    a, c = _x_draw(np.random.default_rng([seed, index, d]), d * d)
    l = (d * d) // 4
    return x_state(XStateParams(d, a, c[:l], c[l:], seed=seed))


def x_states_random(d: int, seed: int, samples: int) -> tuple[np.ndarray, np.ndarray]:
    """The states ``x_state_random(d, seed, i)``, i < samples, stacked.

    Returns ``a`` of shape (samples, d^2) and ``c`` of shape
    (samples, d^2 // 2), with ``c[:, p]`` the entry at (p, d^2-1-p).
    Draws the same numbers as :func:`x_state_random` and applies the same
    checks, with positivity and trace read off the closed-form spectrum
    of :func:`x_eigvalsh` instead of an eigensolver.
    """
    _check_dim(d)
    n = d * d
    a = np.empty((samples, n))
    c = np.empty((samples, n // 2), dtype=complex)
    for i in range(samples):
        a[i], c[i] = _x_draw(np.random.default_rng([seed, i, d]), n)
    _check_x(a, c)
    lam = x_eigvalsh(a, c)
    tr = lam.sum(axis=1)
    bad = np.flatnonzero(np.abs(tr - 1.0) > TRACE_TOL)
    if bad.size:
        s = bad[0]
        raise TraceNotOne(f"sample {s}: trace {tr[s]:.12g} differs from 1")
    low = np.flatnonzero(lam.min(axis=1) < -PSD_TOL)
    if low.size:
        s = low[0]
        raise NotPositive(
            f"sample {s}: minimum eigenvalue {lam[s].min():.3e} below -{PSD_TOL:.0e}"
        )
    return a, c


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
    """Embed a normalized spectrum as a diagonal density matrix."""
    s = as_spectrum(spec)
    if not s.is_normalized:
        raise NotNormalized(f"spectrum sums to {s.values.sum():.12g}, expected 1")
    return validate_density(np.diag(s.values.astype(complex)))


def random_density(dim: int, seed: int) -> DensityMatrix:
    """A Haar-ish (Hilbert-Schmidt measure) random mixed state."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q = g @ g.conj().T
    return validate_density(q / q.trace().real)


# ---------------------------------------------------------------------------
# truncated infinite-dimensional spectra
# ---------------------------------------------------------------------------


def power_law_spectrum(eps: float, k: int) -> Spectrum:
    """Normalized truncation of the power-law spectrum lam_j ~ j^-(1+eps).

    The power sum of order s diverges (as the truncation grows) exactly
    when s <= 1/(1+eps), which makes this the canonical witness family
    for divergent deformed entropies.
    """
    if not eps > 0:  # NaN fails too
        raise DomainError(f"power-law exponent must be positive, got {eps}")
    if k < 1:
        raise DomainError(f"truncation length must be >= 1, got {k}")
    j = np.arange(1, k + 1, dtype=float)
    w = j ** -(1.0 + eps)
    return as_spectrum(w / w.sum())


def power_law_generator(eps: float):
    """Index-to-eigenvalue map k -> k^-(1+eps) / zeta(1+eps).

    Normalized against the full infinite sum (not a truncation window),
    so it can feed :func:`entrodet.entropy.divergence_probe` on demand.
    """
    if not eps > 0:  # NaN fails too
        raise DomainError(f"power-law exponent must be positive, got {eps}")
    z = zeta_series(1.0 + eps)

    def lam(ks: np.ndarray) -> np.ndarray:
        return np.asarray(ks, dtype=float) ** -(1.0 + eps) / z

    return lam


def log_power_spectrum(beta: float, k: int) -> Spectrum:
    """Normalized truncation of lam_n ~ 1/(n log^beta n), n = 2..k+1.

    Indexing starts at n = 2 because log 1 = 0. The spectrum is summable
    for beta > 1, yet its entropy -sum lam log lam diverges for beta in
    (1, 2): the canonical example separating the plain and renormalized
    von Neumann entropies.
    """
    if not beta > 1:  # NaN fails too
        raise DomainError(f"log-power exponent must exceed 1, got {beta}")
    if k < 1:
        raise DomainError(f"truncation length must be >= 1, got {k}")
    n = np.arange(2, k + 2, dtype=float)
    w = 1.0 / (n * np.log(n) ** beta)
    return as_spectrum(w / w.sum())


def splice_spectrum(
    spec: SpectrumLike,
    eps: float,
    delta: float,
    threshold: float,
    probe_r: float | None = None,
    k_max: int = 10_000_000,
) -> Spectrum:
    """Splice a power-law tail onto a spectrum's head.

    Keeps the given normalized spectrum scaled by (1 - t) and appends a
    power-law tail ``~ j^-(1+eps)`` carrying mass t = delta/3, so the
    trace distance to the original state is 2t < delta. The tail length
    is grown until the order-``probe_r`` power sum of the spliced
    spectrum exceeds ``threshold`` (default probe order 1/(1+eps), where
    the tail's power sum grows without bound). Both properties are
    verified on the constructed spectrum, not assumed.

    Raises
    ------
    TruncationInsufficient
        If no tail length within ``k_max`` entries reaches the threshold.
    """
    base = as_spectrum(spec, normalized=True)
    if not (eps > 0 and delta > 0):  # NaN fails too
        raise DomainError(f"eps and delta must be positive, got {eps}, {delta}")
    if not threshold >= 0:
        raise DomainError(f"threshold must be >= 0, got {threshold}")
    if probe_r is None:
        probe_r = 1.0 / (1.0 + eps)
    elif math.isnan(probe_r):
        raise DomainError("probe order must not be NaN")
    head_len = len(base)
    t = min(delta / 3.0, 0.9)
    head = (1.0 - t) * base.values

    tail_len = 1024
    while True:
        j = np.arange(head_len + 1, head_len + tail_len + 1, dtype=float)
        raw = j ** -(1.0 + eps)
        tail = raw * (t / raw.sum())
        spliced = np.concatenate([head, tail])
        power = float((spliced[spliced > 0] ** probe_r).sum())
        if power > threshold:
            break
        if tail_len >= k_max:
            raise TruncationInsufficient(
                f"power sum {power:.6g} <= {threshold} at tail length {tail_len}"
            )
        tail_len = min(2 * tail_len, k_max)

    # distance is evaluated in construction order, where head aligns with base
    l1 = float(np.abs(spliced[:head_len] - base.values).sum() + tail.sum())
    if not l1 < delta:
        raise TruncationInsufficient(
            f"trace distance {l1:.6g} not below delta = {delta}"
        )
    return as_spectrum(spliced)


def zeta_spectrum(q: float, r: float, k: int, normalized: bool = True) -> Spectrum:
    """Prime spectrum lam_i = (log(1 + p_i^-q))^(1/r) over the first k primes.

    With ``normalized=False`` the raw values are returned; their order-r
    determinant log is then exactly sum_i log(1 + p_i^-q), which
    converges to log(zeta(q) / zeta(2q)) as k grows.
    """
    if not 1.0 < r < math.inf:  # NaN fails too
        raise DomainError(f"deformation order must be finite and exceed 1, got {r}")
    lam = _first_log_euler_factors(q, k) ** (1.0 / r)
    if normalized:
        return as_spectrum(lam / lam.sum())
    return as_spectrum(lam, normalized=False)


# ---------------------------------------------------------------------------
# two-mode squeezed vacuum
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SqueezedParams:
    """Squeezing strength and Schmidt truncation order.

    ``tail_mass`` is the geometric weight beyond the truncation,
    (tanh^2 r)^(n_max + 1); useful as an accuracy diagnostic.
    """

    r: float
    n_max: int

    @property
    def tail_mass(self) -> float:
        t = math.tanh(self.r) ** 2
        return t ** (self.n_max + 1)


def squeezed_schmidt_spectrum(r: float, n_max: int) -> Spectrum:
    """Schmidt spectrum p_N = (1 - t) t^N, t = tanh^2 r, renormalized.

    The reduced state of the two-mode squeezed vacuum is geometric in
    the particle number; truncation at N <= n_max is renormalized so the
    result is an exact state.
    """
    if not r >= 0:  # NaN fails too
        raise DomainError(f"squeezing parameter must be >= 0, got {r}")
    if n_max < 1:
        raise DomainError(f"truncation order must be >= 1, got {n_max}")
    t = math.tanh(r) ** 2
    if t == 0.0:
        return as_spectrum(np.array([1.0]))
    if t == 1.0:
        # t rounds up to 1 in double precision (r above ~19); the
        # renormalized truncation converges to the uniform window there
        return as_spectrum(np.full(n_max + 1, 1.0 / (n_max + 1)))
    p = (1.0 - t) * t ** np.arange(n_max + 1, dtype=float)
    return as_spectrum(p / p.sum())


def gaussian_entropy_analytic(r: float, mode: str = "stable") -> float:
    """Closed-form entanglement entropy of the two-mode squeezed vacuum.

    cosh^2(r) log cosh^2(r) - sinh^2(r) log sinh^2(r), in nats.

    ``mode="naive"`` evaluates the formula through the Schmidt parameter
    t = tanh^2 r exactly as written, with no rearrangement; once t
    rounds to 1 in double precision (r above roughly 19) it returns a
    non-finite value. ``mode="stable"`` evaluates the same quantity as
    log1p(s2) + s2 * log1p(1/s2) over s2 = sinh^2 r, switching to the
    exact large-r asymptote once sinh^2 overflows; it is finite and
    accurate for any non-negative r.
    """
    if not r >= 0:  # NaN fails too
        raise DomainError(f"squeezing parameter must be >= 0, got {r}")
    if mode == "naive":
        t = np.tanh(r) ** 2
        if t == 0.0:
            return 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            return float(-np.log(1.0 - t) - t / (1.0 - t) * np.log(t))
    if mode == "stable":
        if r == 0.0:
            return 0.0
        if r > 350.0:
            # sinh^2 would overflow; the dropped 1/(2 sinh^2) term is ~e^-2r
            return 2.0 * r - 2.0 * math.log(2.0) + 1.0
        s2 = math.sinh(r) ** 2
        return math.log1p(s2) + s2 * math.log1p(1.0 / s2)
    raise DomainError(f"mode must be 'naive' or 'stable', got {mode!r}")


def _squeezed_kernel_eval(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.tanh(x + y) / np.cosh(x - y)


def squeezed_kernel() -> KernelSpec:
    """The symmetric kernel tanh(x + y) / cosh(x - y)."""
    return KernelSpec(_squeezed_kernel_eval, "squeezed")
