"""Acceptance suite: one pass/fail line per criterion (run with -s to see them).

Three sub-clauses are marked xfail(strict=True) because they are
mathematically unattainable as stated; each carries its analysis in the
test docstring and fails deterministically:

* criterion 4c: 1e-12 naive/stable agreement up to r = 17,
* criterion 7e: the continuity bound with constant 1/(r(r-1)),
* criterion 9b: the lower trace bound 1 <= Tr f_r for r > 1.

Each of those has a green companion testing the corrected statement.
"""

import math
import time

import numpy as np
import pytest

from entrodet import (
    alpha_star,
    diag_state,
    divergence_probe,
    fredholm_det,
    gaussian_entropy_analytic,
    hu_ye,
    hy_bound,
    hy_fredholm,
    log_det_r,
    log_power_spectrum,
    partial_trace,
    power_law_generator,
    renyi,
    run_xstate_experiment,
    run_zeta_check,
    squeezed_schmidt_spectrum,
    trace_distance,
    trace_power,
    tsallis,
    vn_renormalized,
    vn_via_fredholm,
    von_neumann,
    zeta_series,
    zeta_spectrum,
)
from entrodet.fredholm import KernelSpec, gauss_legendre

from conftest import (
    ginibre_density,
    haar_unitary,
    random_pure_bipartite,
    random_spectrum_values,
)

SEED = 31337


def report(label: str, ok: bool, detail: str = "") -> bool:
    print(f"[acceptance] {label}: {'PASS' if ok else 'FAIL'}  {detail}".rstrip())
    return ok


# -------------------------------------------------------------------------
# 1. triangle inequality on random X states
# -------------------------------------------------------------------------


def test_criterion_1_xstate_triangle():
    t0 = time.perf_counter()
    rep = run_xstate_experiment([2, 3, 4, 5], samples=100, r=2.0, s=0.5, seed=SEED)
    elapsed = time.perf_counter() - t0
    ok = (
        rep.summary["total"] == 400
        and rep.summary["passed"] == 400
        and elapsed < 30.0
    )
    assert report(
        "criterion 1 (triangle inequality, 400 X states)",
        ok,
        f"passed {rep.summary['passed']}/400, max violation "
        f"{rep.summary['max_violation']:.3e}, {elapsed:.2f} s",
    )


# -------------------------------------------------------------------------
# 2. prime-spectrum determinant identity
# -------------------------------------------------------------------------


def test_criterion_2_zeta_identity():
    t0 = time.perf_counter()
    spec = zeta_spectrum(2.0, 2.0, 100_000, normalized=False)
    logdet = log_det_r(spec, 2.0)
    # independent reference: direct series summation, not the prime product
    reference = math.log(zeta_series(2.0) / zeta_series(4.0))
    elapsed = time.perf_counter() - t0
    gap = abs(logdet - reference)
    ok = gap < 1e-5 and elapsed < 10.0
    assert report(
        "criterion 2 (zeta determinant identity, k = 1e5)",
        ok,
        f"gap {gap:.3e} vs ln(15/pi^2) = {reference:.10f}, {elapsed:.2f} s",
    )
    # the experiment runner agrees with the bare computation
    rep = run_zeta_check(2.0, 2.0, 100_000)
    assert rep.summary["passed"]


# -------------------------------------------------------------------------
# 3. squeezed-vacuum closed form vs Schmidt series
# -------------------------------------------------------------------------


def test_criterion_3_gaussian_series_agreement():
    worst = 0.0
    for r in (0.1, 0.5, 1.0, 2.0, 5.0):
        t = math.tanh(r) ** 2
        n_max = max(2, int(math.ceil(math.log(1e-14) / math.log(t))))
        spec = squeezed_schmidt_spectrum(r, n_max)
        series = von_neumann(spec)
        stable = gaussian_entropy_analytic(r, "stable")
        worst = max(worst, abs(series - stable) / stable)
    ok = worst < 1e-10
    assert report(
        "criterion 3 (closed form vs Schmidt series, r in 0.1..5)",
        ok,
        f"worst relative gap {worst:.3e}",
    )


# -------------------------------------------------------------------------
# 4. overflow reproduction and repair
# -------------------------------------------------------------------------


def test_criterion_4a_naive_overflow_at_25():
    naive = gaussian_entropy_analytic(25.0, "naive")
    ok = not math.isfinite(naive)
    assert report(
        "criterion 4a (naive evaluation non-finite at r = 25)",
        ok,
        f"naive(25) = {naive!r}",
    )


def test_criterion_4b_stable_finite_to_300():
    grid = [1.0, 17.0, 25.0, 50.0, 100.0, 200.0, 300.0]
    vals = [gaussian_entropy_analytic(r, "stable") for r in grid]
    ok = all(math.isfinite(v) for v in vals)
    # spot-check the large-r asymptote 2r - 2 ln 2 + 1
    asym = 2 * 300.0 - 2 * math.log(2.0) + 1.0
    ok = ok and abs(vals[-1] - asym) < 1e-9
    assert report(
        "criterion 4b (stable evaluation finite up to r = 300)",
        ok,
        f"stable(300) = {vals[-1]:.6f}",
    )


@pytest.mark.xfail(
    strict=True,
    reason="unattainable in IEEE double: any evaluation that degrades to "
    "non-finite by r = 25 loses the quantity 1 - tanh^2(r) ~ 4e^-2r to "
    "rounding long before that, costing ~eps/(1-tanh^2 r) relative error "
    "(about 5e-10 at r = 10, 1e-4 at r = 17); conversely any form accurate "
    "to 1e-12 through r = 17 stays finite until cosh^2 overflows near r = 355",
)
def test_criterion_4c_naive_stable_agreement_to_17():
    """Naive and stable evaluation agree to 1e-12 relative for r <= 17.

    Incompatible with criterion 4a in double precision. The naive route
    breaks down (non-finite) just above r = 18.7 where tanh^2 r rounds
    to 1, matching the observed overflow onset, but the same rounding
    already erodes its accuracy from r around 7. Agreement at 1e-12
    holds for r <= 5 (see the companion test below).
    """
    worst = 0.0
    for r in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 17.0):
        naive = gaussian_entropy_analytic(r, "naive")
        stable = gaussian_entropy_analytic(r, "stable")
        rel = abs(naive - stable) / stable if r > 0 else abs(naive - stable)
        worst = max(worst, rel)
    ok = worst < 1e-12
    assert report(
        "criterion 4c (naive/stable 1e-12 agreement to r = 17)",
        ok,
        f"worst relative difference {worst:.3e}",
    )


def test_criterion_4c_companion_agreement_within_working_range():
    worst = 0.0
    for r in (0.1, 0.5, 1.0, 2.0, 5.0):
        naive = gaussian_entropy_analytic(r, "naive")
        stable = gaussian_entropy_analytic(r, "stable")
        worst = max(worst, abs(naive - stable) / stable)
    ok = worst < 1e-12
    assert report(
        "criterion 4c' (companion: 1e-12 agreement for r <= 5)",
        ok,
        f"worst relative difference {worst:.3e}",
    )


# -------------------------------------------------------------------------
# 5. Fredholm determinant correctness
# -------------------------------------------------------------------------


def test_criterion_5_fredholm_rank_one():
    const = KernelSpec(lambda x, y: np.ones_like(x + y), "constant")
    exp1 = KernelSpec(lambda x, y: np.exp(x + y), "exp-rank-one")
    checks = []
    checks.append(abs(fredholm_det(const, -0.5, 0, 1, 20) - 0.5))
    checks.append(abs(fredholm_det(exp1, 1.0, 0, 1, 20) - (1 + (math.e**2 - 1) / 2)))
    exact_one = fredholm_det(const, 0.0, 0, 1, 20) == 1.0
    # the symmetric weighting against det(I + z K W): a full-rank kernel, so
    # the determinant takes the dense route (ACA returns rank-one kernels first)
    kink = KernelSpec(lambda x, y: np.exp(-np.abs(x - y)), "kink")
    rule = gauss_legendre(20, 0, 1)
    xi, xj = np.meshgrid(rule.nodes, rule.nodes, indexing="ij")
    raw = np.linalg.det(np.eye(20) + 0.8 * rule.weights[np.newaxis, :] * kink.evaluator(xi, xj))
    sym_gap = abs(fredholm_det(kink, 0.8, 0, 1, 20) - raw)
    ok = max(checks) < 1e-12 and exact_one and sym_gap < 1e-12
    assert report(
        "criterion 5 (rank-one determinants, z = 0, weighting)",
        ok,
        f"analytic gaps {checks[0]:.2e}/{checks[1]:.2e}, sym gap {sym_gap:.2e}",
    )


# -------------------------------------------------------------------------
# 6. determinant-entropy identities
# -------------------------------------------------------------------------


def test_criterion_6_determinant_identities():
    rng = np.random.default_rng(SEED)
    worst_logdet = 0.0
    for _ in range(100):
        lam = random_spectrum_values(rng, int(rng.integers(2, 65)))
        r = float(rng.uniform(0.3, 4.0))
        worst_logdet = max(worst_logdet, abs(log_det_r(lam, r) - trace_power(lam, r)))

    worst_hy = 0.0
    for _ in range(100):
        lam = random_spectrum_values(rng, int(rng.integers(2, 33)))
        for r in (1.5, 2.0, 3.0):
            for s in (0.5, 1.0, 2.0):
                worst_hy = max(worst_hy, abs(hy_fredholm(lam, r, s) - hu_ye(lam, r, s)))

    worst_vn = 0.0
    for _ in range(25):
        q = ginibre_density(rng, 6)
        worst_vn = max(worst_vn, abs(vn_via_fredholm(q) - von_neumann(q)))

    ok = worst_logdet < 1e-12 and worst_hy < 1e-12 and worst_vn < 1e-10
    assert report(
        "criterion 6 (log det = I_r; unified = determinant form; vN dual route)",
        ok,
        f"gaps {worst_logdet:.2e} / {worst_hy:.2e} / {worst_vn:.2e}",
    )


# -------------------------------------------------------------------------
# 7. property suites for the unified entropy family
# -------------------------------------------------------------------------


def test_criterion_7a_limits():
    rng = np.random.default_rng(SEED + 1)
    worst = 0.0
    for _ in range(100):
        lam = random_spectrum_values(rng, int(rng.integers(2, 17)))
        for r in (0.5, 2.0):
            for s_off in (1 + 1e-6, 1 - 1e-6):
                worst = max(worst, abs(hu_ye(lam, r, s_off) - tsallis(lam, r)))
            for s_off in (1e-6, -1e-6):
                worst = max(worst, abs(hu_ye(lam, r, s_off) - renyi(lam, r)))
        for r_off in (1 + 1e-6, 1 - 1e-6):
            worst = max(worst, abs(hu_ye(lam, r_off, 1.0) - von_neumann(lam)))
    ok = worst < 1e-4
    assert report(
        "criterion 7a (limits to Tsallis, Renyi, von Neumann)",
        ok,
        f"worst limit gap {worst:.3e} at offset 1e-6",
    )


def test_criterion_7b_range_and_saturation():
    rng = np.random.default_rng(SEED + 2)
    regimes = ((2.0, 0.5), (1.5, 1.0), (3.0, 2.0), (0.5, 1.5))
    ok = True
    for _ in range(100):
        d = int(rng.integers(2, 17))
        lam = random_spectrum_values(rng, d)
        for r, s in regimes:
            v = hu_ye(lam, r, s)
            ok = ok and -1e-12 <= v <= hy_bound(d, r, s) + 1e-12
    for d in (2, 3, 8, 16):
        pure = np.zeros(d)
        pure[0] = 1.0
        uniform = np.full(d, 1.0 / d)
        for r, s in regimes:
            ok = ok and abs(hu_ye(pure, r, s)) < 1e-12
            ok = ok and abs(hu_ye(uniform, r, s) - hy_bound(d, r, s)) < 1e-12
    assert report("criterion 7b (range, pure zero, uniform saturation)", ok)


def test_criterion_7c_unitary_invariance():
    rng = np.random.default_rng(SEED + 3)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 9))
        q = ginibre_density(rng, d)
        u = haar_unitary(rng, d)
        rotated = u @ q.mat @ u.conj().T
        for r, s in ((2.0, 0.5), (0.5, 2.0)):
            worst = max(worst, abs(hu_ye(rotated, r, s) - hu_ye(q, r, s)))
    ok = worst < 1e-10
    assert report("criterion 7c (unitary invariance)", ok, f"worst gap {worst:.3e}")


def test_criterion_7d_pure_bipartite_symmetry():
    rng = np.random.default_rng(SEED + 4)
    worst = 0.0
    for _ in range(100):
        d_a, d_b = (int(x) for x in rng.integers(2, 6, size=2))
        q = random_pure_bipartite(rng, d_a, d_b)
        for r, s in ((2.0, 0.5), (1.5, 1.0), (0.7, 2.0)):
            h_a = hu_ye(partial_trace(q, d_a, d_b, "A"), r, s)
            h_b = hu_ye(partial_trace(q, d_a, d_b, "B"), r, s)
            worst = max(worst, abs(h_a - h_b))
    ok = worst < 1e-10
    assert report("criterion 7d (pure-state reduction symmetry)", ok, f"worst gap {worst:.3e}")


def _continuity_pairs(rng, n: int):
    """Random state pairs plus near-pure perturbed pairs (the tight regime)."""
    pairs = []
    for i in range(n):
        d = int(rng.integers(2, 9))
        if i % 4 == 0:
            lam = np.zeros(d)
            lam[0] = 1.0
            eps = float(rng.uniform(0.001, 0.05))
            lam2 = np.full(d, eps / (d - 1))
            lam2[0] = 1.0 - eps
            pairs.append((diag_state(lam), diag_state(lam2)))
        else:
            pairs.append((ginibre_density(rng, d), ginibre_density(rng, d)))
    return pairs


@pytest.mark.xfail(
    strict=True,
    reason="the bound with constant 1/(r(r-1)) is refuted by explicit "
    "counterexamples: diag(1,0) vs diag(1/2,1/2) at r = 3 gives gap 0.375 "
    "against bound 1/3; near-pure pairs violate it for every r > 1 "
    "(the provable Lipschitz constant is r/(r-1), larger by r^2)",
)
def test_criterion_7e_continuity_bound_as_stated():
    """|HY(Q) - HY(Q')| <= ||Q - Q'||_1 / (r (r-1)) for r > 1, s >= 1."""
    rng = np.random.default_rng(SEED + 5)
    worst = -math.inf
    for q1, q2 in _continuity_pairs(rng, 100):
        dist = trace_distance(q1, q2)
        for r in (1.5, 2.0, 3.0):
            for s in (1.0, 2.0):
                gap = abs(hu_ye(q1, r, s) - hu_ye(q2, r, s))
                worst = max(worst, gap - dist / (r * (r - 1)))
    ok = worst <= 1e-12
    assert report(
        "criterion 7e (continuity bound, constant 1/(r(r-1)))",
        ok,
        f"worst excess {worst:.3e}",
    )


def test_criterion_7e_companion_provable_continuity():
    """Same suite against the provable constant r/(r-1)."""
    rng = np.random.default_rng(SEED + 5)
    worst = -math.inf
    for q1, q2 in _continuity_pairs(rng, 100):
        dist = trace_distance(q1, q2)
        for r in (1.5, 2.0, 3.0):
            for s in (1.0, 2.0):
                gap = abs(hu_ye(q1, r, s) - hu_ye(q2, r, s))
                worst = max(worst, gap - dist * r / (r - 1))
    ok = worst <= 1e-12
    assert report(
        "criterion 7e' (companion: continuity with constant r/(r-1))",
        ok,
        f"worst excess {worst:.3e}",
    )


def test_criterion_7f_concavity():
    rng = np.random.default_rng(SEED + 6)
    regimes = ((0.5, 1.9), (0.3, 2.0), (1.5, 1.0), (2.0, 0.5), (2.0, 1.0))
    worst = math.inf
    for _ in range(100):
        d = int(rng.integers(2, 7))
        weights = rng.dirichlet(np.ones(3))
        parts = [ginibre_density(rng, d).mat for _ in range(3)]
        mix = sum(w * p for w, p in zip(weights, parts))
        for r, s in regimes:
            margin = hu_ye(mix, r, s) - sum(
                w * hu_ye(p, r, s) for w, p in zip(weights, parts)
            )
            worst = min(worst, margin)
    ok = worst >= -1e-10
    assert report(
        "criterion 7f (concavity in both parameter regimes)",
        ok,
        f"smallest mixture margin {worst:.3e}",
    )


def test_criterion_7g_triangle_inequality():
    rng = np.random.default_rng(SEED + 7)
    worst = -math.inf
    from entrodet import x_state_random

    for i in range(100):
        d = int(rng.integers(2, 4))
        if i % 2 == 0:
            q = x_state_random(d, SEED, index=i).mat
        else:
            q = ginibre_density(rng, d * d).mat
        for r in (1.5, 2.0):
            for s in (1.0 / r, 1.0):
                h = hu_ye(q, r, s)
                h_a = hu_ye(partial_trace(q, d, d, "A"), r, s)
                h_b = hu_ye(partial_trace(q, d, d, "B"), r, s)
                worst = max(worst, abs(h_a - h_b) - h)
    ok = worst <= 1e-10
    assert report(
        "criterion 7g (triangle inequality, r > 1, s >= 1/r)",
        ok,
        f"worst excess {worst:.3e}",
    )


# -------------------------------------------------------------------------
# 8. divergence witnesses
# -------------------------------------------------------------------------


def test_criterion_8_divergence_witnesses():
    probe = divergence_probe(power_law_generator(1.0), 0.5, 5.0)
    probe_ok = probe.reached and probe.index < 10_000

    s1 = log_power_spectrum(1.5, 10_000)
    s2 = log_power_spectrum(1.5, 20_000)
    dv = von_neumann(s2) - von_neumann(s1)
    dr = abs(vn_renormalized(s2) - vn_renormalized(s1))
    growth_ok = dv > 10.0 * dr

    ok = probe_ok and growth_ok
    assert report(
        "criterion 8 (divergence probe; renormalization stabilizes)",
        ok,
        f"threshold 5 reached at K = {probe.index}; "
        f"plain entropy moves {dv:.4f} vs renormalized {dr:.2e} "
        f"(ratio {dv / dr:.0f}x)",
    )


# -------------------------------------------------------------------------
# 9. operator bounds
# -------------------------------------------------------------------------


def _trace_f_r(lam: np.ndarray, r: float) -> float:
    return float(np.expm1(lam**r).sum())


def test_criterion_9a_trace_bounds_at_r1_and_upper():
    rng = np.random.default_rng(SEED + 8)
    ok = True
    for _ in range(100):
        lam = random_spectrum_values(rng, int(rng.integers(2, 9)))
        tf1 = _trace_f_r(lam, 1.0)
        ok = ok and 1.0 - 1e-12 <= tf1 <= math.e + 1e-12
        for r in (1.0, 1.5, 2.0, 4.0):
            ok = ok and _trace_f_r(lam, r) <= math.e + 1e-12
    assert report(
        "criterion 9a (trace bounds: both at r = 1, upper for all r >= 1)", ok
    )


@pytest.mark.xfail(
    strict=True,
    reason="false for r > 1: the derivation only yields I_r <= Tr f_r <= e I_r, "
    "and I_r < 1 on mixed states once r > 1; the maximally mixed 4-level state "
    "at r = 2 gives Tr f_r = 4 (e^(1/16) - 1) = 0.258",
)
def test_criterion_9b_trace_lower_bound_r_above_1():
    """1 <= Tr f_r(Q) for r in {1.5, 2, 4} over random states."""
    rng = np.random.default_rng(SEED + 8)
    ok = True
    worst = math.inf
    for _ in range(100):
        lam = random_spectrum_values(rng, int(rng.integers(2, 9)))
        for r in (1.5, 2.0, 4.0):
            tf = _trace_f_r(lam, r)
            worst = min(worst, tf)
            ok = ok and tf >= 1.0 - 1e-12
    assert report(
        "criterion 9b (lower trace bound 1 <= Tr f_r for r > 1)",
        ok,
        f"smallest Tr f_r seen: {worst:.4f}",
    )


def test_criterion_9b_companion_power_sum_sandwich():
    """The provable bound: I_r <= Tr f_r <= e I_r for every r >= 1."""
    rng = np.random.default_rng(SEED + 8)
    ok = True
    for _ in range(100):
        lam = random_spectrum_values(rng, int(rng.integers(2, 9)))
        for r in (1.0, 1.5, 2.0, 4.0):
            i_r = trace_power(lam, r)
            tf = _trace_f_r(lam, r)
            ok = ok and i_r - 1e-13 <= tf <= math.e * i_r + 1e-13
    assert report("criterion 9b' (companion: I_r <= Tr f_r <= e I_r)", ok)


def test_criterion_9c_determinant_bounds():
    rng = np.random.default_rng(SEED + 9)
    ok = True
    for _ in range(100):
        lam = random_spectrum_values(rng, int(rng.integers(2, 9)))
        for r in (1.0, 1.5, 2.0, 4.0):
            ld = log_det_r(lam, r)
            ok = ok and 0.0 - 1e-12 <= ld < math.e
    assert report("criterion 9c (determinant bounds 1 <= det_r < e^e)", ok)


def test_criterion_9d_alpha_sandwich():
    rng = np.random.default_rng(SEED + 10)
    ok = True
    for _ in range(100):
        lam = random_spectrum_values(rng, int(rng.integers(2, 17)))
        for r, alpha in ((0.5, 3), (0.4, 3)):
            assert alpha >= alpha_star(r)
            lhs = trace_power(lam, r * alpha)
            mid = float((np.expm1(lam**r) ** alpha).sum())
            ok = ok and lhs - 1e-13 <= mid <= math.e**alpha * lhs + 1e-13
    assert report(
        "criterion 9d (fractional-order sandwich at (r, alpha) = (0.5, 3), (0.4, 3))",
        ok,
    )
