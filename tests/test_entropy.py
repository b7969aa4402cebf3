import math
import warnings

import numpy as np
import pytest

from entrodet import (
    alpha_star,
    diag_state,
    divergence_probe,
    evaluate,
    EntropyParams,
    f_r,
    hu_ye,
    hy_bound,
    hy_fredholm,
    hy_renormalized,
    log_det_r,
    log_det_ren,
    log_power_spectrum,
    power_law_generator,
    renyi,
    trace_power,
    tsallis,
    vn_renormalized,
    vn_via_fredholm,
    von_neumann,
)
from entrodet.entropy import ProbeResult
from entrodet.errors import DomainError, FractionalPowerOfNegative, NotNormalized, NotPositive

from conftest import ginibre_density, random_spectrum_values

LN2 = 0.6931471805599453


class TestVonNeumann:
    def test_pure(self):
        assert von_neumann([1.0, 0.0]) == 0.0

    def test_uniform(self):
        assert von_neumann([0.5, 0.5]) == pytest.approx(LN2, abs=1e-15)

    def test_scalar_oracle(self):
        assert von_neumann([0.7, 0.3]) == pytest.approx(0.61086430205489346, abs=1e-15)

    def test_base_two(self):
        assert von_neumann([0.5, 0.5], log_base="2") == pytest.approx(1.0, abs=1e-15)

    def test_requires_normalization(self):
        with pytest.raises(NotNormalized):
            von_neumann([0.5, 0.4])


class TestVnViaFredholm:
    def test_pure(self):
        q = np.zeros((3, 3), dtype=complex)
        q[0, 0] = 1.0
        assert vn_via_fredholm(q) == pytest.approx(0.0, abs=1e-13)

    def test_maximally_mixed(self):
        # lam^-lam = sqrt(2) at lam = 1/2, so det = 2
        assert vn_via_fredholm(np.eye(2) / 2) == pytest.approx(LN2, abs=1e-14)

    def test_matches_direct_spectral(self, rng):
        for _ in range(20):
            q = ginibre_density(rng, 6)
            assert abs(vn_via_fredholm(q) - von_neumann(q)) < 1e-10


class TestVnRenormalized:
    def test_pure(self):
        assert vn_renormalized([1.0, 0.0]) == pytest.approx(0.0, abs=1e-15)

    def test_uniform_oracle(self):
        # ln 2 - 2 (sqrt(2) - 1)
        assert vn_renormalized([0.5, 0.5]) == pytest.approx(
            -0.13527994418624479, abs=1e-15
        )

    def test_identity_against_independent_path(self, rng):
        # same quantity through the power map lam^-lam rather than expm1
        for _ in range(50):
            lam = random_spectrum_values(rng, int(rng.integers(2, 30)))
            direct = vn_renormalized(lam)
            ref = von_neumann(lam) - float((lam ** (-lam) - 1.0).sum())
            assert abs(direct - ref) < 1e-12

    def test_equals_order2_matrix_determinant(self, rng):
        # log det_2(1 + f(Q)) = log det(1 + f(Q)) - Tr f(Q) on the matrix side
        lam = random_spectrum_values(rng, 8)
        q = diag_state(lam).mat
        fq = np.array(np.diag(lam ** (-lam) - 1.0))
        _, logdet = np.linalg.slogdet(np.eye(8) + fq)
        ref = logdet - fq.trace().real
        assert vn_renormalized(lam) == pytest.approx(ref, abs=1e-12)

    def test_stabilizes_where_plain_entropy_grows(self):
        s1 = log_power_spectrum(1.5, 10_000)
        s2 = log_power_spectrum(1.5, 20_000)
        dv = von_neumann(s2) - von_neumann(s1)
        dr = abs(vn_renormalized(s2) - vn_renormalized(s1))
        assert dv > 0.05
        assert dr < dv / 10


class TestTsallisRenyi:
    def test_pure(self):
        assert tsallis([1.0, 0.0], 2) == pytest.approx(0.0, abs=1e-15)
        assert renyi([1.0, 0.0], 2) == pytest.approx(0.0, abs=1e-15)

    def test_uniform(self):
        assert tsallis([0.5, 0.5], 2) == pytest.approx(0.5, abs=1e-15)
        assert renyi([0.5, 0.5], 2) == pytest.approx(LN2, abs=1e-15)

    def test_scalar_oracles(self):
        assert tsallis([0.7, 0.3], 2) == pytest.approx(0.42, abs=1e-15)
        assert renyi([0.7, 0.3], 2) == pytest.approx(0.54472717544167203, abs=1e-15)

    def test_domain(self):
        for r in (1.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                tsallis([0.5, 0.5], r)
            with pytest.raises(DomainError):
                renyi([0.5, 0.5], r)


class TestHuYe:
    def test_pure_is_zero(self):
        # zero exactly on the pure boundary
        assert hu_ye([1.0, 0.0], 2, 0.5) == pytest.approx(0.0, abs=1e-15)

    def test_uniform_oracle(self):
        assert hu_ye([0.5, 0.5], 2, 0.5) == pytest.approx(0.58578643762690495, abs=1e-15)

    def test_scalar_oracle(self):
        assert hu_ye([0.7, 0.3], 2, 0.5) == pytest.approx(0.47684537882721834, abs=1e-15)

    def test_domain(self):
        for r, s in ((1.0, 0.5), (0.0, 0.5), (-2, 1), (2, 0.0),
                     (math.nan, 0.5), (math.inf, 0.5), (2, math.nan), (2, math.inf)):
            with pytest.raises(DomainError):
                hu_ye([0.5, 0.5], r, s)

    def test_trace_power_domain(self):
        for r in (0.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                trace_power([0.5, 0.5], r)

    def test_limits_spot(self, rng):
        lam = random_spectrum_values(rng, 6)
        assert hu_ye(lam, 2, 1 + 1e-6) == pytest.approx(tsallis(lam, 2), abs=1e-4)
        assert hu_ye(lam, 2, 1e-6) == pytest.approx(renyi(lam, 2), abs=1e-4)
        assert hu_ye(lam, 1 + 1e-6, 1.0) == pytest.approx(von_neumann(lam), abs=1e-4)


class TestHyBound:
    def test_rank_one(self):
        assert hy_bound(1, 2, 0.5) == pytest.approx(0.0, abs=1e-15)

    def test_matches_uniform_tsallis(self):
        assert hy_bound(2, 2, 1) == pytest.approx(0.5, abs=1e-15)
        assert hy_bound(2, 2, 1) == pytest.approx(tsallis([0.5, 0.5], 2), abs=1e-15)

    def test_scalar_oracle(self):
        assert hy_bound(4, 2, 0.5) == pytest.approx(1.0, abs=1e-15)

    def test_saturated_by_uniform(self, rng):
        for d in (2, 3, 5, 8):
            lam = np.full(d, 1.0 / d)
            for r, s in ((2, 0.5), (0.5, 1.5), (3, 2)):
                assert hu_ye(lam, r, s) == pytest.approx(hy_bound(d, r, s), rel=1e-13)

    def test_domain(self):
        with pytest.raises(DomainError):
            hy_bound(0, 2, 1)


class TestFr:
    def test_pure(self):
        m = f_r(np.diag([1.0, 0.0]).astype(complex), 2)
        got = np.sort(np.linalg.eigvalsh(m))
        assert np.allclose(got, [0.0, np.e - 1.0], atol=1e-14)

    def test_maximally_mixed_r1(self):
        m = f_r(np.eye(2) / 2, 1)
        assert np.abs(m - np.expm1(0.5) * np.eye(2)).max() < 1e-14

    def test_scalar_oracle(self):
        m = f_r(np.diag([0.7, 0.3]).astype(complex), 2)
        got = np.sort(np.diag(m).real)
        assert np.allclose(got, [0.094174283705210358, 0.63231621995537897], atol=1e-14)

    def test_psd(self, rng):
        q = ginibre_density(rng, 5)
        assert np.linalg.eigvalsh(f_r(q, 1.5)).min() > -1e-12


class TestDetR:
    def test_pure(self):
        assert math.exp(log_det_r([1.0, 0.0], 2)) == pytest.approx(np.e, rel=1e-14)

    def test_scalar_oracle(self):
        assert math.exp(log_det_r([0.7, 0.3], 2)) == pytest.approx(1.7860384307500734, rel=1e-14)

    def test_any_normalized_at_r1(self, rng):
        for _ in range(10):
            lam = random_spectrum_values(rng, int(rng.integers(2, 12)))
            assert math.exp(log_det_r(lam, 1)) == pytest.approx(np.e, rel=1e-13)

    def test_log_identity_trace_power(self, rng):
        # log det(1 + f_r) accumulates to the trace power sum exactly
        for _ in range(100):
            lam = random_spectrum_values(rng, int(rng.integers(2, 65)))
            r = float(rng.uniform(0.3, 4.0))
            assert abs(log_det_r(lam, r) - trace_power(lam, r)) < 1e-12

    def test_matrix_path_matches_spectrum_path(self, rng):
        q = ginibre_density(rng, 6)
        lam = np.linalg.eigvalsh(q.mat)
        assert log_det_r(q, 2) == pytest.approx(log_det_r(np.clip(lam, 0, None), 2), abs=1e-11)

    def test_direct_product_identity(self, rng):
        lam = random_spectrum_values(rng, 10)
        assert math.exp(log_det_r(lam, 2)) == pytest.approx(float(np.prod(np.exp(lam**2))), rel=1e-13)

    def test_bounds_r_above_one(self, rng):
        for _ in range(100):
            lam = random_spectrum_values(rng, int(rng.integers(2, 9)))
            for r in (1.5, 2, 4):
                v = math.exp(log_det_r(lam, r))
                assert 1.0 <= v < np.e**np.e

    def test_exponential_relation_to_unified_entropy(self, rng):
        # I_r = 1 + (1 - r) HY_r^1, so det(1 + f_r) = exp(1 + (1 - r) HY_r^1)
        from entrodet import zeta_spectrum

        for lam in (random_spectrum_values(rng, 12), zeta_spectrum(2, 2, 50).values):
            for r in (1.5, 2.0, 3.0):
                lhs = math.exp(log_det_r(lam, r))
                rhs = math.exp(1.0 + (1.0 - r) * hu_ye(lam, r, 1.0))
                assert lhs == pytest.approx(rhs, rel=1e-12)


class TestAlphaStar:
    @pytest.mark.parametrize("r,expected", [(0.5, 2), (0.4, 3), (0.9, 2), (0.25, 4), (1 / 3, 3)])
    def test_values(self, r, expected):
        assert alpha_star(r) == expected

    def test_domain(self):
        for r in (0.0, 1.0, 1.5, -0.3):
            with pytest.raises(DomainError):
                alpha_star(r)


class TestDetRen:
    def test_single_eigenvalue(self):
        # g(1) = e - 1, log(1+g) = 1, term = 2 - e
        assert log_det_ren([1.0], 0.5, 2) == pytest.approx(2 - np.e, abs=1e-15)
        assert math.exp(log_det_ren([1.0], 0.5, 2)) == pytest.approx(np.exp(2 - np.e), rel=1e-14)

    def test_scalar_oracle(self):
        assert log_det_ren([0.7, 0.3], 0.5, 2) == pytest.approx(
            -0.65357081950623908, abs=1e-14
        )

    def test_empty_spectrum(self):
        assert log_det_ren(np.array([]), 0.5, 2) == 0.0

    def test_alpha_two_terms_nonpositive(self, rng):
        for _ in range(20):
            lam = random_spectrum_values(rng, int(rng.integers(1, 20)))
            assert log_det_ren(lam, 0.5, 2) <= 1e-15

    def test_alpha_below_minimum(self):
        with pytest.raises(DomainError):
            log_det_ren([0.5, 0.5], 0.4, 2)  # alpha_star(0.4) = 3

    def test_consistency_with_plain_determinant(self, rng):
        # log det_alpha = log det + sum_j (-1)^j Tr(f_r^j) / j on finite spectra
        for _ in range(30):
            lam = random_spectrum_values(rng, int(rng.integers(2, 25)))
            r = float(rng.uniform(0.2, 0.9))
            alpha = alpha_star(r) + int(rng.integers(0, 2))
            g = np.expm1(lam**r)
            corr = sum(((-1.0) ** j / j) * float((g**j).sum()) for j in range(1, alpha))
            assert abs(log_det_ren(lam, r, alpha) - (log_det_r(lam, r) + corr)) < 1e-12


class TestHyFredholm:
    def test_pure(self):
        assert hy_fredholm([1.0, 0.0], 2, 1) == pytest.approx(0.0, abs=1e-14)

    def test_matches_hu_ye_uniform(self):
        assert hy_fredholm([0.5, 0.5], 2, 0.5) == pytest.approx(
            hu_ye([0.5, 0.5], 2, 0.5), abs=1e-15
        )

    def test_matches_hu_ye_random(self, rng):
        worst = 0.0
        for _ in range(100):
            lam = random_spectrum_values(rng, int(rng.integers(2, 20)))
            worst = max(worst, abs(hy_fredholm(lam, 3, 2) - hu_ye(lam, 3, 2)))
        assert worst < 1e-12

    def test_requires_r_above_one(self):
        with pytest.raises(DomainError):
            hy_fredholm([0.5, 0.5], 0.5, 1)


class TestHyRenormalized:
    def test_single_eigenvalue_oracle(self):
        assert hy_renormalized([1.0], 0.5, 1) == pytest.approx(
            -3.4365636569180905, abs=1e-14
        )

    def test_scalar_oracle(self):
        assert hy_renormalized([0.7, 0.3], 0.5, 1) == pytest.approx(
            -3.3071416390124782, abs=1e-13
        )

    def test_fractional_power_of_negative(self):
        with pytest.raises(FractionalPowerOfNegative):
            hy_renormalized([0.7, 0.3], 0.5, 0.5)

    def test_integer_s_allowed(self):
        v = hy_renormalized([0.7, 0.3], 0.5, 2)
        assert math.isfinite(v)

    def test_auto_alpha(self):
        assert hy_renormalized([0.7, 0.3], 0.5, 1) == hy_renormalized(
            [0.7, 0.3], 0.5, 1, alpha=2
        )

    def test_domain(self):
        with pytest.raises(DomainError):
            hy_renormalized([0.5, 0.5], 2.0, 1)


class TestDivergenceProbe:
    def test_threshold_zero(self):
        probe = divergence_probe(power_law_generator(1.0), 0.5, 0.0)
        assert probe.reached and probe.index == 1

    def test_harmonic_growth_crossing(self):
        # lam_k ~ k^-2 at order 0.5 gives harmonic partial sums
        lam = power_law_generator(1.0)
        probe = divergence_probe(lam, 0.5, 5.0)
        assert probe.reached
        # brute-force oracle for the crossing index
        ks = np.arange(1, probe.index + 1, dtype=float)
        sums = np.cumsum(lam(ks) ** 0.5)
        assert sums[-1] > 5.0
        assert np.all(sums[:-1] <= 5.0)

    def test_convergent_sum_not_reached(self):
        probe = divergence_probe(power_law_generator(1.0), 0.9, 10.0, k_max=10**7)
        assert not probe.reached
        assert probe.index == 10**7
        # p-series bound: the full sum is zeta(1.8)/zeta(2)^0.9 < 2
        assert probe.partial_sum < 2.0

    @pytest.mark.parametrize("threshold", [1.0, 7.0, 1e9])
    @pytest.mark.parametrize("chunk", [1000, 1_000_000])
    def test_equal_to_reference_loop(self, threshold, chunk):
        # with chunk = 1000 the thresholds cross in the first chunk, in a
        # later one, and never; the reference is the loop this one replaced
        def reference(lam_of_k, r, threshold, k_max, chunk):
            total = 0.0
            start = 1
            while start <= k_max:
                stop = min(start + chunk - 1, k_max)
                vals = np.asarray(lam_of_k(np.arange(start, stop + 1, dtype=float)), dtype=float)
                partial = total + np.cumsum(vals**r)
                hits = np.nonzero(partial > threshold)[0]
                if hits.size:
                    i = int(hits[0])
                    return ProbeResult(True, start + i, float(partial[i]))
                total = float(partial[-1])
                start = stop + 1
            return ProbeResult(False, k_max, total)

        lam = power_law_generator(1.0)
        want = reference(lam, 0.5, threshold, 50_000, chunk)
        got = divergence_probe(lam, 0.5, threshold, k_max=50_000, chunk=chunk)
        assert got == want
        if chunk == 1000:
            assert (got.reached, got.index > chunk) == {1.0: (True, False), 7.0: (True, True),
                                                        1e9: (False, True)}[threshold]

    def test_domain(self):
        for r in (0.0, math.nan):
            with pytest.raises(DomainError):
                divergence_probe(power_law_generator(1.0), r, 1.0)
        with pytest.raises(DomainError):
            divergence_probe(power_law_generator(1.0), 0.5, 1.0, chunk=0)
        with pytest.raises(DomainError):
            divergence_probe(power_law_generator(1.0), 0.5, math.nan)


class TestSandwichBounds:
    def test_trace_power_sandwich_r_ge_1(self, rng):
        # I_r <= Tr f_r <= e I_r follows from x <= e^x - 1 <= e x on [0,1]
        for _ in range(50):
            lam = random_spectrum_values(rng, int(rng.integers(2, 16)))
            for r in (1.0, 1.5, 2.0, 4.0):
                i_r = trace_power(lam, r)
                tf = float(np.expm1(lam**r).sum())
                assert i_r - 1e-14 <= tf <= np.e * i_r + 1e-14

    def test_alpha_power_sandwich_r_below_1(self, rng):
        for _ in range(50):
            lam = random_spectrum_values(rng, int(rng.integers(2, 16)))
            for r, alpha in ((0.5, 3), (0.4, 3)):
                lhs = trace_power(lam, r * alpha)
                mid = float((np.expm1(lam**r) ** alpha).sum())
                rhs = np.e**alpha * lhs
                assert lhs - 1e-14 <= mid <= rhs + 1e-14


class TestEvaluate:
    def test_vn_kind(self):
        res = evaluate("vn", [0.5, 0.5])
        assert res.value == pytest.approx(LN2, abs=1e-15)
        assert res.method == "direct-spectral"
        assert not res.divergent

    def test_hy_ren_kind_resolves_alpha(self):
        res = evaluate("hy-ren", [0.7, 0.3], EntropyParams(r=0.5, s=1))
        assert res.diagnostics["alpha"] == 2
        assert res.method == "renormalized"

    def test_hy_fredholm_diagnostics(self):
        res = evaluate("hy-fredholm", [0.7, 0.3], EntropyParams(r=2, s=0.5))
        assert res.diagnostics["log_det"] == pytest.approx(0.58, abs=1e-13)
        assert res.method == "fredholm"

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            evaluate("shannon", [0.5, 0.5])

    def test_matrix_input(self, rng):
        q = ginibre_density(rng, 4)
        res = evaluate("hy", q, EntropyParams(r=2, s=0.5))
        assert res.value == pytest.approx(hu_ye(q, 2, 0.5), abs=1e-14)


NON_PSD = np.diag([1.1, -0.1])  # Hermitian, unit trace, one negative eigenvalue


@pytest.mark.parametrize("fn", [
    von_neumann,
    lambda x: tsallis(x, 2),
    lambda x: renyi(x, 2),
    lambda x: hu_ye(x, 2, 0.5),
    vn_renormalized,
    lambda x: log_det_ren(x, 0.5),
    lambda x: evaluate("vn", x),
], ids=["von_neumann", "tsallis", "renyi", "hu_ye", "vn_renormalized", "log_det_ren", "evaluate"])
def test_bare_non_psd_matrix_rejected(fn):
    with pytest.raises(NotPositive):
        fn(NON_PSD)


class TestDiagnostics:
    LAM = np.array([0.5, 0.3, 0.15, 0.05])

    @pytest.mark.parametrize("kind,params,expected", [
        ("vn", EntropyParams(), {}),
        ("vn-ren", EntropyParams(), {"alpha": 2}),
        ("tsallis", EntropyParams(r=2.5), {"trace_power": lambda lam: trace_power(lam, 2.5)}),
        ("renyi", EntropyParams(r=0.5), {"trace_power": lambda lam: trace_power(lam, 0.5)}),
        ("hy", EntropyParams(r=3, s=0.5), {"trace_power": lambda lam: trace_power(lam, 3)}),
        ("hy-fredholm", EntropyParams(r=2, s=0.5),
         {"log_det": lambda lam: float((lam**2).sum())}),  # I_r
        ("hy-ren", EntropyParams(r=0.4, s=2),
         {"alpha": 3, "log_det": lambda lam: log_det_ren(lam, 0.4, 3)}),
        ("hy-ren", EntropyParams(r=0.4, s=2, alpha=4),
         {"alpha": 4, "log_det": lambda lam: log_det_ren(lam, 0.4, 4)}),
    ])
    def test_each_diagnostic_is_its_statistic(self, kind, params, expected):
        res = evaluate(kind, self.LAM, params)
        assert set(res.diagnostics) == {"dim", *expected}
        assert res.diagnostics["dim"] == 4
        for key, want in expected.items():
            want = want(self.LAM) if callable(want) else want
            assert res.diagnostics[key] == pytest.approx(want, rel=1e-15, abs=1e-15)

    def test_values_match_public_functions(self):
        lam = self.LAM
        cases = [
            ("vn", EntropyParams(log_base="2"), von_neumann(lam, "2")),
            ("vn-ren", EntropyParams(), vn_renormalized(lam)),
            ("tsallis", EntropyParams(r=2.5), tsallis(lam, 2.5)),
            ("renyi", EntropyParams(r=0.5, log_base="2"), renyi(lam, 0.5, "2")),
            ("hy", EntropyParams(r=3, s=0.5), hu_ye(lam, 3, 0.5)),
            ("hy-fredholm", EntropyParams(r=2, s=0.5), hy_fredholm(lam, 2, 0.5)),
            ("hy-ren", EntropyParams(r=0.4, s=2), hy_renormalized(lam, 0.4, 2)),
        ]
        for kind, params, want in cases:
            assert evaluate(kind, lam, params).value == want, kind

    def test_log_det_r_is_the_power_sum_past_the_exp_range(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert log_det_r([1000.0], 1) == 1000.0
            assert log_det_r([30.0, 20.0], 2) == 1300.0
