import math
import sys
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, event, given, settings, strategies as st

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
from entrodet import entropy, linalg
from entrodet.entropy import ProbeResult, _hu_ye_own_rows
from entrodet.errors import (
    DimensionMismatch,
    DomainError,
    FractionalPowerOfNegative,
    NotNormalized,
    NotPositive,
)
from entrodet.fredholm import zeta_series
from entrodet.linalg import PSD_TOL, Spectrum, _positive_prefix, as_spectrum
from entrodet.states import _PowerLaw

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

    @pytest.mark.parametrize("base", ["natural", "two"])
    def test_only_bases_e_and_2(self, base):
        with pytest.raises(DomainError):
            von_neumann([0.5, 0.5], log_base=base)

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

    def test_requires_normalization(self):
        # det(1 + f(Q)) exists here, but it is no state's entropy
        for fn in (vn_via_fredholm, von_neumann):
            with pytest.raises(NotNormalized):
                fn(np.diag([0.3, 0.3]))


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

    @pytest.mark.parametrize("r", [0.5, 1 - 2**-53, 1 + 2**-52])
    @pytest.mark.parametrize("s", [5e-324, -5e-324])
    def test_denominator_underflow(self, r, s):
        # (1 - r) s rounds to 0: the quotient was 0 / 0, a ZeroDivisionError here
        # and NaN on a stack. At such s the value is the s -> 0 limit, the Renyi
        # entropy, to far below the float precision
        lam = [0.7, 0.2, 0.1]
        want = renyi(lam, r)
        assert hu_ye(lam, r, s) == pytest.approx(want, rel=1e-15, abs=0.0)
        assert _hu_ye_own_rows(np.array([lam, lam]), r, s) == pytest.approx([want] * 2, rel=1e-15)


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

    @pytest.mark.parametrize("r, s", [(0.5, 5e-324), (1 + 2**-52, -5e-324)])
    def test_exponent_underflow(self, r, s):
        # (1 - r) s rounds to 0: the bound is the s -> 0 limit log d, not 0 / 0
        assert hy_bound(3, r, s) == math.log(3)
        assert hy_bound(1, r, s) == 0.0

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

    def test_order_whose_reciprocal_overflows(self):
        # 1 / r is inf below 1 / (float max): it raised OverflowError from int(inf)
        tiny = 1.0 / sys.float_info.max
        for r in (5e-324, 1e-310, tiny):
            with pytest.raises(DomainError, match="deformation order r"):
                alpha_star(r)
            with pytest.raises(DomainError, match="deformation order r"):
                hy_renormalized([0.5, 0.5], r, 1.0)
        above = math.nextafter(tiny, 1.0)
        assert alpha_star(above) == math.ceil(1.0 / above)


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

    @pytest.mark.parametrize("r, alpha, want", [(0.6, 2, -math.inf), (0.45, 3, math.inf),
                                                (0.45, 4, -math.inf)])
    def test_overflow_is_the_signed_top_term(self, r, alpha, want):
        # 1e7^0.45 = 1412.5 > 709.78, so expm1 overflows; alpha >= 3 made -inf + inf = NaN
        assert log_det_ren([1e7], r, alpha) == want
        assert log_det_ren([1e7, 1.0, 0.0], r, alpha) == want

    @pytest.mark.parametrize("r, alpha", [(0.6, 2), (0.45, 3), (0.45, 5)])
    def test_overflow_threshold(self, r, alpha):
        # finite while g^(alpha-1) stays in range at the largest eigenvalue
        edge = math.log(np.finfo(float).max) / (alpha - 1)  # log g at the threshold
        below = log_det_ren([(edge - 0.01) ** (1 / r)], r, alpha)
        above = log_det_ren([(edge + 0.01) ** (1 / r)], r, alpha)
        assert math.isfinite(below)
        assert above == math.copysign(math.inf, (-1) ** (alpha - 1))

    def test_sum_past_the_float_range(self):
        # each term 7.5e307 is finite; three of them sum past the range
        lam = [354.8 ** (1 / 0.45)] * 3
        assert math.isfinite(log_det_ren(lam[:1], 0.45, 3))
        assert log_det_ren(lam, 0.45, 3) == math.inf

    def test_overflow_in_evaluate(self):
        res = evaluate("hy-ren", [1e7, 1.0], EntropyParams(r=0.45))
        assert res.value == math.inf
        assert res.divergent
        assert res.diagnostics["log_det"] == math.inf
        assert res.diagnostics["alpha"] == 3

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
    def test_equal_to_reference_loop(self, monkeypatch, threshold, chunk):
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
        scan = lambda ks: lam(ks)  # a black box, so the probe takes the scan route
        want = reference(scan, 0.5, threshold, 50_000, chunk)
        monkeypatch.setattr(entropy, "_PROBE_CHUNK", chunk)
        got = divergence_probe(scan, 0.5, threshold, k_max=50_000)
        assert got == want
        if chunk == 1000:
            assert (got.reached, got.index > chunk) == {1.0: (True, False), 7.0: (True, True),
                                                        1e9: (False, True)}[threshold]

    def test_domain(self):
        for r in (0.0, math.nan):
            with pytest.raises(DomainError):
                divergence_probe(power_law_generator(1.0), r, 1.0)
        with pytest.raises(DomainError):
            divergence_probe(power_law_generator(1.0), 0.5, math.nan)

    @pytest.mark.parametrize("route", ["closed-form", "scan"])
    @pytest.mark.parametrize("counts", [{"k_max": 2.5}, {"k_max": math.nan}, {"k_max": 0},
                                        {"k_max": -5},
                                        # integer-valued floats are not integers
                                        {"k_max": 3.0}, {"k_max": np.float64(100.0)},
                                        # past 2**53 indices are not exact doubles
                                        {"k_max": 2**53 + 1}, {"k_max": 10**400}])
    def test_counts_checked_before_any_work(self, route, counts):
        lam = power_law_generator(1.0)
        calls = []
        gen = lam if route == "closed-form" else lambda ks: calls.append(ks) or lam(ks)
        with pytest.raises(DomainError):
            divergence_probe(gen, 0.5, 1.0, **counts)
        assert calls == []

    def test_integer_like_counts_accepted(self):
        got = divergence_probe(power_law_generator(1.0), 0.5, 3.0, k_max=np.int64(100))
        assert got == divergence_probe(power_law_generator(1.0), 0.5, 3.0, k_max=100)
        assert type(got.index) is int

    @pytest.mark.parametrize("bad, error", [
        (lambda ks: np.where(ks == 40, math.nan, 1.0 / ks**2), NotPositive),
        (lambda ks: np.where(ks == 40, math.inf, 1.0 / ks**2), NotPositive),
        (lambda ks: -1.0 / ks**2, NotPositive),
        (lambda ks: 1.0 / ks[:3] ** 2, DimensionMismatch),
    ], ids=["nan", "inf", "negative", "short-chunk"])
    def test_scan_refuses_bad_generator_output(self, monkeypatch, bad, error):
        monkeypatch.setattr(entropy, "_PROBE_CHUNK", 60)
        with pytest.raises(error):
            divergence_probe(bad, 0.5, 1e9, k_max=100)

    def test_scan_names_the_bad_index(self, monkeypatch):
        monkeypatch.setattr(entropy, "_PROBE_CHUNK", 60)
        with pytest.raises(NotPositive, match="lam_70 = nan"):
            divergence_probe(lambda ks: np.where(ks == 70, math.nan, 1.0 / ks**2), 0.5, 1e9,
                             k_max=100)


class TestPowerLawPartialSums:
    """The closed-form route of divergence_probe on power_law_generator."""

    @pytest.mark.parametrize("eps", [0.3, 1.0, 2.5])
    def test_values_unchanged(self, eps):
        ks = np.concatenate([np.arange(1.0, 2000.0), [1e6, 1e9, 1e12]])
        want = ks ** -(1 + eps) / zeta_series(1 + eps)
        assert power_law_generator(eps)(ks).tobytes() == want.tobytes()

    # s = r (1 + eps) below, at, within 2e-9 of, and above 1
    @pytest.mark.parametrize("eps, r", [(1.0, 0.3), (0.3, 0.5), (1.0, 0.5), (0.5, 2 / 3),
                                        (1.0, 0.5 - 1e-9), (1.0, 0.5 + 1e-9),
                                        (0.3, 1.0), (1.0, 0.9), (1.5, 1.0)])
    @pytest.mark.parametrize("k", [1, 10, 1023, 1024, 1025, 5000, 10**5, 10**7, 10**9, 10**12])
    def test_power_sum_against_mpmath(self, eps, r, k):
        lam = power_law_generator(eps)
        s = r * (1.0 + eps)  # the exponent the sum is taken at, as a double
        with mpmath.workdps(50):
            head = mpmath.harmonic(k) if s == 1 else mpmath.zeta(s) - mpmath.zeta(s, k + 1)
            want = mpmath.mpf(lam.z) ** -r * head
            got = lam.power_sum(r, k)
            assert abs(got - want) <= 1e-14 * want

    @pytest.mark.parametrize("eps, r, thresholds", [
        (1.0, 0.5, [0.5, 0.9, 3.0, 5.0, 8.0]),
        (0.5, 0.6, [1.5, 5.0, 12.0]),
        (2.0, 0.3, [0.9, 3.0, 12.0]),
        (0.3, 0.9, [0.9, 1.5, 1.8]),  # convergent, to 1.87: the last is not reached
    ])
    def test_crossing_against_cumsum(self, eps, r, thresholds):
        lam = power_law_generator(eps)
        k_max = 10**6
        sums = np.cumsum(lam(np.arange(1, k_max + 1, dtype=float)) ** r)
        for t in thresholds:
            got = divergence_probe(lam, r, t, k_max=k_max)
            crossed = np.flatnonzero(sums > t)
            if crossed.size:
                assert (got.reached, got.index) == (True, int(crossed[0]) + 1)
                assert got.partial_sum == pytest.approx(sums[got.index - 1], rel=1e-13)
            else:
                assert (got.reached, got.index) == (False, k_max)
                assert got.partial_sum == pytest.approx(sums[-1], rel=1e-13)

    @settings(max_examples=80, deadline=None)
    @given(eps=st.floats(0.1, 3.0), r=st.floats(0.1, 1.5), threshold=st.floats(0.0, 30.0),
           k_max=st.integers(1, 30_000))
    def test_closed_form_agrees_with_scan(self, eps, r, threshold, k_max):
        lam = power_law_generator(eps)
        fast = divergence_probe(lam, r, threshold, k_max=k_max)
        scan = divergence_probe(lambda ks: lam(ks), r, threshold, k_max=k_max)
        if (fast.reached, fast.index) != (scan.reached, scan.index):
            # the routes round differently, so they may part only where a scan
            # partial sum (one chunk here: a plain cumsum) lies within rounding
            # of the threshold
            k = min(fast.index, scan.index)
            near = np.cumsum(lam(np.arange(1, k + 1, dtype=float)) ** r)[-1]
            event("routes part at a partial sum within rounding of the threshold")
            assert abs(near - threshold) <= 1e-12 * threshold
        else:
            # a running sum of k positive terms is off by at most about k ulps
            assert fast.partial_sum == pytest.approx(scan.partial_sum,
                                                     rel=(k_max + 8) * np.finfo(float).eps)

    @pytest.mark.parametrize("threshold", [20.0, 1e9])  # crossing near 1e11, and none
    def test_probe_to_1e12_takes_log_many_sums(self, monkeypatch, threshold):
        k_max = 10**12
        budget = 2 * math.ceil(math.log2(k_max)) + 2
        sums = []
        power_sum = _PowerLaw.power_sum

        def counted_power_sum(self, r, k):
            sums.append(k)
            if len(sums) > budget:  # fail at once rather than walk a search out to 1e12
                raise AssertionError(f"more than {budget} partial sums")
            return power_sum(self, r, k)

        def forbidden_call(self, ks):
            raise AssertionError("the closed-form route evaluated the generator")

        monkeypatch.setattr(_PowerLaw, "power_sum", counted_power_sum)
        monkeypatch.setattr(_PowerLaw, "__call__", forbidden_call)
        got = divergence_probe(power_law_generator(1.0), 0.5, threshold, k_max=k_max)
        assert got.reached == (threshold == 20.0)
        assert len(sums) <= budget


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
    lambda x: log_det_r(x, 2),
    lambda x: f_r(x, 2),
    vn_via_fredholm,
], ids=["von_neumann", "tsallis", "renyi", "hu_ye", "vn_renormalized", "log_det_ren", "evaluate",
        "log_det_r", "f_r", "vn_via_fredholm"])
def test_bare_non_psd_matrix_rejected(fn):
    with pytest.raises(NotPositive):
        fn(NON_PSD)


@pytest.mark.parametrize("bad_row,error,message", [
    ([np.nan, 1.0], NotPositive, "row 1: spectrum has non-finite values"),
    ([1.5, -0.5], NotPositive, "row 1: negative spectrum value -5.000e-01"),
    ([0.5, 0.4], NotNormalized, "row 1: spectrum sums to 0.9, expected 1"),
])
def test_hu_ye_rows_rejects_what_hu_ye_rejects(bad_row, error, message):
    # the stack kernel of the X-state sweep admits its rows by hu_ye's policy
    with pytest.raises(error):
        hu_ye(bad_row, 2, 0.5)
    rows = np.array([[1.0, 0.0], bad_row, [0.5, 0.5]])
    with pytest.raises(error, match=message):
        _hu_ye_own_rows(rows, 2, 0.5)


def test_hu_ye_rows_clamps_as_hu_ye():
    good = np.array([[1.0 + 5e-11, -5e-11], [0.5, 0.5]])
    assert _hu_ye_own_rows(good.copy(), 2, 0.5).tolist() == [hu_ye(row, 2, 0.5) for row in good]


class TestPastTheFloatRange:
    # the maximally mixed qubit: I_3 = 0.25, and I_2000 = 2^-1999 underflows to 0
    QUBIT = [0.5, 0.5]

    def test_overflowing_power_is_infinite(self):
        # 0.25^-2000 = 2^4000 is past the float range; the stack path gives the same inf
        assert hu_ye(self.QUBIT, 3, -2000) == math.inf
        assert hy_fredholm(self.QUBIT, 3, -2000) == math.inf
        with np.errstate(over="ignore"):
            assert _hu_ye_own_rows(np.array([self.QUBIT]), 3, -2000).tolist() == [math.inf]
        res = evaluate("hy", self.QUBIT, EntropyParams(r=3, s=-2000))
        assert res.value == math.inf
        assert res.divergent
        assert res.diagnostics["trace_power"] == 0.25

    def test_overflowing_bound_is_infinite(self):
        assert hy_bound(10, 0.5, 1000) == math.inf
        assert math.isfinite(hy_bound(10, 0.5, 100))

    @pytest.mark.parametrize("s, alpha, want", [(1000, 2, math.inf), (1001, 2, -math.inf),
                                                (300.5, 3, math.inf)])
    def test_overflowing_renormalized_power_keeps_its_sign(self, s, alpha, want):
        # log det_alpha of [5] at r = 1/2 is -6.13 for alpha = 2, where an odd power
        # stays negative, and 28.8 for alpha = 3
        assert hy_renormalized([5.0], 0.5, s, alpha) == want
        assert evaluate("hy-ren", [5.0], EntropyParams(r=0.5, s=s, alpha=alpha)).divergent

    @pytest.mark.parametrize("fn", [
        lambda x: renyi(x, 2000),
        lambda x: renyi(x, 2000, log_base="2"),
        lambda x: hu_ye(x, 2000, -1),
        lambda x: hy_fredholm(x, 2000, -0.5),
        lambda x: evaluate("renyi", x, EntropyParams(r=2000)),
        lambda x: evaluate("hy", x, EntropyParams(r=2000, s=-1)),
    ], ids=["renyi", "renyi-base", "hu_ye", "hy_fredholm", "evaluate-renyi", "evaluate-hy"])
    def test_underflowing_power_sum_is_a_domain_error(self, fn):
        with pytest.raises(DomainError, match="underflows to 0 at r = 2000"):
            fn(self.QUBIT)

    def test_underflowing_power_sum_keeps_finite_maps(self):
        # Tsallis and s > 0 need no log and no negative power of I_r = 0
        assert tsallis(self.QUBIT, 2000) == 1 / 1999
        assert hu_ye(self.QUBIT, 2000, 1) == 1 / 1999
        assert hu_ye(self.QUBIT, 2000, 0.5) == 1 / 999.5

    def test_zero_log_det_to_a_negative_power_is_a_domain_error(self):
        with pytest.raises(DomainError, match="log det_ren = 0"):
            hy_renormalized([0.0, 0.0], 0.5, -1)

    def test_renormalized_map_folds_negative_zero(self):
        # (-1)^-2 = 1, so the quotient is 0 / ((1 - r) s) = 0 / -1 = -0.0 before the fold
        value = entropy._route("hy-ren", EntropyParams(r=0.5, s=-2))[2](-1.0)
        assert value == 0.0 and math.copysign(1.0, value) == 1.0


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


# The kernels read the positive prefix of admitted values in place. These
# oracles are the masked formulas they replaced; the results must agree bit
# for bit, since the operands and the order of operations are the same.


def _oracle_power_sum(lam, r):
    pos = lam[lam > 0]
    return float((pos**r).sum())


def _oracle_von_neumann(lam):
    lam = lam[lam > 0]
    return max(float(-(lam * np.log(lam)).sum()), 0.0) + 0.0  # +0.0 folds away -0.0


def _oracle_vn_renormalized(lam):
    lam = lam[lam > 0]
    ent = -lam * np.log(lam)
    return float((ent - np.expm1(ent)).sum())


def _oracle_log_det_ren(lam, r, alpha):
    acc = lam[lam > 0] ** r
    g = np.expm1(acc)
    gj = np.ones_like(g)
    for j in range(1, alpha):
        gj = gj * g
        acc = acc + ((-1) ** j / j) * gj
    return float(acc.sum())


@st.composite
def _admitted_values(draw, normalized=False, stretch=None):
    """Raw values whose admission leaves trailing zeros, clamped negatives and -0.0.

    With ``stretch = (lo, hi)`` the drawn values are repeated to a drawn length
    in that range, on a falling scale, since drawing each value is slow.
    """
    pos = draw(st.lists(st.floats(5e-324, 1.0), max_size=200))
    if stretch is not None:
        n = draw(st.integers(*stretch))
        pos = (np.resize(pos or [1.0], n) * np.linspace(1.0, 0.5, n)).tolist()
    zeros = [0.0] * draw(st.integers(0, 5)) + [-0.0] * draw(st.integers(0, 3))
    tiny = [-draw(st.floats(5e-324, PSD_TOL)) for _ in range(draw(st.integers(0, 3)))]
    if normalized:
        if not pos or not sum(pos) > 0:
            pos = [1.0]
        pos = (np.array(pos) / math.fsum(pos)).tolist()
    values = pos + zeros + tiny
    if stretch is None:
        draw(st.randoms()).shuffle(values)
    else:  # a drawn seed: st.randoms() draws once per swap
        values = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).permutation(values).tolist()
    event(f"{len(pos)} positive of {len(values)}")
    return values


def _hex(x):
    return float(x).hex()


class _PrefixOracles:
    # the hypothesis oracles, collected by the classes below: once at the
    # block constant the kernels use, once with it small enough to cross leaves
    STRETCH = None  # see _admitted_values

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.sampled_from([0.3, 0.5, 0.99, 1.0, 2.0, 3.7]))
    def test_power_sums(self, data, r):
        lam = as_spectrum(data.draw(_admitted_values(stretch=self.STRETCH))).values
        want = _hex(_oracle_power_sum(lam, r))
        assert _hex(trace_power(lam, r)) == want
        assert _hex(log_det_r(lam, r)) == want

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.sampled_from([(0.5, 2), (0.4, 3), (0.3, 4), (0.15, 7)]))
    def test_log_det_ren(self, data, order):
        r, alpha = order
        lam = as_spectrum(data.draw(_admitted_values(stretch=self.STRETCH))).values
        assert _hex(log_det_ren(lam, r, alpha)) == _hex(_oracle_log_det_ren(lam, r, alpha))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_vn_renormalized(self, data):
        lam = as_spectrum(data.draw(_admitted_values(stretch=self.STRETCH))).values
        assert _hex(vn_renormalized(lam)) == _hex(_oracle_vn_renormalized(lam))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_von_neumann(self, data):
        values = data.draw(_admitted_values(normalized=True, stretch=self.STRETCH))
        lam = as_spectrum(values, normalized=True).values
        assert _hex(von_neumann(lam)) == _hex(_oracle_von_neumann(lam))


class TestPositivePrefixKernels(_PrefixOracles):
    def test_prefix_is_a_view(self):
        spec = as_spectrum([0.5, 0.0, 0.3, -0.0, 0.2, -1e-12])
        pos = _positive_prefix(spec.values)
        assert np.shares_memory(pos, spec.values)
        assert pos.tolist() == [0.5, 0.3, 0.2]

    @pytest.mark.parametrize("values,n_pos", [
        ([], 0), ([0.0], 0), ([-0.0, 0.0, -1e-11], 0), ([1.0], 1), ([2.0, 0.0], 1),
        ([5e-324, 1.0, 0.0], 2),
    ], ids=["empty", "zero", "zeros", "single", "trailing-zero", "subnormal"])
    def test_prefix_length(self, values, n_pos):
        assert len(_positive_prefix(as_spectrum(values).values)) == n_pos

    def test_direct_spectrum_voids_the_order_invariant(self):
        # A Spectrum built directly skips the sort that the prefix relies on:
        # the leading zero hides the 1. Admitting the same values gives the sum.
        raw = np.array([0.0, 1.0])
        assert trace_power(Spectrum(raw, True), 2) == 0.0
        assert trace_power(as_spectrum(raw), 2) == 1.0

    def test_long_spectrum_with_trailing_zeros(self):
        lam = np.concatenate([log_power_spectrum(1.5, 10**5).values, np.zeros(1000)])
        spec = as_spectrum(lam)
        for r in (0.5, 2.0):
            assert _hex(trace_power(spec, r)) == _hex(_oracle_power_sum(spec.values, r))
        assert _hex(von_neumann(spec)) == _hex(_oracle_von_neumann(spec.values))
        assert _hex(vn_renormalized(spec)) == _hex(_oracle_vn_renormalized(spec.values))
        for alpha in (2, 3, 4):
            assert (_hex(log_det_ren(spec, 0.6, alpha))
                    == _hex(_oracle_log_det_ren(spec.values, 0.6, alpha)))


class TestPrefixOraclesAcrossLeaves(_PrefixOracles):
    # leaves of 128, 136 and 200 values, and spectra of 100 to 450 values:
    # most are split into leaves where NumPy's pairwise sum splits them
    STRETCH = (100, 450)

    @pytest.fixture(scope="class", params=[128, 136, 200], autouse=True)
    def small_block(self, request):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(linalg, "_BLOCK", request.param)
            yield


def _blocked_lengths():
    b = linalg._BLOCK
    return [b - 1, b, b + 1, 3 * b + 5, 10**6]


class TestBlockedKernels:
    @pytest.fixture(scope="class", params=_blocked_lengths() + ["log-power"])
    def spectrum(self, request):
        if request.param == "log-power":  # the spectral-tail benchmark's spectrum
            return log_power_spectrum(1.5, 10**6)
        values = np.random.default_rng(request.param).exponential(size=request.param) ** 3
        values[::7] = 0.0  # zeros sort to a tail that the kernels skip
        return as_spectrum(values / values.sum(), normalized=True)

    @pytest.mark.parametrize("r", [0.5, 1.0, 2.0, 2.3])
    def test_power_sums(self, spectrum, r):
        want = _hex(_oracle_power_sum(spectrum.values, r))
        assert _hex(trace_power(spectrum, r)) == want
        assert _hex(log_det_r(spectrum, r)) == want

    @pytest.mark.parametrize("alpha", [2, 3, 5])
    def test_log_det_ren(self, spectrum, alpha):
        assert (_hex(log_det_ren(spectrum, 0.6, alpha))
                == _hex(_oracle_log_det_ren(spectrum.values, 0.6, alpha)))

    def test_entropies(self, spectrum):
        assert _hex(von_neumann(spectrum)) == _hex(_oracle_von_neumann(spectrum.values))
        assert _hex(vn_renormalized(spectrum)) == _hex(_oracle_vn_renormalized(spectrum.values))

    @pytest.mark.parametrize("statistic", [
        lambda spec: trace_power(spec, 0.5),
        von_neumann,
        vn_renormalized,
        lambda spec: log_det_ren(spec, 0.6, 2),
        lambda spec: log_det_ren(spec, 0.4, 3),
    ], ids=["trace_power", "von_neumann", "vn_renormalized", "log_det_2", "log_det_3"])
    def test_peak_memory_is_a_few_leaves(self, statistic):
        # a leaf is 256 KiB and these hold one to three: the whole-array
        # formulas held one to four arrays of 8 MB each
        spec = log_power_spectrum(1.5, 10**6)
        tracemalloc.start()
        try:
            statistic(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestPureStates:
    # a pure state has entropy +0.0 in every kind whose value there is zero
    @pytest.mark.parametrize("kind", ["vn", "vn-ren", "tsallis", "renyi", "hy", "hy-fredholm"])
    @pytest.mark.parametrize("log_base", ["e", "2"])
    def test_evaluate(self, kind, log_base):
        value = evaluate(kind, [1.0], EntropyParams(r=2.0, s=0.5, log_base=log_base)).value
        assert value == 0.0 and math.copysign(1.0, value) == 1.0

    @pytest.mark.parametrize("fn", [
        von_neumann,
        lambda x: von_neumann(x, log_base="2"),
        vn_renormalized,
        lambda x: tsallis(x, 2),
        lambda x: tsallis(x, 0.5),
        lambda x: renyi(x, 2),
        lambda x: renyi(x, 2, log_base="2"),
        lambda x: hu_ye(x, 2, 0.5),
        lambda x: hy_fredholm(x, 2, 0.5),
    ], ids=["von_neumann", "von_neumann-base2", "vn_renormalized", "tsallis", "tsallis-half",
            "renyi", "renyi-base2", "hu_ye", "hy_fredholm"])
    @pytest.mark.parametrize("values", [[1.0], [1.0, 0.0, 0.0]], ids=["dim1", "dim3"])
    def test_public_entropies(self, fn, values):
        value = fn(values)
        assert value == 0.0 and math.copysign(1.0, value) == 1.0

    @pytest.mark.parametrize("r, s", [(2.0, 1.0), (2.0, 0.5), (0.5, 2.0), (3.0, -1.0)])
    def test_bound_on_rank_one(self, r, s):
        # the maximum on rank-1 states is the pure state's entropy: +0.0
        value = hy_bound(1, r, s)
        assert value == 0.0 and math.copysign(1.0, value) == 1.0


@st.composite
def _product_pair(draw):
    """Two random states whose product spectrum is longer than one leaf."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d_a = draw(st.integers(100, 400))
    d_b = draw(st.integers(linalg._BLOCK // d_a + 1, 400))
    return random_spectrum_values(rng, d_a), random_spectrum_values(rng, d_b)


class TestCompositionLaws:
    # on a product state the unified entropy composes by
    # E(a x b) = E(a) + E(b) + (1 - r) s E(a) E(b); Renyi and von Neumann add
    @settings(max_examples=40, deadline=None)
    @given(_product_pair(), st.sampled_from([0.3, 0.5, 0.7, 1.5, 2.0, 2.3, 3.0]),
           st.sampled_from([-2.0, -0.5, 0.5, 1.0, 2.0]))
    def test_unified(self, pair, r, s):
        a, b = pair
        product = np.outer(a, b).ravel()
        assert len(product) > linalg._BLOCK
        e_a, e_b = hu_ye(a, r, s), hu_ye(b, r, s)
        assert hu_ye(product, r, s) == pytest.approx(e_a + e_b + (1 - r) * s * e_a * e_b,
                                                     rel=1e-12)
        assert renyi(product, r) == pytest.approx(renyi(a, r) + renyi(b, r), rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(_product_pair())
    def test_von_neumann(self, pair):
        a, b = pair
        product = np.outer(a, b).ravel()
        assert von_neumann(product) == pytest.approx(von_neumann(a) + von_neumann(b), rel=1e-12)


class TestParametersFirst:
    # [1.5, -0.5] fails admission (NotPositive); a DomainError shows the
    # parameters were checked before the spectrum was formed
    BAD_SPECTRUM = [1.5, -0.5]

    @pytest.mark.parametrize("kind,params", [
        ("vn", EntropyParams(log_base="10")),
        ("tsallis", EntropyParams(r=1)),
        ("tsallis", EntropyParams(r=-1)),
        ("renyi", EntropyParams(r=1)),
        ("renyi", EntropyParams(r=2, log_base="10")),
        ("hy", EntropyParams(r=2, s=0)),
        ("hy", EntropyParams(r=math.nan)),
        ("hy-fredholm", EntropyParams(r=0.5)),
        ("hy-ren", EntropyParams(r=2)),
        ("hy-ren", EntropyParams(r=0.5, s=0)),
        ("hy-ren", EntropyParams(r=0.5, alpha=1)),
    ])
    def test_evaluate(self, kind, params):
        with pytest.raises(DomainError):
            evaluate(kind, self.BAD_SPECTRUM, params)

    @pytest.mark.parametrize("fn", [
        lambda x: von_neumann(x, log_base="10"),
        lambda x: tsallis(x, 1),
        lambda x: renyi(x, 1),
        lambda x: renyi(x, 2, log_base="10"),
        lambda x: hu_ye(x, 2, 0),
        lambda x: hy_fredholm(x, 0.5, 1),
        lambda x: hy_renormalized(x, 0.5, 0),
        lambda x: _hu_ye_own_rows(np.array([x]), 1, 1),
    ], ids=["von_neumann", "tsallis", "renyi", "renyi-base", "hu_ye", "hy_fredholm",
            "hy_renormalized", "hu_ye_rows"])
    def test_public_entropies(self, fn):
        with pytest.raises(DomainError):
            fn(self.BAD_SPECTRUM)


# The six map builders that one builder replaced, as they read before the merge,
# kept as oracles; the parameter checks are left out, since the tests draw valid
# parameters. Two outputs differ by design: the renormalized map now folds -0.0
# to +0.0 as every other map does, and where (1 - r) s underflows to 0 a scalar
# takes math.log (as Renyi does) in place of np.log, which can move the last bit.


def _oracle_float_power(x, e, at_zero="0 to a negative power"):
    try:
        return x**e
    except OverflowError:
        return -math.inf if x < 0 and e % 2 else math.inf
    except ZeroDivisionError:
        raise DomainError(at_zero) from None


def _oracle_tsallis(r):
    return lambda i_r: (i_r - 1.0) / (1.0 - r) + 0.0


def _oracle_renyi(r, log_base):
    scale = 1.0 if log_base == "e" else 1.0 / math.log(2.0)

    def value(i_r):
        if i_r == 0:
            raise DomainError(
                f"log I_r needs I_r > 0, but the power sum underflows to 0 at r = {r}"
            )
        return math.log(i_r) / (1.0 - r) * scale + 0.0

    return value


def _oracle_renyi_limit(r, s, at_zero):
    def value(x):
        if s < 0 and not isinstance(x, np.ndarray) and x == 0:
            raise DomainError(at_zero)
        with np.errstate(divide="ignore"):
            v = np.log(x) / (1.0 - r) + 0.0
        return v if isinstance(x, np.ndarray) else float(v)

    return value


def _oracle_unified(r, s):
    at_zero = f"I_r^s with s = {s} < 0 needs I_r > 0, but the power sum underflows to 0 at r = {r}"
    if (1.0 - r) * s == 0:
        return _oracle_renyi_limit(r, s, at_zero)
    return lambda p: (_oracle_float_power(p, s, at_zero) - 1.0) / ((1.0 - r) * s) + 0.0


def _oracle_unified_fredholm(r, s):
    return _oracle_unified(r, s)


def _oracle_unified_renormalized(r, s):
    at_zero = f"(log det_ren)^s with log det_ren = 0 and s = {s} < 0"

    def value(log_det):
        if log_det < 0 and float(s) != round(s):
            raise FractionalPowerOfNegative(
                f"(log det_ren)^s with log det_ren = {log_det:.6g} < 0 and fractional s = {s}"
            )
        if (1.0 - r) * s == 0:
            return _oracle_renyi_limit(r, s, at_zero)(log_det)
        e = int(round(s)) if float(s) == round(s) else s
        return (_oracle_float_power(log_det, e, at_zero) - 1.0) / ((1.0 - r) * s)

    return value


_ORACLE_MAPS = {
    "tsallis": lambda p: _oracle_tsallis(p.r),
    "renyi": lambda p: _oracle_renyi(p.r, p.log_base),
    "hy": lambda p: _oracle_unified(p.r, p.s),
    "hy-fredholm": lambda p: _oracle_unified_fredholm(p.r, p.s),
    "hy-ren": lambda p: _oracle_unified_renormalized(p.r, p.s + 0.0),
}
_ORDERS = st.one_of(
    st.floats(0.0, 5.0, exclude_min=True, exclude_max=True).filter(lambda r: r != 1),
    st.sampled_from([1 - 2**-53, 1 + 2**-52]),
)
_DEFORMATIONS = st.one_of(
    st.just(1.0),
    st.sampled_from([5e-324, -5e-324, 1e-310, -1e-310]),  # (1 - r) s may underflow
    st.integers(-2000, 2000).filter(bool).map(float),
    st.floats(-50.0, 50.0).filter(bool),
)
_STATISTICS = st.one_of(
    st.just(0.0),
    st.floats(5e-324, 2.2250738585072014e-308),  # subnormal
    st.floats(1e300, 1.7976931348623157e308),  # near the float maximum
    st.floats(0.0, 10.0),
)


def _assert_same_outcome(got, want, kind, p, scalar):
    """``got()`` has the bits of the oracle's ``want()``, or its refusal."""
    try:
        expected = want()
    except DomainError as exc:  # FractionalPowerOfNegative is one too
        with pytest.raises(type(exc)) as refused:
            got()
        if type(exc) is DomainError:  # log 0 or 0 to a negative power
            statistic = "log det_ren = 0" if kind == "hy-ren" else f"underflows to 0 at r = {p.r}"
            assert statistic in str(refused.value)
        return
    value = got()
    if kind == "hy-ren":
        expected = expected + 0.0  # the fold of -0.0 that the other maps had already
    if scalar and kind != "renyi" and (1.0 - p.r) * p.s == 0:  # Tsallis has s = 1
        assert value == pytest.approx(expected, rel=2**-51, abs=0.0)  # math.log, not np.log
    else:
        assert np.asarray(value, float).tobytes() == np.asarray(expected, float).tobytes()


class TestOneDeformedMap:
    # tsallis, renyi, hu_ye, hy_fredholm, hy_renormalized, evaluate and the X-state
    # stack kernel map their statistic as the six builders before the merge did

    # a pure state's I_r, 0, the smallest subnormal and the float maximum: at 1.0 a
    # quotient can be -0.0, at 0 the map refuses or is infinite, past 1 it can overflow
    EDGES = [1.0, 0.0, 5e-324, 1.7976931348623157e308]

    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from(sorted(_ORACLE_MAPS)), _ORDERS, _DEFORMATIONS,
           st.sampled_from(["e", "2"]), st.data())
    def test_maps_of_a_statistic(self, kind, r, s, log_base, data):
        assume(kind != "hy-fredholm" or r > 1)
        assume(kind != "hy-ren" or r < 1)
        p = EntropyParams(r=r, s=s, log_base=log_base)
        to_value, oracle = entropy._ROUTES[kind][2](p), _ORACLE_MAPS[kind](p)
        stats = [data.draw(_STATISTICS), *self.EDGES]
        if kind == "hy-ren":  # only log det_ren can be negative
            stats += [-x for x in stats]
        for stat in stats:
            _assert_same_outcome(lambda: to_value(stat), lambda: oracle(stat), kind, p,
                                 scalar=True)
        if kind == "hy":  # the stack kernel's elementwise branch
            stats = np.array(data.draw(st.lists(_STATISTICS, max_size=6)) + self.EDGES)
            with np.errstate(all="ignore"):
                _assert_same_outcome(lambda: to_value(stats), lambda: oracle(stats), kind, p,
                                     scalar=False)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(sorted(_ORACLE_MAPS)), _ORDERS, _DEFORMATIONS,
           st.sampled_from(["e", "2"]), st.integers(0, 2**32 - 1), st.integers(1, 40),
           st.integers(0, 3))
    def test_public_entropies(self, kind, r, s, log_base, seed, n, zeros):
        assume(kind != "hy-fredholm" or r > 1)
        assume(kind != "hy-ren" or 0.05 <= r < 1)  # alpha = ceil(1 / r): few terms per value
        lam = np.concatenate([random_spectrum_values(np.random.default_rng(seed), n),
                              np.zeros(zeros)])
        p = EntropyParams(r=r, s=s, log_base=log_base)
        public = {
            "tsallis": lambda: tsallis(lam, r),
            "renyi": lambda: renyi(lam, r, log_base),
            "hy": lambda: hu_ye(lam, r, s),
            "hy-fredholm": lambda: hy_fredholm(lam, r, s),
            "hy-ren": lambda: hy_renormalized(lam, r, s),
        }[kind]
        stat = {"hy-fredholm": log_det_r, "hy-ren": log_det_ren}.get(kind, trace_power)(lam, r)
        want = lambda: _ORACLE_MAPS[kind](p)(stat)
        _assert_same_outcome(public, want, kind, p, scalar=True)
        _assert_same_outcome(lambda: evaluate(kind, lam, p).value, want, kind, p, scalar=True)
        if kind == "hy":
            rows = np.array([lam, lam[::-1]])
            with np.errstate(all="ignore"):
                _assert_same_outcome(lambda: _hu_ye_own_rows(rows.copy(), r, s),
                                     lambda: _oracle_unified(r, s)((rows**r).sum(axis=1)),
                                     kind, p, scalar=False)
