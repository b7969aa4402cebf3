import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

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
from entrodet.entropy import ProbeResult, hu_ye_rows
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
        scan = lambda ks: lam(ks)  # a black box, so the probe takes the scan route
        want = reference(scan, 0.5, threshold, 50_000, chunk)
        got = divergence_probe(scan, 0.5, threshold, k_max=50_000, chunk=chunk)
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

    @pytest.mark.parametrize("route", ["closed-form", "scan"])
    @pytest.mark.parametrize("counts", [{"k_max": 2.5}, {"k_max": math.nan}, {"k_max": 0},
                                        {"k_max": -5}, {"chunk": 2.5}, {"chunk": -1},
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
        got = divergence_probe(power_law_generator(1.0), 0.5, 3.0, k_max=np.int64(100),
                               chunk=np.int64(7))
        assert got == divergence_probe(power_law_generator(1.0), 0.5, 3.0, k_max=100)
        assert type(got.index) is int

    @pytest.mark.parametrize("bad, error", [
        (lambda ks: np.where(ks == 40, math.nan, 1.0 / ks**2), NotPositive),
        (lambda ks: np.where(ks == 40, math.inf, 1.0 / ks**2), NotPositive),
        (lambda ks: -1.0 / ks**2, NotPositive),
        (lambda ks: 1.0 / ks[:3] ** 2, DimensionMismatch),
    ], ids=["nan", "inf", "negative", "short-chunk"])
    def test_scan_refuses_bad_generator_output(self, bad, error):
        with pytest.raises(error):
            divergence_probe(bad, 0.5, 1e9, k_max=100, chunk=60)

    def test_scan_names_the_bad_index(self):
        with pytest.raises(NotPositive, match="lam_70 = nan"):
            divergence_probe(lambda ks: np.where(ks == 70, math.nan, 1.0 / ks**2), 0.5, 1e9,
                             k_max=100, chunk=60)


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
    with pytest.raises(error):
        hu_ye(bad_row, 2, 0.5)
    rows = np.array([[1.0, 0.0], bad_row, [0.5, 0.5]])
    with pytest.raises(error, match=message):
        hu_ye_rows(rows, 2, 0.5)


def test_hu_ye_rows_needs_a_stack():
    with pytest.raises(DimensionMismatch, match=r"\(2,\)"):
        hu_ye_rows(np.array([0.5, 0.5]), 2, 0.5)


def test_hu_ye_rows_clamps_as_hu_ye():
    good = np.array([[1.0 + 5e-11, -5e-11], [0.5, 0.5]])
    assert hu_ye_rows(good, 2, 0.5).tolist() == [hu_ye(row, 2, 0.5) for row in good]


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
    return max(float(-(lam * np.log(lam)).sum()), 0.0)


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
def _admitted_values(draw, normalized=False):
    """Raw values whose admission leaves trailing zeros, clamped negatives and -0.0."""
    pos = draw(st.lists(st.floats(5e-324, 1.0), max_size=200))
    zeros = [0.0] * draw(st.integers(0, 5)) + [-0.0] * draw(st.integers(0, 3))
    tiny = [-draw(st.floats(5e-324, PSD_TOL)) for _ in range(draw(st.integers(0, 3)))]
    if normalized:
        if not pos or not sum(pos) > 0:
            pos = [1.0]
        pos = (np.array(pos) / math.fsum(pos)).tolist()
    values = pos + zeros + tiny
    draw(st.randoms()).shuffle(values)
    event(f"{len(pos)} positive of {len(values)}")
    return values


def _hex(x):
    return float(x).hex()


class TestPositivePrefixKernels:
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

    @settings(max_examples=200, deadline=None)
    @given(_admitted_values(), st.sampled_from([0.3, 0.5, 0.99, 1.0, 2.0, 3.7]))
    def test_power_sums(self, values, r):
        lam = as_spectrum(values).values
        want = _hex(_oracle_power_sum(lam, r))
        assert _hex(trace_power(lam, r)) == want
        assert _hex(log_det_r(lam, r)) == want

    @settings(max_examples=200, deadline=None)
    @given(_admitted_values(), st.sampled_from([(0.5, 2), (0.4, 3), (0.3, 4), (0.15, 7)]))
    def test_log_det_ren(self, values, order):
        r, alpha = order
        lam = as_spectrum(values).values
        assert _hex(log_det_ren(lam, r, alpha)) == _hex(_oracle_log_det_ren(lam, r, alpha))

    @settings(max_examples=200, deadline=None)
    @given(_admitted_values())
    def test_vn_renormalized(self, values):
        lam = as_spectrum(values).values
        assert _hex(vn_renormalized(lam)) == _hex(_oracle_vn_renormalized(lam))

    @settings(max_examples=200, deadline=None)
    @given(_admitted_values(normalized=True))
    def test_von_neumann(self, values):
        lam = as_spectrum(values, normalized=True).values
        assert _hex(von_neumann(lam)) == _hex(_oracle_von_neumann(lam))

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
        lambda x: hu_ye_rows(np.array([x]), 1, 1),
    ], ids=["von_neumann", "tsallis", "renyi", "renyi-base", "hu_ye", "hy_fredholm",
            "hy_renormalized", "hu_ye_rows"])
    def test_public_entropies(self, fn):
        with pytest.raises(DomainError):
            fn(self.BAD_SPECTRUM)
