import math
import sys
import time

import mpmath
import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from entrodet import (
    ProbeResult,
    diag_state,
    divergence_probe,
    eig_hermitian,
    first_k_primes,
    gauss_legendre,
    gaussian_entropy_analytic,
    hu_ye,
    linalg,
    log_det_r,
    log_power_spectrum,
    partial_trace,
    power_law_generator,
    random_density,
    run_gaussian_experiment,
    squeezed_kernel,
    squeezed_schmidt_spectrum,
    states,
    validate_density,
    von_neumann,
    x_state,
    x_state_random,
    zeta_spectrum,
)
from entrodet.errors import (
    ConstraintViolation,
    DomainError,
    NotNormalized,
)
from entrodet.states import x_eigvalsh, x_partial_traces, x_states_random

import oracles


class TestXState:
    def test_bell_state(self):
        q = x_state(np.array([0.5, 0, 0, 0.5]), np.array([0.5 + 0j, 0j]))
        spec, _ = eig_hermitian(q)
        assert np.allclose(spec.values, [1, 0, 0, 0], atol=1e-12)

    def test_uniform_diagonal(self):
        q = x_state(np.full(4, 0.25), np.zeros(2, complex))
        assert np.abs(q.mat - np.eye(4) / 4).max() < 1e-15

    def test_schur_bound_violation_named(self):
        with pytest.raises(ConstraintViolation, match="w_1"):
            x_state(np.array([0.5, 0, 0, 0.5]), np.array([0.51 + 0j, 0j]))

    def test_inner_coupling_violation_named(self):
        with pytest.raises(ConstraintViolation, match="z_1"):
            x_state(np.array([0.5, 0, 0, 0.5]), np.array([0j, 0.1 + 0j]))

    def test_diagonal_preserved_under_couplings(self, rng):
        for d in (2, 3, 4):
            q = x_state_random(d, 7)
            n = d * d
            diag = np.diag(q.mat).real
            bare = x_state(diag, np.zeros(n // 2, complex))
            assert np.abs(np.diag(bare.mat) - np.diag(q.mat)).max() < 1e-15

    def test_bad_diag(self):
        with pytest.raises(ConstraintViolation):
            x_state(np.array([0.5, 0.5, 0.5, -0.5]), np.zeros(2, complex))
        with pytest.raises(ConstraintViolation):
            x_state(np.array([0.5, 0.5, 0.5, 0.5]), np.zeros(2, complex))
        with pytest.raises(ConstraintViolation, match="sums to nan"):
            x_state(np.array([math.nan, 0.5, 0.5, 0.0]), np.zeros(2, complex))
        with pytest.raises(ConstraintViolation, match="w_1"):
            x_state(np.full(4, 0.25), np.array([math.nan, 0j]))

    @pytest.mark.parametrize("a,message", [
        (np.array([1 + 1j, 0, 0, 0]), r"a\[0\] = 1.000e\+00\+1.000e\+00j is not real"),
        (np.array([0.5, 0, 0, complex(0.5, math.nan)]), r"a\[3\] = .* is not real"),
    ], ids=["imaginary", "nan-imaginary"])
    def test_non_real_diag(self, a, message):
        # the cast to float used to drop the imaginary part with only a ComplexWarning
        with pytest.raises(ConstraintViolation, match=message):
            x_state(a, np.zeros(2, complex))

    def test_complex_diag_with_zero_imaginary_part(self):
        real = x_state(np.full(4, 0.25), np.zeros(2, complex))
        assert np.array_equal(x_state(np.full(4, 0.25 + 0j), np.zeros(2, complex)).mat, real.mat)

    @pytest.mark.parametrize("a,c,message", [
        (np.full(4, 0.25), np.zeros(1, complex), "expected 2 couplings"),
        (np.full(4, 0.25), np.zeros(3, complex), "expected 2 couplings"),
        (np.full(9, 1 / 9), np.zeros((1, 4), complex), "expected 4 couplings"),
        (np.full(5, 0.2), np.zeros(2, complex), "square length"),
        (np.full((2, 2), 0.25), np.zeros(2, complex), "square length"),
        (np.zeros(0), np.zeros(0, complex), "square length"),
    ], ids=["c-short", "c-long", "c-2d", "a-not-square", "a-2d", "a-empty"])
    def test_shape_errors(self, a, c, message):
        with pytest.raises(ConstraintViolation, match=message):
            x_state(a, c)

    def test_single_level(self):
        assert x_state(np.ones(1), np.zeros(0, complex)).dim == 1

    @pytest.mark.parametrize("bound", ["negative", "sum", "schur"])
    @pytest.mark.parametrize("pair", [1, 3])
    def test_names_the_bound_at_a_later_pair(self, bound, pair):
        # one bad bound on a 9-level state, at pair 1 (w_2) or 3 (z_2): it is the one named
        a, c = (v[4].copy() for v in x_states_random(3, 2, 5))
        if bound == "negative":
            a[pair] -= 1.0
            a[0] += 1.0
            message = rf"^diagonal entry a\[{pair}\] = -\d\.\d+e-01 < 0$"
        elif bound == "sum":
            a[pair] += 0.5
            message = r"^diagonal sums to 1\.5\d*, expected 1$"
        else:
            c[pair] = 1.0
            name = {1: r"w_2\|\^2 = 1 exceeds Schur bound a_2 a_8",
                    3: r"z_2\|\^2 = 1 exceeds Schur bound a_4 a_6"}[pair]
            message = rf"^\|{name} = [0-9.e-]+$"
        with pytest.raises(ConstraintViolation, match=message):
            x_state(a, c)

    def test_tiny_diagonal_names_its_coupling(self):
        # |w_1|^2 exceeds a_1 a_4 = 1e-16 by 9e-13, less than the 1e-12 slack that a
        # bound check of its own once allowed; the spectrum's -9.4e-7 is what admission
        # refuses, and the bound behind it is named, not the eigenvalue
        a = np.array([1e-8, 0.5 - 1e-8, 0.5 - 1e-8, 1e-8])
        c = np.array([math.sqrt(1e-16 + 0.9e-12), 0j])
        with pytest.raises(ConstraintViolation,
                           match=r"^\|w_1\|\^2 = 9\.001e-13 exceeds Schur bound a_1 a_4 = 1e-16$"):
            x_state(a, c)

    def test_no_eigensolver(self, monkeypatch):
        # the closed-form spectrum is admitted; no LAPACK call decides the state
        def refuse(*args, **kwargs):
            raise AssertionError("eigensolver called")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        for d in range(2, 9):
            q = x_state_random(d, 5, index=3)
            assert q.dim == d * d
        with pytest.raises(ConstraintViolation, match="w_1"):
            x_state(np.array([0.5, 0, 0, 0.5]), np.array([0.51 + 0j, 0j]))


class TestXStateRandom:
    def test_deterministic_in_seed(self):
        a = x_state_random(3, 42, index=5)
        b = x_state_random(3, 42, index=5)
        assert np.array_equal(a.mat, b.mat)

    def test_distinct_indices_differ(self):
        a = x_state_random(3, 42, index=1)
        b = x_state_random(3, 42, index=2)
        assert not np.array_equal(a.mat, b.mat)

    def test_all_samples_valid(self):
        for i in range(100):
            q = x_state_random(2, 11, index=i)
            validate_density(q)  # raises on any invariant violation

    def test_partial_traces_valid(self):
        for d in (2, 3, 5):
            q = x_state_random(d, 3)
            for keep in ("A", "B"):
                red = partial_trace(q, d, d, keep)
                assert red.dim == d

    def test_product_constraints_implied(self):
        # the per-pair Schur bounds imply the product bounds over the
        # anti-diagonal index ranges they cover
        for d in (2, 4):  # even d: coupled inner indices fill l+1..n-l
            for i in range(20):
                q = x_state_random(d, 99, index=i).mat
                n = d * d
                l = n // 4
                a = np.diag(q).real
                w = np.array([q[i, n - 1 - i] for i in range(l)])
                z = np.array([q[l + i, n - l - 1 - i] for i in range(l)])
                assert np.prod(np.abs(w)) <= math.sqrt(
                    np.prod(a[:l]) * np.prod(a[n - l:])) + 1e-12
                assert np.prod(np.abs(z)) <= math.sqrt(np.prod(a[l:n - l])) + 1e-12

    def test_dimension_range(self):
        for d in (1, 9):
            with pytest.raises(DomainError):
                x_state_random(d, 0)
            with pytest.raises(DomainError):
                x_states_random(d, 0, 1)

    @pytest.mark.parametrize("call,message", [
        (lambda: x_states_random(2, 1, 2.5), "sample count must be an integer"),
        (lambda: x_states_random(2, 1, -1), "sample count must be >= 0"),
        (lambda: x_states_random(2, -1, 3), "seed must be >= 0"),
        (lambda: x_states_random(2, 1.0, 3), "seed must be an integer"),
        (lambda: x_states_random(2.0, 1, 3), "subsystem dimension must be an integer"),
        (lambda: x_state_random(2, 1, -1), "sample index must be >= 0"),
        (lambda: x_state_random(2, 1, 0.5), "sample index must be an integer"),
        (lambda: x_state_random(2, -1), "seed must be >= 0"),
        (lambda: random_density(2.5, 1), "dimension must be an integer"),
        (lambda: random_density(0, 1), "dimension must be >= 1"),
        (lambda: random_density(2, -1), "seed must be >= 0"),
    ], ids=["samples-float", "samples-negative", "seed-negative", "seed-float", "d-float",
            "index-negative", "index-float", "single-seed-negative", "dim-float", "dim-zero",
            "density-seed-negative"])
    def test_counts_and_seeds_are_domain_errors(self, call, message):
        with pytest.raises(DomainError, match=message):
            call()

    def test_far_index_is_one_jump(self):
        start = time.perf_counter()
        q = x_state_random(3, 1, 10**12)
        assert time.perf_counter() - start < 1.0  # drawing 1.7e13 doubles would take hours
        assert q.dim == 9  # validate_density already ran inside

    def test_one_generator_per_batch(self, monkeypatch):
        made = []
        seed_sequence = np.random.SeedSequence

        def counting(*args, **kwargs):
            made.append(args)
            return seed_sequence(*args, **kwargs)

        monkeypatch.setattr(np.random, "SeedSequence", counting)
        x_states_random(8, 3, 50)
        assert made == [([3, 8],)]

    def test_marginals_follow_the_construction(self):
        # each diagonal entry of Dirichlet(1, ..., 1) on n entries has
        # CDF 1 - (1 - x)^(n - 1); each |c| is a uniform fraction of its Schur
        # bound. One entry per sample keeps the KS samples independent.
        d, samples = 3, 4000
        n = d * d
        a, c = x_states_random(d, 20240607, samples)
        for p in (0, n // 2, n - 1):
            ks = scipy.stats.kstest(a[:, p], lambda x: 1.0 - (1.0 - x) ** (n - 1))
            assert ks.pvalue > 1e-3, (p, ks)
        for p in (0, n // 2 - 1):
            ratio = np.abs(c[:, p]) / np.sqrt(a[:, p] * a[:, n - 1 - p])
            ks = scipy.stats.kstest(ratio, "uniform")
            assert ks.pvalue > 1e-3, (p, ks)


def _x_matrix(a, c):
    n = len(a)
    p = np.arange(len(c))
    m = np.diag(a).astype(complex)
    m[p, n - 1 - p] = c
    m[n - 1 - p, p] = np.conj(c)
    return m


_unit = st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def _x_hermitian(draw):
    n = draw(st.integers(1, 64))
    a = draw(arrays(float, n, elements=_unit))
    re = draw(arrays(float, n // 2, elements=_unit))
    im = draw(arrays(float, n // 2, elements=_unit))
    return a, re + 1j * im


class TestXStatesBatched:
    @settings(max_examples=200, deadline=None)
    @given(_x_hermitian())
    @example((np.full(33, -1.8378910295519293e-60),
              np.array([0.25 + 6.7302511771332124e-273j] * 2
                       + [2.2250738585e-313 + 6.7302511771332124e-273j, 0.25 + 0.59375j]
                       + [0.25 + 6.7302511771332124e-273j] * 12)))
    def test_closed_form_spectrum_matches_eigvalsh(self, x):
        a, c = x
        closed = np.sort(x_eigvalsh(a, c))
        # the dense matrix with rows and columns in the order 0, n-1, 1, n-2, ...:
        # an exact similarity that puts each coupled pair in a 2x2 diagonal block.
        # In the X order LAPACK's reduction mixes the pairs, and on entries of very
        # different sizes it loses accuracy: the example's coupling of 2.2e-313 put
        # the eigenvalues +-0.64 4e-12 off
        n = len(a)
        order = np.stack([np.arange(n), np.arange(n)[::-1]], axis=1).ravel()[:n]
        want = np.linalg.eigvalsh(_x_matrix(a, c)[np.ix_(order, order)])
        assert np.abs(closed - want).max() <= 1e-13

    def test_stacked_draws_equal_single_draws(self):
        for d in range(2, 9):
            a, c = x_states_random(d, 17, 6)
            for i in range(6):
                q = x_state_random(d, 17, index=i).mat
                assert np.array_equal(_x_matrix(a[i], c[i]), q)

    @pytest.mark.parametrize("seed", [17, 2**40 + 3])
    def test_rows_of_a_long_batch_equal_single_draws(self, seed):
        for d in range(2, 9):
            a, c = x_states_random(d, seed, 50)
            for i in (0, 1, 49):
                q = x_state_random(d, seed, index=i).mat
                assert np.array_equal(_x_matrix(a[i], c[i]), q)

    def test_partial_traces_match_dense(self):
        # odd d keeps one coupling per reduction, even d none
        for d in range(2, 9):
            a, c = x_states_random(d, 5, 3)
            (a_a, c_a), (a_b, c_b) = x_partial_traces(a, c, d)
            for i in range(3):
                q = x_state_random(d, 5, index=i)
                for keep, (ai, ci) in (("A", (a_a, c_a)), ("B", (a_b, c_b))):
                    dense = partial_trace(q, d, d, keep).mat
                    assert np.abs(_x_matrix(ai[i], ci[i]) - dense).max() < 1e-15
                assert np.any(c_a[i]) == bool(d % 2)

    def test_empty_batch(self):
        a, c = x_states_random(3, 1, 0)
        assert a.shape == (0, 9) and c.shape == (0, 4)


class TestPowerLawSpectrum:
    def test_generator_matches_infinite_normalizer(self):
        lam = power_law_generator(1.0)
        assert lam(np.array([1.0]))[0] == pytest.approx(6 / math.pi**2, rel=1e-10)

    def test_domain(self):
        for eps in (0.0, -1.0, math.nan):
            with pytest.raises(DomainError):
                power_law_generator(eps)

    def test_generator_at_a_huge_exponent(self):
        # zeta(1 + 1e50) was NaN, and with it every value, every power sum and the
        # probe's partial sum
        lam = power_law_generator(1e50)
        assert np.array_equal(lam(np.arange(1.0, 5.0)), [1.0, 0.0, 0.0, 0.0])
        assert lam.power_sum(2.0, 10**6) == 1.0
        assert divergence_probe(lam, 1.0, 0.5, 1000) == ProbeResult(True, 1, 1.0)

    @pytest.mark.filterwarnings("error")
    def test_infinite_exponent(self):
        # every builder refuses eps = inf the same way, before any numerics
        for build in (lambda: power_law_generator(math.inf),
                      lambda: log_power_spectrum(math.inf, 5)):
            with pytest.raises(DomainError, match="exponent must be finite"):
                build()


def _assert_matches_oracle(got, want):
    # a value v = exp(x) carries the rounding of its exponent x = log v, so its
    # relative error is a few ulps times 1 + |log v|; a subnormal one is also off
    # by up to its last place
    eps = np.finfo(float).eps
    assert len(got) == len(want)
    for g, w in zip(got.tolist(), want):
        assert abs(g - w) <= 4 * eps * (1 + abs(mpmath.log(w))) * w + 2.0**-1074


class TestLogPowerSpectrum:
    @pytest.mark.parametrize("beta,k", [(1.5, 1), (1.2, 7), (1.8, 1000), (2.0, 4321), (3.0, 10**5),
                                        (1.5, states._BLOCK - 1), (1.5, states._BLOCK),
                                        (1.5, 2 * states._BLOCK + 1)])
    def test_bit_identical_to_the_formula(self, beta, k):
        # the in-place build must round exactly as the expression it replaced
        n = np.arange(2, k + 2, dtype=float)
        w = 1.0 / (n * np.log(n) ** beta)
        want = w / w.sum()
        got = log_power_spectrum(beta, k).values
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in want.tolist()]

    @pytest.mark.parametrize("chunk", [1, 3, 64])
    def test_chunking_is_invisible(self, monkeypatch, chunk):
        want = log_power_spectrum(1.7, 1000).values
        monkeypatch.setattr(states, "_BLOCK", chunk)
        assert log_power_spectrum(1.7, 1000).values.tobytes() == want.tobytes()

    # log(2)^beta underflows at beta = 1e4 and log(k + 1)^beta overflows at 1100;
    # k = 10^4 leaves the plain form between beta 315 and 316
    @pytest.mark.parametrize("beta, k", [(1100.0, 10), (1100.0, 10**4), (1e4, 10), (1e4, 10**4),
                                         (315.0, 10**4), (316.0, 10**4), (1.5, 10)])
    def test_past_the_float_range_against_mpmath(self, beta, k):
        _assert_matches_oracle(log_power_spectrum(beta, k).values,
                               oracles.log_power_spectrum(beta, k))

    def test_two_entries_oracle(self):
        spec = log_power_spectrum(1.5, 2)
        assert np.allclose(
            spec.values, [0.74956736484705871, 0.25043263515294129], atol=1e-14
        )

    def test_strictly_decreasing(self):
        spec = log_power_spectrum(1.2, 5000)
        assert np.all(np.diff(spec.values) < 0)

    def test_domain(self):
        with pytest.raises(DomainError):
            log_power_spectrum(1.0, 10)
        with pytest.raises(DomainError):
            log_power_spectrum(math.nan, 10)


@pytest.mark.parametrize("build", [
    lambda: log_power_spectrum(1.5, 10**5),
    lambda: log_power_spectrum(1.2, 3),
    lambda: zeta_spectrum(2.0, 2.0, 10**5),
    lambda: zeta_spectrum(3.0, 1.5, 54_321, normalized=False),
    lambda: zeta_spectrum(80.0, 1.1, 1000),  # factors below the normal range
    lambda: log_power_spectrum(1e4, 100),  # ratios to the first value
    lambda: squeezed_schmidt_spectrum(0.0, 10),
    lambda: squeezed_schmidt_spectrum(1.0, 5000),  # trailing zeros take the sort
    lambda: squeezed_schmidt_spectrum(20.0, 50),
], ids=["log-power", "log-power short", "zeta", "zeta raw", "zeta subnormal", "log-power ratio",
        "squeezed r=0", "squeezed", "squeezed t=1"])
def test_builders_admit_in_place_as_the_copy_path(monkeypatch, build):
    # the builders hand their own buffer to _own_spectrum; admitting a copy of
    # it instead (what as_spectrum does) gives the same spectrum bit for bit
    got = build()
    own = linalg._own_spectrum
    monkeypatch.setattr(states, "_own_spectrum", lambda a, normalized=None: own(a.copy(), normalized))
    want = build()
    assert got.values.tobytes() == want.values.tobytes()
    assert got.is_normalized == want.is_normalized
    assert not got.values.flags.writeable


class TestZetaSpectrum:
    def test_first_prime_value(self):
        spec = zeta_spectrum(2, 2, 1, normalized=False)
        assert spec.values[0] == pytest.approx(0.47238072707743884, abs=1e-14)

    def test_decreasing(self):
        spec = zeta_spectrum(2, 2, 50, normalized=False)
        assert np.all(np.diff(spec.values) < 0)

    def test_unnormalized_determinant_identity(self):
        # log det over the raw spectrum telescopes into the Euler product
        spec = zeta_spectrum(2, 2, 1000, normalized=False)
        primes_part = float(np.log1p(
            np.array([p ** -2.0 for p in [2, 3, 5]], dtype=float)).sum())
        log_det = log_det_r(spec, 2)
        assert log_det > primes_part  # grows with more primes
        ratio = math.log(15 / math.pi**2)
        assert abs(log_det - ratio) < 2e-4

    @pytest.mark.parametrize("q", [2.0, 3.0, 50.0])
    def test_bit_identical_to_the_formula(self, q):
        # where every factor is a normal double the values are its plain powers, normalized
        lam = np.log1p(first_k_primes(1000).astype(float) ** -q) ** (1 / 1.5)
        want = lam / lam.sum()
        assert zeta_spectrum(q, 1.5, 1000).values.tobytes() == want.tobytes()

    # the last factor is subnormal (q = 900 on 5 primes) or 0, from q = 1075 on so is
    # every factor, at q = 80 most of 1000 are normal, and q = 1e308 puts -q log p
    # past the float range
    @pytest.mark.parametrize("q, r, k", [(900.0, 2.0, 5), (1000.0, 2.0, 5), (1100.0, 2.0, 5),
                                         (1022.0, 2.0, 3), (1060.0, 7.0, 50), (1100.0, 1.5, 100),
                                         (80.0, 1.1, 1000), (1e4, 2.0, 5), (1e308, 2.0, 5)])
    def test_below_the_normal_range_against_mpmath(self, q, r, k):
        _assert_matches_oracle(zeta_spectrum(q, r, k).values, oracles.zeta_spectrum(q, r, k))

    def test_normalized_flag(self):
        assert zeta_spectrum(2, 2, 10).is_normalized
        assert not zeta_spectrum(2, 2, 10, normalized=False).is_normalized

    def test_domain(self):
        for args in ((1.0, 2, 5), (2, 1.0, 5), (2, 2, 0), (math.nan, 2, 5), (2, math.nan, 5),
                     (math.inf, 2, 5), (2, math.inf, 5)):
            with pytest.raises(DomainError):
                zeta_spectrum(*args)


class TestSqueezedSchmidt:
    def test_no_squeezing(self):
        assert squeezed_schmidt_spectrum(0.0, 10).values.tolist() == [1.0]

    def test_ground_weight_oracle(self):
        spec = squeezed_schmidt_spectrum(1.0, 400)
        assert spec.values[0] == pytest.approx(0.41997434161402607, abs=1e-14)

    def test_normalized_all_params(self):
        for r, n in ((0.3, 5), (1.0, 50), (3.0, 2000)):
            assert abs(squeezed_schmidt_spectrum(r, n).values.sum() - 1.0) < 1e-12

    def test_tail_mass_diagnostic(self):
        # the sweep's schmidt_tail column is the geometric weight past n_max
        report = run_gaussian_experiment([0.5, 1.0], n_max=10, m=4)
        assert [rec["schmidt_tail"] for rec in report.records] == pytest.approx(
            [math.tanh(0.5) ** 22, math.tanh(1.0) ** 22], rel=1e-12
        )

    def test_series_entropy_matches_closed_form(self):
        t = math.tanh(1.0) ** 2
        n_max = int(math.ceil(math.log(1e-14) / math.log(t)))
        series = von_neumann(squeezed_schmidt_spectrum(1.0, n_max))
        assert series == pytest.approx(gaussian_entropy_analytic(1.0), rel=1e-10)

    def test_domain(self):
        with pytest.raises(DomainError):
            squeezed_schmidt_spectrum(-0.1, 10)
        with pytest.raises(DomainError):
            squeezed_schmidt_spectrum(math.nan, 10)
        with pytest.raises(DomainError):
            squeezed_schmidt_spectrum(1.0, 0)


# the squeezing and truncation grid of the Schmidt closed form: both sides of
# t = 1/2 (r = 0.8814), of 1 - t rounding to 0 (r ~ 19), of e^-2r turning subnormal
# (r ~ 354.2, where cosh^2 r overflows) and of 0 (r ~ 372.6); t is subnormal below
# r ~ 1.5e-154
SCHMIDT_R = [1e-200, 1e-155, 1e-9, 1e-8, 1e-3, 0.1, 0.5, 0.8813, 1, 5, 10, 19, 19.5, 20,
             25, 100, 354, 356, 711, 1e3]
SCHMIDT_N = [1, 2, 50, 20000, 10**9, 2**53]


def _assert_tail(tail, r, n_max, rel):
    # e^-L carries the rounding of L = (N + 1) a: relative error about L ulps
    want = oracles.geometric_tail_mass(r, n_max)
    if want >= sys.float_info.min:
        assert abs(tail - want) <= rel * want, r
    else:
        assert 0.0 <= tail < sys.float_info.min, r


class TestSchmidtClosedForm:
    @pytest.mark.parametrize("n_max", SCHMIDT_N)
    @pytest.mark.parametrize("r", SCHMIDT_R)
    def test_matches_the_oracle(self, r, n_max):
        got, tail = states._squeezed_schmidt_entropy(r, n_max)
        want = oracles.truncated_geometric_entropy(r, n_max)
        if math.tanh(r) ** 2 >= sys.float_info.min:
            assert abs(got - want) <= 1e-14 * want
        else:
            assert math.isfinite(got) and got >= 0.0
        _assert_tail(tail, r, n_max, 1e-12)

    @pytest.mark.parametrize("n_max", [1, 2, 50])
    @pytest.mark.parametrize("r", [1e-8, 0.1, 1, 5, 25])
    def test_oracle_is_the_direct_sum(self, r, n_max):
        closed = oracles.truncated_geometric_entropy(r, n_max)
        direct = oracles.truncated_geometric_entropy_sum(r, n_max)
        assert abs(closed - direct) <= 1e-30 * direct

    @pytest.mark.parametrize("n_max", [1, 2, 50, 20000])
    @pytest.mark.parametrize("r", [r for r in SCHMIDT_R if r >= 0.1])
    def test_matches_the_spectrum(self, r, n_max):
        got, _ = states._squeezed_schmidt_entropy(r, n_max)
        spec = squeezed_schmidt_spectrum(r, n_max)
        assert got == pytest.approx(von_neumann(spec), rel=1e-13)

    def test_no_squeezing(self):
        assert states._squeezed_schmidt_entropy(0.0, 10) == (0.0, 0.0)
        assert states._squeezed_schmidt_entropy(0, 2**53) == (0.0, 0.0)

    def test_uniform_limit(self):
        # e^-2r underflows: every kept level has weight 1 / (N + 1), and none is dropped
        assert states._squeezed_schmidt_entropy(1e3, 20000) == (math.log(20001), 1.0)

    def test_sweep_reads_the_closed_form(self, monkeypatch):
        monkeypatch.setattr(states, "squeezed_schmidt_spectrum", None)  # no spectrum is built
        grid = [round(0.1 * i, 10) for i in range(1, 10)] + list(range(1, 21)) + [1e-9]
        report = run_gaussian_experiment(grid, m=4)
        for rec in report.records:
            want = oracles.truncated_geometric_entropy(rec["r"], 20000)
            bound = 1e-15 if rec["r"] == 1e-9 else 1e-14
            assert abs(rec["schmidt"] - want) <= bound * want, rec["r"]
            _assert_tail(rec["schmidt_tail"], rec["r"], 20000, 1e-13)


# closed-form entropy values, frozen from a 60-digit evaluation
EG_TABLE = {
    0.1: 0.056255523544668251,
    0.5: 0.65945295916803670,
    1.0: 1.6198220928977023,
    2.0: 3.6138174635076090,
    5.0: 9.6137056395671606,
    10.0: 19.613705638880109,
    17.0: 33.613705638880109,
    25.0: 49.613705638880109,
    300.0: 599.61370563888011,
}


class TestGaussianEntropy:
    def test_zero(self):
        assert gaussian_entropy_analytic(0.0, "naive") == 0.0
        assert gaussian_entropy_analytic(0.0, "stable") == 0.0

    @pytest.mark.parametrize("r,expected", sorted(EG_TABLE.items()))
    def test_stable_against_highprec_oracle(self, r, expected):
        assert gaussian_entropy_analytic(r, "stable") == pytest.approx(expected, rel=1e-13)

    def test_naive_accurate_at_small_r(self):
        for r in (0.1, 0.5, 1.0, 2.0):
            assert gaussian_entropy_analytic(r, "naive") == pytest.approx(
                EG_TABLE[r], rel=1e-12
            )

    def test_naive_breaks_down_past_threshold(self):
        # tanh^2 r rounds to 1 in double precision near r = 19
        assert not math.isfinite(gaussian_entropy_analytic(25.0, "naive"))

    def test_stable_finite_far_beyond(self):
        for r in (50.0, 300.0, 1000.0):
            assert math.isfinite(gaussian_entropy_analytic(r, "stable"))

    @pytest.mark.parametrize("r", [1e-150, 1e-155, 1e-157, 1e-160, 1e-161, 1e-162, 1e-200])
    def test_stable_at_tiny_r(self, r):
        # 1 / sinh^2 r overflowed from about r = 1e-155 (inf) and divided by zero once
        # sinh^2 r underflowed (ZeroDivisionError from r = 1e-162). The entropy is
        # r^2 (1 - 2 log r) to within r^4; a subnormal sinh^2 r carries an absolute
        # error of half its spacing, about 2.5e-324, times 1 - log sinh^2 r < 750
        got = gaussian_entropy_analytic(r, "stable")
        assert got == pytest.approx(r * (1.0 - 2.0 * math.log(r)) * r, rel=1e-12, abs=2e-321)

    def test_mode_domain(self):
        with pytest.raises(DomainError):
            gaussian_entropy_analytic(1.0, "fast")
        with pytest.raises(DomainError):
            gaussian_entropy_analytic(-1.0)
        for mode in ("naive", "stable"):
            with pytest.raises(DomainError):
                gaussian_entropy_analytic(math.nan, mode)


class TestSqueezedKernel:
    def test_zero_at_origin(self):
        k = squeezed_kernel()
        assert k.evaluator(np.array(0.0), np.array(0.0)) == 0.0

    def test_symmetric_sampled(self, rng):
        k = squeezed_kernel()
        x, y = rng.uniform(0, 3, size=(2, 50))
        assert np.abs(k.evaluator(x, y) - k.evaluator(y, x)).max() < 1e-12

    @pytest.mark.parametrize("r", [0.1, 1.0, 5.0, 20.0])
    def test_equals_the_two_temporary_formula(self, rng, r):
        # tanh(x + y) / cosh(x - y) as written, five arrays: the in-place
        # evaluator gives the same bits on every grid shape it is called on
        k = squeezed_kernel()
        random = np.sort(rng.uniform(-r, r, size=300))
        for x in (gauss_legendre(400, 0.0, r).nodes, gauss_legendre(40, 0.0, r).nodes, random):
            for xs, ys in ((x[:, None], x[None, :]), (x[17:60, None], x[None, 17:]),
                           (x[5:6, None], x[None, :]), (x[:, None], x[None, 9:10]),
                           (x, x[::-1]), (x[3], x[7])):
                want = np.tanh(xs + ys) / np.cosh(xs - ys)
                got = k.evaluator(xs, ys)
                assert got.shape == np.shape(want)
                assert np.array_equal(np.asarray(got).view(np.int64), np.asarray(want).view(np.int64))

    def test_value_oracle(self):
        k = squeezed_kernel()
        assert float(k.evaluator(np.array(1.0), np.array(1.0))) == pytest.approx(
            0.96402758007581688, abs=1e-15
        )


class TestDiagState:
    def test_single(self):
        assert diag_state([1.0]).mat.tolist() == [[1.0 + 0j]]

    def test_uniform(self):
        assert np.abs(diag_state([0.5, 0.5]).mat - np.eye(2) / 2).max() < 1e-15

    def test_dual_path_entropy(self):
        lam = [0.7, 0.3]
        assert hu_ye(diag_state(lam), 2, 0.5) == pytest.approx(
            hu_ye(lam, 2, 0.5), abs=1e-12
        )

    def test_not_normalized(self):
        with pytest.raises(NotNormalized):
            diag_state([0.7, 0.2])


def test_random_density_valid():
    for seed in range(10):
        q = random_density(6, seed)
        assert q.dim == 6  # validate_density already ran inside
