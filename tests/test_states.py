import math
import time

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from entrodet import (
    diag_state,
    divergence_probe,
    eig_hermitian,
    gaussian_entropy_analytic,
    hu_ye,
    log_det_r,
    log_power_spectrum,
    partial_trace,
    power_law_generator,
    power_law_spectrum,
    random_density,
    run_gaussian_experiment,
    splice_spectrum,
    squeezed_kernel,
    squeezed_schmidt_spectrum,
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
    TruncationInsufficient,
)
from entrodet.states import x_eigvalsh, x_partial_traces, x_states_random


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
    def test_closed_form_spectrum_matches_eigvalsh(self, x):
        a, c = x
        closed = np.sort(x_eigvalsh(a, c))
        assert np.abs(closed - np.linalg.eigvalsh(_x_matrix(a, c))).max() <= 1e-13

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
    def test_single_entry(self):
        assert power_law_spectrum(1.0, 1).values.tolist() == [1.0]

    def test_leading_weight(self):
        spec = power_law_spectrum(1.0, 10)
        assert spec.values[0] == pytest.approx(0.64525798278641426, abs=1e-14)

    def test_normalized(self, rng):
        for eps, k in ((0.5, 17), (1.0, 100), (2.3, 1000)):
            assert abs(power_law_spectrum(eps, k).values.sum() - 1.0) < 1e-12

    def test_generator_matches_infinite_normalizer(self):
        lam = power_law_generator(1.0)
        assert lam(np.array([1.0]))[0] == pytest.approx(6 / math.pi**2, rel=1e-10)

    def test_domain(self):
        with pytest.raises(DomainError):
            power_law_spectrum(0.0, 5)
        with pytest.raises(DomainError):
            power_law_spectrum(1.0, 0)
        with pytest.raises(DomainError):
            power_law_spectrum(math.nan, 10)
        with pytest.raises(DomainError):
            power_law_generator(math.nan)

    @pytest.mark.filterwarnings("error")
    def test_infinite_exponent(self):
        # every builder refuses eps = inf the same way, before any numerics
        for build in (lambda: power_law_spectrum(math.inf, 5),
                      lambda: power_law_generator(math.inf),
                      lambda: splice_spectrum([1.0], math.inf, 0.1, 3.0),
                      lambda: log_power_spectrum(math.inf, 5)):
            with pytest.raises(DomainError, match="exponent must be finite"):
                build()


class TestSpliceSpectrum:
    def test_pure_state_splice(self):
        spliced = splice_spectrum([1.0], eps=1.0, delta=0.1, threshold=3.0)
        # verified properties: close to the original in trace distance...
        head = spliced.values.max()
        assert abs(head - (1 - 0.1 / 3)) < 1e-12
        assert spliced.values.sum() == pytest.approx(1.0, abs=1e-10)
        # ...yet with a power sum beyond the threshold at order 1/(1+eps)
        assert float((spliced.values ** 0.5).sum()) > 3.0

    def test_probe_oracle_agrees(self):
        spliced = splice_spectrum([1.0], eps=1.0, delta=0.1, threshold=3.0)
        vals = np.sort(spliced.values)[::-1]
        probe = divergence_probe(lambda ks: vals[ks.astype(int) - 1], 0.5, 3.0,
                                 k_max=len(vals))
        assert probe.reached

    def test_threshold_zero_trivial(self):
        spliced = splice_spectrum([0.6, 0.4], eps=1.0, delta=0.5, threshold=0.0)
        assert spliced.values.sum() == pytest.approx(1.0, abs=1e-10)

    def test_truncation_insufficient(self):
        with pytest.raises(TruncationInsufficient):
            splice_spectrum([1.0], eps=1.0, delta=0.1, threshold=50.0, k_max=4096)
        # a cap below the first tail length of 1024 is kept too
        with pytest.raises(TruncationInsufficient, match="at tail length 10$"):
            splice_spectrum([1.0], eps=1.0, delta=0.1, threshold=50.0, k_max=10)

    def test_large_delta_admits_any_tail(self):
        spliced = splice_spectrum([1.0], eps=1.0, delta=2.0, threshold=1.0)
        assert spliced.values.sum() == pytest.approx(1.0, abs=1e-10)

    def test_domain(self):
        for kw in ({"eps": 0.0}, {"delta": -1.0}, {"threshold": -1.0}, {"eps": math.nan},
                   {"delta": math.nan}, {"threshold": math.nan}, {"probe_r": math.nan},
                   {"threshold": math.inf}, {"probe_r": -1.0}, {"probe_r": 0.0},
                   {"probe_r": math.inf}, {"k_max": 0}, {"k_max": 2000.5}):
            args = {"eps": 1.0, "delta": 0.1, "threshold": 3.0, "k_max": 4096, **kw}
            with pytest.raises(DomainError):
                splice_spectrum([1.0], **args)


class TestLogPowerSpectrum:
    @pytest.mark.parametrize("beta,k", [(1.5, 1), (1.2, 7), (1.8, 1000), (2.0, 4321), (3.0, 10**5)])
    def test_bit_identical_to_the_formula(self, beta, k):
        # the in-place build must round exactly as the expression it replaced
        n = np.arange(2, k + 2, dtype=float)
        w = 1.0 / (n * np.log(n) ** beta)
        want = w / w.sum()
        got = log_power_spectrum(beta, k).values
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in want.tolist()]

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
        assert log_det_r(spec, 2) > primes_part  # grows with more primes
        ratio = math.log(15 / math.pi**2)
        assert abs(log_det_r(spec, 2) - ratio) < 2e-4

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
