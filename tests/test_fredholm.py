import math

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings, strategies as st

from entrodet import (
    KernelSpec,
    first_k_primes,
    fredholm_det,
    gauss_legendre,
    log_euler_factors,
    log_fredholm_det,
    nystrom_matrix,
    prime_tail_bound,
    zeta_ratio_product,
    zeta_series,
)
from entrodet import fredholm, states
from entrodet.errors import DomainError, NonFiniteKernel, NonPositiveDeterminant
from entrodet.experiments import KERNELS, run_zeta_check

EXP_RANK_ONE_DET = 4.1945280494653251  # 1 + (e^2 - 1)/2


def legendre5(x):
    return (63 * x**5 - 70 * x**3 + 15 * x) / 8.0


def bisect_root(f, lo, hi, iters=200):
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(lo) * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


class TestGaussLegendre:
    def test_single_node(self):
        rule = gauss_legendre(1, -1, 1)
        assert rule.nodes[0] == 0.0
        assert rule.weights[0] == 2.0

    def test_two_nodes_unit_interval(self):
        rule = gauss_legendre(2, 0, 1)
        assert np.allclose(rule.nodes, [0.21132486540518712, 0.78867513459481288], atol=1e-15)
        assert np.allclose(rule.weights, [0.5, 0.5], atol=1e-15)

    def test_degree5_roots_against_bisection(self):
        # independent root oracle: bisection on the explicit degree-5 polynomial
        rule = gauss_legendre(5, -1, 1)
        brackets = [(-0.95, -0.85), (-0.6, -0.45), (-0.05, 0.05), (0.45, 0.6), (0.85, 0.95)]
        roots = np.array([bisect_root(legendre5, lo, hi) for lo, hi in brackets])
        assert np.abs(rule.nodes - roots).max() < 1e-14

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 8, 20])
    @pytest.mark.parametrize("interval", [(-1.0, 1.0), (0.0, 1.0), (-2.5, 4.0)])
    def test_rule_invariants(self, m, interval):
        a, b = interval
        rule = gauss_legendre(m, a, b)
        assert abs(rule.weights.sum() - (b - a)) < 1e-12
        assert np.all(np.diff(rule.nodes) > 0) or m == 1
        mid = 0.5 * (a + b)
        assert np.abs((rule.nodes - mid) + (rule.nodes - mid)[::-1]).max() < 1e-12
        assert np.all(rule.weights > 0)
        # exact for monomials up to degree 2m - 1
        for k in range(2 * m):
            got = float((rule.weights * rule.nodes**k).sum())
            ref = (b ** (k + 1) - a ** (k + 1)) / (k + 1)
            assert got == pytest.approx(ref, rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("m", [3, 10, 33, 64])
    def test_against_numpy_leggauss(self, m):
        rule = gauss_legendre(m, -1, 1)
        ref_x, ref_w = np.polynomial.legendre.leggauss(m)
        assert np.abs(rule.nodes - ref_x).max() < 1e-14
        assert np.abs(rule.weights - ref_w).max() < 1e-13

    def test_reference_rule_built_once_per_m(self, monkeypatch):
        calls = []
        newton = fredholm._legendre_and_derivative

        def counting(x, n):
            calls.append(n)
            return newton(x, n)

        monkeypatch.setattr(fredholm, "_legendre_and_derivative", counting)
        fredholm._reference_rule.cache_clear()
        m = 37
        first = gauss_legendre(m, -2.0, 5.0)
        assert calls
        calls.clear()
        a, b = 0.25, 3.0
        rule = gauss_legendre(m, a, b)
        assert calls == []
        # both are the affine map of one [-1, 1] rule, bit for bit
        x, w = fredholm._reference_rule(m)
        assert np.array_equal(first.nodes, 1.5 + 3.5 * x)
        assert np.array_equal(first.weights, 3.5 * w)
        assert np.array_equal(rule.nodes, 0.5 * (a + b) + 0.5 * (b - a) * x)
        assert np.array_equal(rule.weights, 0.5 * (b - a) * w)

    def test_cached_rule_is_read_only(self):
        x, w = fredholm._reference_rule(6)
        before = x.copy(), w.copy()
        rule = gauss_legendre(6, 0, 1)
        for arr in (x, w, rule.nodes, rule.weights):
            with pytest.raises(ValueError):
                arr[0] = 1.0
        assert all(map(np.array_equal, fredholm._reference_rule(6), before))

    def test_domain(self):
        with pytest.raises(DomainError):
            gauss_legendre(0, 0, 1)
        with pytest.raises(DomainError):
            gauss_legendre(3, 1, 1)
        for a, b in ((0, math.inf), (-math.inf, 0), (math.nan, 1), (0, math.nan)):
            with pytest.raises(DomainError):
                gauss_legendre(3, a, b)


CONST = KernelSpec(lambda x, y: np.ones_like(x + y), "constant")
EXP1 = KernelSpec(lambda x, y: np.exp(x + y), "exp-rank-one")


class TestFredholmDet:
    def test_zero_coupling(self):
        assert fredholm_det(CONST, 0.0, 0, 1, 7) == 1.0

    def test_constant_kernel_every_m(self):
        # rank-one kernel: det = 1 + z (b - a) exactly at every node count
        for m in range(1, 12):
            assert fredholm_det(CONST, -0.5, 0, 1, m) == pytest.approx(0.5, abs=1e-14)

    def test_exp_rank_one(self):
        assert fredholm_det(EXP1, 1.0, 0, 1, 20) == pytest.approx(
            EXP_RANK_ONE_DET, abs=1e-12
        )

    def test_convergence_monotone(self):
        # decreases monotonically until the roundoff floor, below 1e-12 by m = 20
        errs = [abs(fredholm_det(EXP1, 1.0, 0, 1, m) - EXP_RANK_ONE_DET) for m in range(2, 21)]
        assert errs[-1] < 1e-12
        above_floor = [e for e in errs if e > 1e-12]
        assert all(e2 < e1 for e1, e2 in zip(above_floor, above_floor[1:]))

    @pytest.mark.parametrize(
        "phi,psi,integral",
        [
            (lambda x: x, lambda y: y**2, 0.25),                     # int x * x^2
            (np.sin, np.cos, math.sin(1.0) ** 2 / 2.0),              # int sin cos
            (np.exp, np.exp, (math.e**2 - 1) / 2.0),                 # int e^2x
        ],
    )
    def test_separable_kernel_identity(self, phi, psi, integral):
        kernel = KernelSpec(lambda x, y: phi(x) * psi(y), "separable")
        got = fredholm_det(kernel, 0.7, 0, 1, 20)
        assert got == pytest.approx(1.0 + 0.7 * integral, abs=1e-10)

    def test_symmetrized_equals_unsymmetrized(self):
        from entrodet.states import squeezed_kernel

        for kernel in (CONST, EXP1, squeezed_kernel()):
            sym = fredholm_det(kernel, 0.8, 0, 2, 15, symmetrize=True)
            raw = fredholm_det(kernel, 0.8, 0, 2, 15, symmetrize=False)
            assert sym == pytest.approx(raw, rel=1e-12)

    def test_non_finite_kernel(self):
        bad = KernelSpec(lambda x, y: 1.0 / (x - y + 0.0), "singular")
        with np.errstate(divide="ignore"), pytest.raises(NonFiniteKernel):
            fredholm_det(bad, 1.0, 0, 1, 5)

    def test_node_cap(self):
        with pytest.raises(DomainError):
            fredholm_det(CONST, 1.0, 0, 1, 10_001)

    def test_non_finite_coupling(self):
        for z in (math.nan, math.inf):
            with pytest.raises(DomainError):
                fredholm_det(CONST, z, 0, 1, 4)
            with pytest.raises(DomainError):
                log_fredholm_det(CONST, z, 0, 1, 4)

    def test_plain_callable_accepted(self):
        assert fredholm_det(lambda x, y: np.ones_like(x), -0.5, 0, 1, 4) == pytest.approx(0.5)


class TestLogFredholmDet:
    def test_zero_coupling(self):
        assert log_fredholm_det(CONST, 0.0, 0, 1, 5) == 0.0

    def test_constant_kernel(self):
        assert log_fredholm_det(CONST, 1.0, 0, 1, 6) == pytest.approx(math.log(2), abs=1e-14)

    def test_agrees_with_det(self):
        ld = log_fredholm_det(EXP1, 1.0, 0, 1, 20)
        assert math.exp(ld) == pytest.approx(fredholm_det(EXP1, 1.0, 0, 1, 20), rel=1e-12)

    def test_non_positive_determinant(self):
        with pytest.raises(NonPositiveDeterminant):
            log_fredholm_det(CONST, -2.0, 0, 1, 5)  # det = 1 - 2 = -1

    def test_kernel_failures_are_domain_errors(self):
        # the CLI maps DomainError to exit 4
        assert issubclass(NonPositiveDeterminant, DomainError)
        assert issubclass(NonFiniteKernel, DomainError)


def trial_division_primes(k):
    """The first k primes by trial division: the sieve's oracle."""
    primes = []
    n = 2
    while len(primes) < k:
        if all(n % p for p in primes if p * p <= n):
            primes.append(n)
        n += 1
    return primes


class TestPrimes:
    def test_first_few(self):
        assert first_k_primes(1).tolist() == [2]
        assert first_k_primes(5).tolist() == [2, 3, 5, 7, 11]

    def test_against_trial_division(self):
        assert first_k_primes(100).tolist() == trial_division_primes(100)

    @pytest.mark.parametrize("block", [5, 24, 37])
    def test_small_blocks_against_trial_division(self, monkeypatch, block):
        # many block boundaries, and base primes up to 131 > block that skip
        # whole blocks, so every carried strike offset is exercised
        monkeypatch.setattr(fredholm, "_SIEVE_BLOCK", block)
        want = trial_division_primes(2000)
        for k in (1, 2, 5, 6, 7, 100, 2000):
            assert first_k_primes(k).tolist() == want[:k]

    def test_hundred_thousandth(self):
        assert int(first_k_primes(100_000)[-1]) == 1_299_709

    def test_millionth_and_prime_count(self):
        assert int(first_k_primes(10**6)[-1]) == 15_485_863
        assert len(fredholm._primes_up_to(10**7)) == 664_579

    def test_short_bound_is_doubled(self, monkeypatch):
        # p_100 = 541: a first bound of 10 needs six doublings
        monkeypatch.setattr(fredholm, "_prime_bound", lambda k: 10)
        assert first_k_primes(100).tolist() == trial_division_primes(100)

    @pytest.mark.parametrize("k", [1, 5, 6, 1000])
    def test_dtype_and_layout(self, k):
        primes = first_k_primes(k)
        assert primes.dtype == np.int64
        assert primes.flags.c_contiguous

    def test_domain(self):
        with pytest.raises(DomainError):
            first_k_primes(0)

    @pytest.mark.parametrize("k", [2.5, 10.0, math.nan, math.inf, np.float64(7.0), "7", None])
    def test_non_integral_count_rejected_before_sieving(self, monkeypatch, k):
        def no_sieve(limit):
            raise AssertionError("sieved before the count was checked")

        monkeypatch.setattr(fredholm, "_primes_up_to", no_sieve)
        for call in (lambda: first_k_primes(k),
                     lambda: zeta_ratio_product(2.0, k),
                     lambda: states.zeta_spectrum(2.0, 2.0, k),
                     lambda: run_zeta_check(2.0, 2.0, k)):
            with pytest.raises(DomainError):
                call()

    def test_numpy_integer_count(self):
        assert first_k_primes(np.int64(7)).tolist() == [2, 3, 5, 7, 11, 13, 17]
        assert zeta_ratio_product(2.0, np.int64(7)) == zeta_ratio_product(2.0, 7)
        assert run_zeta_check(2.0, 2.0, np.int64(7)).records == run_zeta_check(2.0, 2.0, 7).records


class TestZeta:
    def test_ratio_product_first_factors(self):
        assert zeta_ratio_product(2, 1) == pytest.approx(1.25, abs=1e-15)
        assert zeta_ratio_product(2, 2) == pytest.approx(1.25 * (1 + 1 / 9), abs=1e-14)

    def test_ratio_product_converges(self):
        got = zeta_ratio_product(2, 100_000)
        assert got == pytest.approx(15 / math.pi**2, abs=1e-5)

    def test_log_euler_factors(self):
        primes = first_k_primes(3)
        got = log_euler_factors(2.0, primes)
        assert got == pytest.approx([math.log1p(0.25), math.log1p(1 / 9), math.log1p(1 / 25)],
                                    rel=1e-15)
        assert zeta_ratio_product(2.0, 3) == float(np.exp(got.sum()))

    def test_ratio_product_monotone(self):
        vals = [zeta_ratio_product(2, k) for k in (1, 2, 5, 10, 100, 1000)]
        assert all(v2 > v1 for v1, v2 in zip(vals, vals[1:]))

    def test_series_analytic_values(self):
        assert zeta_series(2) == pytest.approx(math.pi**2 / 6, abs=1e-12)
        assert zeta_series(4) == pytest.approx(math.pi**4 / 90, abs=1e-12)

    def test_series_large_order(self):
        assert zeta_series(50) == pytest.approx(1.0000000000000009, abs=1e-15)

    def test_series_against_scipy(self):
        for q in (1.1, 1.5, 2.0, 3.0, 4.5, 8.0, 20.0):
            assert zeta_series(q) == pytest.approx(float(scipy.special.zeta(q)), abs=2e-12)

    def test_tail_bound_dominates(self):
        # actual prime tail at k = 100 is below the integral bound
        primes = first_k_primes(5000).astype(float)
        tail = float(np.log1p(primes[100:] ** -2.0).sum())
        assert tail < prime_tail_bound(2.0, int(primes[99]))

    @pytest.mark.parametrize("q", [0.5, 1.0, math.nan, math.inf])
    def test_bad_order_rejected_before_sieve(self, monkeypatch, q):
        calls = []
        monkeypatch.setattr(fredholm, "first_k_primes", lambda k: calls.append(k))
        with pytest.raises(DomainError, match="product converges for finite q > 1"):
            zeta_ratio_product(q, 10**6)
        with pytest.raises(DomainError, match="product converges for finite q > 1"):
            states.zeta_spectrum(q, 2.0, 10**6)
        assert calls == []

    def test_domain(self):
        for fn in (lambda: zeta_series(1.0), lambda: zeta_ratio_product(0.5, 3),
                   lambda: prime_tail_bound(1.0, 10), lambda: zeta_series(2, tol=0.0),
                   lambda: zeta_series(math.nan), lambda: zeta_series(math.inf),
                   lambda: zeta_ratio_product(math.nan, 3), lambda: prime_tail_bound(math.nan, 10),
                   lambda: zeta_series(2, tol=math.nan),
                   lambda: log_euler_factors(1.0, first_k_primes(3)),
                   lambda: log_euler_factors(math.nan, first_k_primes(3)),
                   lambda: log_euler_factors(math.inf, first_k_primes(3))):
            with pytest.raises(DomainError):
                fn()


class TestNystromMatrix:
    def test_shape_and_identity_at_zero(self):
        rule = gauss_legendre(6, 0, 1)
        m = nystrom_matrix(CONST, 0.0, rule)
        assert np.array_equal(m, np.eye(6))

    @staticmethod
    def old_formula(kernel, z, rule, symmetrize):
        # reference: the kernel on two full m x m meshgrid arrays, then eye + z W K
        m = rule.m
        xi, xj = np.meshgrid(rule.nodes, rule.nodes, indexing="ij")
        kmat = np.asarray(kernel.evaluator(xi, xj), dtype=float)
        if symmetrize:
            sw = np.sqrt(rule.weights)
            return np.eye(m) + z * np.outer(sw, sw) * kmat
        return np.eye(m) + z * rule.weights[np.newaxis, :] * kmat

    @pytest.mark.parametrize("name", sorted(KERNELS))
    @pytest.mark.parametrize("symmetrize", [True, False])
    def test_equals_meshgrid_formula(self, name, symmetrize):
        kernel = KERNELS[name][0]
        for m, z, a, b in ((1, 0.7, 0.0, 1.0), (7, -0.3, -1.5, 2.0), (64, 1.3, 0.0, 2.5)):
            rule = gauss_legendre(m, a, b)
            got = nystrom_matrix(kernel, z, rule, symmetrize)
            assert got.shape == (m, m)
            assert np.array_equal(got, self.old_formula(kernel, z, rule, symmetrize))

    @pytest.mark.parametrize("symmetrize", [True, False])
    def test_broadcastable_and_read_only_kernel_results(self, symmetrize):
        # constant kernel: det(1 + zK) = 1 + z (b - a) at every m
        m, z, a, b = 9, -0.5, 0.0, 1.0
        col = np.ones((m, 1))
        frozen = np.ones((m, m))
        frozen.setflags(write=False)
        for evaluator in (lambda x, y: 1.0, lambda x, y: col, lambda x, y: frozen):
            det = fredholm_det(evaluator, z, a, b, m, symmetrize=symmetrize)
            assert det == pytest.approx(0.5, abs=1e-14)
        assert np.array_equal(col, np.ones((m, 1)))
        assert np.array_equal(frozen, np.ones((m, m)))

    def test_evaluator_gets_a_column_and_a_row(self):
        seen = []

        def evaluator(x, y):
            seen.append((x.shape, y.shape))
            return np.exp(x + y)

        nystrom_matrix(evaluator, 1.0, gauss_legendre(5, 0, 1))
        assert seen == [((5, 1), (1, 5))]


def nystrom_log_rank_one(phi, z, a, b, m):
    """log of the exact m-node Nystrom determinant 1 + z sum_i w_i phi(x_i)^2."""
    rule = gauss_legendre(m, a, b)
    return math.log(1.0 + z * math.fsum(rule.weights * phi(rule.nodes) ** 2))


def dense_slogdet(kernel, z, a, b, m):
    return np.linalg.slogdet(nystrom_matrix(kernel, z, gauss_legendre(m, a, b)))


class TestLowRankDeterminant:
    def test_steep_rank_one_kernel_is_exact(self):
        # the dense LU's pivots after the first are rounding noise of about
        # e^270 here; it gave 2775.9
        got = log_fredholm_det(KERNELS["exp-rank-one"][0], 1.0, 0, 300, 10)
        assert got == pytest.approx(594.4746138103145, abs=1e-12)
        assert got == pytest.approx(nystrom_log_rank_one(np.exp, 1.0, 0, 300, 10), abs=1e-12)

    def test_steep_rank_one_kernel_positive_at_two_nodes(self):
        # the dense LU gave sign -1 (NonPositiveDeterminant) for this positive determinant
        got = log_fredholm_det(KERNELS["exp-rank-one"][0], 1.0, 0, 354, 2)
        assert got == pytest.approx(563.558, abs=1e-3)
        assert got == pytest.approx(nystrom_log_rank_one(np.exp, 1.0, 0, 354, 2), abs=1e-12)
        assert fredholm_det(KERNELS["exp-rank-one"][0], 1.0, 0, 354, 20) == pytest.approx(
            math.exp(nystrom_log_rank_one(np.exp, 1.0, 0, 354, 20)), rel=1e-12
        )

    @pytest.mark.xfail(
        reason="ACA stops at rank 1, the exp(x + y) part alone: the grid check is "
        "relative to max|A| ~ e^600, so the exp(-|x - y|) part passes as residual, "
        "and 594.4746 comes back with no error or warning",
    )
    def test_steep_kernel_with_full_rank_part(self):
        # the dense LU gives 2778.31, the exact log det of the rounded float
        # matrix, so no float64 route on this matrix is right
        m, a, b = 10, 0.0, 300.0
        kernel = KernelSpec(lambda x, y: np.exp(x + y) + np.exp(-np.abs(x - y)), "steep-kink")
        rule = gauss_legendre(m, a, b)
        with mpmath.workdps(400):
            x = [mpmath.mpf(float(v)) for v in rule.nodes]
            sw = [mpmath.sqrt(mpmath.mpf(float(v))) for v in rule.weights]
            want = float(mpmath.log(mpmath.det(mpmath.matrix(
                [[(i == j) + sw[i] * sw[j] * (mpmath.exp(x[i] + x[j]) + mpmath.exp(-abs(x[i] - x[j])))
                  for j in range(m)] for i in range(m)]
            ))))
        assert want == pytest.approx(625.2982, abs=1e-4)
        assert log_fredholm_det(kernel, 1.0, a, b, m) == pytest.approx(want, rel=1e-12)

    def test_no_low_rank_falls_back_to_dense(self):
        # exp(-|x - y|) has singular values decaying like n^-2: ACA reaches the cap
        kink = KernelSpec(lambda x, y: np.exp(-np.abs(x - y)), "kink")
        m = 500
        sign, logdet, rank = fredholm._nystrom_logdet(kink, 1.0, 0.0, 5.0, m)
        assert rank == m
        want_sign, want = dense_slogdet(kink, 1.0, 0.0, 5.0, m)
        assert sign == want_sign
        assert logdet == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("m", [40, 700])
    def test_fallback_keeps_the_weighting(self, m):
        kink = KernelSpec(lambda x, y: np.exp(-np.abs(x - y)), "kink")
        rule = gauss_legendre(m, 0.0, 5.0)
        for symmetrize in (True, False):
            sign, logdet = np.linalg.slogdet(nystrom_matrix(kink, 0.5, rule, symmetrize))
            assert fredholm_det(kink, 0.5, 0.0, 5.0, m, symmetrize) == sign * math.exp(logdet)

    @pytest.mark.parametrize("m", [60, 257, 2000])
    def test_smooth_kernel_is_low_rank(self, m):
        from entrodet.states import squeezed_kernel

        sign, logdet, rank = fredholm._nystrom_logdet(squeezed_kernel(), 1.0, 0.0, 2.0, m)
        if fredholm._rank_cap(m) > 30:
            assert rank < 30
        if m <= 257:
            assert logdet == pytest.approx(dense_slogdet(squeezed_kernel(), 1.0, 0.0, 2.0, m)[1],
                                           abs=1e-13)
        assert logdet == pytest.approx(log_fredholm_det(squeezed_kernel(), 1.0, 0.0, 2.0, 80),
                                       abs=1e-13)

    def test_non_finite_entry_off_the_crosses_is_found(self):
        # a rank-one kernel, NaN at one grid entry that no ACA row or column reads
        m, bad_row, bad_col = 600, 400, 200
        rule = gauss_legendre(m, 0.0, 1.0)
        bad_x, bad_y = rule.nodes[bad_row], rule.nodes[bad_col]
        crosses = []

        def evaluator(x, y):
            if x.shape[0] == 1 or y.shape[1] == 1:
                crosses.append((x.ravel().copy(), y.ravel().copy()))
            return np.where((x == bad_x) & (y == bad_y), np.nan, np.exp(x + y))

        with pytest.raises(NonFiniteKernel):
            log_fredholm_det(evaluator, 1.0, 0.0, 1.0, m)
        assert crosses
        assert not any(bad_x in xs and bad_y in ys for xs, ys in crosses)

    def test_evaluator_called_on_grid_blocks(self):
        seen = []

        def evaluator(x, y):
            seen.append((x.shape, y.shape))
            return np.exp(x + y)

        m = 1000
        log_fredholm_det(evaluator, 1.0, 0, 1, m)
        rows, cols = ((1, 1), (1, m)), ((m, 1), (1, 1))
        assert rows in seen and cols in seen
        blocks = [s for s in seen if s not in (rows, cols)]
        assert all(y == (1, m) and x[1] == 1 and x[0] < m for x, y in blocks)
        assert sum(x[0] for x, _ in blocks) == m  # every grid row once
        seen.clear()
        log_fredholm_det(evaluator, 1.0, 0, 1, 200)  # the grid is one block
        assert seen == [((200, 1), (1, 200))]

    def test_no_dense_det(self, monkeypatch):
        def refuse(_):
            raise AssertionError("np.linalg.det called")

        monkeypatch.setattr(np.linalg, "det", refuse)
        kink = KernelSpec(lambda x, y: np.exp(-np.abs(x - y)), "kink")
        for kernel, m in ((EXP1, 20), (EXP1, 600), (kink, 20), (kink, 600)):
            assert math.isfinite(fredholm_det(kernel, 0.5, 0.0, 1.0, m))

    def test_det_beyond_float_range_is_inf(self, monkeypatch):
        for sign in (1.0, -1.0):
            monkeypatch.setattr(fredholm, "_nystrom_logdet", lambda *args: (sign, 800.0, 1))
            assert fredholm_det(CONST, 1.0, 0.0, 1.0, 4) == sign * math.inf


def _separable(terms):
    """K(x, y) = sum_j c_j sin(p_j x + q_j) cos(s_j y + t_j), |K| <= sum |c_j|."""
    def evaluator(x, y):
        return sum(c * np.sin(p * x + q) * np.cos(s * y + t) for c, p, q, s, t in terms)
    return evaluator


def _signed(hi):
    """0, or a magnitude in [1e-3, hi] of either sign: no subnormal kernel value."""
    return st.one_of(st.just(0.0), st.floats(1e-3, hi), st.floats(-hi, -1e-3))


_freq = st.one_of(st.just(0.0), st.floats(1e-3, 3.0))
_terms = st.lists(
    st.tuples(_signed(1.0), _freq, _signed(1.0), _freq, _signed(1.0)), min_size=1, max_size=3
)


@settings(max_examples=60, deadline=None)
@given(terms=_terms, t=_signed(0.9), a=st.floats(-3.0, 3.0),
       length=st.floats(0.1, 4.0), m=st.integers(1, 300))
def test_low_rank_agrees_with_dense(terms, t, a, length, m):
    # |z| (b - a) sup|K| <= 0.9: every eigenvalue of 1 + zK stays above 0.1
    b = a + length
    kernel = _separable(terms)
    z = t / (length * sum(abs(term[0]) for term in terms) + 1e-300)
    sign, logdet, rank = fredholm._nystrom_logdet(kernel, z, a, b, m)
    want_sign, want = dense_slogdet(kernel, z, a, b, m)
    assert sign == want_sign
    assert abs(logdet - want) <= 1e-12 * max(1.0, abs(want))
    if fredholm._rank_cap(m) > len(terms):
        assert rank <= len(terms)
