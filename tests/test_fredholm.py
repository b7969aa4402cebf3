import math

import numpy as np
import pytest
import scipy.special

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
from entrodet.errors import DomainError, NonFiniteKernel, NonPositiveDeterminant

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
        kernel = KernelSpec(lambda x, y: phi(x) * psi(y), "separable", symmetric=False)
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


class TestPrimes:
    def test_first_few(self):
        assert first_k_primes(1).tolist() == [2]
        assert first_k_primes(5).tolist() == [2, 3, 5, 7, 11]

    def test_against_trial_division(self):
        def is_prime(n):
            if n < 2:
                return False
            f = 2
            while f * f <= n:
                if n % f == 0:
                    return False
                f += 1
            return True

        ref = [n for n in range(2, 550) if is_prime(n)][:100]
        assert first_k_primes(100).tolist() == ref

    def test_hundred_thousandth(self):
        assert int(first_k_primes(100_000)[-1]) == 1_299_709

    def test_domain(self):
        with pytest.raises(DomainError):
            first_k_primes(0)


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
