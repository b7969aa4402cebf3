import functools
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import example, given, settings, strategies as st

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
from entrodet import entropy, fredholm, states
from entrodet.errors import DomainError, NonFiniteKernel, NonPositiveDeterminant
from entrodet.experiments import KERNELS, run_gaussian_experiment, run_xstate_experiment, run_zeta_check

EXP_RANK_ONE_DET = 4.1945280494653251  # 1 + (e^2 - 1)/2
HUGE = KernelSpec(lambda x, y: np.full(np.broadcast_shapes(x.shape, y.shape), 1e300), "1e300")


def kw_matrix(kernel, z, rule):
    """The unsymmetrized Nystrom matrix eye + z K W, on two meshgrid arrays.

    Similar to ``nystrom_matrix``'s symmetric form, so it has the same
    determinant (Bornemann, Math. Comp. 2010).
    """
    xi, xj = np.meshgrid(rule.nodes, rule.nodes, indexing="ij")
    kmat = np.asarray(kernel.evaluator(xi, xj), dtype=float)
    return np.eye(rule.m) + z * rule.weights[np.newaxis, :] * kmat


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

    @pytest.mark.parametrize("a, b", [(-1e308, 1e308), (-1.7e308, 1e308)])
    @pytest.mark.parametrize("m", [1, 5, 40])
    def test_overflowing_rule_is_a_domain_error(self, a, b, m):
        # b - a overflows: the rule was [-inf, -inf, nan, inf, inf] with inf
        # weights and a RuntimeWarning (a test error here)
        for cast in (float, np.float64):
            with pytest.raises(DomainError, match="overflows"):
                gauss_legendre(m, cast(a), cast(b))

    @pytest.mark.parametrize("a, b", [(0, 10**400), (-10**400, 0), (10**400, 10**400 + 1)])
    def test_int_endpoint_past_the_float_range_is_a_domain_error(self, a, b):
        # the endpoints compare finite as ints; converting them raised OverflowError
        with pytest.raises(DomainError, match="float range"):
            gauss_legendre(5, a, b)
        with pytest.raises(DomainError, match="float range"):
            log_fredholm_det(CONST, 1.0, a, b, 5)

    @pytest.mark.parametrize("a, b", [(1e308, 1.7e308), (-1.7e308, -1e308)])
    def test_overflowing_midpoint_is_halved_first(self, a, b):
        # a + b overflows but every node lies in (a, b): the nodes were all inf
        for cast in (float, np.float64):
            rule = gauss_legendre(5, cast(a), cast(b))
            x, w = fredholm._reference_rule(5)
            assert np.array_equal(rule.nodes, (0.5 * a + 0.5 * b) + 0.5 * (b - a) * x)
            assert np.array_equal(rule.weights, 0.5 * (b - a) * w)
            assert a < rule.nodes[0] and rule.nodes[-1] < b

    @pytest.mark.parametrize("a, b", [(0, 1), (-1.5, 2.0), (0.0, 1e-320), (-1e307, 1e307),
                                      (1e300, 1.5e300), (np.float64(0.3), np.float64(7.1))])
    def test_finite_rules_keep_their_bits(self, a, b):
        x, w = fredholm._reference_rule(9)
        rule = gauss_legendre(9, a, b)
        assert np.array_equal(rule.nodes, 0.5 * (a + b) + 0.5 * (b - a) * x)
        assert np.array_equal(rule.weights, 0.5 * (b - a) * w)
        assert np.isfinite(rule.nodes).all() and np.isfinite(rule.weights).all()


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

        kink = KernelSpec(lambda x, y: np.exp(-np.abs(x - y)), "kink")  # full rank: dense
        for kernel in (CONST, EXP1, squeezed_kernel(), kink):
            raw = np.linalg.det(kw_matrix(kernel, 0.8, gauss_legendre(15, 0, 2)))
            assert fredholm_det(kernel, 0.8, 0, 2, 15) == pytest.approx(raw, rel=1e-12)

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

    @pytest.mark.parametrize("m", [20, 400])
    @pytest.mark.parametrize("det", [fredholm_det, log_fredholm_det])
    def test_overflow_is_a_domain_error(self, det, m):
        # K = 1e300 on (0, 1) at z = 1e12: the entries z sqrt(w_i w_j) K overflow
        # on the one-block grid (m = 20) and on the blocked one (m = 400, about
        # 4e309). It used to return NaN, with RuntimeWarnings (test errors here).
        # At z = 1e10 the m = 400 entries are finite and only the core overflows:
        # see test_overflowing_core_is_rescaled
        with pytest.raises(DomainError, match="overflows") as info:
            det(HUGE, 1e12, 0.0, 1.0, m)
        assert not isinstance(info.value, (NonFiniteKernel, NonPositiveDeterminant))

    @staticmethod
    def exact_log_det(kernel, z, m, rank):
        """log det(I + z G) of the m-node rule, G the Gram matrix of K's factors, in mpmath."""
        rule = gauss_legendre(m, 0.0, 1.0)
        with mpmath.workdps(40):
            phi = [[mpmath.mpf(float(v)) for v in kernel(rule.nodes, a)] for a in range(rank)]
            w = [mpmath.mpf(float(v)) for v in rule.weights]
            gram = mpmath.matrix([[(a == b) + mpmath.mpf(z) * mpmath.fsum(
                wi * pa * pb for wi, pa, pb in zip(w, phi[a], phi[b]))
                for b in range(rank)] for a in range(rank)])
            return float(mpmath.log(mpmath.det(gram)))

    @pytest.mark.parametrize("m", [400, 2000])
    def test_overflowing_core_is_rescaled(self, m):
        # every entry of A is finite (about 4e307 at m = 400), but the 1 x 1 core
        # 1 + sum_i z w_i K = 1 + 1e310 is not; log det was refused with DomainError
        want = self.exact_log_det(lambda x, a: np.full(len(x), 1e150), 1e10, m, 1)
        assert want == pytest.approx(713.8013788281543, abs=1e-12)
        assert log_fredholm_det(HUGE, 1e10, 0.0, 1.0, m) == pytest.approx(want, abs=2e-13)
        assert fredholm_det(HUGE, 1e10, 0.0, 1.0, m) == math.inf

    def test_overflowing_rank_two_core_is_rescaled(self):
        # K = 1e300 (1 + x y): V^T U overflows in two of its entries
        kernel = KernelSpec(lambda x, y: 1e300 * (1.0 + x * y), "huge-rank-two")
        sign, logdet, rank = fredholm._nystrom_logdet(kernel, 1e10, 0.0, 1.0, 400)
        want = self.exact_log_det(lambda x, a: 1e150 * x**a, 1e10, 400, 2)
        assert (sign, rank) == (1.0, 2)
        assert logdet == pytest.approx(want, rel=1e-14)

    def test_overflowing_nystrom_matrix(self):
        with pytest.raises(DomainError, match="overflows") as info:
            nystrom_matrix(HUGE, 1e10, gauss_legendre(20, 0.0, 1.0))
        assert not isinstance(info.value, NonFiniteKernel)

    @pytest.mark.parametrize("m", [20, 400])
    def test_large_finite_entries_stay_exact(self, m):
        # at z = 1e7 nothing overflows: log(1 + 1e307), on either route
        assert log_fredholm_det(HUGE, 1e7, 0.0, 1.0, m) == pytest.approx(math.log(1e307), rel=1e-14)

    @pytest.mark.parametrize("z", [0.0, 1.0])
    @pytest.mark.parametrize("f", [
        lambda x, y: np.full(np.broadcast_shapes(x.shape, y.shape), np.inf),
        lambda x, y: np.log(np.abs(x - y)),  # -inf on the diagonal, with a divide warning
    ], ids=["inf", "log"])
    def test_non_finite_kernel_still_named(self, f, z):
        # at z = 0 the weighted entry is 0 * inf = NaN: still the kernel's fault;
        # the kernel's own floating-point warnings give way to the typed error
        for m in (5, 400):
            with pytest.raises(NonFiniteKernel):
                log_fredholm_det(f, z, 0, 1, m)

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


@functools.lru_cache(maxsize=None)
def _primes_up_to_by_trial(limit):
    return tuple(n for n in range(2, limit + 1) if all(n % p for p in range(2, math.isqrt(n) + 1)))


def primes_up_to_by_trial(limit):
    """All primes <= limit by trial division."""
    return list(_primes_up_to_by_trial(limit))


def _empty_prime_table():
    table = np.empty(0, dtype=np.int64)
    table.setflags(write=False)
    return table


@pytest.fixture
def sieves(monkeypatch):
    """The limits of the outermost ``_primes_up_to`` calls from here on.

    The sieve finds its base primes by calling itself; those inner calls
    are not recorded.
    """
    limits, depth = [], []
    sieve = fredholm._primes_up_to

    def recording(limit):
        if not depth:
            limits.append(limit)
        depth.append(limit)
        try:
            return sieve(limit)
        finally:
            depth.pop()

    monkeypatch.setattr(fredholm, "_primes_up_to", recording)
    return limits


class TestPrimes:
    @pytest.fixture(autouse=True)
    def empty_table(self, monkeypatch):
        # every test starts from a cold table, so the sieve (and any patched
        # _SIEVE_BLOCK, _prime_bound or _primes_up_to) really runs
        monkeypatch.setattr(fredholm, "_PRIMES", _empty_prime_table())

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

    @pytest.mark.parametrize("block", [8, 37, 1000, 20_000, 40_000])
    def test_blocks_not_dividing_the_wheel(self, monkeypatch, block):
        # 15015 = 3 5 7 11 13 odd slots per wheel turn: none of these blocks
        # divides it, so every block starts at another phase of the pattern,
        # and 40000 copies a whole turn inside one block
        monkeypatch.setattr(fredholm, "_SIEVE_BLOCK", block)
        for limit in (30_028, 30_030, 30_032, 100_003):
            assert fredholm._primes_up_to(limit).tolist() == primes_up_to_by_trial(limit)

    @pytest.mark.parametrize("limit", [*range(21), 15_013, 15_014, 15_015, 15_016, 15_017,
                                       30_028, 30_029, 30_030, 30_031, 30_032])
    def test_limits_straddling_the_wheel(self, limit):
        primes = fredholm._primes_up_to(limit)
        assert primes.tolist() == primes_up_to_by_trial(limit)
        assert primes.dtype == np.int64 and primes.flags.c_contiguous
        assert primes.flags.owndata  # not a view of the larger sieve output

    def test_wheel_pattern(self):
        wheel = fredholm._WHEEL
        assert len(wheel) == fredholm._WHEEL_SLOTS == 3 * 5 * 7 * 11 * 13
        assert not wheel.flags.writeable
        odd = np.arange(1, 2 * len(wheel), 2)
        assert np.array_equal(wheel, np.gcd(odd, 15015) == 1)

    @pytest.mark.parametrize("k, p_k", [(39_016, 467_471), (39_017, 467_473),
                                        (10**6, 15_485_863), (2 * 10**6, 32_452_843)])
    def test_bound_holds_and_is_never_doubled(self, monkeypatch, k, p_k):
        bound = fredholm._prime_bound(k)
        assert bound >= p_k
        limits = []
        sieve = fredholm._primes_up_to

        def recording(limit):
            limits.append(limit)
            return sieve(limit)

        monkeypatch.setattr(fredholm, "_primes_up_to", recording)
        assert int(first_k_primes(k)[-1]) == p_k
        assert max(limits) == bound  # the first sieve was long enough

    def test_dusart_bound_from_39017(self):
        # Dusart: p_k <= k (ln k + ln ln k - 0.9484); the sieve to the
        # millionth prime stops at 15.49M, not 16.44M
        assert fredholm._prime_bound(10**6) < 15_500_000
        assert fredholm._prime_bound(39_016) > fredholm._prime_bound(39_017)

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
        for primes in (first_k_primes(k), first_k_primes(k)):  # sieved, then from the table
            assert primes.dtype == np.int64
            assert primes.flags.c_contiguous
            with pytest.raises(ValueError):
                primes[0] = 4
            with pytest.raises(ValueError):  # the array owning the table is read-only
                primes.setflags(write=True)
        assert fredholm._PRIMES.flags.owndata and not fredholm._PRIMES.flags.writeable

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

    def test_sieves_only_when_the_table_is_short(self, sieves):
        first_k_primes(1000)
        assert sieves == [fredholm._prime_bound(1000)]
        for k in (1000, 1, 999, 500):
            first_k_primes(k)
        assert len(sieves) == 1
        first_k_primes(5000)
        assert sieves == [fredholm._prime_bound(1000), fredholm._prime_bound(5000)]

    def test_second_zeta_check_does_not_sieve(self, sieves):
        first = run_zeta_check(2, 2, 10**6)
        assert len(sieves) == 1
        second = run_zeta_check(2, 2, 10**6)
        assert len(sieves) == 1
        assert second.records == first.records

    def test_sieve_above_the_cap_is_not_kept(self, monkeypatch, sieves):
        monkeypatch.setattr(fredholm, "_PRIMES_KEPT", 100)
        first_k_primes(50)  # 56 primes up to _prime_bound(50) = 266: kept
        kept = fredholm._PRIMES
        assert len(kept) == 56
        primes = first_k_primes(1000)
        assert primes.tolist() == trial_division_primes(1000)
        with pytest.raises(ValueError):
            primes.setflags(write=True)
        assert fredholm._PRIMES is kept
        first_k_primes(1000)
        assert len(sieves) == 3  # not kept, so sieved again
        first_k_primes(50)
        assert len(sieves) == 3

    def test_count_above_max_primes_refused_before_sieving(self, monkeypatch):
        def no_sieve(limit):
            raise AssertionError("sieved a count above MAX_PRIMES")

        monkeypatch.setattr(fredholm, "_primes_up_to", no_sieve)
        for k in (fredholm.MAX_PRIMES + 1, 10**13):
            for call in (lambda: first_k_primes(k),
                         lambda: zeta_ratio_product(2.0, k),
                         lambda: states.zeta_spectrum(2.0, 2.0, k),
                         lambda: run_zeta_check(2.0, 2.0, k)):
                with pytest.raises(DomainError, match="prime count must be <= 100000000"):
                    call()


@settings(max_examples=60, deadline=None)
@given(ks=st.lists(st.integers(1, 5000), min_size=1, max_size=8))
def test_prime_table_gives_the_prefix_at_every_call(ks):
    # any order of counts, from a cold table: each call is the first k primes
    want = primes_up_to_by_trial(48_611)  # p_5000 = 48611
    warm = fredholm._PRIMES
    fredholm._PRIMES = _empty_prime_table()
    try:
        for k in ks:
            assert first_k_primes(k).tolist() == want[:k]
    finally:
        fredholm._PRIMES = warm


@pytest.mark.parametrize("call", [
    lambda n: states.log_power_spectrum(1.5, n),
    lambda n: states.squeezed_schmidt_spectrum(1.0, n),
    lambda n: gauss_legendre(n, 0.0, 1.0),
    lambda n: fredholm_det(KERNELS["constant"][0], 0.5, 0.0, 1.0, m=n),
    lambda n: entropy.log_det_ren([0.5, 0.5], 0.5, alpha=n),
    lambda n: entropy.hy_bound(n, 2, 1),
    lambda n: first_k_primes(n),
    lambda n: run_xstate_experiment([2], n),
    lambda n: run_gaussian_experiment([0.5], n_max=50, m=n),
    lambda n: run_gaussian_experiment([0.5], n_max=n),
], ids=["log_power_spectrum", "squeezed_schmidt_spectrum", "gauss_legendre",
        "fredholm_det", "log_det_ren", "hy_bound", "first_k_primes", "run_xstate_experiment",
        "run_gaussian_experiment-m", "run_gaussian_experiment-n_max"])
def test_counts_are_integers(call):
    # rounded, refused with a bare TypeError/ValueError, or nan before
    for bad in (2.5, math.nan, np.float64(3.0)):
        with pytest.raises(DomainError):
            call(bad)
    call(np.int64(3))


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

    @pytest.mark.parametrize("q", [107.0, 108.0, 1e44, 1e45, 1e300])
    def test_series_once_the_tail_underflows(self, q):
        # once 1024^-q underflows the sum is its head, 1.0; from about q = 1e45 the
        # B_2..B_8 terms were an overflowing rising factorial times 0, NaN
        assert zeta_series(q) == 1.0

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
        with pytest.raises(DomainError, match=r"zeta order q must be finite and in \(1, inf\)"):
            zeta_ratio_product(q, 10**6)
        with pytest.raises(DomainError, match=r"zeta order q must be finite and in \(1, inf\)"):
            states.zeta_spectrum(q, 2.0, 10**6)
        assert calls == []

    @pytest.mark.parametrize("q", [1.1, 1.5, 2.0, 2.6, 4.0, 8.0])
    def test_series_against_mpmath(self, q):
        with mpmath.workdps(50):
            want = mpmath.zeta(q)
            assert abs((mpmath.mpf(zeta_series(q)) - want) / want) < 1e-15

    def test_domain(self):
        for fn in (lambda: zeta_series(1.0), lambda: zeta_ratio_product(0.5, 3),
                   lambda: prime_tail_bound(1.0, 10),
                   lambda: zeta_series(math.nan), lambda: zeta_series(math.inf),
                   lambda: zeta_ratio_product(math.nan, 3), lambda: prime_tail_bound(math.nan, 10),
                   lambda: prime_tail_bound(2.0, 0), lambda: prime_tail_bound(2.0, -3),
                   lambda: prime_tail_bound(2.0, 2.5),
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
    def old_formula(kernel, z, rule):
        # reference: the kernel on two full m x m meshgrid arrays, then eye + z W^1/2 K W^1/2
        xi, xj = np.meshgrid(rule.nodes, rule.nodes, indexing="ij")
        kmat = np.asarray(kernel.evaluator(xi, xj), dtype=float)
        sw = np.sqrt(rule.weights)
        return np.eye(rule.m) + z * np.outer(sw, sw) * kmat

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_equals_meshgrid_formula(self, name):
        kernel = KERNELS[name][0]
        for m, z, a, b in ((1, 0.7, 0.0, 1.0), (7, -0.3, -1.5, 2.0), (64, 1.3, 0.0, 2.5)):
            rule = gauss_legendre(m, a, b)
            got = nystrom_matrix(kernel, z, rule)
            assert got.shape == (m, m)
            assert np.array_equal(got, self.old_formula(kernel, z, rule))

    def test_broadcastable_and_read_only_kernel_results(self):
        # constant kernel: det(1 + zK) = 1 + z (b - a) at every m
        m, z, a, b = 9, -0.5, 0.0, 1.0
        col = np.ones((m, 1))
        frozen = np.ones((m, m))
        frozen.setflags(write=False)
        for evaluator in (lambda x, y: 1.0, lambda x, y: col, lambda x, y: frozen):
            det = fredholm_det(evaluator, z, a, b, m)
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


def nystrom_det_rank_one(phi, z, a, b, m):
    """The exact m-node Nystrom determinant 1 + z sum_i w_i phi(x_i)^2."""
    return math.exp(nystrom_log_rank_one(phi, z, a, b, m))


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
        raises=DomainError,
        reason="ACA stops at rank 1, the exp(x + y) part alone; the entrywise grid check "
        "rejects that (it gave 594.4746 when the check was relative to max|A| ~ e^600), "
        "and the dense LU, whose rounding m eps max|A| buries the identity, is refused",
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

    @pytest.mark.parametrize("m", [10, 400])
    def test_steep_kernel_with_full_rank_part_is_refused(self, m):
        # the m = 10 grid is one block, the m = 400 grid many: on both the entrywise
        # check rejects ACA's rank-one factors, and the dense LU, which gave 2778.31
        # at m = 10, is rounding noise
        kernel = KernelSpec(lambda x, y: np.exp(x + y) + np.exp(-np.abs(x - y)), "steep-kink")
        for det in (fredholm_det, log_fredholm_det):
            with pytest.raises(DomainError, match="rounding noise") as info:
                det(kernel, 1.0, 0.0, 300.0, m)
            assert not isinstance(info.value, (NonFiniteKernel, NonPositiveDeterminant))

    @pytest.mark.parametrize("m", [40, 400])
    def test_dense_route_refused_from_m_eps_max_a_of_one(self, m):
        # exp(-|x - y|) is no low rank and peaks on the diagonal, at z max w; the
        # refusal reads machine epsilon, not the grid tolerance
        kink = KernelSpec(lambda x, y: np.exp(-np.abs(x - y)), "kink")
        peak = m * np.finfo(float).eps * gauss_legendre(m, 0.0, 1.0).weights.max()
        for ratio in (0.5, 0.99):
            sign, logdet, rank = fredholm._nystrom_logdet(kink, ratio / peak, 0.0, 1.0, m)
            assert rank == m
            assert (sign, logdet) == tuple(map(float, dense_slogdet(kink, ratio / peak, 0.0, 1.0, m)))
        for ratio in (1.01, 2.0):
            with pytest.raises(DomainError, match="rounding noise"):
                fredholm._nystrom_logdet(kink, ratio / peak, 0.0, 1.0, m)

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
        # m = 40 factors the one-block grid in place, m = 700 calls nystrom_matrix
        kink = KernelSpec(lambda x, y: np.exp(-np.abs(x - y)), "kink")
        rule = gauss_legendre(m, 0.0, 5.0)
        det = fredholm_det(kink, 0.5, 0.0, 5.0, m)
        sign, logdet = np.linalg.slogdet(nystrom_matrix(kink, 0.5, rule))
        assert det == sign * math.exp(logdet)
        raw_sign, raw_logdet = np.linalg.slogdet(kw_matrix(kink, 0.5, rule))
        assert det == pytest.approx(raw_sign * math.exp(raw_logdet), rel=1e-12)

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

    @pytest.mark.parametrize("marked", [False, True])
    @pytest.mark.parametrize("m", [40, 181, 400, 2000])
    def test_overflow_before_a_nan_is_a_non_finite_kernel(self, m, marked):
        # an entry of A that overflows in one row block and a NaN kernel value in a
        # later one, each mirrored and off every ACA cross: the error is
        # nystrom_matrix's whatever the grid shape
        rule = gauss_legendre(m, 0.0, 1.0)
        big, bad = (m // 4, m // 2), (3 * m // 4, 2 * m // 3)
        z = 4.0 / math.sqrt(rule.weights[big[0]] * rule.weights[big[1]])

        def at(x, y, i, j):
            bx, by = rule.nodes[i], rule.nodes[j]
            return ((x == bx) & (y == by)) | ((x == by) & (y == bx))

        def evaluator(x, y):
            return np.where(at(x, y, *bad), np.nan,
                            np.where(at(x, y, *big), 1e308, np.exp(x + y)))

        kernel = (fredholm._SymmetricKernel if marked else KernelSpec)(evaluator, "bad")
        for det in (fredholm_det, log_fredholm_det):
            with pytest.raises(NonFiniteKernel):
                det(kernel, z, 0.0, 1.0, m)
        with pytest.raises(NonFiniteKernel):
            nystrom_matrix(kernel, z, rule)
        # alone, the overflowing entry is a DomainError
        alone = lambda x, y: np.where(at(x, y, *big), 1e308, np.exp(x + y))
        with pytest.raises(DomainError, match="overflows") as info:
            log_fredholm_det(alone, z, 0.0, 1.0, m)
        assert not isinstance(info.value, NonFiniteKernel)

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
        m = math.isqrt(fredholm._BLOCK_VALUES)  # the largest grid that is one block
        log_fredholm_det(evaluator, 1.0, 0, 1, m)
        assert seen == [((m, 1), (1, m))]

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


def entrywise_within_tolerance(amat, u, vt):
    """The grid check entry by entry over the whole of A: the checks' oracle.

    ``|A - u @ vt| <= _GRID_TOL max(|A|, 1)`` at every entry; a residual that
    is not finite fails.
    """
    residual = np.abs(u @ vt - amat)
    return bool((residual <= fredholm._GRID_TOL * np.maximum(np.abs(amat), 1.0)).all())


def exact_factors(phis, z, rule):
    """``(u, vt)`` with ``u @ vt = z W^1/2 K W^1/2`` for ``K = sum_l phi_l(x) phi_l(y)``."""
    sw = np.sqrt(rule.weights)
    vt = np.array([sw * phi(rule.nodes) for phi in phis])
    return np.ascontiguousarray(z * vt.T), vt


class TestGridCheck:
    """The one-block and the blocked grid check against the entrywise rule.

    The tests named ``..._agrees_with_two_pass`` compare each check with
    ``entrywise_within_tolerance``, which forms the residual over the whole
    of A and then compares it entry by entry.
    """

    PHIS = {1: (np.exp,), 2: (np.exp, lambda x: 0.5 * np.sin(3.0 * x))}

    @staticmethod
    def spiked(phis, bad_x, bad_y, delta):
        def evaluator(x, y):
            smooth = sum(phi(x) * phi(y) for phi in phis)
            return smooth + np.where((x == bad_x) & (y == bad_y), delta, 0.0)
        return evaluator

    @staticmethod
    def mirrored(phis, bad_x, bad_y, delta):
        """The spiked kernel with its spike at (bad_x, bad_y) and at (bad_y, bad_x)."""
        def evaluator(x, y):
            smooth = sum(phi(x) * phi(y) for phi in phis)
            at = ((x == bad_x) & (y == bad_y)) | ((x == bad_y) & (y == bad_x))
            return smooth + np.where(at, delta, 0.0)
        return evaluator

    @classmethod
    def bad_kernel(cls, phis, bad_x, bad_y, delta, marked):
        """The spiked kernel, or the mirrored one marked symmetric."""
        if marked:
            return fredholm._SymmetricKernel(cls.mirrored(phis, bad_x, bad_y, delta), "mirrored")
        return cls.spiked(phis, bad_x, bad_y, delta)

    @classmethod
    @functools.lru_cache(maxsize=None)
    def smooth(cls, rank, z, m, b=1.0):
        """The rule on (0, b), sqrt(w), exact factors and A of the unspiked kernel."""
        rule = gauss_legendre(m, 0.0, b)
        sw = np.sqrt(rule.weights)
        f = cls.spiked(cls.PHIS[rank], 0.0, 0.0, 0.0)
        amat = fredholm._weighted_block(f, rule, z, sw, slice(None), slice(None))
        amat.setflags(write=False)
        return rule, sw, *exact_factors(cls.PHIS[rank], z, rule), amat

    def decide(self, rank, z, m, row, col, t, marked=False, b=1.0):
        rule, sw, u, vt, smooth = self.smooth(rank, z, m, b)
        # a spike of t times the entry's tolerance, in A's units, at (row, col),
        # and at (col, row) too for a marked kernel
        limit = fredholm._GRID_TOL * max(abs(smooth[row, col]), 1.0)
        delta = t * limit / (abs(z) * sw[row] * sw[col])
        kernel = self.bad_kernel(self.PHIS[rank], rule.nodes[row], rule.nodes[col], delta, marked)
        amat = smooth.copy()  # the spiked kernel's A, which differs at the spikes only
        for i, j in {(row, col), (col, row)} if marked else {(row, col)}:
            amat[i, j] = fredholm._weighted_block(
                fredholm._evaluator(kernel), rule, z, sw, slice(i, i + 1), slice(j, j + 1))[0, 0]
        want = entrywise_within_tolerance(amat, u, vt)
        with np.errstate(all="ignore"):
            if m * m <= fredholm._BLOCK_VALUES:
                got = fredholm._one_block_within_tolerance(amat, u, vt)
            else:
                got = fredholm._within_tolerance(kernel, rule, z, sw, u, vt)[0]
        return got, want

    @pytest.mark.parametrize("t", [0.9, 1.1, -0.9, -1.1])
    @pytest.mark.parametrize("rank", [1, 2])
    @pytest.mark.parametrize("z", [0.7, -1.3])
    def test_spike_at_block_edges(self, t, rank, z):
        m = 600
        step = fredholm._BLOCK_VALUES // m
        assert m % step  # the last block is ragged
        rows = (0, step - 1, step, 2 * step - 1, m - m % step, m - 2, m - 1)  # 0, m - 1: least sw
        for row in rows:
            for col in (0, 517, m - 1):
                got, want = self.decide(rank, z, m, row, col, t)
                assert got == want == (abs(t) < 1.0), (row, col)

    @pytest.mark.parametrize("t", [0.9, 1.1])
    @pytest.mark.parametrize("m", [40, math.isqrt(fredholm._BLOCK_VALUES), 2000])
    def test_spike_on_one_block_and_on_many(self, t, m):
        for row, col in ((0, m - 1), (m // 2, 3), (m - 1, m // 3)):
            got, want = self.decide(1, 1.0, m, row, col, t)
            assert got == want == (t < 1.0), (row, col)

    @pytest.mark.parametrize("t", [0.9, 1.1, -0.9, -1.1])
    @pytest.mark.parametrize("rank", [1, 2])
    @pytest.mark.parametrize("m", [1, 2, 5, 40, math.isqrt(fredholm._BLOCK_VALUES)])
    def test_one_block_check_agrees_with_two_pass(self, t, rank, m):
        for row, col in ((0, m - 1), (m // 2, m // 3), (m - 1, 0)):
            got, want = self.decide(rank, -1.3, m, row, col, t)
            assert got == want == (abs(t) < 1.0), (row, col)

    @pytest.mark.parametrize("m", [1, 5, math.isqrt(fredholm._BLOCK_VALUES)])
    def test_one_block_check_fails_on_infinite_factors(self, monkeypatch, m):
        # an inf in U makes the residual inf or NaN: the check fails, as the
        # formula's does, and the determinant takes the dense route
        rule, sw, u, vt, amat = self.smooth(1, 1.0, m)
        bad = u.copy()
        bad[m // 2, 0] = math.inf
        assert not fredholm._one_block_within_tolerance(amat, bad, vt)
        assert not entrywise_within_tolerance(amat, bad, vt)
        aca = fredholm._aca

        def infinite_aca(*args):
            u, vt = aca(*args)
            u = u.copy()
            u[m // 2, 0] = math.inf
            return u, vt

        monkeypatch.setattr(fredholm, "_aca", infinite_aca)
        got = fredholm._nystrom_logdet(EXP1, 1.0, 0.0, 1.0, m)
        assert got == (*map(float, dense_slogdet(EXP1, 1.0, 0.0, 1.0, m)), m)

    @pytest.mark.parametrize("m", [1, 2, 5, 40, math.isqrt(fredholm._BLOCK_VALUES)])
    def test_one_block_at_zero_coupling_is_exactly_one(self, m):
        # A = 0: ACA stops with no cross, the check holds on 0 <= 0, the core is empty
        assert fredholm._nystrom_logdet(EXP1, 0.0, 0.0, 1.0, m) == (1.0, 0.0, 0)
        assert fredholm_det(EXP1, 0.0, 0.0, 1.0, m) == 1.0
        rule, sw, u, vt, amat = self.smooth(1, 0.0, m)
        assert fredholm._one_block_within_tolerance(amat, u, vt)
        assert entrywise_within_tolerance(amat, u, vt)

    @pytest.mark.parametrize("check", ["_one_block_within_tolerance", "_within_tolerance"])
    def test_grid_shape_picks_the_check(self, monkeypatch, check):
        # the largest one-block grid never reaches the blocked check, the next
        # grid never reaches the one-block check
        def refuse(*args):
            raise AssertionError(f"{check} called")

        monkeypatch.setattr(fredholm, check, refuse)
        m = math.isqrt(fredholm._BLOCK_VALUES)
        for size in (m, m + 1):
            if (size == m) == (check == "_one_block_within_tolerance"):
                with pytest.raises(AssertionError, match=check):
                    log_fredholm_det(EXP1, 1.0, 0.0, 1.0, size)
            else:
                assert log_fredholm_det(EXP1, 1.0, 0.0, 1.0, size) == pytest.approx(
                    nystrom_log_rank_one(np.exp, 1.0, 0.0, 1.0, size), abs=1e-13)

    def near_the_float_maximum(self, m, marked):
        # A spike of about 1e308 in A's units sends one row past _NEAR_MAX: the grid
        # is re-decided whole in A's units and the check fails, as the formula's does
        rule = gauss_legendre(m, 0.0, 1.0)
        sw = np.sqrt(rule.weights)
        row, col = m // 2, m // 3
        z = 1e8 / (sw[row] * sw[col])
        u, vt = exact_factors(self.PHIS[1], z, rule)
        kernel = self.bad_kernel(self.PHIS[1], rule.nodes[row], rule.nodes[col], 1e300, marked)
        every = slice(None)
        with np.errstate(all="ignore"):
            amat = fredholm._weighted_block(fredholm._evaluator(kernel), rule, z, sw, every, every)
            assert fredholm._within_tolerance(kernel, rule, z, sw, u, vt)[0] is False
        assert np.abs(amat).max() > fredholm._NEAR_MAX
        assert not entrywise_within_tolerance(amat, u, vt)

    @pytest.mark.parametrize("m", [400, 2000])
    def test_row_scale_near_the_float_maximum_is_redecided(self, m):
        self.near_the_float_maximum(m, marked=False)

    @pytest.mark.parametrize("m", [400, 2000])
    def test_triangle_row_scale_near_the_float_maximum_is_redecided(self, m):
        self.near_the_float_maximum(m, marked=True)

    def overflowing_in_a_units_only(self, marked):
        # (sqrt(w_i) sqrt(w_j) z) K overflows while |z sqrt(w_i)| (K sqrt(w_j)), the
        # blocked check's order, rounds to the float maximum: the row's peak is past
        # _NEAR_MAX, so _weighted_block re-decides the grid and raises
        m, z, row, col = 400, 1e3, 100, 250
        rule = gauss_legendre(m, 0.0, 1.0)
        sw = np.sqrt(rule.weights)
        k = np.nextafter(np.finfo(float).max / (z * sw[row] * sw[col]), 0.0)
        with np.errstate(over="ignore"):
            while np.isfinite(sw[row] * sw[col] * z * k):
                k = np.nextafter(k, np.inf)
            assert np.isfinite(abs(z * sw[row]) * (k * sw[col]))
        # k in the spiked kernel's own entry, and in its mirror for a marked one
        kernel = self.bad_kernel((np.exp,), rule.nodes[row], rule.nodes[col], k, marked)
        u, vt = exact_factors(self.PHIS[1], z, rule)
        with np.errstate(all="ignore"), pytest.raises(DomainError, match="overflows") as info:
            fredholm._within_tolerance(kernel, rule, z, sw, u, vt)
        assert not isinstance(info.value, NonFiniteKernel)

    def test_entry_overflowing_in_a_units_only_is_a_domain_error(self):
        self.overflowing_in_a_units_only(marked=False)

    def test_triangle_entry_overflowing_in_a_units_only_is_a_domain_error(self):
        self.overflowing_in_a_units_only(marked=True)

    @pytest.mark.parametrize("t", [0.9, 1.1, -0.9, -1.1])
    @pytest.mark.parametrize("rank", [1, 2])
    @pytest.mark.parametrize("z", [0.7, -1.3])
    def test_triangle_check_agrees_with_two_pass(self, t, rank, z):
        # test_spike_at_block_edges for a marked kernel: a mirrored spike, on and off
        # the diagonal, at the edges of the triangle's row blocks
        m = 600
        first = fredholm._BLOCK_VALUES // m  # rows of the first block
        for row, col in ((0, 0), (0, m - 1), (first - 1, first), (first, first - 1),
                         (first, 517), (m - 2, m - 1), (m - 1, m - 1), (m // 2, m // 2)):
            got, want = self.decide(rank, z, m, row, col, t, marked=True)
            assert got == want == (abs(t) < 1.0), (row, col)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_blocked_check_agrees_with_two_pass(self, data):
        # a spike of 0.5 to 2 times the tolerance at any cell, end rows and columns
        # (the least sqrt(w)) drawn often; within 1% of the tolerance both checks
        # round the spike's own value, so that band is left out. On (0, 200) at
        # m = 182 the middle sqrt(w) is 1.3: a bound that dropped max sqrt(w) there
        # would pass a spike of 1.1 times the tolerance
        m = data.draw(st.sampled_from([182, 600]), label="m")
        b = data.draw(st.sampled_from([1.0, 200.0]), label="b")
        cell = st.one_of(st.sampled_from([0, m - 1]), st.integers(0, m - 1))
        row, col = data.draw(cell, label="row"), data.draw(cell, label="col")
        t = data.draw(st.one_of(st.floats(0.5, 0.99), st.floats(1.01, 2.0)), label="t")
        sign = data.draw(st.sampled_from([1.0, -1.0]), label="sign")
        rank = data.draw(st.sampled_from([1, 2]), label="rank")
        z = data.draw(st.sampled_from([0.7, -1.3]), label="z")
        marked = data.draw(st.booleans(), label="marked")
        got, want = self.decide(rank, z, m, row, col, sign * t, marked, b)
        assert got == want == (t < 1.0)

    @pytest.mark.parametrize("m", [182, 600, 2000])
    @pytest.mark.parametrize("factor", ["u", "vt"])
    def test_error_below_the_diagonal_only_fails(self, m, factor):
        # U V^T of a symmetric A, changed below the diagonal only: in row m - 1
        # of U along a vector orthogonal to column m - 1 of V^T, or in column 0
        # of V^T along a vector orthogonal to row 0 of U; the upper triangle
        # (diagonal included) still passes, so both triangles must be read
        # by 10 times the tolerance, which is _GRID_TOL itself where |A| < 1
        z = 0.8
        rule, sw, u, vt, amat = self.smooth(2, z, m)
        u, vt = u.copy(), vt.copy()
        assert np.abs(amat).max() < 1.0
        if factor == "u":
            w = np.array([vt[1, -1], -vt[0, -1]])  # row m - 1 of U V^T moves by t (w @ vt)
            u[-1] += 10.0 * fredholm._GRID_TOL / np.abs(w @ vt).max() * w
        else:
            e = np.array([u[0, 1], -u[0, 0]])  # column 0 of U V^T moves by t (u @ e)
            vt[:, 0] += 10.0 * fredholm._GRID_TOL / np.abs(u @ e).max() * e
        residual = u @ vt - amat
        assert np.abs(np.triu(residual)).max() <= fredholm._GRID_TOL
        assert not entrywise_within_tolerance(amat, u, vt)
        f = self.spiked(self.PHIS[2], 0.0, 0.0, 0.0)
        for kernel in (fredholm._SymmetricKernel(f, "rank two"), f):
            assert fredholm._within_tolerance(kernel, rule, z, sw, u, vt)[0] is False


class TestBlockedPath:
    """The determinant on grids of many blocks (m > isqrt(_BLOCK_VALUES))."""

    @pytest.mark.parametrize("m", [400, 2000])
    def test_broadcastable_and_read_only_kernel_results(self, m):
        # constant kernel: det(1 + zK) = 1 + z (b - a) at every m
        z, a, b = -0.5, 0.0, 1.0
        frozen = np.ones((1, m))
        frozen.setflags(write=False)
        for evaluator in (
            lambda x, y: 1.0,
            lambda x, y: np.ones_like(x),  # a column
            lambda x, y: frozen if y.shape[1] == m else np.ones((1, 1)),  # a read-only row
            lambda x, y: np.broadcast_to(1.0, np.broadcast_shapes(x.shape, y.shape)),
            lambda x, y: np.ones(np.broadcast_shapes(x.shape, y.shape), dtype=np.int64),
        ):
            assert fredholm_det(evaluator, z, a, b, m) == pytest.approx(0.5, abs=1e-13)
        assert np.array_equal(frozen, np.ones((1, m)))

    @pytest.mark.parametrize("m, z, a, b", [
        (400, 0.0, 0.0, 1.0), (2000, 0.0, 0.0, 1.0), (400, 1.0, 0.0, 1e-300),
        (2000, -1.0, 0.0, 1e-300), (400, 1.0, 0.0, 1e-320), (400, 1e300, 0.0, 1e-320),
    ])
    def test_vanishing_weights_or_coupling_give_one(self, m, z, a, b):
        # at (0, 1e-320) the endpoint weights are 0, so rows of A are 0 (c_i = 0)
        assert fredholm_det(EXP1, z, a, b, m) == 1.0
        assert log_fredholm_det(EXP1, z, a, b, m) == pytest.approx(0.0, abs=1e-290)

    @pytest.mark.parametrize("m", [400, 2000])
    def test_non_finite_kernels_keep_their_errors(self, m):
        every_inf = lambda x, y: np.full(np.broadcast_shapes(x.shape, y.shape), np.inf)
        for z in (0.0, 1.0):
            with pytest.raises(NonFiniteKernel):
                log_fredholm_det(every_inf, z, 0.0, 1.0, m)
        # NaN at one grid entry that no ACA row or column reads
        rule = gauss_legendre(m, 0.0, 1.0)
        bad_x, bad_y = rule.nodes[2 * m // 3], rule.nodes[m // 3]
        nan_off = lambda x, y: np.where((x == bad_x) & (y == bad_y), np.nan, np.exp(x + y))
        for det in (fredholm_det, log_fredholm_det):
            with pytest.raises(NonFiniteKernel):
                det(nan_off, 1.0, 0.0, 1.0, m)

    @pytest.mark.parametrize("m", [400, 2000])
    def test_overflowing_entry_off_the_crosses_is_a_domain_error(self, m):
        # K is finite everywhere, but z sqrt(w_i w_j) K overflows at one entry no
        # cross reads
        rule = gauss_legendre(m, 0.0, 1.0)
        bad_x, bad_y = rule.nodes[2 * m // 3], rule.nodes[m // 3]
        spike = lambda x, y: np.where((x == bad_x) & (y == bad_y), 1e308, np.exp(x + y))
        z = 4.0 / math.sqrt(rule.weights[2 * m // 3] * rule.weights[m // 3])
        for det in (fredholm_det, log_fredholm_det):
            with pytest.raises(DomainError, match="overflows") as info:
                det(spike, z, 0.0, 1.0, m)
            assert not isinstance(info.value, NonFiniteKernel)
        # at z = 1e-3 every entry of A is finite, but the spike, about 2e302 in A,
        # puts the dense LU's rounding m eps max|A| past the identity: refused
        with pytest.raises(DomainError, match="rounding noise") as info:
            fredholm._nystrom_logdet(spike, 1e-3, 0.0, 1.0, m)
        assert not isinstance(info.value, NonFiniteKernel)
        # at z = 1e-295 the spike is about 2e10 in A, no low rank, and the dense
        # LU decides
        got = fredholm._nystrom_logdet(spike, 1e-295, 0.0, 1.0, m)
        assert got == (*map(float, dense_slogdet(spike, 1e-295, 0.0, 1.0, m)), m)

    def test_kernel_times_weight_overflows_but_a_does_not(self):
        # on (0, 1000) sqrt(w_j) > 1, so K sqrt(w_j) overflows at the spike while
        # z sqrt(w_i w_j) K does not: that block is re-decided in A's units
        m = 400
        rule = gauss_legendre(m, 0.0, 1000.0)
        i, j = m // 2, m // 3
        assert math.sqrt(rule.weights[j]) > 1.0
        bad_x, bad_y = rule.nodes[i], rule.nodes[j]
        spike = lambda x, y: np.where((x == bad_x) & (y == bad_y), 1.7e308, 0.0)
        sign, logdet, rank = fredholm._nystrom_logdet(spike, 1e-310, 0.0, 1000.0, m)
        assert (sign, logdet, rank) == (*map(float, dense_slogdet(spike, 1e-310, 0.0, 1000.0, m)), m)

    @pytest.mark.parametrize("m", [1000, 2000])
    @pytest.mark.parametrize("name", ["squeezed", "exp"])
    def test_bound_decides_the_benchmark_kernels(self, m, name):
        # the squeezed kernel (marked, rank 9-20) and an unmarked exp(x + y) pass
        # on the bound: the evaluator sees ACA's rows and columns and row blocks,
        # never the whole grid
        seen = []

        def spy(f):
            def evaluator(x, y):
                seen.append((x.shape, y.shape))
                return f(x, y)
            return evaluator

        if name == "squeezed":
            kernel = fredholm._SymmetricKernel(spy(states.squeezed_kernel().evaluator), name)
        else:
            kernel = KernelSpec(spy(lambda x, y: np.exp(x + y)), name)
        for z, b in ((0.5, 0.5), (1.0, 1.3), (1.5, 2.0)):
            seen.clear()
            rank = fredholm._nystrom_logdet(kernel, z, 0.0, b, m)[2]
            assert rank < 30
            assert seen and ((m, 1), (1, m)) not in seen

    def test_one_pass_decides_a_residual_near_the_tolerance(self):
        # a draw of the benchmark's: ACA stops at rank 13 with a residual of 0.45 of
        # max|A| times the tolerance, at an end column, where the row bound's
        # max sqrt(w) puts it at 1.6; the entrywise rule, whose tolerance there is
        # _GRID_TOL itself, accepts it in the one pass, and the grid is never whole
        m, z, b = 2000, 1.0515762578728332, 1.1213942323531108
        rows = []

        def evaluator(x, y):
            assert (x.shape[0], y.shape[1]) != (m, m)
            if x.shape[0] > 1 and y.shape[1] > 1:
                rows.append(x.shape[0])
            return states.squeezed_kernel().evaluator(x, y)

        kernel = fredholm._SymmetricKernel(evaluator, "squeezed")
        assert fredholm._nystrom_logdet(kernel, z, 0.0, b, m)[2] == 13
        assert sum(rows) == m  # every row block once

    @pytest.mark.parametrize("case", ["bump", "marked bump", "weight overflow"])
    def test_failed_check_evaluates_the_grid_once(self, case):
        # the check fails after ACA returned factors: a bump off every ACA cross
        # (mirrored for the marked kernel), or a kernel value whose product with
        # sqrt(w_j) overflows; the dense LU factors the grid the check built
        m = 600
        a, b, z = (0.0, 1000.0, 1e-310) if case == "weight overflow" else (0.0, 1.0, 1.0)
        rule = gauss_legendre(m, a, b)
        bx, by = rule.nodes[2 * m // 3], rule.nodes[m // 3]
        whole = []

        def evaluator(x, y):
            if x.shape == (m, 1) and y.shape == (1, m):
                whole.append(True)
            at = ((x == bx) & (y == by)) | ((x == by) & (y == bx))
            if case == "weight overflow":
                return np.where(at, 1.7e308, 0.0)
            return np.exp(x + y) + np.where(at, 1e-3, 0.0)

        marked = case == "marked bump"
        kernel = (fredholm._SymmetricKernel if marked else KernelSpec)(evaluator, case)
        aca, factors = fredholm._aca, []

        def recorded_aca(*args):
            factors.append(aca(*args))
            return factors[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fredholm, "_aca", recorded_aca)
            got = fredholm._nystrom_logdet(kernel, z, a, b, m)
        assert len(factors[0][1]) < 2  # ACA returned rank 0 or 1, so the check ran
        assert len(whole) == 1
        assert got == (*map(float, dense_slogdet(kernel, z, a, b, m)), m)

    def test_peak_memory_is_a_few_blocks_plus_the_factors(self):
        m = 2000
        fredholm_det(EXP1, 1.0, 0.0, 1.0, m)  # the rule is cached
        tracemalloc.start()
        try:
            fredholm_det(EXP1, 1.0, 0.0, 1.0, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block = fredholm._BLOCK_VALUES // m * m * 8
        factors = 2 * fredholm._rank_cap(m) * m * 8  # ACA's rows and columns, at the cap
        assert peak < factors + 4 * block

    def test_rank_one_peak_memory_is_below_the_aca_cap(self):
        # ACA's buffers start at four crosses and double as they fill; at the
        # full cap (100 crosses of 2000) they alone set a 3.33 MB peak
        m = 2000
        fredholm_det(EXP1, 1.0, 0.0, 1.0, m)  # the rule is cached
        tracemalloc.start()
        try:
            det = fredholm_det(EXP1, 1.0, 0.0, 1.0, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert det == pytest.approx(nystrom_det_rank_one(np.exp, 1.0, 0.0, 1.0, m), rel=1e-13)
        assert peak < 3_330_000

    @pytest.mark.parametrize("rank", [1, 4, 5, 9, 17])
    @pytest.mark.parametrize("cap", [5, 6, 9, 40])
    def test_aca_buffers_grow_to_the_rank(self, rank, cap):
        # an exact rank-r matrix: ACA returns the crosses that reproduce it when
        # r < cap, None when r >= cap; buffers of 4 rows grow to 8, 16 and 32
        m = 60
        rng = np.random.default_rng(rank)
        amat = rng.standard_normal((m, rank)) @ rng.standard_normal((rank, m))
        factors = fredholm._aca(amat.__getitem__, lambda j: amat[:, j], m, cap)
        if rank >= cap:
            assert factors is None
        else:
            u, vt = factors
            assert rank <= len(vt) <= rank + 1  # maybe one cross of rounding noise
            assert u.shape == (m, len(vt)) and vt.shape == (len(vt), m)
            assert np.abs(u @ vt - amat).max() <= 1e-12 * np.abs(amat).max()

    @staticmethod
    def assert_row_blocks(seen, nodes, marked):
        """The evaluator's calls, past ACA's single rows and columns, are row blocks
        in order over every row: ``x[s:e, None]`` against ``x[None, s:]`` from the
        diagonal for a marked kernel, against ``x[None, :]`` for an unmarked one."""
        start = 0
        for x, y in seen:
            if x.shape[0] == 1 or y.shape[1] == 1:  # an ACA row or column
                continue
            assert np.array_equal(x[:, 0], nodes[start : start + len(x)])
            assert np.array_equal(y[0], nodes[start if marked else 0 :])
            assert len(x) * y.shape[1] <= fredholm._BLOCK_VALUES
            start += len(x)
        assert start == len(nodes)

    def test_marked_kernel_called_on_triangle_blocks(self):
        seen = []

        def evaluator(x, y):
            seen.append((x.copy(), y.copy()))
            return np.exp(x + y)

        m = 1000
        nodes = gauss_legendre(m, 0.0, 1.0).nodes
        got = []
        for kernel, marked in ((fredholm._SymmetricKernel(evaluator, "exp"), True),
                               (KernelSpec(evaluator, "exp"), False), (evaluator, False)):
            seen.clear()
            got.append(log_fredholm_det(kernel, 1.0, 0, 1, m))
            self.assert_row_blocks(seen, nodes, marked)
        assert got[0] == pytest.approx(nystrom_log_rank_one(np.exp, 1.0, 0.0, 1.0, m), abs=1e-13)
        assert got[0] == got[1] == got[2]

    @pytest.mark.parametrize("case", ["nan", "inf", "nan-diagonal", "overflow"])
    def test_marked_kernel_errors_match_unmarked(self, case):
        # a bad entry and its mirror, off every ACA cross: the blocked pass sees it,
        # and the grid is then evaluated once whole, which raises as nystrom_matrix does
        m = 400
        rule = gauss_legendre(m, 0.0, 1.0)
        i, j = (m // 2, m // 2) if case == "nan-diagonal" else (2 * m // 3, m // 3)
        bad_x, bad_y = rule.nodes[i], rule.nodes[j]
        value = {"nan": np.nan, "inf": np.inf, "nan-diagonal": np.nan, "overflow": 1e308}[case]
        z = 4.0 / math.sqrt(rule.weights[i] * rule.weights[j]) if case == "overflow" else 1.0
        seen = []

        def evaluator(x, y):
            seen.append((x.copy(), y.copy()))
            at = ((x == bad_x) & (y == bad_y)) | ((x == bad_y) & (y == bad_x))
            return np.where(at, value, np.exp(x + y))

        errors = []
        for kernel, marked in ((KernelSpec(evaluator, "bad"), False),
                               (fredholm._SymmetricKernel(evaluator, "bad"), True)):
            seen.clear()
            with pytest.raises(DomainError) as info:
                log_fredholm_det(kernel, z, 0.0, 1.0, m)
            errors.append(type(info.value))
            x, y = seen.pop()  # the last call: the whole grid
            assert np.array_equal(x[:, 0], rule.nodes) and np.array_equal(y[0], rule.nodes)
            self.assert_row_blocks(seen, rule.nodes, marked)
        assert errors[0] is errors[1]
        assert errors[0] is (DomainError if case == "overflow" else NonFiniteKernel)
        with pytest.raises(errors[0]):
            nystrom_matrix(evaluator, z, rule)


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


# A rank-3 kernel at m = 272, whose rank cap is 4: the fourth singular value of
# its grid is 5.8e-14 of the first, above _ACA_TOL and below _GRID_TOL, so ACA's
# fourth cross is rounding noise. As sin * cos terms, sin(u) being cos(u - pi/2):
_CAP_NOISE_TERMS = [(1.0, 0.0, 1.0), (1.0, 1.5, 0.0), (0.25, 1.0, 0.0)]
_CAP_NOISE_SEPARABLE = [(c, p, q, p, q - math.pi / 2) for c, p, q in _CAP_NOISE_TERMS]


@settings(max_examples=60, deadline=None)
@given(terms=_terms, t=_signed(0.9), a=st.floats(-3.0, 3.0),
       length=st.floats(0.1, 4.0), m=st.integers(1, 300))
@example(terms=_CAP_NOISE_SEPARABLE, t=0.5, a=0.0, length=2.0, m=272)
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
    # blocks of one row, of 37 values and of 1000 (one block up to m = 31): bit for bit the same
    for block in (1, 37, 1000):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fredholm, "_BLOCK_VALUES", block)
            assert fredholm._nystrom_logdet(kernel, z, a, b, m) == (sign, logdet, rank)


def _symmetric_separable(terms):
    """K(x, y) = sum_j c_j sin(p_j x + q_j) sin(p_j y + q_j), bitwise symmetric, |K| <= sum |c_j|.

    ``c * (s_x * s_y)``: the product of the two sines commutes bit for bit,
    where ``(c * s_x) * s_y`` would not.
    """
    def evaluator(x, y):
        return sum(c * (np.sin(p * x + q) * np.sin(p * y + q)) for c, p, q in terms)
    return fredholm._SymmetricKernel(evaluator, "symmetric separable")


_symmetric_terms = st.lists(st.tuples(_signed(1.0), _freq, _signed(1.0)), min_size=1, max_size=3)


@settings(max_examples=60, deadline=None)
@given(terms=_symmetric_terms, t=_signed(0.9), a=st.floats(-3.0, 3.0),
       length=st.floats(0.1, 4.0), m=st.integers(1, 300))
@example(terms=_CAP_NOISE_TERMS, t=0.5, a=0.0, length=2.0, m=272)
def test_symmetric_low_rank_agrees_with_dense(terms, t, a, length, m):
    # test_low_rank_agrees_with_dense for a marked kernel: on a blocked grid
    # it is checked over one triangle
    b = a + length
    kernel = _symmetric_separable(terms)
    nodes = gauss_legendre(m, a, b).nodes
    grid = kernel.evaluator(nodes[:, None], nodes[None, :])
    assert np.array_equal(grid.view(np.int64), grid.T.view(np.int64))  # the mark holds
    z = t / (length * sum(abs(term[0]) for term in terms) + 1e-300)
    sign, logdet, rank = fredholm._nystrom_logdet(kernel, z, a, b, m)
    want_sign, want = dense_slogdet(kernel, z, a, b, m)
    assert sign == want_sign
    assert abs(logdet - want) <= 1e-12 * max(1.0, abs(want))
    if fredholm._rank_cap(m) > len(terms):
        assert rank <= len(terms)
    # blocks of one row, of 37 values and of 1000 (one block up to m = 31): bit for bit the same
    for block in (1, 37, 1000):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fredholm, "_BLOCK_VALUES", block)
            assert fredholm._nystrom_logdet(kernel, z, a, b, m) == (sign, logdet, rank)


@pytest.mark.parametrize("kernel", [_separable(_CAP_NOISE_SEPARABLE),
                                    _symmetric_separable(_CAP_NOISE_TERMS)],
                         ids=["unmarked", "marked"])
def test_noise_cross_at_the_rank_cap_keeps_the_low_rank_route(kernel):
    # ACA drops the noise cross that would reach the cap and the grid check
    # accepts the three before it; the dense LU used to take this kernel
    z, a, b, m = 0.5 / 4.5, 0.0, 2.0, 272
    assert fredholm._rank_cap(m) == 4
    sign, logdet, rank = fredholm._nystrom_logdet(kernel, z, a, b, m)
    want_sign, want = dense_slogdet(kernel, z, a, b, m)
    assert rank == 3
    assert sign == want_sign
    assert abs(logdet - want) <= 1e-12 * max(1.0, abs(want))


def _marked_kernels():
    """Every kernel the library marks symmetric: the squeezed kernel and ``KERNELS``."""
    kernels = {k.name: k for k in (states.squeezed_kernel(), *(k for k, _ in KERNELS.values()))}
    return [k for k in kernels.values() if isinstance(k, fredholm._SymmetricKernel)]


def test_the_library_marks_three_kernels():
    assert sorted(k.name for k in _marked_kernels()) == ["constant", "exp-rank-one", "squeezed"]
    assert not isinstance(KernelSpec(np.add, "user"), fredholm._SymmetricKernel)


def _assert_bitwise_symmetric(nodes):
    nodes = np.asarray(nodes, dtype=float)
    for kernel in _marked_kernels():
        with np.errstate(all="ignore"):  # exp and cosh overflow to inf far out
            grid = np.asarray(kernel.evaluator(nodes[:, None], nodes[None, :]), dtype=float)
        bits = grid.view(np.int64)
        assert np.array_equal(bits, bits.T), kernel.name


@settings(max_examples=100, deadline=None)
@given(nodes=st.lists(st.floats(-60.0, 60.0), min_size=1, max_size=80))
def test_marked_kernels_are_bitwise_symmetric_on_random_nodes(nodes):
    _assert_bitwise_symmetric(nodes)


@settings(max_examples=100, deadline=None)
@given(nodes=st.lists(st.floats(-1e3, -1e-300), min_size=1, max_size=80))
def test_marked_kernels_are_bitwise_symmetric_on_negative_nodes(nodes):
    _assert_bitwise_symmetric(nodes)


@settings(max_examples=60, deadline=None)
@given(r=st.floats(1e-3, 20.0), m=st.integers(1, 400))
def test_marked_kernels_are_bitwise_symmetric_on_sweep_rules(r, m):
    # the gaussian sweep's interval, (0, max(r, 0.25)), and its default m = 40
    for size in (m, 40):
        _assert_bitwise_symmetric(gauss_legendre(size, 0.0, max(r, 0.25)).nodes)


@pytest.mark.parametrize("b", [0.25, 2.0, 20.0])
def test_marked_kernels_are_bitwise_symmetric_on_large_rules(b):
    _assert_bitwise_symmetric(gauss_legendre(2000, 0.0, b).nodes)
