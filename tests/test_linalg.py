import numpy as np
import pytest

from entrodet import (
    DensityMatrix,
    as_spectrum,
    eig_hermitian,
    matrix_function,
    partial_trace,
    power_sum,
    schatten_norm,
    trace_distance,
    trace_power,
    validate_density,
    von_neumann,
)
from entrodet.errors import (
    DimensionMismatch,
    DomainError,
    NotHermitian,
    NotNormalized,
    NotPositive,
    TraceNotOne,
)

from conftest import ginibre_density, haar_unitary, random_pure_bipartite

BELL = np.zeros((4, 4), dtype=complex)
BELL[np.ix_([0, 3], [0, 3])] = 0.5


class TestValidateDensity:
    def test_maximally_mixed(self):
        q = validate_density(np.eye(2) / 2)
        assert q.dim == 2
        assert abs(q.mat.trace().real - 1.0) < 1e-15

    def test_diagonal_state(self):
        q = validate_density(np.diag([0.7, 0.3]))
        assert isinstance(q, DensityMatrix)

    def test_not_positive(self):
        with pytest.raises(NotPositive):
            validate_density(np.diag([1.2, -0.2]))

    def test_not_hermitian(self):
        m = np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex)
        with pytest.raises(NotHermitian):
            validate_density(m)
        with pytest.raises(NotHermitian):
            validate_density(np.array([[0.5, np.nan], [np.nan, 0.5]]))

    def test_trace_not_one(self):
        with pytest.raises(TraceNotOne):
            validate_density(np.eye(2))

    def test_non_square(self):
        with pytest.raises(DimensionMismatch):
            validate_density(np.ones((2, 3)))

    def test_accepts_density_matrix_input(self):
        q = validate_density(np.eye(3) / 3)
        q2 = validate_density(q)
        assert np.array_equal(q.mat, q2.mat)


class TestEigHermitian:
    def test_bare_non_hermitian_rejected(self):
        # the solver reads one triangle; this would come out as [1, 0] or ln 2
        m = np.array([[0.5, 1.0], [0.0, 0.5]])
        with pytest.raises(NotHermitian):
            eig_hermitian(m)
        with pytest.raises(NotHermitian):
            von_neumann(m)

    def test_diagonal_sorted(self):
        spec, u = eig_hermitian(np.diag([0.3, 0.7]).astype(complex))
        assert np.allclose(spec.values, [0.7, 0.3])
        # permutation eigenvectors
        assert np.allclose(np.abs(u.mat), [[0, 1], [1, 0]])

    def test_bell_pure(self):
        spec, _ = eig_hermitian(BELL)
        assert np.allclose(spec.values, [1, 0, 0, 0], atol=1e-12)

    def test_reconstruction_random(self, rng):
        # oracle: U diag(sigma) U^dag must reproduce the input
        for _ in range(20):
            q = ginibre_density(rng, 8)
            spec, u = eig_hermitian(q)
            rec = (u.mat * spec.values) @ u.mat.conj().T
            assert np.linalg.norm(rec - q.mat) < 1e-10

    def test_unitary_factor(self, rng):
        q = ginibre_density(rng, 6)
        _, u = eig_hermitian(q)
        assert np.abs(u.mat.conj().T @ u.mat - np.eye(6)).max() < 1e-10


class TestMatrixFunction:
    def test_identity_map(self, rng):
        q = ginibre_density(rng, 5)
        out = matrix_function(q, lambda x: x)
        assert np.abs(out - q.mat).max() < 1e-12

    def test_zero_limit_convention(self):
        # lam^-lam - 1 evaluates to 0 at both lam = 1 and lam = 0
        out = matrix_function(np.diag([1.0, 0.0]).astype(complex),
                              lambda lam: lam ** (-lam) - 1.0)
        assert np.abs(out).max() < 1e-14

    def test_scalar_oracle(self):
        out = matrix_function(np.diag([0.7, 0.3]).astype(complex),
                              lambda lam: np.expm1(lam**2))
        got = np.sort(np.diag(out).real)
        assert np.allclose(got, [0.094174283705210358, 0.63231621995537897],
                           rtol=0, atol=1e-14)

    def test_commutes_with_conjugation(self, rng):
        f = lambda lam: np.expm1(lam**2)
        for _ in range(10):
            q = ginibre_density(rng, 5)
            u = haar_unitary(rng, 5)
            lhs = matrix_function(u @ q.mat @ u.conj().T, f)
            rhs = u @ matrix_function(q, f) @ u.conj().T
            assert np.abs(lhs - rhs).max() < 1e-10

    def test_non_finite_map(self):
        with np.errstate(divide="ignore"), pytest.raises(DomainError):
            matrix_function(np.diag([0.5, 0.5]).astype(complex), lambda lam: 1.0 / (lam - 0.5))


class TestPartialTrace:
    def test_product_state(self, rng):
        qa = ginibre_density(rng, 3).mat
        qb = ginibre_density(rng, 4).mat
        q = np.kron(qa, qb)
        assert np.abs(partial_trace(q, 3, 4, "A").mat - qa).max() < 1e-12
        assert np.abs(partial_trace(q, 3, 4, "B").mat - qb).max() < 1e-12

    def test_bell_reduction(self):
        red = partial_trace(BELL, 2, 2, "A")
        assert np.abs(red.mat - np.eye(2) / 2).max() < 1e-14

    def test_against_index_loop_oracle(self, rng):
        q = ginibre_density(rng, 16).mat  # 4 (x) 4
        for keep in ("A", "B"):
            got = partial_trace(q, 4, 4, keep).mat
            ref = np.zeros((4, 4), dtype=complex)
            for i in range(4):
                for k in range(4):
                    for j in range(4):
                        if keep == "A":
                            ref[i, k] += q[i * 4 + j, k * 4 + j]
                        else:
                            ref[i, k] += q[j * 4 + i, j * 4 + k]
            assert np.abs(got - ref).max() < 1e-14
            assert abs(got.trace().real - 1.0) < 1e-12
            assert np.linalg.eigvalsh(got).min() > -1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            partial_trace(BELL, 3, 2, "A")

    def test_bad_keep(self):
        with pytest.raises(DomainError):
            partial_trace(BELL, 2, 2, "C")


class TestSchattenNorms:
    def test_trace_norm_of_state(self):
        assert schatten_norm(np.eye(2) / 2, 1) == pytest.approx(1.0, abs=1e-14)

    def test_power_sum_oracle(self):
        assert power_sum(np.diag([0.7, 0.3]), 2) == pytest.approx(0.58, abs=1e-15)
        assert power_sum([0.7, 0.3], 2) == pytest.approx(0.58, abs=1e-15)

    def test_trace_norm_of_difference(self):
        d = np.diag([0.7, 0.3]) - np.diag([0.3, 0.7])
        assert schatten_norm(d, 1) == pytest.approx(0.8, abs=1e-14)

    def test_density_trace_norm_is_one(self, rng):
        for d in (2, 5, 9):
            q = ginibre_density(rng, d)
            assert schatten_norm(q, 1) == pytest.approx(1.0, abs=1e-12)

    def test_quasi_norm_order(self):
        s = schatten_norm(np.diag([0.7, 0.3]), 0.5)
        assert s == pytest.approx((0.7**0.5 + 0.3**0.5) ** 2, abs=1e-13)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            schatten_norm(np.eye(2), 0.0)
        with pytest.raises(DomainError):
            power_sum(np.eye(2), -1.0)


class TestTraceDistance:
    def test_equal_states(self, rng):
        q = ginibre_density(rng, 4)
        assert trace_distance(q, q) == pytest.approx(0.0, abs=1e-14)

    def test_orthogonal_pure(self):
        assert trace_distance(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) == pytest.approx(2.0)

    def test_diagonal_pair(self):
        assert trace_distance(np.diag([0.7, 0.3]), np.diag([0.6, 0.4])) == pytest.approx(
            0.2, abs=1e-14
        )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            trace_distance(np.eye(2) / 2, np.eye(3) / 3)


class TestSpectrum:
    def test_sorting_and_clamp(self):
        s = as_spectrum([0.3, 0.7, -1e-12])
        assert np.all(np.diff(s.values) <= 0)
        assert s.values.min() == 0.0
        assert s.is_normalized

    def test_negative_rejected(self):
        with pytest.raises(NotPositive):
            as_spectrum([1.1, -0.1])

    def test_non_finite_rejected(self):
        for bad in ([0.5, np.nan], [0.5, np.inf]):
            with pytest.raises(NotPositive):
                as_spectrum(bad)
            with pytest.raises(NotPositive):
                trace_power(bad, 2)

    def test_normalization_demand(self):
        with pytest.raises(NotNormalized):
            as_spectrum([0.5, 0.4], normalized=True)
        s = as_spectrum([0.5, 0.4])
        assert not s.is_normalized

    def test_pure_bipartite_schmidt_symmetry(self, rng):
        # nonzero spectra of the two reductions of a pure state coincide
        for _ in range(10):
            d_a, d_b = rng.integers(2, 5, size=2)
            q = random_pure_bipartite(rng, d_a, d_b)
            sa = eig_hermitian(partial_trace(q, d_a, d_b, "A"))[0].values
            sb = eig_hermitian(partial_trace(q, d_a, d_b, "B"))[0].values
            k = min(d_a, d_b)
            assert np.abs(sa[:k] - sb[:k]).max() < 1e-10
