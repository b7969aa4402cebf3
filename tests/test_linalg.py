import numpy as np
import pytest

from entrodet import (
    DensityMatrix,
    as_spectrum,
    eig_hermitian,
    matrix_function,
    partial_trace,
    schatten_norm,
    spectrum_of,
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
        # a reduction is wrapped as a DensityMatrix, so its input is checked;
        # eigvalsh of the lower triangle gave ln 2 here
        bad = np.eye(4, dtype=complex) / 4
        bad[0, 1] += 0.05
        with pytest.raises(NotHermitian):
            von_neumann(partial_trace(bad, 2, 2, "B"))
        # the reduction [[0.5, 0.05], [0, 0.5]] was at distance 0.0 from I/2
        with pytest.raises(NotHermitian):
            trace_distance(np.array([[0.5, 0.05], [0.0, 0.5]]), np.eye(2) / 2)
        with pytest.raises(NotHermitian):
            trace_distance(np.eye(2) / 2, m)

    def test_values_are_the_admitted_solver_values(self, rng):
        # reversed eigh values are in order, so none is moved off its column
        for _ in range(20):
            q = ginibre_density(rng, int(rng.integers(2, 17)))
            spec, _ = eig_hermitian(q)
            assert spec.values.tobytes() == np.linalg.eigh(q.mat)[0][::-1].tobytes()
            assert spec.is_normalized
            # eigvalsh runs another LAPACK driver: equal up to the last bits
            assert np.abs(spec.values - as_spectrum(np.linalg.eigvalsh(q.mat)).values).max() < 1e-15

    def test_diagonal_sorted(self):
        spec, u = eig_hermitian(np.diag([0.3, 0.7]).astype(complex))
        assert np.allclose(spec.values, [0.7, 0.3])
        # permutation eigenvectors
        assert np.allclose(np.abs(u), [[0, 1], [1, 0]])

    def test_bell_pure(self):
        spec, _ = eig_hermitian(BELL)
        assert np.allclose(spec.values, [1, 0, 0, 0], atol=1e-12)

    def test_reconstruction_random(self, rng):
        # oracle: U diag(sigma) U^dag must reproduce the input; pure states
        # add rounding-level eigenvalues of both signs, which are clamped
        for q in [ginibre_density(rng, 8).mat for _ in range(20)] + [
                random_pure_bipartite(rng, 3, 4) for _ in range(10)]:
            spec, u = eig_hermitian(q)
            assert (spec.values >= 0).all()
            rec = (u * spec.values) @ u.conj().T
            assert np.linalg.norm(rec - q) < 1e-10

    def test_unitary_factor(self, rng):
        q = ginibre_density(rng, 6)
        _, u = eig_hermitian(q)
        assert np.abs(u.conj().T @ u - np.eye(6)).max() < 1e-10


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

    @pytest.mark.parametrize("d_a,d_b", [(2.0, 2.0), (2, 2.0), (0, 4), (4, 0), (-2, -2)])
    def test_dimensions_are_counts(self, d_a, d_b):
        with pytest.raises(DomainError, match="subsystem dimension"):
            partial_trace(BELL, d_a, d_b, "A")


class TestSchattenNorms:
    def test_trace_norm_of_state(self):
        assert schatten_norm(np.eye(2) / 2, 1) == pytest.approx(1.0, abs=1e-14)

    def test_power_sum_oracle(self):
        assert trace_power(np.diag([0.7, 0.3]), 2) == pytest.approx(0.58, abs=1e-15)
        assert trace_power([0.7, 0.3], 2) == pytest.approx(0.58, abs=1e-15)
        assert schatten_norm(np.diag([0.7, 0.3]), 2) ** 2 == pytest.approx(0.58, abs=1e-15)

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
        for p in (np.nan, np.inf):
            with pytest.raises(DomainError):
                schatten_norm(np.eye(2) / 2, p)
        with pytest.raises(DomainError):
            trace_power(np.eye(2) / 2, -1.0)


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


def sorted_coercion_reference(values):
    """The coercion that always sorts: negate, sort ascending, negate, clamp."""
    arr = np.negative(np.asarray(values, dtype=float).ravel())
    arr.sort()
    np.negative(arr, out=arr)
    arr[arr < 0] = 0.0
    return arr


def _zeros(n, seed):
    # +0.0 and -0.0 in a seeded order
    return np.where(np.random.default_rng(seed).random(n) < 0.5, 0.0, -0.0)


def _read_only(a):
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


_N = np.arange(2, 10_002, dtype=float)
_LOG_POWER = 1.0 / (_N * np.log(_N) ** 1.5)
_EIGVALSH = np.linalg.eigvalsh(ginibre_density(np.random.default_rng(5), 40).mat)

COERCION_CASES = {
    "non-increasing": _LOG_POWER / _LOG_POWER.sum(),
    "non-increasing list": [0.5, 0.25, 0.125, 0.125],
    "ascending eigvalsh": _EIGVALSH,
    "ascending with tiny negatives": [-1e-12, -1e-14, 0.25, 0.75],
    "unordered": np.random.default_rng(6).random(1000),
    "positive ties": [0.25, 0.25, 0.25, 0.125, 0.125],
    "signed zeros": _zeros(64, 7),
    "ties and signed zeros": np.concatenate([[0.5, 0.25, 0.25], _zeros(40, 8)]),
    "signed zeros after tiny negatives": [0.5, 0.5, 0.0, -0.0, -1e-13, -0.0, 0.0],
    "length 0": [],
    "length 1": [0.7],
    "length 1 zero": [-0.0],
    "read-only non-increasing": _read_only([0.6, 0.3, 0.1]),
    "read-only unordered": _read_only([0.1, 0.6, 0.3]),
    "strided": (_LOG_POWER / _LOG_POWER.sum())[::3],
    "two-dimensional": np.asfortranarray([[0.4, 0.2], [0.3, 0.1]]),
}


class TestCoercionOrder:
    """``as_spectrum`` skips the sort of an already-ordered copy, bit for bit."""

    @pytest.mark.parametrize("case", list(COERCION_CASES))
    def test_bits_equal_the_sorting_path(self, case):
        values = COERCION_CASES[case]
        before = np.array(values, dtype=float)
        spec = as_spectrum(values)
        want = sorted_coercion_reference(before)
        assert spec.values.dtype == np.float64
        assert np.array_equal(spec.values.view(np.int64), want.view(np.int64))
        assert not spec.values.flags.writeable
        # the input is neither modified nor aliased
        assert np.array_equal(np.array(values, dtype=float).view(np.int64),
                              before.view(np.int64))
        if isinstance(values, np.ndarray):
            assert not np.shares_memory(spec.values, values)

    @pytest.mark.parametrize("bad", [[0.5, np.nan, 0.2], [np.nan, 0.5, 0.2], [0.9, 0.1, np.nan],
                                     [np.nan], [np.inf, 1.0, 0.5], [1.0, 0.5, np.inf],
                                     [np.inf], [np.nan, np.inf, 0.0]])
    def test_non_finite_still_rejected(self, bad):
        values = np.array(bad)
        with pytest.raises(NotPositive):
            as_spectrum(values)
        assert np.array_equal(values, bad, equal_nan=True)


class TestSpectrumOf:
    def test_spectrum_passes_through(self):
        s = as_spectrum([0.7, 0.3])
        assert spectrum_of(s) is s
        assert spectrum_of(s, normalized=True) is s

    def test_sequence_goes_to_as_spectrum(self):
        s = spectrum_of([0.3, 0.7, -1e-12])
        assert s.values.tolist() == [0.7, 0.3, 0.0]
        assert s.is_normalized
        with pytest.raises(NotNormalized):
            spectrum_of([0.5, 0.4], normalized=True)

    def test_matrix_eigenvalues_sorted(self, rng):
        q = ginibre_density(rng, 7)
        for x in (q, np.array(q.mat)):
            s = spectrum_of(x)
            assert np.all(np.diff(s.values) <= 0)
            assert s.is_normalized
            assert np.abs(s.values - np.sort(np.linalg.eigvalsh(q.mat))[::-1]).max() < 1e-14

    def test_one_eigvalsh_no_eigenvectors(self, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append("eigvalsh") or eigvalsh(m))
        monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append("eigh"))
        spectrum_of(np.diag([0.7, 0.3]))
        assert calls == ["eigvalsh"]

    def test_matrix_checks(self):
        with pytest.raises(NotHermitian):
            spectrum_of(np.array([[0.5, 1.0], [0.0, 0.5]]))
        with pytest.raises(DimensionMismatch):
            spectrum_of(np.ones((2, 3)))
        with pytest.raises(NotPositive):
            spectrum_of(np.diag([1.1, -0.1]))
        with pytest.raises(NotNormalized):
            spectrum_of(np.eye(2), normalized=True)
        assert not spectrum_of(np.eye(2)).is_normalized
