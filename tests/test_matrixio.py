import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from entrodet import load_matrix, matrixio, save_matrix, states, validate_density


def json_save(path, mat):
    """The reference writer: the standard library's ``json.dumps`` of the payload."""
    m = np.asarray(mat, dtype=complex)
    payload = {"dim": m.shape[0], "re": m.real.tolist(), "im": m.imag.tolist()}
    path.write_text(json.dumps(payload), encoding="utf-8")


def complex_from_parts(re, im):
    """Complex array with exactly these parts (``re + 1j * im`` can flip signed zeros)."""
    out = np.empty(np.shape(re), dtype=complex)
    out.real, out.imag = re, im
    return out


# Raw float64 bit patterns: sign, biased exponent 0..2046 (0 gives subnormals
# and zeros; 2047 would be inf/NaN) and mantissa, plus +-0, the smallest
# subnormals, the largest subnormal and +-max drawn often.
_SPECIAL_BITS = [0, 1 << 63, 1, (1 << 63) | 1, (1 << 52) - 1,
                 0x7FEF_FFFF_FFFF_FFFF, 0xFFEF_FFFF_FFFF_FFFF]
_FINITE_BITS = st.one_of(
    st.sampled_from(_SPECIAL_BITS),
    st.builds(lambda s, e, f: (s << 63) | (e << 52) | f,
              st.integers(0, 1), st.integers(0, 2046), st.integers(0, (1 << 52) - 1)),
)


@st.composite
def finite_complex_matrices(draw):
    n = draw(st.integers(1, 16))
    parts = draw(arrays(np.uint64, (2, n, n), elements=_FINITE_BITS)).view(np.float64)
    return complex_from_parts(parts[0], parts[1])


def test_round_trip_bit_exact(tmp_path, rng):
    m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    path = tmp_path / "m.json"
    save_matrix(path, m)
    back = load_matrix(path)
    assert np.array_equal(back, m)  # bit-exact, not just close


@pytest.mark.parametrize("writer", [save_matrix, json_save], ids=["save_matrix", "json.dumps"])
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(m=finite_complex_matrices())
def test_round_trip_bit_patterns(tmp_path, writer, m):
    path = tmp_path / "m.json"
    writer(path, m)
    back = load_matrix(path)
    assert back.dtype == complex and back.shape == m.shape
    assert np.array_equal(back.view(np.int64), m.view(np.int64))
    if writer is save_matrix:  # the standard library reads the new files exactly too
        payload = json.loads(path.read_text(encoding="utf-8"))
        again = complex_from_parts(np.array(payload["re"]), np.array(payload["im"]))
        assert np.array_equal(again.view(np.int64), m.view(np.int64))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.5, np.nan), complex(0.5, -np.inf)])
def test_save_rejects_non_finite(tmp_path, bad):
    m = np.eye(2, dtype=complex) / 2
    m[1, 0] = bad
    path = tmp_path / "bad.json"
    with pytest.raises(ValueError, match="non-finite"):
        save_matrix(path, m)
    assert not path.exists()


@pytest.mark.parametrize("make", [
    lambda: states.random_density(6, 3),
    lambda: validate_density(np.diag([0.75, 0.25])),
    lambda: states.x_state(np.array([0.4, 0.1, 0.2, 0.3]), np.array([0.1 + 0.2j, -0.05])),
    lambda: states.diag_state([0.5, 0.3, 0.2]),
], ids=["random_density", "validate_density", "x_state", "diag_state"])
def test_round_trip_density_matrix(tmp_path, make):
    state = make()
    path = tmp_path / "state.json"
    save_matrix(path, state)
    assert np.array_equal(load_matrix(path).view(np.int64), state.mat.view(np.int64))


def test_save_rejects_empty_matrix(tmp_path):
    path = tmp_path / "empty.json"
    with pytest.raises(ValueError, match="dim 0 is outside"):
        save_matrix(path, np.zeros((0, 0)))
    assert not path.exists()


def test_save_rejects_dim_above_limit(tmp_path):
    big = np.broadcast_to(np.complex128(0), (matrixio._MAX_DIM + 1,) * 2)  # no allocation
    with pytest.raises(ValueError, match="limit"):
        save_matrix(tmp_path / "big.json", big)


def test_load_bracket_limit(tmp_path):
    # An extra key nests one level per opening bracket.
    def padded(brackets):
        return ('{"dim": 1, "re": [[0.5]], "im": [[0]], "pad": '
                + "[" * brackets + "]" * brackets + "}")
    path = tmp_path / "padded.json"
    path.write_text(padded(matrixio._MAX_OPEN_BRACKETS - 5))  # 5 in the object, re and im
    assert load_matrix(path) == 0.5
    path.write_text(padded(matrixio._MAX_OPEN_BRACKETS - 4))
    with pytest.raises(ValueError, match="opening brackets"):
        load_matrix(path)


def test_save_rejects_non_square(tmp_path):
    with pytest.raises(ValueError):
        save_matrix(tmp_path / "bad.json", np.ones((2, 3)))


def test_load_rejects_shape_mismatch(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dim": 3, "re": [[1, 0], [0, 1]], "im": [[0, 0], [0, 0]]}))
    with pytest.raises(ValueError):
        load_matrix(path)


def test_load_rejects_missing_keys(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dim": 2, "re": [[1, 0], [0, 1]]}))
    with pytest.raises(ValueError):
        load_matrix(path)


def test_load_rejects_non_object(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("[1, 2, 3]")
    with pytest.raises(ValueError):
        load_matrix(path)


@pytest.mark.parametrize("text", [
    '{"dim": true, "re": [[1]], "im": [[0]]}',
    '{"dim": 1, "re": [["0.5"]], "im": [[0]]}',
    '{"dim": 2, "re": [[0.5, "0"], [0, 0.5]], "im": [[0, 0], [0, 0]]}',
    '{"dim": 2, "re": [[true, false], [false, true]], "im": [[0, 0], [0, 0]]}',
    '{"dim": 1, "re": [[null]], "im": [[0]]}',
    '{"dim": 2, "re": [[0.5, 0], [0, 0.5]], "im": [[0, false], [0, 0]]}',
    '{"dim": 2, "re": [[1, 0], [0, true]], "im": [[0, 0], [0, 0]]}',
], ids=["bool-dim", "string", "string-among-numbers", "all-boolean",
        "null", "boolean-among-zeros", "boolean-among-numbers"])
def test_load_rejects_non_numbers(tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(ValueError, match="dim must be|JSON numbers"):
        load_matrix(path)


def test_load_ignores_extra_keys(tmp_path):
    # The note's "t" and "f" bytes send the file through the exact boolean scan.
    path = tmp_path / "note.json"
    path.write_text('{"note": "a tiny state, from a file", "dim": 1, "re": [[1]], "im": [[-0.0]]}')
    back = load_matrix(path)
    assert np.array_equal(back.view(np.int64), complex_from_parts([[1.0]], [[-0.0]]).view(np.int64))
