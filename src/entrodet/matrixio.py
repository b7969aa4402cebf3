"""Bit-exact JSON interchange format for complex matrices.

A matrix file is a JSON object ``{"dim": n, "re": [[...]], "im": [[...]]}``
with ``re`` and ``im`` both n x n row-major arrays of JSON numbers. Files
are read and written with orjson, which writes each float as its shortest
round-trip decimal (``0.00001``, ``1e16``, ``-0.0``), so a save/load cycle
reproduces the matrix bit for bit, signed zeros and subnormals included.
Files written by the standard library's ``json.dumps`` load the same.
JSON has no NaN or infinity, so a non-finite matrix is refused on save,
and a file holding ``NaN``/``Infinity`` tokens, an overflowing number
such as ``1e400``, or a non-numeric entry fails to load. Files hold at
most 9999 opening brackets, so dim is at most 4998 (see below).
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

import numpy as np
import orjson

from .linalg import MatrixLike, _as_matrix

PathLike = Union[str, Path]

# orjson 3.8 parses nested arrays and objects by recursion and overflows the
# C stack (SIGSEGV) between depths 1.2e5 and 1.5e5 on an 8 MiB stack. A
# document nests no deeper than its count of opening brackets, and a dim-n
# matrix file has 2n + 3 of them. Files with more than a dim-_MAX_DIM file
# are refused before parsing, and larger matrices are not saved.
_MAX_DIM = 4998
_MAX_OPEN_BRACKETS = 2 * _MAX_DIM + 3


def save_matrix(path: PathLike, mat: MatrixLike) -> None:
    """Write a square array or :class:`~entrodet.linalg.DensityMatrix` as a matrix file.

    Raises ``ValueError``, and writes nothing, for a matrix that is not square,
    whose dim is outside 1..4998, or that has a non-finite entry.
    """
    m = _as_matrix(mat)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not 1 <= m.shape[0] <= _MAX_DIM:  # load_matrix refuses dim 0
        raise ValueError(f"dim {m.shape[0]} is outside the matrix file limits 1..{_MAX_DIM}")
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries, which JSON cannot hold")
    payload = {
        "dim": m.shape[0],
        "re": m.real.tolist(),
        "im": m.imag.tolist(),
    }
    Path(path).write_bytes(orjson.dumps(payload))


def _square_array(payload: dict, key: str, n: int) -> np.ndarray:
    # No dtype: strings, nulls and all-boolean rows then show in the dtype
    # kind instead of being coerced to floats.
    part = np.array(payload[key])
    if part.dtype.kind not in "iuf":
        raise ValueError(f"{key} entries must be JSON numbers, got dtype {part.dtype}")
    if part.shape != (n, n):
        raise ValueError(f"{key} has shape {part.shape}, expected ({n}, {n}) from dim")
    return part


def load_matrix(path: PathLike) -> np.ndarray:
    """Read a matrix file, rejecting mismatched shapes and non-numeric entries."""
    data = Path(path).read_bytes()
    octets = np.frombuffer(data, dtype=np.uint8)
    opening = np.count_nonzero(octets == ord("[")) + np.count_nonzero(octets == ord("{"))
    if opening > _MAX_OPEN_BRACKETS:
        raise ValueError(
            f"matrix file has {opening} opening brackets, more than {_MAX_OPEN_BRACKETS}"
        )
    payload = orjson.loads(data)
    if not isinstance(payload, dict):
        raise ValueError("matrix file must contain a JSON object")
    for key in ("dim", "re", "im"):
        if key not in payload:
            raise ValueError(f"matrix file is missing key {key!r}")
    n = payload["dim"]
    if type(n) is not int or n <= 0:  # bool is an int subclass
        raise ValueError(f"dim must be a positive integer, got {n!r}")
    re = _square_array(payload, "re", n)
    im = _square_array(payload, "im", n)
    # np.array coerces a boolean among numbers to 1/0. A file without a
    # ``t`` or ``f`` byte holds no ``true``/``false``. That byte search is a
    # memchr pass (about 0.1 ms at dim 256), so only files holding one of
    # those bytes pay for the exact scan.
    if (b"t" in data or b"f" in data) and any(
        type(x) is bool for rows in (payload["re"], payload["im"]) for row in rows for x in row
    ):
        raise ValueError("re/im entries must be JSON numbers, got a boolean")
    out = np.empty((n, n), dtype=complex)
    out.real = re
    out.imag = im
    return out
