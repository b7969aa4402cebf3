"""Reproducible experiment runners with self-describing CSV/JSON reports.

Each runner returns an :class:`ExperimentReport` whose result columns
are a pure function of (master seed, record index), so reruns are
byte-identical. The X-state sweep reads every spectrum off the closed
form of stacked X states, with no matrix built and no eigensolver.

CSV artifacts start with ``# key=value`` comment lines carrying the
schema version and the full parameter set, followed by a standard
header row ('.' decimal, ',' separator). Wall time is reported but
excluded from the determinism guarantee.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass

import numpy as np
import orjson

from . import entropy, fredholm, linalg, states
from .errors import (
    _MAX_COUNT,
    DomainError,
    _check_count,
    _check_real,
)

SCHEMA_VERSION = 1

TRIANGLE_SLACK = 1e-10  # |HY_A - HY_B| <= HY(Q) + slack
ZETA_SLACK = 1e-10      # |log det - analytic| <= tail bound + slack


@dataclass
class ExperimentReport:
    """One experiment run: parameters, result columns, summary.

    ``columns`` maps each column name, in CSV order, to a NumPy array or a
    list with one entry per row. The rows exist only as :attr:`records`.
    """

    experiment: str
    params: dict
    columns: dict
    summary: dict
    wall_time_s: float | None = None

    @property
    def records(self) -> list[dict]:
        """One dict per row, built on each access; arrays give their ``tolist()``."""
        values = [c.tolist() if isinstance(c, np.ndarray) else c for c in self.columns.values()]
        return [dict(zip(self.columns, row)) for row in zip(*values)]

    def to_json(self) -> str:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "experiment": self.experiment,
            "params": self.params,
            "summary": self.summary,
            "records": self.records,
            "wall_time_s": self.wall_time_s,
        }
        return _strict_json(payload)

    def to_csv(self) -> str:
        lines = [
            f"# schema_version={SCHEMA_VERSION}",
            f"# experiment={self.experiment}",
            f"# params={json.dumps(_jsonable(self.params))}",
            ",".join(self.columns),
            *map(",".join, zip(*map(_csv_column, self.columns.values()))),
        ]
        return "\n".join(lines) + "\n"


def _jsonable(v):
    """``v`` in plain JSON types: NumPy values as Python ones, and each non-finite float
    as its CSV cell text, ``"inf"``, ``"-inf"`` or ``"nan"``, which strict parsers read."""
    if isinstance(v, (np.ndarray, np.generic)):
        v = v.tolist()
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    return str(v) if isinstance(v, float) and not math.isfinite(v) else v


def _strict_json(payload) -> str:
    """The one JSON writer of reports and results: finite payloads keep their bytes."""
    return json.dumps(_jsonable(payload), allow_nan=False)


def _check_each(values, what: str, check) -> list:
    """The list of ``check(v)`` for each item of ``values``: a report column of Python
    scalars. :class:`DomainError` unless ``values`` is a non-empty sequence whose every
    item ``check`` admits."""
    try:
        count = len(values)
    except TypeError:
        raise DomainError(f"{what} must be a list, got {values!r}") from None
    if count == 0:
        raise DomainError(f"{what} must be non-empty")
    return [check(v) for v in values]


def _csv_column(col) -> list[str]:
    """One column's CSV cells: true/false, empty for None, else ``str`` (a float's repr).

    One orjson call writes the column. Its text equals ``str``'s for an int
    and for a float that is 0 or has 1e-4 <= |v| < 1e16 (shortest round-trip
    digits), but not for None, inf and nan (``null``), other floats (``1e16``,
    ``0.00001``) or other types, so those cells are rewritten with ``str``.
    """
    # orjson reads native integer and float64 arrays itself; it misreads a
    # byte-swapped array and would write a float32 array's own shortest
    # digits, not those of the floats tolist() gives
    if isinstance(col, np.ndarray) and (
        col.dtype == np.float64 or col.dtype.kind in "iu" and col.dtype.isnative
    ):
        values = np.ascontiguousarray(col)
        redo = []
        if values.dtype.kind == "f":
            mag = np.abs(values)
            redo = np.flatnonzero(~((mag == 0.0) | (mag >= 1e-4) & (mag < 1e16))).tolist()
        text = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY)
    else:
        values = col.tolist() if isinstance(col, np.ndarray) else col
        if next((type(v) for v in values if v is not None), None) is bool:
            return ["" if v is None else "true" if v else "false" for v in values]
        # orjson sees only the cells it writes as str does; the rest go in as None
        plain = [v if type(v) is int or type(v) is float and (v == 0.0 or 1e-4 <= abs(v) < 1e16)
                 else None for v in values]
        redo = [i for i, v in enumerate(plain) if v is None]
        text = orjson.dumps(plain)
    cells = text[1:-1].decode().split(",") if len(values) else []
    for i in redo:
        v = values[i]  # a NumPy float64's str is its float's repr
        cells[i] = "" if v is None else str(v)
    return cells


# ---------------------------------------------------------------------------
# X-state triangle inequality sweep
# ---------------------------------------------------------------------------


def run_xstate_experiment(
    d_list: list[int],
    samples: int,
    r: float = 2.0,
    s: float = 0.5,
    seed: int = 42,
) -> ExperimentReport:
    """Check |HY(Q_A) - HY(Q_B)| <= HY(Q) on random X-shaped states.

    For each subsystem dimension d and sample index, draws the X state
    ``x_state_random(d, seed, index)``, reduces it to both subsystems,
    and records the unified entropy of the full state against the
    entropy gap of the reductions. All samples of one d come from one
    random draw and are handled as stacked arrays: per d, one stack of
    the full states' closed-form spectra and one of both reductions
    (the A rows, then the B rows), each admitted once and reduced row by
    row, so every value equals that of the sample on its own. A refused
    spectrum is named by its d, sample and part.

    A row whose full or reduced entropy is past the float range has an
    empty ``hy_diff`` and ``pass``: it is neither passed nor failed, and
    the summary counts it under ``past_float_range``.
    """
    samples = _check_count(samples, "sample count", 0, _MAX_COUNT)
    seed = _check_count(seed, "seed", 0)
    entropy._check_unified_params(r, s)
    d_list = _check_each(d_list, "d list", lambda d: _check_count(d, "subsystem dimension", 2, 8))
    t0 = time.perf_counter()
    full, diff = [], []
    # an entropy past the float range is inf, and the gap of two such is NaN
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for d in d_list:
            a, c = states.x_states_random(d, seed, samples)
            (a_a, c_a), (a_b, c_b) = states.x_partial_traces(a, c, d)
            full.append(entropy._hu_ye_own_rows(
                states.x_eigvalsh(a, c), r, s, lambda i: f"d = {d}, sample {i}, full state"))
            # rows 0..S-1 are the A reductions, rows S..2S-1 the B ones
            both = entropy._hu_ye_own_rows(
                states.x_eigvalsh(np.concatenate((a_a, a_b)), np.concatenate((c_a, c_b))), r, s,
                lambda i: f"d = {d}, sample {i % samples}, {'AB'[i // samples]} reduction",
            )
            diff.append(np.abs(both[:samples] - both[samples:]))
    hy_full, hy_diff = np.concatenate(full), np.concatenate(diff)
    finite = np.isfinite(hy_full) & np.isfinite(hy_diff)
    decided = int(np.count_nonzero(finite))
    passed = hy_diff <= hy_full + TRIANGLE_SLACK
    violation = np.max(hy_diff - hy_full, where=finite, initial=-np.inf)
    summary = {
        "total": len(passed),
        "passed": int(np.count_nonzero(passed & finite)),
        "past_float_range": len(passed) - decided,
        "max_violation": float(violation) if decided else 0.0,
    }
    if decided < len(passed):  # blank cells: object arrays holding None there
        hy_diff, passed = np.where(finite, hy_diff, None), np.where(finite, passed, None)
    columns = {
        "d": np.repeat(d_list, samples),
        "sample": np.tile(np.arange(samples), len(d_list)),
        "hy_full": hy_full,
        "hy_diff": hy_diff,
        "pass": passed,
    }
    return ExperimentReport(
        "xstate-triangle",
        {
            "d_list": d_list,
            "samples": samples,
            "r": r,
            "s": s,
            "seed": seed,
            "slack": TRIANGLE_SLACK,
        },
        columns,
        summary,
        wall_time_s=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# squeezed-vacuum entropy sweep
# ---------------------------------------------------------------------------


def run_gaussian_experiment(
    r_grid: list[float],
    n_max: int = 20_000,
    m: int = 40,
    z: float = 1.0,
) -> ExperimentReport:
    """Sweep the squeezed-vacuum entropy over a grid of squeezing values.

    Per r: the closed form in naive and stable evaluation (with an
    overflow flag for the naive one), the entropy of the Schmidt series
    truncated at n <= n_max and renormalized, with the mass the truncation
    drops (``schmidt_tail``), and the kernel log-determinant with m nodes
    on the calibrated interval ``[0, max(r, 0.25)]``, written to the ``a``
    and ``b`` columns. The truncated entropy is a closed form in the
    truncation order, within 1e-15 relative of a high-precision evaluation
    wherever tanh^2 r is a normal double; no spectrum is built, so n_max is
    limited by its admission (at most 2^53), not by memory. A determinant
    the kernel route refuses (a non-finite or overflowing entry, a dense LU
    buried in rounding noise, a sign that is not positive) leaves that
    row's ``logdet`` empty with ``logdet_ok`` false; parameter errors raise
    :class:`DomainError` before any row.
    """
    def admit(r):  # a Python int stays one: the CLI's default grid ends 1, 2, ..., 20
        x = _check_real(r, "squeezing parameter", math.nextafter(0.0, -1.0))
        return r if type(r) is int else x

    r_grid = _check_each(r_grid, "r grid", admit)
    _check_real(z, "coupling z")
    _check_count(m, "node count", high=fredholm.MAX_NODES)
    _check_count(n_max, "truncation order", high=_MAX_COUNT)
    t0 = time.perf_counter()
    kernel = states.squeezed_kernel()
    naive = [states.gaussian_entropy_analytic(r, "naive") for r in r_grid]
    stable = [states.gaussian_entropy_analytic(r, "stable") for r in r_grid]
    schmidt, schmidt_tail = map(
        list, zip(*(states._squeezed_schmidt_entropy(r, n_max) for r in r_grid))
    )
    ends = [max(r, 0.25) for r in r_grid]
    logdet = []
    for b in ends:
        try:
            logdet.append(fredholm.log_fredholm_det(kernel, z, 0.0, b, m))
        except DomainError:  # every parameter is checked above: a refused determinant
            logdet.append(None)
    columns = {
        "r": r_grid,
        "naive": naive,
        "naive_overflow": [not math.isfinite(v) for v in naive],
        "stable": stable,
        "schmidt": schmidt,
        "schmidt_tail": schmidt_tail,
        "logdet": logdet,
        "logdet_ok": [v is not None for v in logdet],
        "a": [0.0] * len(ends),
        "b": ends,
    }
    summary = {
        "rows": len(naive),
        "naive_overflows": sum(columns["naive_overflow"]),
        "max_abs_gap_stable_schmidt": max(abs(x - y) for x, y in zip(stable, schmidt)),
    }
    return ExperimentReport(
        "gaussian-entropy",
        {"r_grid": list(r_grid), "n_max": n_max, "m": m, "z": z},
        columns,
        summary,
        wall_time_s=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# prime-zeta determinant identity
# ---------------------------------------------------------------------------


def run_zeta_check(q: float, r: float, k: int) -> ExperimentReport:
    """Check log det_r over the prime spectrum against the zeta ratio.

    Records the truncated Euler product and determinant at geometric
    checkpoints up to k; passes iff the final absolute gap to the
    independently summed zeta(q)/zeta(2q) is within the prime tail
    bound (plus slack).
    """
    analytic = fredholm.zeta_series(q) / fredholm.zeta_series(2.0 * q)
    log_analytic = math.log(analytic)
    inv_r = 1.0 / _check_real(r, "deformation order", 1.0)
    t0 = time.perf_counter()
    primes = fredholm.first_k_primes(k)
    factors = fredholm._log_euler_factors(q, primes)
    ks = sorted({min(10**i, k) for i in range(12)})
    p_k = [int(primes[kk - 1]) for kk in ks]
    product = [float(np.exp(factors[:kk].sum())) for kk in ks]
    # factors become the unnormalized zeta_spectrum in place, admitted once;
    # its values are non-increasing, so each checkpoint's spectrum is a prefix
    factors **= inv_r
    lam = linalg._own_spectrum(factors).values
    log_det = [entropy.log_det_r(linalg.Spectrum(lam[:kk], False), r) for kk in ks]
    gap = [abs(v - log_analytic) for v in log_det]
    bound = [fredholm._prime_tail_bound(q, p) for p in p_k]
    columns = {
        "k": ks,
        "p_k": p_k,
        "product": product,
        "log_det": log_det,
        "abs_gap": gap,
        # empty once log(zeta(q) / zeta(2q)) rounds to 0, from q = 53 on
        "rel_gap": [g / abs(log_analytic) if log_analytic else None for g in gap],
        "tail_bound": bound,
        "pass": [g <= tb + ZETA_SLACK for g, tb in zip(gap, bound)],
    }
    summary = {
        "analytic_ratio": analytic,
        "log_analytic": log_analytic,
        "final_gap": gap[-1],
        "final_tail_bound": bound[-1],
        "passed": all(columns["pass"]),
    }
    return ExperimentReport(
        "zeta-identity",
        {"q": q, "r": r, "k": k, "slack": ZETA_SLACK},
        columns,
        summary,
        wall_time_s=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# quadrature convergence diagnostics
# ---------------------------------------------------------------------------


def _const_kernel(x, y):
    return np.ones_like(np.asarray(x, dtype=float) + np.asarray(y, dtype=float))


def _exp_rank_one(x, y):
    return np.exp(x + y)


# name -> (kernel, analytic determinant or None); all three are symmetric bit for bit
KERNELS = {
    "constant": (
        fredholm._SymmetricKernel(_const_kernel, "constant"),
        lambda z, a, b: 1.0 + z * (b - a),
    ),
    "exp-rank-one": (
        fredholm._SymmetricKernel(_exp_rank_one, "exp-rank-one"),
        lambda z, a, b: 1.0 + z * (math.exp(2 * b) - math.exp(2 * a)) / 2.0,
    ),
    "squeezed": (states.squeezed_kernel(), None),
}


def run_quad_test(
    kernel_name: str, z: float, a: float, b: float, m_list: list[int]
) -> ExperimentReport:
    """Tabulate Nystrom determinants against node count.

    Records the determinant per m, successive differences, and the
    analytic reference for separable kernels.
    """
    if not isinstance(kernel_name, str) or kernel_name not in KERNELS:
        raise DomainError(
            f"unknown kernel {kernel_name!r}; registry: {sorted(KERNELS)}"
        )
    # Python floats for the analytic reference; the report keeps z, a and b as given
    zab = (_check_real(z, "coupling z"), *fredholm._check_interval(a, b))
    m_list = _check_each(m_list, "m list",
                         lambda m: _check_count(m, "node count", high=fredholm.MAX_NODES))
    kernel, analytic_fn = KERNELS[kernel_name]
    try:
        analytic = analytic_fn(*zab) if analytic_fn else None
    except OverflowError as exc:
        raise DomainError(
            f"analytic determinant of {kernel_name!r} overflows on ({a}, {b})"
        ) from exc
    t0 = time.perf_counter()
    det = [fredholm.fredholm_det(kernel, z, a, b, m) for m in m_list]
    abs_err = [None if analytic is None else abs(x - analytic) for x in det]
    columns = {
        "m": m_list,
        "det": det,
        "diff_prev": [None] + [x - prev for prev, x in zip(det, det[1:])],
        "analytic": [analytic] * len(det),
        "abs_err": abs_err,
    }
    summary = {"kernel": kernel_name, "final_det": det[-1], "final_abs_err": abs_err[-1]}
    return ExperimentReport(
        "quadrature-convergence",
        {"kernel": kernel_name, "z": z, "a": a, "b": b, "m_list": list(m_list)},
        columns,
        summary,
        wall_time_s=time.perf_counter() - t0,
    )
