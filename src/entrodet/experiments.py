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

from . import entropy, fredholm, linalg, states
from .errors import (
    _MAX_COUNT,
    DomainError,
    NonFiniteKernel,
    NonPositiveDeterminant,
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
        return json.dumps(payload, default=_json_default)

    def to_csv(self) -> str:
        lines = [
            f"# schema_version={SCHEMA_VERSION}",
            f"# experiment={self.experiment}",
            f"# params={json.dumps(self.params, default=_json_default)}",
            ",".join(self.columns),
            *map(",".join, zip(*map(_csv_column, self.columns.values()))),
        ]
        return "\n".join(lines) + "\n"


def _json_default(v):
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, np.ndarray):
        return v.tolist()
    raise TypeError(f"not JSON-serializable: {type(v)}")


def _csv_column(col) -> list[str]:
    """One column's CSV cells: true/false, empty for None, else ``str`` (a float's repr)."""
    values = col.tolist() if isinstance(col, np.ndarray) else col
    if values and type(values[0]) is bool:
        return ["true" if v else "false" for v in values]
    return ["" if v is None else str(v) for v in values]


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
    row, so every value equals that of the sample on its own.
    """
    samples = _check_count(samples, "sample count", 0, _MAX_COUNT)
    seed = _check_count(seed, "seed", 0)
    entropy._check_unified_params(r, s)
    if len(d_list) == 0:
        raise DomainError("d list must be non-empty")
    t0 = time.perf_counter()
    full, diff = [], []
    for d in d_list:
        a, c = states.x_states_random(d, seed, samples)
        (a_a, c_a), (a_b, c_b) = states.x_partial_traces(a, c, d)
        full.append(entropy._hu_ye_own_rows(states.x_eigvalsh(a, c), r, s))
        # rows 0..S-1 are the A reductions, rows S..2S-1 the B ones
        both = entropy._hu_ye_own_rows(
            states.x_eigvalsh(np.concatenate((a_a, a_b)), np.concatenate((c_a, c_b))), r, s
        )
        diff.append(np.abs(both[:samples] - both[samples:]))
    hy_full, hy_diff = np.concatenate(full), np.concatenate(diff)
    passed = hy_diff <= hy_full + TRIANGLE_SLACK
    columns = {
        "d": np.repeat(d_list, samples),
        "sample": np.tile(np.arange(samples), len(d_list)),
        "hy_full": hy_full,
        "hy_diff": hy_diff,
        "pass": passed,
    }
    summary = {
        "total": len(passed),
        "passed": int(passed.sum()),
        "max_violation": float((hy_diff - hy_full).max()) if len(passed) else 0.0,
    }
    return ExperimentReport(
        "xstate-triangle",
        {
            "d_list": list(d_list),
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
    interval: tuple[float, float] | None = None,
) -> ExperimentReport:
    """Sweep the squeezed-vacuum entropy over a grid of squeezing values.

    Per r: the closed form in naive and stable evaluation (with an
    overflow flag for the naive one), the truncated Schmidt-series
    entropy with its tail diagnostic, and the kernel log-determinant at
    the given quadrature parameters. Determinant failures are recorded
    as flags; parameter errors raise :class:`DomainError` before any row.
    """
    if len(r_grid) == 0:
        raise DomainError("r grid must be non-empty")
    _check_real(z, "coupling z")
    if interval is not None:
        fredholm._check_interval(*interval)
    _check_count(m, "node count", high=fredholm.MAX_NODES)
    _check_count(n_max, "truncation order", high=_MAX_COUNT)
    t0 = time.perf_counter()
    kernel = states.squeezed_kernel()
    naive = [states.gaussian_entropy_analytic(r, "naive") for r in r_grid]
    stable = [states.gaussian_entropy_analytic(r, "stable") for r in r_grid]
    schmidt = [
        entropy.von_neumann(states.squeezed_schmidt_spectrum(r, n_max)) if r > 0 else 0.0
        for r in r_grid
    ]
    ab = [interval if interval is not None else (0.0, max(r, 0.25)) for r in r_grid]
    logdet = []
    for a, b in ab:
        try:
            logdet.append(fredholm.log_fredholm_det(kernel, z, a, b, m))
        except (NonFiniteKernel, NonPositiveDeterminant):
            logdet.append(None)
    columns = {
        "r": list(r_grid),
        "naive": naive,
        "naive_overflow": [not math.isfinite(v) for v in naive],
        "stable": stable,
        "schmidt": schmidt,
        "schmidt_tail": [(math.tanh(r) ** 2) ** (n_max + 1) for r in r_grid],
        "logdet": logdet,
        "logdet_ok": [v is not None for v in logdet],
        "a": [a for a, _ in ab],
        "b": [b for _, b in ab],
    }
    summary = {
        "rows": len(naive),
        "naive_overflows": sum(columns["naive_overflow"]),
        "max_abs_gap_stable_schmidt": max(abs(x - y) for x, y in zip(stable, schmidt)),
    }
    params = {
        "r_grid": list(r_grid),
        "n_max": n_max,
        "m": m,
        "z": z,
        "interval": list(interval) if interval is not None else "auto [0, r]",
        "calibrated_profile": interval is None,
    }
    return ExperimentReport(
        "gaussian-entropy", params, columns, summary,
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
    factors = fredholm.log_euler_factors(q, primes)
    ks = sorted({min(10**i, k) for i in range(12)})
    p_k = [int(primes[kk - 1]) for kk in ks]
    product = [float(np.exp(factors[:kk].sum())) for kk in ks]
    # factors become the unnormalized zeta_spectrum in place, admitted once;
    # its values are non-increasing, so each checkpoint's spectrum is a prefix
    factors **= inv_r
    lam = linalg._own_spectrum(factors, normalized=False).values
    log_det = [entropy.log_det_r(linalg.Spectrum(lam[:kk], False), r) for kk in ks]
    gap = [abs(v - log_analytic) for v in log_det]
    bound = [fredholm.prime_tail_bound(q, p) for p in p_k]
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
    if kernel_name not in KERNELS:
        raise DomainError(
            f"unknown kernel {kernel_name!r}; registry: {sorted(KERNELS)}"
        )
    # Python floats for the analytic reference; the report keeps the arguments as given
    zab = (_check_real(z, "coupling z"), *fredholm._check_interval(a, b))
    if len(m_list) == 0:
        raise DomainError("m list must be non-empty")
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
        "m": list(m_list),
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
