"""Reproducible experiment runners with self-describing CSV/JSON reports.

Each runner returns an :class:`ExperimentReport` whose per-record rows
are a pure function of (master seed, record index), so reruns are
byte-identical. The X-state sweep reads every spectrum off the closed
form of stacked X states, with no matrix built and no eigensolver.

CSV artifacts start with ``# key=value`` comment lines carrying the
schema version and the full parameter set, followed by a standard
header row ('.' decimal, ',' separator). Wall time is reported but
excluded from the determinism guarantee.
"""

from __future__ import annotations

import io
import json
import math
import time
from dataclasses import dataclass

import numpy as np

from . import entropy, fredholm, states
from .errors import DomainError, NonFiniteKernel, NonPositiveDeterminant, _check_count

SCHEMA_VERSION = 1

TRIANGLE_SLACK = 1e-10  # |HY_A - HY_B| <= HY(Q) + slack
ZETA_SLACK = 1e-10      # |log det - analytic| <= tail bound + slack


@dataclass
class ExperimentReport:
    """One experiment run: parameters, per-record rows, summary."""

    experiment: str
    params: dict
    records: list[dict]
    summary: dict
    wall_time_s: float | None = None

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
        out = io.StringIO()
        out.write(f"# schema_version={SCHEMA_VERSION}\n")
        out.write(f"# experiment={self.experiment}\n")
        out.write(f"# params={json.dumps(self.params, default=_json_default)}\n")
        if self.records:
            cols = list(self.records[0].keys())
            out.write(",".join(cols) + "\n")
            for rec in self.records:
                out.write(",".join(_csv_cell(rec[c]) for c in cols) + "\n")
        return out.getvalue()


def _json_default(v):
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, np.ndarray):
        return v.tolist()
    raise TypeError(f"not JSON-serializable: {type(v)}")


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


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
    random draw and are handled as stacked arrays, with closed-form
    spectra computed once.
    """
    samples = _check_count(samples, "sample count", 0)
    seed = _check_count(seed, "seed", 0)
    t0 = time.perf_counter()
    records = []
    for d in d_list:
        a, c, lam = states._x_states_admitted(d, seed, samples)
        (a_a, c_a), (a_b, c_b) = states.x_partial_traces(a, c, d)
        hy_full = entropy.hu_ye_rows(lam, r, s)
        hy_diff = np.abs(
            entropy.hu_ye_rows(states.x_eigvalsh(a_a, c_a), r, s)
            - entropy.hu_ye_rows(states.x_eigvalsh(a_b, c_b), r, s)
        )
        for idx, (full, diff) in enumerate(zip(hy_full.tolist(), hy_diff.tolist())):
            records.append(
                {
                    "d": d,
                    "sample": idx,
                    "hy_full": full,
                    "hy_diff": diff,
                    "pass": diff <= full + TRIANGLE_SLACK,
                }
            )
    violations = [rec["hy_diff"] - rec["hy_full"] for rec in records]
    summary = {
        "total": len(records),
        "passed": sum(1 for rec in records if rec["pass"]),
        "max_violation": max(violations) if violations else 0.0,
    }
    report = ExperimentReport(
        "xstate-triangle",
        {
            "d_list": list(d_list),
            "samples": samples,
            "r": r,
            "s": s,
            "seed": seed,
            "slack": TRIANGLE_SLACK,
        },
        records,
        summary,
        wall_time_s=time.perf_counter() - t0,
    )
    return report


# ---------------------------------------------------------------------------
# squeezed-vacuum entropy sweep
# ---------------------------------------------------------------------------

# quadrature profile used when no interval is given; calibration artifact,
# the interval follows the squeezing parameter row by row
GAUSSIAN_PROFILE = {"z": 1.0, "m": 40, "interval": "auto [0, r]"}


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
    if not r_grid:
        raise DomainError("r grid must be non-empty")
    if not all(math.isfinite(r) for r in r_grid):
        raise DomainError(f"squeezing grid must be finite, got {list(r_grid)}")
    if not math.isfinite(z):
        raise DomainError(f"kernel coupling z must be finite, got {z}")
    if interval is not None and not -math.inf < interval[0] < interval[1] < math.inf:
        raise DomainError(f"interval must be finite with a < b, got {tuple(interval)}")
    fredholm._check_node_cap(m)
    _check_count(n_max, "truncation order")
    t0 = time.perf_counter()
    kernel = states.squeezed_kernel()
    records = []
    for r in r_grid:
        naive = states.gaussian_entropy_analytic(r, "naive")
        stable = states.gaussian_entropy_analytic(r, "stable")
        schmidt = entropy.von_neumann(states.squeezed_schmidt_spectrum(r, n_max)) if r > 0 else 0.0
        a, b = interval if interval is not None else (0.0, max(r, 0.25))
        logdet = None
        logdet_ok = True
        try:
            logdet = fredholm.log_fredholm_det(kernel, z, a, b, m)
        except (NonFiniteKernel, NonPositiveDeterminant):
            logdet_ok = False
        records.append(
            {
                "r": r,
                "naive": naive,
                "naive_overflow": not math.isfinite(naive),
                "stable": stable,
                "schmidt": schmidt,
                "schmidt_tail": (math.tanh(r) ** 2) ** (n_max + 1),
                "logdet": logdet,
                "logdet_ok": logdet_ok,
                "a": a,
                "b": b,
            }
        )
    summary = {
        "rows": len(records),
        "naive_overflows": sum(1 for rec in records if rec["naive_overflow"]),
        "max_abs_gap_stable_schmidt": max(
            abs(rec["stable"] - rec["schmidt"]) for rec in records
        ),
    }
    params = {
        "r_grid": list(r_grid),
        "n_max": n_max,
        "m": m,
        "z": z,
        "interval": list(interval) if interval is not None else GAUSSIAN_PROFILE["interval"],
        "calibrated_profile": interval is None,
    }
    return ExperimentReport(
        "gaussian-entropy", params, records, summary,
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
    if not 1.0 < r < math.inf:  # NaN fails too
        raise DomainError(f"deformation order must be finite and exceed 1, got {r}")
    t0 = time.perf_counter()
    primes = fredholm.first_k_primes(k)
    factors = fredholm.log_euler_factors(q, primes)
    lam = factors ** (1.0 / r)  # unnormalized zeta_spectrum; each checkpoint reads a prefix
    records = []
    for kk in sorted({min(10**i, k) for i in range(12)}):
        logdet = entropy.log_det_r(lam[:kk], r)
        product = float(np.exp(factors[:kk].sum()))
        bound = fredholm.prime_tail_bound(q, int(primes[kk - 1]))
        gap = abs(logdet - log_analytic)
        records.append(
            {
                "k": kk,
                "p_k": int(primes[kk - 1]),
                "product": product,
                "log_det": logdet,
                "abs_gap": gap,
                "rel_gap": gap / abs(log_analytic),
                "tail_bound": bound,
                "pass": gap <= bound + ZETA_SLACK,
            }
        )
    final = records[-1]
    summary = {
        "analytic_ratio": analytic,
        "log_analytic": log_analytic,
        "final_gap": final["abs_gap"],
        "final_tail_bound": final["tail_bound"],
        "passed": all(rec["pass"] for rec in records),
    }
    return ExperimentReport(
        "zeta-identity",
        {"q": q, "r": r, "k": k, "slack": ZETA_SLACK},
        records,
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


# name -> (kernel, analytic determinant or None)
KERNELS = {
    "constant": (
        fredholm.KernelSpec(_const_kernel, "constant"),
        lambda z, a, b: 1.0 + z * (b - a),
    ),
    "exp-rank-one": (
        fredholm.KernelSpec(_exp_rank_one, "exp-rank-one"),
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
    kernel, analytic_fn = KERNELS[kernel_name]
    try:
        analytic = analytic_fn(z, a, b) if analytic_fn else None
    except OverflowError as exc:
        raise DomainError(
            f"analytic determinant of {kernel_name!r} overflows on ({a}, {b})"
        ) from exc
    t0 = time.perf_counter()
    records = []
    prev = None
    for m in m_list:
        det = fredholm.fredholm_det(kernel, z, a, b, m)
        records.append(
            {
                "m": m,
                "det": det,
                "diff_prev": None if prev is None else det - prev,
                "analytic": analytic,
                "abs_err": None if analytic is None else abs(det - analytic),
            }
        )
        prev = det
    summary = {
        "kernel": kernel_name,
        "final_det": records[-1]["det"] if records else None,
        "final_abs_err": records[-1]["abs_err"] if records else None,
    }
    return ExperimentReport(
        "quadrature-convergence",
        {"kernel": kernel_name, "z": z, "a": a, "b": b, "m_list": list(m_list)},
        records,
        summary,
        wall_time_s=time.perf_counter() - t0,
    )
