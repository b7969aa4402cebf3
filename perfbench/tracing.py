"""Span tracer for the traced benchmark run.

The tracer wraps every public function of the seven entrodet modules,
plus the ``ExperimentReport`` writers, from outside the package: each
module namespace of ``entrodet`` that binds one of those functions gets
the wrapper, so calls through re-exports (``entropy.eig_hermitian``,
``states.first_k_primes``, ``cli.evaluate``) are seen as well.

Spans (name, start, end, parent, op id) go into flat in-memory arrays
and are written out when the run ends. A span is recorded only while an
op is being timed, so the benchmark's own checks stay untraced. Self
time, per-op call counts, computed counters and waste ratios are all
derived from the spans after the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import sys
import time
from array import array
from pathlib import Path

import numpy as np

LAYERS = ("linalg", "entropy", "fredholm", "states", "experiments", "matrixio", "cli")
REPORT_METHODS = ("to_csv", "to_json")

# The power-sum and log-det kernels behind entropy.evaluate.
ENTROPY_KERNELS = (
    "entropy.trace_power",
    "entropy.von_neumann",
    "entropy.vn_renormalized",
    "entropy.log_det_r",
    "entropy.log_det_ren",
)
# Functions that diagonalize a dense matrix.
DECOMPOSITIONS = ("linalg.validate_density", "linalg.eig_hermitian")
KINDS = ("vn", "vn-ren", "tsallis", "renyi", "hy", "hy-fredholm", "hy-ren")


def _arg(pos: int, name: str):
    def get(args, kwargs, result):
        return kwargs[name] if name in kwargs else args[pos]
    return get


def _matrix_key(args, kwargs, result):
    # Identify a matrix by its first row and diagonal, so that a matrix and
    # its validated copy count as one matrix; O(n) keeps tracing cheap.
    x = args[0] if args else next(iter(kwargs.values()))
    mat = np.asarray(getattr(x, "mat", x), dtype=complex)
    return float(hash((mat.shape, mat[0].tobytes(), mat.diagonal().tobytes())) % (1 << 52))


def _kind(args, kwargs, result):
    kind = args[0] if args else kwargs["kind"]
    return float(KINDS.index(kind)) if kind in KINDS else -1.0


def _coerced_values(args, kwargs, result):
    # as_spectrum returns a Spectrum argument untouched; only other inputs
    # are copied, clamped and sorted.
    x = args[0] if args else kwargs["values"]
    return 0.0 if x is result else float(len(result.values))


# One number per span, recorded after the call, for the computed counters.
AUX = {
    "fredholm.gauss_legendre": _arg(0, "m"),
    "fredholm.first_k_primes": _arg(0, "k"),
    "fredholm.nystrom_matrix": lambda args, kwargs, result: result.shape[0],
    "fredholm.log_fredholm_det": _arg(4, "m"),
    "entropy.evaluate": _kind,
    "linalg.as_spectrum": _coerced_values,
    "linalg.validate_density": _matrix_key,
    "linalg.eig_hermitian": _matrix_key,
    "matrixio.load_matrix": lambda args, kwargs, result: os.path.getsize(
        args[0] if args else kwargs["path"]
    ),
}


class Tracer:
    """Records nested spans of wrapped entrodet calls during timed ops."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.aux = array("d")
        self.op_id = -1  # spans are recorded only while this is >= 0
        self._stack: list[int] = []
        self._t0 = time.perf_counter()

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        aux = AUX.get(name)
        tracer, stack, clock, origin = self, self._stack, time.perf_counter, self._t0
        name_id, parent, op, aux_of = self.name_id, self.parent, self.op, self.aux
        start, end = self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            op_id = tracer.op_id
            if op_id < 0:
                return fn(*args, **kwargs)
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(op_id)
            aux_of.append(math.nan)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0 - origin
                end[idx] = t1 - origin
            if aux is not None:
                aux_of[idx] = aux(args, kwargs, result)
            return result

        return traced

    def install(self) -> int:
        """Wrap the public functions in every entrodet namespace; return the count."""
        wrappers = {}
        for short in LAYERS:
            mod = importlib.import_module(f"entrodet.{short}")
            for name, fn in vars(mod).items():
                if (
                    not name.startswith("_")
                    and inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__
                ):
                    wrappers[fn] = self._wrap(f"{short}.{name}", fn)
        for modname, mod in list(sys.modules.items()):
            if modname == "entrodet" or modname.startswith("entrodet."):
                for attr, value in list(vars(mod).items()):
                    if inspect.isfunction(value) and value in wrappers:
                        setattr(mod, attr, wrappers[value])
        report = importlib.import_module("entrodet.experiments").ExperimentReport
        for meth in REPORT_METHODS:
            name = f"experiments.ExperimentReport.{meth}"
            setattr(report, meth, self._wrap(name, getattr(report, meth)))
        return len(wrappers) + len(REPORT_METHODS)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "aux": np.frombuffer(self.aux, dtype=np.float64),
        }

    def save(self, path: Path) -> None:
        """Write every span, with the name table, to an .npz file."""
        np.savez(path, names=np.array(self.names), **self.arrays())

    def layer_metrics(self, n_ops: int) -> dict[str, float]:
        """Per-op calls and self time of every function, plus the counters.

        Self time is a span's duration minus the durations of its child
        spans; calls are nested strictly on one thread, so the children
        never overlap.
        """
        a = self.arrays()
        names = self.names
        nid, parent, op, aux = a["name_id"], a["parent"], a["op"], a["aux"]
        dur = a["end"] - a["start"]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_s = dur - child
        calls = np.bincount(nid, minlength=len(names))
        self_sum = np.bincount(nid, weights=self_s, minlength=len(names))
        out: dict[str, float] = {}
        for i, name in enumerate(names):
            out[f"{name}.calls"] = calls[i] / n_ops
            out[f"{name}.self_ms"] = self_sum[i] * 1e3 / n_ops

        def select(*fnames):
            return np.isin(nid, [names.index(f) for f in fnames])

        def aux_of(fname):
            # a call that raised has no recorded number
            vals = aux[select(fname)]
            return vals[~np.isnan(vals)]

        def distinct_per_op(sel):
            return len(set(zip(op[sel].tolist(), aux[sel].tolist())))

        def ratio(num, den):
            return num / den if den else 0.0

        m = aux_of("fredholm.log_fredholm_det")
        out["fredholm.log_fredholm_det.flops_computed"] = float((2.0 / 3.0 * m**3).sum()) / n_ops
        m = aux_of("fredholm.nystrom_matrix")
        out["fredholm.nystrom_matrix.bytes_computed"] = float((8.0 * m**2).sum()) / n_ops
        values = float(aux_of("linalg.as_spectrum").sum())
        out["linalg.as_spectrum.values"] = values / n_ops
        out["linalg.as_spectrum.bytes_computed"] = 8.0 * values / n_ops
        out["matrixio.load_matrix.bytes_read"] = float(aux_of("matrixio.load_matrix").sum()) / n_ops
        for fname in ("fredholm.first_k_primes", "fredholm.gauss_legendre"):
            sel = select(fname)
            out[f"{fname}.distinct_ratio"] = ratio(distinct_per_op(sel), int(sel.sum()))
        # only calls that returned count: a matrix rejected before its
        # eigenvalues were computed is not a decomposition
        sel = select(*DECOMPOSITIONS) & ~np.isnan(aux)
        out["linalg.decompositions_per_matrix"] = ratio(int(sel.sum()), distinct_per_op(sel))

        # Kernel calls under each evaluate that returned, averaged over the
        # kinds evaluated, so the ratio does not depend on the mix of kinds.
        evaluate = names.index("entropy.evaluate")
        returned = ((nid == evaluate) & ~np.isnan(aux)).tolist()
        parents, ids, kinds = parent.tolist(), nid.tolist(), aux.tolist()
        evaluates: dict[float, int] = {}
        kernels: dict[float, int] = {}
        for idx in np.nonzero(returned)[0].tolist():
            evaluates[kinds[idx]] = evaluates.get(kinds[idx], 0) + 1
        for idx in np.nonzero(select(*ENTROPY_KERNELS))[0].tolist():
            p = parents[idx]
            while p >= 0 and ids[p] != evaluate:
                p = parents[p]
            if p >= 0 and returned[p]:
                kernels[kinds[p]] = kernels.get(kinds[p], 0) + 1
        per_kind = [kernels.get(k, 0) / n for k, n in evaluates.items()]
        out["entropy.kernel_calls_per_evaluate"] = sum(per_kind) / len(per_kind) if per_kind else 0.0
        return out
