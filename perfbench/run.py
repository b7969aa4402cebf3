"""Benchmark of entrodet: four seeded, single-process, closed-loop workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload xstate-sweep --seed 1 --seconds 20 --trace 0

One op is in flight at a time. The run sets up (import, inputs, one
untimed warm-up op) several times and reports the median, then times
whole cycles of ops until ``--seconds`` have passed, checking every
result against a reference the benchmark computes itself. A fixed
calibration kernel runs between ops, and every reported time is scaled
by it to one reference host speed (see ``Calibration``); the times as
measured are printed beside them.

With ``--trace 0`` the last stdout line is a JSON object whose metrics
are the end-to-end metrics of BENCHMARK.json. With ``--trace 1`` the run
times half of ``--seconds`` untraced and half with every public entrodet
function wrapped (see tracing.py), and the metrics are the per-layer
metrics of BENCHMARK.json, per traced op. Readable lines above it give
the tail percentile, the failure count and the machine fingerprint; the
full result, and the spans of a traced run, go to perfbench/results/.

BLAS runs on one thread whatever the caller's environment says, and
ENTRODET_THREADS is removed so the package's serial path is measured.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / "perfbench" / "results"

BLAS_THREADS = 1
BLAS_ENV = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_REPEATS = 3
TAIL_BEYOND = 10  # op_tail_ms is the highest percentile with this many ops above it
# Times are reported at the host speed at which the calibration kernel takes
# CAL_REF_S: about its fastest time on a vCPU of a shared Xeon (Sapphire
# Rapids) host; its median there is about 4.7 ms.
CAL_REF_S = 3.0e-3


class Calibration:
    """A fixed kernel that does not touch entrodet, timed between ops.

    On a shared host the speed of a vCPU changes by up to about 2x, for
    anything from a fraction of a second to a whole run. The kernel does
    what the workloads do: NumPy calls on tiny arrays, small LAPACK calls,
    1-D passes over a 512 KiB and an 8 MiB array, and JSON round trips.
    So its time tracks the host's speed at the moment an op runs, and
    ``time * CAL_REF_S / calibration`` takes that speed out.
    """

    TINY_OPS = 60
    EIGS = 40
    JSONS = 30

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        a = rng.standard_normal((8, 8))
        self.np = np
        self.sym = a + a.T
        self.q2 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        self.vec = rng.random(1 << 16) + 0.5
        self.big = rng.random(1 << 20)
        self.doc = {"kind": "hy", "value": 0.123456789, "r": [1.5, 2.5], "ok": True}

    def __call__(self) -> float:
        np = self.np
        t0 = time.perf_counter()
        for _ in range(self.TINY_OPS):
            m = np.kron(self.q2, self.q2)
            m = 0.5 * (m + m.conj().T)
            np.trace(m).real
            np.einsum("ii->", m)
            f"{float(np.abs(m).sum()):.6g}"
        for _ in range(self.EIGS):
            np.linalg.eigvalsh(self.sym)
        np.log(self.vec).sum()
        self.big.sum()
        for _ in range(self.JSONS):
            json.loads(json.dumps(self.doc))
        return time.perf_counter() - t0


@dataclass
class Sample:
    """Latency, CPU time and host calibration of every timed op, and the failures.

    ``cal_s`` of an op is the mean calibration time just before and just
    after it.
    """

    latency_s: list[float] = field(default_factory=list)
    cpu_s: list[float] = field(default_factory=list)
    cal_s: list[float] = field(default_factory=list)
    failed: int = 0

    @property
    def ops(self) -> int:
        return len(self.latency_s)

    def scaled(self, times: list[float]) -> list[float]:
        """``times`` at the host speed whose calibration time is CAL_REF_S."""
        return [t * CAL_REF_S / c for t, c in zip(times, self.cal_s)]


def run_op(op, sample: Sample, tracer=None) -> None:
    """Time one op, then check its result outside the timed region."""
    if tracer is not None:
        tracer.op_id = sample.ops
    error = None
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        result = op.run()
    except Exception as exc:  # a raising op is a failed op; the run goes on
        error = exc
    t1, c1 = time.perf_counter(), time.process_time()
    if tracer is not None:
        tracer.op_id = -1
    if error is None:
        try:
            op.check(result)
        except Exception as exc:
            error = exc
    sample.latency_s.append(t1 - t0)
    sample.cpu_s.append(c1 - c0)
    if error is not None:
        sample.failed += 1
        print(f"op {op.label!r} failed:", file=sys.stderr)
        traceback.print_exception(error, file=sys.stderr)


def measure(workload, seconds: float, first_cycle: int, calibrate: Calibration,
            tracer=None, closing: bool = False):
    """Run whole cycles from ``first_cycle`` until ``seconds`` have passed.

    The calibration kernel runs before the first op and after every op.
    """
    sample = Sample()
    before = calibrate()

    def timed(op):
        nonlocal before
        run_op(op, sample, tracer)
        after = calibrate()
        sample.cal_s.append(0.5 * (before + after))
        before = after

    deadline = time.perf_counter() + seconds
    c = first_cycle
    while True:
        for op in workload.cycle(c):
            timed(op)
        c += 1
        if time.perf_counter() >= deadline:
            break
    if closing:
        for op in workload.closing_ops():
            timed(op)
    return sample, c


def time_import() -> float:
    """Wall time of a fresh interpreter that imports the package."""
    code = "import sys; sys.path.insert(0, sys.argv[1]); import entrodet.cli"
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code, str(SRC)], check=True, timeout=120)
    return time.perf_counter() - t0


def set_up(workload_cls, seed: int, warmup: Sample, calibrate: Calibration):
    """Build the workload SETUP_REPEATS times; return the last one and the timings.

    A repeat generates the inputs and runs the first op of cycle 0, which
    is not counted among the timed ops; only the last repeat computes the
    benchmark's own reference values, untimed, and checks that op. The
    import is timed in separate interpreters. The timings are scaled like
    op times, by the calibration before and after each repeat, and
    returned as medians: scaled import and set-up, then the same as
    measured.
    """
    imports, prepares = Sample(), Sample()
    before = calibrate()
    for _ in range(SETUP_REPEATS):
        imports.latency_s.append(time_import())
        after = calibrate()
        imports.cal_s.append(0.5 * (before + after))
        before = after
    for repeat in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload = workload_cls(seed, RESULTS / workload_cls.name)
        workload.prepare()
        prepared = time.perf_counter() - t0
        op = workload.cycle(0)[0]
        if repeat < SETUP_REPEATS - 1:
            t0 = time.perf_counter()
            op.run()
            prepares.latency_s.append(prepared + time.perf_counter() - t0)
        else:
            workload.references()
            run_op(op, warmup)
            prepares.latency_s.append(prepared + warmup.latency_s[-1])
        after = calibrate()
        prepares.cal_s.append(0.5 * (before + after))
        before = after
    med = statistics.median
    return workload, (
        med(imports.scaled(imports.latency_s)) + med(prepares.scaled(prepares.latency_s)),
        med(imports.latency_s) + med(prepares.latency_s),
    )


def end_to_end(sample: Sample, setup_s: float, scale: bool = True) -> tuple[dict[str, float], float]:
    """The end-to-end metrics, and the percentile that op_tail_ms reports.

    Op times are scaled by the calibration unless ``scale`` is false.
    """
    latency = sample.scaled(sample.latency_s) if scale else sample.latency_s
    cpu = sample.scaled(sample.cpu_s) if scale else sample.cpu_s
    ordered = sorted(latency)
    tail_rank = max(sample.ops - TAIL_BEYOND - 1, 0)
    metrics = {
        "ops_per_s": sample.ops / sum(latency),
        "op_p50_ms": statistics.median(ordered) * 1e3,
        "op_tail_ms": ordered[tail_rank] * 1e3,
        "cpu_per_op_ms": sum(cpu) / sample.ops * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }
    return metrics, 100.0 * (tail_rank + 1) / sample.ops


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def l3_bytes() -> int | None:
    try:
        out = subprocess.run(
            ["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except OSError:
        return None
    return int(out) if out.isdigit() and int(out) > 0 else None


def fingerprint(entrodet_threads_was_set: bool) -> dict:
    import numpy as np
    import entrodet

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "entrodet": entrodet.__version__,
        "git_commit": git_commit(),
        "blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"],
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "l3_bytes": l3_bytes(),
        "entrodet_threads_was_set": entrodet_threads_was_set,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "entrodet" / "__init__.py").is_file():
        print(f"error: no entrodet sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    entrodet_threads_was_set = "ENTRODET_THREADS" in os.environ
    os.environ.pop("ENTRODET_THREADS", None)
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))

    import entrodet
    from tracing import Tracer
    from workloads import WORKLOADS

    if Path(entrodet.__file__).resolve().parent != SRC / "entrodet":
        print(f"error: imported entrodet from {entrodet.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    RESULTS.mkdir(parents=True, exist_ok=True)

    warmup = Sample()
    calibrate = Calibration()
    calibrate()
    workload, (setup_s, setup_as_measured_s) = set_up(
        WORKLOADS[args.workload], args.seed, warmup, calibrate
    )

    if args.trace:
        untraced, next_cycle = measure(workload, args.seconds / 2, 1, calibrate)
        tracer = Tracer()
        wrapped = tracer.install()
        timed, _ = measure(workload, args.seconds / 2, next_cycle, calibrate, tracer, closing=True)
        layer = tracer.layer_metrics(timed.ops)
        tracer.save(RESULTS / f"{workload.name}.spans.npz")
        samples = (warmup, untraced, timed)
    else:
        timed, _ = measure(workload, args.seconds, 1, calibrate, closing=True)
        samples = (warmup, timed)
    attempted = sum(s.ops for s in samples)
    failed = sum(s.failed for s in samples)
    e2e, tail_pct = end_to_end(timed, setup_s)
    as_measured, _ = end_to_end(timed, setup_as_measured_s, scale=False)
    if args.trace:
        untraced_ops_per_s = end_to_end(untraced, setup_s)[0]["ops_per_s"]
        layer["trace.overhead_ratio"] = e2e["ops_per_s"] / untraced_ops_per_s
        layer["failed_frac"] = failed / attempted
        source, section = layer, "per_layer"
    else:
        source, section = e2e, "end_to_end"
    metrics = {m["name"]: {"value": float(source[m["name"]]), "unit": m["unit"]} for m in spec[section]}

    info = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "timed_ops": timed.ops,
        "op_tail_percentile": tail_pct,
        "calibration_ref_s": CAL_REF_S,
        "failed_frac": failed / attempted,
        "fingerprint": fingerprint(entrodet_threads_was_set),
    }
    if args.trace:
        info["wrapped_functions"] = wrapped
        info["untraced_ops_per_s"] = untraced_ops_per_s
        info["all_layers"] = layer
    else:
        info["end_to_end"] = e2e
        info["end_to_end_as_measured"] = as_measured
        info["latency_s"] = timed.latency_s
        info["calibration_s"] = timed.cal_s
    (RESULTS / f"{workload.name}-trace{args.trace}.json").write_text(json.dumps(info, indent=1))

    print(f"# {workload.name} seed={args.seed} trace={args.trace}: {timed.ops} timed ops, "
          f"{failed} of {attempted} ops failed (failed_frac {failed / attempted:.6g})")
    print(f"# op_tail_ms is p{tail_pct:.4g} of {timed.ops} timed ops")
    print(f"# times are scaled to a calibration time of {CAL_REF_S * 1e3:g} ms; as measured: "
          + ", ".join(f"{k} {v:.6g}" for k, v in as_measured.items()))
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(f"# fingerprint {json.dumps(info['fingerprint'])}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
