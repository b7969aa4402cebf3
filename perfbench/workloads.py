"""The benchmark's four workloads.

Each workload derives every input from the run's seed, hands out its ops
one fixed cycle at a time, and checks every result against a reference
it computes itself, from NumPy eigenvalues, NumPy's Gauss-Legendre rule,
closed forms or mpmath. Ops look entrodet functions up on their modules
at call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import mpmath
import numpy as np

from entrodet import cli, entropy, experiments, fredholm, matrixio, states

KINDS = ("vn", "vn-ren", "tsallis", "renyi", "hy", "hy-fredholm", "hy-ren")


class Mismatch(Exception):
    """An op returned a result that disagrees with the benchmark's reference."""


@dataclass(frozen=True)
class Op:
    """One timed call (``run``) and the untimed check of its result."""

    label: str
    run: Callable[[], Any]
    check: Callable[[Any], None]


def _near(got, want: float, what: str, rel: float = 1e-9, abs_tol: float = 1e-12) -> None:
    if not (math.isfinite(got) and abs(got - want) <= abs_tol + rel * abs(want)):
        raise Mismatch(f"{what}: got {got!r}, reference {want!r}")


def _run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _expect_exit(want: int) -> Callable[[tuple[int, str]], None]:
    def check(result):
        if result[0] != want:
            raise Mismatch(f"exit code {result[0]}, expected {want}")
    return check


@dataclass(frozen=True)
class Orders:
    """Deformation orders of one set of entropy evaluations."""

    r: float        # > 1: tsallis, renyi, hy and hy-fredholm
    s: float
    r_small: float  # in (1/2, 1): hy-ren, whose regularization order is then 2

    @classmethod
    def draw(cls, rng: np.random.Generator) -> "Orders":
        r, s, r_small = rng.uniform((1.5, 0.5, 0.55), (3.0, 1.5, 0.9)).tolist()
        return cls(r, s, r_small)

    def of(self, kind: str) -> tuple[float, float]:
        return (self.r_small, 1.0) if kind == "hy-ren" else (self.r, self.s)

    def params(self, kind: str) -> entropy.EntropyParams:
        r, s = self.of(kind)
        return entropy.EntropyParams(r=r, s=s)

    def flags(self, kind: str) -> list[str]:
        r, s = self.of(kind)
        return ["--r", repr(r), "--s", repr(s)]


def reference_entropy(lam: np.ndarray, kind: str, orders: Orders) -> float:
    """Entropy ``kind`` of eigenvalues ``lam``, from its defining formula."""
    lam = lam[lam > 0]
    r, s = orders.of(kind)
    if kind == "vn":
        return float(-(lam * np.log(lam)).sum())
    if kind == "vn-ren":
        e = -lam * np.log(lam)
        return float((e - np.expm1(e)).sum())
    if kind == "hy-ren":
        # log det_2(1 + g) per eigenvalue is log1p(g) - g with g = expm1(x),
        # which is x - expm1(x); the unified entropy takes s = 1
        x = lam**r
        return (float((x - np.expm1(x)).sum()) - 1.0) / (1.0 - r)
    i_r = float((lam**r).sum())
    if kind == "tsallis":
        return (i_r - 1.0) / (1.0 - r)
    if kind == "renyi":
        return math.log(i_r) / (1.0 - r)
    return (i_r**s - 1.0) / ((1.0 - r) * s)  # hy, and hy-fredholm by log det = I_r


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir

    def rng(self, cycle: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, cycle])

    def prepare(self) -> None:
        """Generate the inputs that every cycle shares; timed as set-up."""

    def references(self) -> None:
        """Compute the reference values the checks compare against; untimed."""

    def cycle(self, c: int) -> list[Op]:
        raise NotImplementedError

    def closing_ops(self) -> list[Op]:
        """Ops run once after the last cycle."""
        return []


class XStateSweep(Workload):
    """The X-state triangle sweep through the CLI, one derived seed per op."""

    name = "xstate-sweep"
    DIMS = (2, 3, 4, 5, 6, 7, 8)
    SAMPLES = 50
    R, S = 2.0, 0.5  # the CLI's default orders

    first_output: str | None = None

    def _seed(self, c: int) -> int:
        return int(self.rng(c).integers(2**31))

    def _op(self, seed: int, check: Callable[[tuple[int, str]], None]) -> Op:
        argv = [
            "xstate-experiment",
            "--d", ",".join(map(str, self.DIMS)),
            "--samples", str(self.SAMPLES),
            "--seed", str(seed),
        ]
        return Op("xstate-experiment", lambda: _run_cli(argv), check)

    def cycle(self, c: int) -> list[Op]:
        seed = self._seed(c)

        def check(result):
            self._check(seed, result)
            if c == 1:
                self.first_output = result[1]

        return [self._op(seed, check)]

    def closing_ops(self) -> list[Op]:
        seed = self._seed(1)

        def check(result):
            self._check(seed, result)
            if result[1] != self.first_output:
                raise Mismatch(f"seed {seed}: rerun CSV differs from the first run")

        return [self._op(seed, check)]

    def _hy(self, mats: np.ndarray) -> np.ndarray:
        """Unified entropy of each matrix in a stack."""
        lam = np.linalg.eigvalsh(mats)
        i_r = np.where(lam > 0, lam, 0.0) ** self.R
        return (i_r.sum(axis=-1) ** self.S - 1.0) / ((1.0 - self.R) * self.S)

    def _check(self, seed: int, result: tuple[int, str]) -> None:
        code, text = result
        if code != 0:
            raise Mismatch(f"seed {seed}: exit code {code}")
        lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
        header = lines[0].split(",")
        rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
        keys = [(int(row["d"]), int(row["sample"])) for row in rows]
        if keys != [(d, i) for d in self.DIMS for i in range(self.SAMPLES)]:
            raise Mismatch(f"seed {seed}: unexpected (d, sample) rows")
        for k, d in enumerate(self.DIMS):
            block = rows[k * self.SAMPLES:(k + 1) * self.SAMPLES]
            mats = np.stack([
                states.x_state_random(d, seed, index=i).mat for i in range(self.SAMPLES)
            ])
            m6 = mats.reshape(self.SAMPLES, d, d, d, d)
            full = self._hy(mats)
            gap = np.abs(
                self._hy(np.trace(m6, axis1=2, axis2=4)) - self._hy(np.trace(m6, axis1=1, axis2=3))
            )
            for i, row in enumerate(block):
                what = f"seed {seed} d={d} sample={i}"
                _near(float(row["hy_full"]), full[i], f"{what} hy_full")
                _near(float(row["hy_diff"]), gap[i], f"{what} hy_diff", abs_tol=1e-10)
                if row["pass"] != "true":
                    raise Mismatch(f"{what}: triangle inequality reported as failed")


class SpectralTail(Workload):
    """Truncated infinite-dimensional spectra: 1-D NumPy work, no matrices."""

    name = "spectral-tail"
    N = 10**6
    PROBE_K = 10**7
    PROBE_THRESHOLD = 20.0  # above every partial sum up to PROBE_K: the probe scans all
    ZETA_K = 10**6
    ZETA_P_K = 15_485_863   # the millionth prime

    def references(self) -> None:
        self.zeta_ratio = float(mpmath.zeta(2) / mpmath.zeta(4))
        self.harmonic = mpmath.harmonic(self.PROBE_K)

    def cycle(self, c: int) -> list[Op]:
        rng = self.rng(c)
        beta = rng.uniform(1.2, 1.8)
        orders = Orders.draw(rng)
        eps = rng.uniform(0.3, 1.0)
        probe_r = 1.0 / (1.0 + eps)
        box: dict[str, Any] = {}

        def check_spectrum(spec):
            n = np.arange(2, self.N + 2, dtype=float)
            w = 1.0 / (n * np.log(n) ** beta)
            lam = w / w.sum()
            if spec.values.shape != lam.shape:
                raise Mismatch(f"spectrum has {spec.values.shape} values, expected {lam.shape}")
            err = float(np.max(np.abs(spec.values - lam) / lam))
            if not err <= 1e-9:
                raise Mismatch(f"log-power spectrum off by {err:.3e} relative")
            box.update(spec=spec, lam=lam, raw=np.array(spec.values))

        def check_value(kind):
            return lambda res: _near(
                res.value, reference_entropy(box["lam"], kind, orders), f"evaluate {kind}"
            )

        def check_probe(res):
            # lam_k^r = k^-1 zeta(1 + eps)^-r, so the partial sum is harmonic
            want = float(mpmath.zeta(1.0 + eps) ** (-probe_r) * self.harmonic)
            if res.reached or res.index != self.PROBE_K:
                raise Mismatch(f"probe stopped at {res.index} (reached={res.reached})")
            _near(res.partial_sum, want, "probe partial sum")

        def check_zeta(report):
            final = report.records[-1]
            if final["k"] != self.ZETA_K or final["p_k"] != self.ZETA_P_K:
                raise Mismatch(f"final checkpoint k={final['k']} p_k={final['p_k']}")
            _near(report.summary["analytic_ratio"], self.zeta_ratio, "zeta(2)/zeta(4)", rel=1e-11)
            gap = abs(final["log_det"] - math.log(self.zeta_ratio))
            if not gap <= 1.0 / self.ZETA_P_K + 1e-10:  # tail bound p_k^(1-q)/(q-1)
                raise Mismatch(f"log det misses log zeta(2)/zeta(4) by {gap:.3e}")
            if report.summary["passed"] is not True:
                raise Mismatch("zeta check reported as failed")

        ops = [Op("log_power_spectrum", lambda: states.log_power_spectrum(beta, self.N), check_spectrum)]
        for kind in KINDS:
            ops.append(Op(
                f"evaluate {kind}",
                lambda kind=kind: entropy.evaluate(kind, box["spec"], orders.params(kind)),
                check_value(kind),
            ))
        ops.append(Op(
            "evaluate hy ndarray",
            lambda: entropy.evaluate("hy", box["raw"], orders.params("hy")),
            check_value("hy"),
        ))
        ops.append(Op(
            "divergence_probe",
            lambda: entropy.divergence_probe(
                states.power_law_generator(eps), probe_r, self.PROBE_THRESHOLD, k_max=self.PROBE_K
            ),
            check_probe,
        ))
        ops.append(Op("run_zeta_check", lambda: experiments.run_zeta_check(2, 2, self.ZETA_K), check_zeta))
        return ops


def _exp_sum(x, y):
    return np.exp(x + y)


class FredholmNystrom(Workload):
    """Nystrom determinants: a few large LU factorizations and many small rules."""

    name = "fredholm-nystrom"
    MS = (250, 500, 1000, 2000)
    QUAD_MS = (2, 5, 10, 20, 40, 80)
    # the CLI's default squeezing grid
    GRID = [round(0.1 * i, 10) for i in range(1, 10)] + list(range(1, 21))
    GAUSS_M = 40

    def prepare(self) -> None:
        self.squeezed = states.squeezed_kernel()
        self.rank_one = fredholm.KernelSpec(_exp_sum, "exp-rank-one")

    def references(self) -> None:
        self.legendre = {m: np.polynomial.legendre.leggauss(m) for m in self.QUAD_MS}
        with mpmath.workdps(30):
            self.gauss_ref = {
                r: float(mpmath.cosh(r) ** 2 * mpmath.log(mpmath.cosh(r) ** 2)
                         - mpmath.sinh(r) ** 2 * mpmath.log(mpmath.sinh(r) ** 2))
                for r in self.GRID
            }

    def cycle(self, c: int) -> list[Op]:
        rng = self.rng(c)
        z = rng.uniform(0.5, 1.5)
        b = rng.uniform(0.5, 2.0)
        rank_one_det = 1.0 + z * math.expm1(2.0 * b) / 2.0
        previous: dict[str, float] = {}

        def check_squeezed(m):
            def check(logdet):
                if not math.isfinite(logdet):
                    raise Mismatch(f"squeezed log det at m={m} is {logdet!r}")
                if "logdet" in previous:
                    _near(logdet, previous["logdet"], f"squeezed log det m={m} vs the previous m")
                previous["logdet"] = logdet
            return check

        def check_quad_squeezed(report):
            ms = [rec["m"] for rec in report.records]
            if ms != list(self.QUAD_MS):
                raise Mismatch(f"squeezed quad-test rows for m={ms}")
            for rec in report.records:
                if not (math.isfinite(rec["det"]) and rec["det"] > 0.0):
                    raise Mismatch(f"squeezed quad-test det {rec['det']!r} at m={rec['m']}")
                if rec["m"] >= 40:  # converged: the m = 2000 determinant of this cycle
                    _near(rec["det"], math.exp(previous["logdet"]), f"squeezed quad-test det m={rec['m']}")

        def check_quad(report):
            ms = [rec["m"] for rec in report.records]
            if ms != list(self.QUAD_MS):
                raise Mismatch(f"quad-test rows for m={ms}")
            for rec in report.records:
                x, w = self.legendre[rec["m"]]
                nodes = 0.5 * b * (x + 1.0)
                want = 1.0 + z * float((0.5 * b * w * np.exp(2.0 * nodes)).sum())
                _near(rec["det"], want, f"quad-test det m={rec['m']}")
            _near(report.records[-1]["det"], rank_one_det, "quad-test det vs closed form")

        ops = [
            Op(
                f"log_fredholm_det m={m}",
                lambda m=m: fredholm.log_fredholm_det(self.squeezed, z, 0.0, b, m),
                check_squeezed(m),
            )
            for m in self.MS
        ]
        ops += [
            Op(
                f"fredholm_det m={m}",
                lambda m=m: fredholm.fredholm_det(self.rank_one, z, 0.0, b, m),
                lambda det, m=m: _near(det, rank_one_det, f"rank-one det m={m}"),
            )
            for m in self.MS
        ]
        ops.append(Op(
            "run_gaussian_experiment",
            lambda: experiments.run_gaussian_experiment(self.GRID, m=self.GAUSS_M),
            self._check_gaussian,
        ))
        ops.append(Op(
            "run_quad_test",
            lambda: experiments.run_quad_test("exp-rank-one", z, 0.0, b, list(self.QUAD_MS)),
            check_quad,
        ))
        # The eleventh op: with an odd number of ops per cycle the median op
        # lies inside one op's latency cluster, not in the gap between two.
        ops.append(Op(
            "run_quad_test squeezed",
            lambda: experiments.run_quad_test("squeezed", z, 0.0, b, list(self.QUAD_MS)),
            check_quad_squeezed,
        ))
        return ops

    def _check_gaussian(self, report) -> None:
        if [rec["r"] for rec in report.records] != self.GRID:
            raise Mismatch("gaussian sweep rows do not follow the grid")
        n_max = report.params["n_max"]
        for rec in report.records:
            r, want = rec["r"], self.gauss_ref[rec["r"]]
            _near(rec["stable"], want, f"stable entropy r={r}", rel=1e-10)
            if not (rec["logdet_ok"] and math.isfinite(rec["logdet"])):
                raise Mismatch(f"kernel log det failed at r={r}")
            # A truncated geometric Schmidt series has at most the full entropy,
            # and reaches it once the dropped tail mass is negligible.
            if math.tanh(r) ** (2 * (n_max + 1)) < 1e-12:
                _near(rec["schmidt"], want, f"Schmidt entropy r={r}", abs_tol=1e-9)
            elif not 0.0 <= rec["schmidt"] <= want + 1e-9:
                raise Mismatch(f"Schmidt entropy {rec['schmidt']!r} outside [0, {want!r}] at r={r}")


class DenseCli(Workload):
    """`entrodet entropy` on JSON matrix files, one op in ten an invalid input."""

    name = "dense-cli"
    DIMS = (16, 64, 256)
    FILES_PER_DIM = 2
    ROUNDS = 10  # a cycle is ROUNDS ops per dimension
    INVALID = {(3, 0), (6, 1), (9, 2)}  # (round, dimension index): one op in ten
    EXIT_VALIDATION, EXIT_DOMAIN = 3, 4  # the CLI's documented exit codes

    def prepare(self) -> None:
        rng = self.rng(0)
        self.orders = Orders.draw(rng)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.mats: dict[tuple[int, int], np.ndarray] = {}
        self.files: dict[tuple[int, int], str] = {}
        self.non_hermitian: dict[int, str] = {}
        for dim in self.DIMS:
            for i in range(self.FILES_PER_DIM):
                mat = states.random_density(dim, int(rng.integers(2**31))).mat
                path = self.workdir / f"rho-{dim}-{i}.json"
                matrixio.save_matrix(path, mat)
                self.mats[dim, i] = mat
                self.files[dim, i] = str(path)
            bad = mat.copy()
            bad[0, 1] += 1e-3
            path = self.workdir / f"non-hermitian-{dim}.json"
            matrixio.save_matrix(path, bad)
            self.non_hermitian[dim] = str(path)

    def references(self) -> None:
        self.refs = {}
        for (dim, i), mat in self.mats.items():
            lam = np.linalg.eigvalsh(mat)
            for kind in KINDS:
                self.refs[dim, i, kind] = reference_entropy(lam, kind, self.orders)

    def cycle(self, c: int) -> list[Op]:
        per_dim = self.ROUNDS - 1  # valid ops per dimension and cycle
        done = dict.fromkeys(self.DIMS, 0)
        ops = []
        for rnd in range(self.ROUNDS):
            for j, dim in enumerate(self.DIMS):
                if (rnd, j) in self.INVALID:
                    ops.append(self._invalid_op(dim, (c * len(self.DIMS) + j) % 2))
                    continue
                v = c * per_dim + done[dim]
                done[dim] += 1
                kind = KINDS[v % len(KINDS)]
                i = (v // len(KINDS)) % self.FILES_PER_DIM
                ops.append(self._valid_op(dim, i, kind))
        return ops

    def _valid_op(self, dim: int, i: int, kind: str) -> Op:
        argv = ["entropy", self.files[dim, i], "--kind", kind, *self.orders.flags(kind)]

        def check(result):
            code, out = result
            if code != 0:
                raise Mismatch(f"exit code {code} for {kind} on dim {dim}")
            _near(json.loads(out)["value"], self.refs[dim, i, kind], f"{kind} on dim {dim}")

        return Op(f"entropy {kind} dim={dim}", lambda: _run_cli(argv), check)

    def _invalid_op(self, dim: int, use_bad_order: int) -> Op:
        if use_bad_order:
            argv = ["entropy", self.files[dim, 0], "--kind", "tsallis", "--r", "0"]
            return Op(f"entropy --r 0 dim={dim}", lambda: _run_cli(argv), _expect_exit(self.EXIT_DOMAIN))
        argv = ["entropy", self.non_hermitian[dim], "--kind", "vn"]
        return Op(f"entropy non-Hermitian dim={dim}", lambda: _run_cli(argv), _expect_exit(self.EXIT_VALIDATION))


WORKLOADS = {w.name: w for w in (XStateSweep, SpectralTail, FredholmNystrom, DenseCli)}
