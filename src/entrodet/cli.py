"""Command-line front end.

Subcommands
-----------
entropy              evaluate one entropy kind on a matrix file (JSON out)
xstate-experiment    triangle-inequality sweep over random X states (CSV)
gaussian-experiment  squeezed-vacuum entropy sweep (CSV)
zeta-check           prime-spectrum determinant vs zeta ratio (CSV)
quad-test            Nystrom determinant convergence table (CSV)

Experiments write CSV to ``--out`` (stdout otherwise); with ``--out``
the JSON report goes to stdout. Exit codes are a stable contract:
0 success, 2 I/O or parse failure, 3 state validation failure,
4 parameter domain error. ``entropy`` checks its parameters before it
reads the matrix file, so 4 takes precedence over 2 and 3.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import experiments, matrixio
from .entropy import KINDS, EntropyParams, _route, evaluate
from .errors import DomainError, ValidationError
from .linalg import spectrum_of

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_DOMAIN = 4


def _float_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}") from exc


def _int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}") from exc


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; tuple defaults keep parses apart."""
    parser = argparse.ArgumentParser(
        prog="entrodet",
        description="Quantum entropies via spectral formulas and Fredholm determinants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("entropy", help="evaluate an entropy on a matrix file")
    p.add_argument("input", help="matrix file ({'dim': n, 're': [[..]], 'im': [[..]]})")
    p.add_argument("--kind", required=True, choices=KINDS)
    p.add_argument("--r", type=float, default=2.0)
    p.add_argument("--s", type=float, default=1.0)
    p.add_argument("--alpha", type=int, default=None,
                   help="regularization order (default: smallest admissible)")
    p.add_argument("--base", choices=["e", "2"], default="e")

    p = sub.add_parser("xstate-experiment", help="triangle inequality on random X states")
    p.add_argument("--d", type=_int_list, default=(2, 3, 4, 5),
                   help="comma-separated subsystem dimensions")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--r", type=float, default=2.0)
    p.add_argument("--s", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", default=None)

    p = sub.add_parser("gaussian-experiment", help="squeezed-vacuum entropy sweep")
    p.add_argument("--r", type=_float_list,
                   default=tuple(round(0.1 * i, 10) for i in range(1, 10)) + tuple(range(1, 21)),
                   help="comma-separated squeezing grid")
    p.add_argument("--nmax", type=int, default=20000)
    p.add_argument("--m", type=int, default=40)
    p.add_argument("--z", type=float, default=1.0)
    p.add_argument("--out", default=None)

    p = sub.add_parser("zeta-check", help="prime-spectrum determinant identity")
    p.add_argument("--q", type=float, default=2.0)
    p.add_argument("--r", type=float, default=2.0)
    p.add_argument("--k", type=int, default=100_000)
    p.add_argument("--out", default=None)

    p = sub.add_parser("quad-test", help="Nystrom determinant convergence")
    p.add_argument("--kernel", default="constant")
    p.add_argument("--z", type=float, default=1.0)
    p.add_argument("--interval", type=float, nargs=2, default=(0.0, 1.0), metavar=("A", "B"))
    p.add_argument("--m", type=_int_list, default=(2, 5, 10, 20), dest="m_list",
                   help="comma-separated node counts")
    p.add_argument("--out", default=None)

    return parser


def _emit_report(report: experiments.ExperimentReport, out: str | None) -> None:
    csv_text = report.to_csv()
    if out is None:
        sys.stdout.write(csv_text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(csv_text)
        sys.stdout.write(report.to_json() + "\n")
    print(f"[entrodet] {report.experiment}: {report.wall_time_s:.3f} s", file=sys.stderr)


def _cmd_entropy(args) -> int:
    params = EntropyParams(r=args.r, s=args.s, alpha=args.alpha, log_base=args.base)
    _route(args.kind, params)  # a bad parameter exits 4 before the file is read
    spec = spectrum_of(matrixio.load_matrix(args.input), normalized=True)
    result = evaluate(args.kind, spec, params)
    payload = {
        "value": result.value,
        "method": result.method,
        "diagnostics": result.diagnostics,
        "divergent": result.divergent,
    }
    sys.stdout.write(experiments._strict_json(payload) + "\n")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "entropy":
            return _cmd_entropy(args)
        if args.command == "xstate-experiment":
            report = experiments.run_xstate_experiment(
                args.d, args.samples, r=args.r, s=args.s, seed=args.seed,
            )
            _emit_report(report, args.out)
            counted = report.summary["passed"] + report.summary["past_float_range"]
            return EXIT_OK if counted == report.summary["total"] else EXIT_VALIDATION
        if args.command == "gaussian-experiment":
            report = experiments.run_gaussian_experiment(
                args.r, n_max=args.nmax, m=args.m, z=args.z
            )
            _emit_report(report, args.out)
            return EXIT_OK
        if args.command == "zeta-check":
            report = experiments.run_zeta_check(args.q, args.r, args.k)
            _emit_report(report, args.out)
            return EXIT_OK
        # quad-test: the required subparsers admit no other command
        a, b = args.interval
        report = experiments.run_quad_test(args.kernel, args.z, a, b, args.m_list)
        _emit_report(report, args.out)
        return EXIT_OK
    except DomainError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ValidationError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (OSError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
