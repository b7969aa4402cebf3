"""End-to-end tests of the command-line interface via subprocess.

Exit codes are a stable contract: 0 success, 2 I/O or parse failure,
3 validation failure, 4 parameter domain error; ``entropy`` reports 4
before it reads its file.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import entrodet
from entrodet import cli, save_matrix

# The subprocess imports the same entrodet as these tests, however pytest found it.
_PYTHONPATH = os.pathsep.join(
    filter(None, [str(Path(entrodet.__file__).parents[1]), os.environ.get("PYTHONPATH")])
)

BELL = np.zeros((4, 4), dtype=complex)
BELL[np.ix_([0, 3], [0, 3])] = 0.5


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "entrodet", *args],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": _PYTHONPATH},
    )


def strict_loads(text):
    """``json.loads`` that refuses the non-standard ``NaN``, ``Infinity`` and ``-Infinity``."""
    def refuse(token):
        raise ValueError(f"not strict JSON: {token}")
    return json.loads(text, parse_constant=refuse)


@pytest.fixture
def mixed_file(tmp_path):
    path = tmp_path / "mixed.json"
    save_matrix(path, np.diag([0.7, 0.3]).astype(complex))
    return str(path)


class TestEntropyCommand:
    def test_vn_maximally_mixed(self, tmp_path):
        path = tmp_path / "mm.json"
        save_matrix(path, np.eye(2) / 2)
        proc = run_cli("entropy", str(path), "--kind", "vn")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["value"] == pytest.approx(math.log(2), abs=1e-12)
        assert payload["method"] == "direct-spectral"

    def test_hy_bell_state_zero(self, tmp_path):
        path = tmp_path / "bell.json"
        save_matrix(path, BELL)
        proc = run_cli("entropy", str(path), "--kind", "hy", "--r", "2", "--s", "0.5")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["value"] == pytest.approx(0.0, abs=1e-10)

    def test_hy_mixed_oracle(self, mixed_file):
        proc = run_cli("entropy", mixed_file, "--kind", "hy", "--r", "2", "--s", "0.5")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["value"] == pytest.approx(
            0.47684537882721834, abs=1e-12
        )

    def test_missing_file_exit_2(self):
        proc = run_cli("entropy", "/nonexistent/m.json", "--kind", "vn")
        assert proc.returncode == 2

    def test_malformed_json_exit_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        proc = run_cli("entropy", str(path), "--kind", "vn")
        assert proc.returncode == 2

    @pytest.mark.parametrize("text", [
        "[" * 100_000 + "]" * 100_000,
        '{"dim": 1, "re": ' + "[" * 1_000_000 + "]" * 1_000_000 + ', "im": [[0]]}',
        '{"dim": 1, "re": [[1e400]], "im": [[0]]}',
        '{"dim": 2, "re": [[NaN, 0], [0, 0.5]], "im": [[0, 0], [0, 0]]}',
        '{"dim": 2, "re": [[0.5, 0], [0, 0.5]], "im": [[0, Infinity], [-Infinity, 0]]}',
    ], ids=["deep-array", "deep-entry", "overflow", "nan-token", "infinity-token"])
    def test_malformed_numbers_exit_2(self, tmp_path, text):
        # NaN and Infinity are not JSON (RFC 8259), so these are parse failures.
        path = tmp_path / "bad.json"
        path.write_text(text)
        proc = run_cli("entropy", str(path), "--kind", "vn")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr

    def test_shape_mismatch_exit_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dim": 3, "re": [[1, 0], [0, 1]], "im": [[0, 0], [0, 0]]}))
        proc = run_cli("entropy", str(path), "--kind", "vn")
        assert proc.returncode == 2

    def test_invalid_state_exit_3(self, tmp_path):
        path = tmp_path / "neg.json"
        save_matrix(path, np.diag([1.2, -0.2]).astype(complex))
        proc = run_cli("entropy", str(path), "--kind", "vn")
        assert proc.returncode == 3
        assert "NotPositive" in proc.stderr

    def test_domain_error_exit_4(self, mixed_file):
        proc = run_cli("entropy", mixed_file, "--kind", "tsallis", "--r", "1")
        assert proc.returncode == 4
        assert "DomainError" in proc.stderr

    @pytest.mark.parametrize("content", [None, np.diag([1.2, -0.2])], ids=["missing", "not-psd"])
    def test_domain_error_precedes_parse_and_validation(self, tmp_path, capsys, content):
        # the parameters are checked before the file is read: 4, not 2 or 3
        path = tmp_path / "state.json"
        if content is not None:
            save_matrix(path, content.astype(complex))
        for kind, order in (("tsallis", "0"), ("hy-fredholm", "0.5"), ("hy-ren", "2")):
            assert cli.main(["entropy", str(path), "--kind", kind, "--r", order]) == 4
            assert "DomainError" in capsys.readouterr().err

    def test_non_finite_order_exit_4(self, mixed_file):
        for kind, r in (("renyi", "inf"), ("hy", "nan")):
            proc = run_cli("entropy", mixed_file, "--kind", kind, "--r", r)
            assert proc.returncode == 4
            assert "DomainError" in proc.stderr

    @pytest.mark.parametrize("args", [
        ("--r", "5e-324"), ("--r", "0.5", "--alpha", "1" + "0" * 400),
    ], ids=["reciprocal-overflows", "huge-alpha"])
    def test_renormalized_order_out_of_float_range_exit_4(self, mixed_file, args):
        # both escaped as OverflowError, a traceback and exit 1
        proc = run_cli("entropy", mixed_file, "--kind", "hy-ren", *args)
        assert proc.returncode == 4
        assert "DomainError" in proc.stderr and "Traceback" not in proc.stderr

    def test_unnormalized_state_exit_3(self, tmp_path):
        path = tmp_path / "twice.json"
        save_matrix(path, np.diag([1.4, 0.6]).astype(complex))
        proc = run_cli("entropy", str(path), "--kind", "hy-ren", "--r", "0.5")
        assert proc.returncode == 3
        assert "NotNormalized" in proc.stderr

    def test_one_eigensolve_per_file(self, mixed_file, monkeypatch, capsys):
        calls = []
        for name in ("eigvalsh", "eigh", "eig", "eigvals", "svd"):
            solver = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name,
                                lambda *a, name=name, solver=solver, **k: calls.append(name) or solver(*a, **k))
        for kind in ("vn", "vn-ren", "tsallis", "renyi", "hy", "hy-fredholm", "hy-ren"):
            calls.clear()
            order = ["--r", "0.5"] if kind == "hy-ren" else []
            assert cli.main(["entropy", mixed_file, "--kind", kind, *order]) == 0
            assert calls == ["eigvalsh"], kind
        capsys.readouterr()

    def test_pure_state_prints_positive_zero(self, tmp_path, capsys):
        # every kind whose value on a pure state is zero prints 0.0, never -0.0
        path = tmp_path / "pure.json"
        save_matrix(path, np.ones((1, 1), dtype=complex))
        for kind in ("vn", "vn-ren", "tsallis", "renyi", "hy", "hy-fredholm"):
            assert cli.main(["entropy", str(path), "--kind", kind]) == 0
            out = capsys.readouterr().out
            assert '"value": 0.0,' in out, (kind, out)
            assert math.copysign(1.0, json.loads(out)["value"]) == 1.0
        proc = run_cli("entropy", str(path), "--kind", "vn")
        assert proc.returncode == 0
        assert proc.stdout.startswith('{"value": 0.0, ')

    def test_fractional_power_exit_4(self, mixed_file):
        proc = run_cli("entropy", mixed_file, "--kind", "hy-ren", "--r", "0.5", "--s", "0.5")
        assert proc.returncode == 4
        assert "FractionalPowerOfNegative" in proc.stderr

    def test_negative_log_det_at_high_alpha_exit_4(self, tmp_path):
        # log det_200 of diag(0.4, 0.3, 0.3) at r = 0.9 is -4.1e-55, so its power 0.5 is
        # refused, as at alpha = 40; the alternating sum cancelled to +7.5e-18 and exited 0
        path = tmp_path / "diag.json"
        save_matrix(path, np.diag([0.4, 0.3, 0.3]))
        proc = run_cli("entropy", str(path), "--kind", "hy-ren", "--r", "0.9", "--s", "0.5",
                       "--alpha", "200")
        assert proc.returncode == 4
        assert "FractionalPowerOfNegative" in proc.stderr

    def test_underflowed_log_det_keeps_its_sign_exit_4(self, tmp_path):
        # at alpha = 1e5 every term of log det_ren underflows, so it is -0.0, the sign of
        # its exact value (about -1e-25960): its power 0.5 is refused, as at alpha = 200,
        # where a +0.0 sum printed -20 and exited 0. An integer power takes -0.0 as 0
        path = tmp_path / "diag.json"
        save_matrix(path, np.diag([0.4, 0.3, 0.3]))
        args = ("entropy", str(path), "--kind", "hy-ren", "--r", "0.9", "--alpha", "100000")
        proc = run_cli(*args, "--s", "0.5")
        assert proc.returncode == 4
        assert "FractionalPowerOfNegative" in proc.stderr
        proc = run_cli(*args, "--s", "1")
        assert proc.returncode == 0, proc.stderr
        payload = strict_loads(proc.stdout)
        assert payload["value"] == -10.000000000000002
        assert '"log_det": -0.0' in proc.stdout

    def test_overflowing_value_is_divergent(self, tmp_path):
        # I_3^s = 0.25^-2000 is past the float range: +inf, written "inf", flagged, exit 0
        path = tmp_path / "mm.json"
        save_matrix(path, np.eye(2) / 2)
        proc = run_cli("entropy", str(path), "--kind", "hy", "--r", "3", "--s", "-2000")
        assert proc.returncode == 0, proc.stderr
        payload = strict_loads(proc.stdout)
        assert payload["value"] == "inf"
        assert payload["divergent"] is True

    @pytest.mark.parametrize("args", [("--kind", "renyi", "--r", "2000"),
                                      ("--kind", "hy", "--r", "2000", "--s", "-1")],
                             ids=["renyi", "hy"])
    def test_underflowing_power_sum_exit_4(self, tmp_path, args):
        # I_2000 of the maximally mixed qubit underflows to 0: a domain error, not a parse one
        path = tmp_path / "mm.json"
        save_matrix(path, np.eye(2) / 2)
        proc = run_cli("entropy", str(path), *args)
        assert proc.returncode == 4, proc.stderr
        assert "DomainError" in proc.stderr
        assert "underflows to 0" in proc.stderr


class TestStrictJson:
    """Every JSON output parses strictly; a non-finite value is its CSV cell text."""

    @pytest.mark.parametrize("argv,column,cells", [
        (["gaussian-experiment"], "naive", ["nan", "nan"]),
        (["xstate-experiment", "--d", "2", "--samples", "2", "--r", "2000", "--s", "-1"],
         "hy_full", ["inf"]),
        (["zeta-check", "--q", "60", "--k", "1000"], "rel_gap", []),
        (["quad-test", "--kernel", "exp-rank-one", "--interval", "0", "354"], "det", []),
    ], ids=["gaussian-defaults", "xstate-past-float-range", "zeta-q60", "quad"])
    def test_experiment_report(self, tmp_path, capsys, argv, column, cells):
        out = tmp_path / "report.csv"
        assert cli.main([*argv, "--out", str(out)]) == 0
        report = strict_loads(capsys.readouterr().out)
        assert [rec[column] for rec in report["records"] if isinstance(rec[column], str)] == cells
        header, *rows = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        col = header.split(",").index(column)
        assert [row.split(",")[col] for row in rows if row.split(",")[col] in cells] == cells

    @pytest.mark.parametrize("kind,args,value", [
        ("hy", ["--r", "3", "--s", "-2000"], "inf"),
        ("hy-ren", ["--r", "0.5", "--s", "-2000"], "-inf"),
        ("vn", [], None),
    ])
    def test_entropy_result(self, tmp_path, capsys, kind, args, value):
        path = tmp_path / "mm.json"
        save_matrix(path, np.eye(2) / 2)
        assert cli.main(["entropy", str(path), "--kind", kind, *args]) == 0
        payload = strict_loads(capsys.readouterr().out)
        if value is None:
            assert math.isfinite(payload["value"]) and payload["divergent"] is False
        else:
            assert payload["value"] == value and payload["divergent"] is True


class TestParser:
    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    @pytest.mark.parametrize("argv", [["entropy", "m.json", "--kind", "vn"],
                                      ["xstate-experiment"], ["gaussian-experiment"],
                                      ["zeta-check"], ["quad-test"]])
    def test_sequence_defaults_are_tuples(self, argv):
        args = vars(cli.build_parser().parse_args(argv))
        sequences = {k: v for k, v in args.items() if isinstance(v, (list, tuple))}
        assert all(type(v) is tuple for v in sequences.values()), sequences

    def test_reuse_keeps_calls_apart(self, capsys):
        assert cli.main(["xstate-experiment", "--d", "2", "--samples", "3"]) == 0
        capsys.readouterr()
        assert cli.main(["xstate-experiment"]) == 0
        fresh = run_cli("xstate-experiment")
        assert fresh.returncode == 0
        assert capsys.readouterr().out == fresh.stdout


class TestExperimentCommands:
    def test_xstate_deterministic_bytes(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            proc = run_cli(
                "xstate-experiment", "--d", "2,3", "--samples", "5",
                "--seed", "123", "--out", str(out),
            )
            assert proc.returncode == 0
            report = json.loads(proc.stdout)
            assert report["summary"]["passed"] == 10
        assert out1.read_bytes() == out2.read_bytes()

    def test_xstate_golden_csv(self, tmp_path):
        # the benchmark's sweep at a fixed seed: a change to these bytes is a change
        # to the sweep's results, to be recorded as one
        out = tmp_path / "x.csv"
        argv = ["xstate-experiment", "--d", "2,3,4,5,6,7,8", "--samples", "50",
                "--seed", "12345", "--out", str(out)]
        assert cli.main(argv) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "442977e91e946e5da94fd6eec01ca2c8e5e96721aa6a8dafc3ffdf7019f7ee26"
        )

    def test_xstate_zero_samples(self):
        proc = run_cli("xstate-experiment", "--d", "2,3,4,5", "--samples", "0")
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert [ln.startswith("#") for ln in lines] == [True, True, True, False]
        assert lines[-1] == "d,sample,hy_full,hy_diff,pass"

    def test_xstate_csv_to_stdout(self):
        proc = run_cli("xstate-experiment", "--d", "2", "--samples", "2", "--seed", "1")
        assert proc.returncode == 0
        assert proc.stdout.startswith("# schema_version=1")
        assert "d,sample,hy_full,hy_diff,pass" in proc.stdout

    def test_gaussian_rows(self, tmp_path):
        out = tmp_path / "g.csv"
        proc = run_cli(
            "gaussian-experiment", "--r", "0.5,1,25", "--nmax", "200",
            "--m", "20", "--out", str(out),
        )
        assert proc.returncode == 0
        body = out.read_text()
        assert "naive_overflow" in body
        lines = [ln for ln in body.splitlines() if not ln.startswith("#")]
        assert len(lines) == 4  # header + 3 rows

    def test_gaussian_largest_truncation_order(self):
        # the Schmidt column is a closed form in --nmax: the cap 2^53 allocates nothing,
        # and with no mass left past the truncation it is the full entropy
        proc = run_cli("gaussian-experiment", "--r", "1", "--nmax", "9007199254740992",
                       "--m", "4")
        assert proc.returncode == 0
        lines = [ln for ln in proc.stdout.splitlines() if not ln.startswith("#")]
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert row["schmidt_tail"] == "0.0"
        assert abs(float(row["schmidt"]) - float(row["stable"])) <= 1e-14 * float(row["stable"])

    def test_gaussian_refused_determinant_exit_0(self):
        # the dense LU on (0, 1e308) is rounding noise: that DomainError exited 4
        # with no CSV; the row is flagged and the r = 1 row keeps its bytes
        proc = run_cli("gaussian-experiment", "--r", "1,1e308")
        assert proc.returncode == 0, proc.stderr
        *_, row_1, row_big = proc.stdout.splitlines()
        assert row_big.split(",")[6:8] == ["", "false"]
        alone = run_cli("gaussian-experiment", "--r", "1")
        assert alone.stdout.splitlines()[-1] == row_1

    def test_gaussian_interval_is_no_option(self):
        proc = run_cli("gaussian-experiment", "--r", "0.5", "--interval", "0", "1")
        assert proc.returncode == 2
        assert "unrecognized arguments: --interval 0 1" in proc.stderr
        assert proc.stdout == ""

    def test_xstate_rows_past_the_float_range_exit_0(self):
        proc = run_cli("xstate-experiment", "--d", "2", "--samples", "2", "--r", "2000",
                       "--s", "-1")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "2,1,inf,,"
        assert "nan" not in proc.stdout and "Warning" not in proc.stderr

    def test_zeta_check(self, tmp_path):
        out = tmp_path / "z.csv"
        proc = run_cli("zeta-check", "--q", "2", "--r", "2", "--k", "1000", "--out", str(out))
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["summary"]["passed"] is True

    @pytest.mark.parametrize("q", ["53", "60", "1000"])
    def test_zeta_check_where_the_log_ratio_rounds_to_zero(self, tmp_path, q):
        # from q = 53 on log(zeta(q) / zeta(2q)) rounds to 0.0 and rel_gap divided
        # by it (ZeroDivisionError, exit 1); its cells are now empty, null in JSON
        out = tmp_path / "z.csv"
        proc = run_cli("zeta-check", "--q", q, "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["summary"]["log_analytic"] == 0.0
        assert all(record["rel_gap"] is None for record in report["records"])
        header, *rows = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        col = header.split(",").index("rel_gap")
        assert rows and all(row.split(",")[col] == "" for row in rows)

    def test_quad_test(self):
        proc = run_cli("quad-test", "--kernel", "constant", "--z", "-0.5",
                       "--interval", "0", "1", "--m", "1,2,5")
        assert proc.returncode == 0
        assert "0.5" in proc.stdout

    def test_quad_steep_kernel_rows_finite(self):
        # the dense determinant overflowed to inf (and diff_prev to nan) here
        proc = run_cli("quad-test", "--kernel", "exp-rank-one", "--interval", "0", "354")
        assert proc.returncode == 0
        lines = [ln for ln in proc.stdout.splitlines() if not ln.startswith("#")]
        assert lines[0].startswith("m,det,diff_prev,")
        rows = [ln.split(",") for ln in lines[1:]]
        assert [int(row[0]) for row in rows] == [2, 5, 10, 20]
        assert all(math.isfinite(float(row[1])) and float(row[1]) > 0 for row in rows)
        assert all(math.isfinite(float(row[2])) for row in rows[1:])
        assert math.log(float(rows[0][1])) == pytest.approx(563.558, abs=1e-3)

    def test_quad_steep_kernel_past_the_rank_cap(self):
        # from m = 247 the rank cap exceeds 2, and a rounding-noise cross that ACA
        # kept printed det = inf, -inf, -inf here for m = 250, 300, 1000, with exit 0
        proc = run_cli("quad-test", "--kernel", "exp-rank-one", "--interval", "0", "300",
                       "--m", "100,250,300,1000")
        assert proc.returncode == 0, proc.stderr
        header, *lines = [ln for ln in proc.stdout.splitlines() if not ln.startswith("#")]
        rows = [dict(zip(header.split(","), ln.split(","))) for ln in lines]
        assert [int(row["m"]) for row in rows] == [100, 250, 300, 1000]
        for row in rows:
            det, analytic = float(row["det"]), float(row["analytic"])
            assert math.isfinite(det) and abs(det - analytic) <= 1e-12 * analytic

    def test_quad_unknown_kernel_exit_4(self):
        proc = run_cli("quad-test", "--kernel", "nope")
        assert proc.returncode == 4
        assert "constant" in proc.stderr  # registry listed

    @pytest.mark.parametrize("args", [
        ("--kernel", "exp-rank-one", "--interval", "0", "400"),
        ("--interval", "0", "inf"),
        ("--kernel", "exp-rank-one", "--interval", "0", "inf"),
        ("--z", "1e300", "--interval", "0", "1e10"),  # z w K overflows: was det=nan, exit 0
        ("--interval", "-1" + "0" * 308, "1e308"),  # b - a overflows: the rule is refused
    ])
    def test_quad_failure_exit_4(self, args):
        proc = run_cli("quad-test", *args)
        assert proc.returncode == 4
        assert "DomainError" in proc.stderr
        assert proc.stdout == ""

    def test_zeta_domain_exit_4(self):
        proc = run_cli("zeta-check", "--q", "0.5")
        assert proc.returncode == 4

    def test_zeta_huge_k_exit_4(self):
        # refused by the MAX_PRIMES cap before the sieve allocates anything
        proc = run_cli("zeta-check", "--k", "10000000000000")
        assert proc.returncode == 4
        assert "DomainError" in proc.stderr and "prime count must be <= 100000000" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("args", [
        ("gaussian-experiment", "--r", "nan"),
        ("gaussian-experiment", "--z", "nan"),
        ("zeta-check", "--q", "nan"),
        ("zeta-check", "--r", "nan"),
        ("gaussian-experiment", "--r", "inf"),
        ("gaussian-experiment", "--r", "1", "--nmax", "9007199254740993"),  # above 2^53
        # a count inside its bound whose arrays no machine holds: exit 1 and a traceback
        ("xstate-experiment", "--d", "8", "--samples", "9007199254740992"),
        ("gaussian-experiment", "--m", "0"),
        ("gaussian-experiment", "--m", "20000"),  # above MAX_NODES
        ("xstate-experiment", "--seed", "-1"),
        # an empty list skipped every other check and exited 0
        ("xstate-experiment", "--d", ",", "--r", "nan"),
        ("xstate-experiment", "--d", ","),
        ("xstate-experiment", "--s", "nan"),
        ("quad-test", "--m", ",", "--interval", "1", "0"),
        ("quad-test", "--m", ",", "--z", "nan"),
        ("quad-test", "--m", ","),
    ])
    def test_nan_parameter_exit_4(self, args):
        proc = run_cli(*args)
        assert proc.returncode == 4
        assert "DomainError" in proc.stderr
        assert proc.stdout == ""


@pytest.mark.parametrize("argv", [
    ["zeta-check", "--q", q] for q in ("53", "60", "1000", "1e45", "1e300")
] + [
    ["gaussian-experiment", "--r", r] for r in ("1e-155", "1e-160", "1e-162", "1e-200")
])
def test_float_range_edges_exit_with_a_contract_code(argv, capsys):
    # each of these raised ZeroDivisionError (exit 1, a traceback) or wrote NaN or
    # inf; no exception may escape main, whose exit code is 0, 2, 3 or 4
    assert cli.main(argv) in (0, 2, 3, 4)
    body = capsys.readouterr().out
    assert "nan" not in body and "inf" not in body
