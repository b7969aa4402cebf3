import io
import json
import math

import numpy as np
import pytest

import entrodet
from entrodet import (
    cli,
    fredholm,
    hu_ye,
    linalg,
    log_det_r,
    partial_trace,
    run_gaussian_experiment,
    run_quad_test,
    run_xstate_experiment,
    run_zeta_check,
    states,
    x_state_random,
    zeta_ratio_product,
    zeta_spectrum,
)
from entrodet.errors import ConstraintViolation, DomainError
from entrodet.experiments import SCHEMA_VERSION, TRIANGLE_SLACK, _json_default


class TestXStateExperiment:
    def test_all_samples_pass(self):
        report = run_xstate_experiment([2, 3], samples=25, seed=1)
        assert report.summary["total"] == 50
        assert report.summary["passed"] == 50
        assert report.summary["max_violation"] < 0

    def test_empty_run(self):
        report = run_xstate_experiment([2, 3, 4, 5], samples=0, seed=1)
        assert report.records == []
        assert report.summary["total"] == 0
        # the column names are known without a row, so the header is written
        assert report.to_csv().splitlines()[-1] == "d,sample,hy_full,hy_diff,pass"

    @pytest.mark.parametrize("kwargs", [{"d_list": []}, {"d_list": [], "r": math.nan},
                                        {"d_list": [2], "r": math.nan},
                                        {"d_list": [2], "s": 0.0}, {"d_list": [2], "r": 1.0}])
    def test_parameters_checked_before_any_row(self, kwargs):
        with pytest.raises(DomainError):
            run_xstate_experiment(samples=0, **kwargs)

    def test_deterministic_csv(self):
        a = run_xstate_experiment([2, 3], samples=10, seed=7).to_csv()
        b = run_xstate_experiment([2, 3], samples=10, seed=7).to_csv()
        assert a == b

    def test_matches_per_sample_public_path(self):
        r, s, seed = 2.0, 0.5, 31
        report = run_xstate_experiment(list(range(2, 9)), samples=8, r=r, s=s, seed=seed)
        for rec in report.records:
            d = rec["d"]
            q = x_state_random(d, seed, index=rec["sample"])
            full = hu_ye(q, r, s)
            diff = abs(hu_ye(partial_trace(q, d, d, "A"), r, s)
                       - hu_ye(partial_trace(q, d, d, "B"), r, s))
            assert abs(rec["hy_full"] - full) <= 1e-14
            assert abs(rec["hy_diff"] - diff) <= 1e-14
            assert type(rec["pass"]) is bool  # np.bool_ would print True in the CSV
            assert rec["pass"] == (diff <= full + TRIANGLE_SLACK)

    def test_schur_violation_raises(self, monkeypatch):
        draw = states._x_samples

        def too_strong(d, seed, first, count):
            a, c = draw(d, seed, first, count)
            return a, np.ones_like(c)  # |c|^2 = 1 > a_p a_q

        monkeypatch.setattr(states, "_x_samples", too_strong)
        with pytest.raises(ConstraintViolation, match="Schur bound"):
            run_xstate_experiment([3], samples=4, seed=1)

    def test_one_admission_per_spectrum_stack(self, monkeypatch):
        # per d: the full states' spectra and those of the two reductions
        admit = linalg._admit
        calls = []

        def counting(lam, normalized):
            calls.append(lam.shape)
            return admit(lam, normalized)

        for module in vars(entrodet).values():
            if getattr(module, "_admit", None) is admit:
                monkeypatch.setattr(module, "_admit", counting)
        run_xstate_experiment([2, 3], samples=5)
        assert calls == [(5, 4), (5, 2), (5, 2), (5, 9), (5, 3), (5, 3)]

    def test_record_columns(self):
        report = run_xstate_experiment([2], samples=2, seed=3)
        assert list(report.records[0].keys()) == ["d", "sample", "hy_full", "hy_diff", "pass"]

    def test_negative_samples(self):
        with pytest.raises(DomainError):
            run_xstate_experiment([2], samples=-1)

    @pytest.mark.parametrize("d_list", [[2], []])
    def test_negative_seed(self, d_list):
        with pytest.raises(DomainError, match="seed"):
            run_xstate_experiment(d_list, samples=2, seed=-1)


class TestGaussianExperiment:
    def test_zero_row(self):
        report = run_gaussian_experiment([0.0], n_max=50)
        row = report.records[0]
        assert row["naive"] == 0.0
        assert row["stable"] == 0.0
        assert row["schmidt"] == 0.0
        assert not row["naive_overflow"]

    def test_overflow_row_flagged(self):
        report = run_gaussian_experiment([1.0, 25.0], n_max=200)
        by_r = {row["r"]: row for row in report.records}
        assert not by_r[1.0]["naive_overflow"]
        assert by_r[25.0]["naive_overflow"]
        assert math.isfinite(by_r[25.0]["stable"])
        assert report.summary["naive_overflows"] == 1

    def test_schmidt_tracks_stable(self):
        t = math.tanh(1.0) ** 2
        n_max = int(math.ceil(math.log(1e-14) / math.log(t)))
        report = run_gaussian_experiment([1.0], n_max=n_max)
        row = report.records[0]
        assert row["schmidt"] == pytest.approx(row["stable"], rel=1e-10)

    def test_determinant_failure_is_flagged_not_fatal(self):
        # z = -2 on (0, 1) drives the Nystrom determinant negative
        report = run_gaussian_experiment([0.5, 1.0], n_max=50, z=-2.0, interval=(0.0, 1.0))
        assert all(not row["logdet_ok"] for row in report.records)
        assert all(row["logdet"] is None for row in report.records)

    def test_non_finite_z_rejected(self):
        for z in (math.nan, math.inf):
            with pytest.raises(DomainError):
                run_gaussian_experiment([0.5, 1.0], n_max=50, z=z)

    def test_non_finite_grid_rejected(self):
        for r in (math.nan, math.inf):
            with pytest.raises(DomainError):
                run_gaussian_experiment([0.5, r], n_max=50)

    def test_bad_interval_rejected(self):
        for interval in ((math.nan, 1.0), (0.0, math.inf), (-math.inf, 0.0), (1.0, 1.0),
                         (2.0, 1.0)):
            with pytest.raises(DomainError):
                run_gaussian_experiment([0.5], n_max=50, interval=interval)

    def test_default_interval_follows_r(self):
        report = run_gaussian_experiment([0.5, 2.0], n_max=50)
        assert [row["b"] for row in report.records] == [0.5, 2.0]
        assert report.params["calibrated_profile"]

    def test_fixed_interval_respected(self):
        report = run_gaussian_experiment([0.5, 2.0], n_max=50, interval=(0.0, 3.0))
        assert {row["b"] for row in report.records} == {3.0}
        assert not report.params["calibrated_profile"]

    def test_empty_grid(self):
        with pytest.raises(DomainError):
            run_gaussian_experiment([])

    @pytest.mark.parametrize("kwargs", [{"m": 0}, {"m": 20_000}, {"n_max": 0}],
                             ids=["m=0", "m>MAX_NODES", "n_max=0"])
    def test_bad_counts_raise_not_flag(self, kwargs):
        # a bad node count made every row report logdet_ok=false; at r = 0
        # no Schmidt spectrum is built, so n_max went unchecked
        with pytest.raises(DomainError):
            run_gaussian_experiment([0.0], **{"n_max": 50, **kwargs})


class TestZetaCheck:
    def test_single_prime(self):
        report = run_zeta_check(2.0, 2.0, 1)
        row = report.records[-1]
        assert row["product"] == pytest.approx(1.25, abs=1e-14)
        assert row["pass"]  # the gap is exactly the convergence remainder

    def test_moderate_truncation(self):
        report = run_zeta_check(2.0, 2.0, 1000)
        assert report.summary["passed"]
        assert report.summary["analytic_ratio"] == pytest.approx(15 / math.pi**2, abs=1e-10)
        assert report.summary["final_gap"] < 2e-4

    def test_higher_exponent(self):
        report = run_zeta_check(4.0, 2.0, 10_000)
        assert report.summary["passed"]
        assert report.summary["analytic_ratio"] == pytest.approx(1.0779281367418552, abs=1e-10)
        assert report.summary["final_gap"] < 1e-8

    def test_checkpoints_monotone(self):
        report = run_zeta_check(2.0, 2.0, 1000)
        ks = [row["k"] for row in report.records]
        assert ks == sorted(ks)
        gaps = [row["abs_gap"] for row in report.records]
        assert gaps[-1] < gaps[0]

    def test_domain(self):
        for q, r, k in ((0.9, 2.0, 10), (2.0, 1.0, 10), (2.0, math.nan, 10),
                        (2.0, math.inf, 10), (2.0, 2.0, 0)):
            with pytest.raises(DomainError):
                run_zeta_check(q, r, k)

    def test_one_sieve_per_run(self, monkeypatch):
        calls = []
        sieve = fredholm.first_k_primes

        def counting(k):
            calls.append(k)
            return sieve(k)

        monkeypatch.setattr(fredholm, "first_k_primes", counting)
        run_zeta_check(2.0, 2.0, 1000)
        assert calls == [1000]

    @pytest.mark.parametrize("q, r, k", [(2.0, 2.0, 1), (2.0, 2.0, 1000), (3.0, 1.5, 54321),
                                         (4.0, 2.0, 10_000), (2.5, 3.0, 777)])
    def test_records_equal_per_checkpoint_path(self, q, r, k):
        # the old runner rebuilt the spectrum and the product per checkpoint
        report = run_zeta_check(q, r, k)
        assert report.records[-1]["k"] == k
        for row in report.records:
            kk = row["k"]
            assert row["log_det"] == log_det_r(zeta_spectrum(q, r, kk, normalized=False), r)
            assert row["product"] == zeta_ratio_product(q, kk)
            assert row["p_k"] == int(fredholm.first_k_primes(kk)[-1])


class TestQuadTest:
    def test_constant_kernel_exact_everywhere(self):
        report = run_quad_test("constant", -0.5, 0.0, 1.0, [1, 2, 5, 10])
        for row in report.records:
            assert row["det"] == pytest.approx(0.5, abs=1e-14)
            assert row["abs_err"] < 1e-14

    def test_exp_rank_one_converges(self):
        report = run_quad_test("exp-rank-one", 1.0, 0.0, 1.0, [5, 10, 20])
        assert report.records[-1]["abs_err"] < 1e-12

    def test_zero_coupling(self):
        report = run_quad_test("squeezed", 0.0, 0.0, 2.0, [4, 8])
        for row in report.records:
            assert row["det"] == 1.0
            assert row["analytic"] is None

    def test_unknown_kernel_lists_registry(self):
        with pytest.raises(DomainError, match="constant"):
            run_quad_test("gaussian-rbf", 1.0, 0.0, 1.0, [5])

    def test_analytic_overflow_is_domain_error(self):
        with pytest.raises(DomainError):
            run_quad_test("exp-rank-one", 1.0, 0.0, 400.0, [5])

    def test_infinite_interval_rejected(self):
        for kernel in ("constant", "exp-rank-one", "squeezed"):
            with pytest.raises(DomainError):
                run_quad_test(kernel, 1.0, 0.0, math.inf, [5])

    @pytest.mark.parametrize("z, a, b, m_list", [(1.0, 0.0, 1.0, []), (1.0, 1.0, 0.0, []),
                                                 (math.nan, 0.0, 1.0, []),
                                                 (math.nan, 0.0, 1.0, [5])])
    def test_parameters_checked_before_any_row(self, z, a, b, m_list):
        with pytest.raises(DomainError):
            run_quad_test("constant", z, a, b, m_list)


class TestReportSerialization:
    def test_csv_self_describing(self):
        report = run_quad_test("constant", -0.5, 0.0, 1.0, [2, 4])
        text = report.to_csv()
        lines = text.splitlines()
        assert lines[0] == "# schema_version=1"
        assert lines[1] == "# experiment=quadrature-convergence"
        assert lines[2].startswith("# params=")
        params = json.loads(lines[2].removeprefix("# params="))
        assert params["kernel"] == "constant"
        assert lines[3] == "m,det,diff_prev,analytic,abs_err"
        assert len(lines) == 6

    def test_csv_cells(self):
        report = run_xstate_experiment([2], samples=1, seed=5)
        rows = report.to_csv().splitlines()
        cells = rows[-1].split(",")
        assert cells[0] == "2" and cells[1] == "0"
        assert cells[-1] in ("true", "false")
        float(cells[2])  # parses as a float
        assert repr(float(cells[2])) == cells[2]  # shortest round-trip form

    def test_json_round_trip(self):
        report = run_zeta_check(2.0, 2.0, 10)
        payload = json.loads(report.to_json())
        assert payload["schema_version"] == 1
        assert payload["experiment"] == "zeta-identity"
        assert payload["params"]["k"] == 10
        assert len(payload["records"]) == len(report.records)

    def test_json_deterministic_modulo_wall_time(self):
        a = json.loads(run_xstate_experiment([2], samples=5, seed=2).to_json())
        b = json.loads(run_xstate_experiment([2], samples=5, seed=2).to_json())
        a.pop("wall_time_s"), b.pop("wall_time_s")
        assert a == b


def old_csv(experiment: str, params: dict, records: list[dict]) -> str:
    """The row-by-row writer that formatted each cell through ``_csv_cell``."""

    def _csv_cell(v) -> str:
        if v is None:
            return ""
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, (float, np.floating)):
            return repr(float(v))
        return str(v)

    out = io.StringIO()
    out.write(f"# schema_version={SCHEMA_VERSION}\n")
    out.write(f"# experiment={experiment}\n")
    out.write(f"# params={json.dumps(params, default=_json_default)}\n")
    if records:
        cols = list(records[0].keys())
        out.write(",".join(cols) + "\n")
        for rec in records:
            out.write(",".join(_csv_cell(rec[c]) for c in cols) + "\n")
    return out.getvalue()


def check_against_row_writer(report) -> None:
    """``to_csv`` equals the row writer on ``records``, and on the rows ``to_json`` wrote."""
    csv_text = report.to_csv()
    assert csv_text == old_csv(report.experiment, report.params, report.records)
    payload = json.loads(report.to_json())
    assert list(payload) == ["schema_version", "experiment", "params", "summary", "records",
                             "wall_time_s"]
    assert payload["schema_version"] == SCHEMA_VERSION
    assert payload["summary"] == report.summary
    assert payload["wall_time_s"] == report.wall_time_s
    assert csv_text == old_csv(payload["experiment"], payload["params"], payload["records"])


def cli_report(monkeypatch, argv):
    """The report ``entrodet <argv>`` would print, caught before it is written."""
    seen = []
    monkeypatch.setattr(cli, "_emit_report", lambda report, out: seen.append(report))
    cli.main(argv)
    return seen[0]


class TestColumnarReport:
    @pytest.mark.parametrize("command", ["xstate-experiment", "gaussian-experiment",
                                         "zeta-check", "quad-test"])
    def test_csv_and_json_equal_the_row_writer_at_cli_defaults(self, monkeypatch, command):
        check_against_row_writer(cli_report(monkeypatch, [command]))

    @pytest.mark.parametrize("make", [
        lambda: run_xstate_experiment(range(2, 9), 200, seed=7),
        lambda: run_gaussian_experiment([0.5, 1, 25.0], n_max=50, z=-2.0, interval=(0.0, 1.0)),
        lambda: run_quad_test("squeezed", 0.5, 0.0, 2.0, [4, 8, 16]),
        lambda: run_quad_test("constant", -0.5, 0.0, 1.0, [1]),
    ], ids=["xstate-200", "gaussian-logdet-none", "quad-analytic-none", "quad-one-row"])
    def test_csv_and_json_equal_the_row_writer(self, make):
        check_against_row_writer(make())

    def test_none_cells(self):
        gaussian = run_gaussian_experiment([0.5], n_max=50, z=-2.0, interval=(0.0, 1.0))
        assert gaussian.records[0]["logdet"] is None
        assert gaussian.to_csv().splitlines()[-1].split(",")[6] == ""
        quad = run_quad_test("squeezed", 0.5, 0.0, 2.0, [4, 8])
        first = quad.to_csv().splitlines()[-2].split(",")
        assert first[0] == "4" and first[2:] == ["", "", ""]  # diff_prev, analytic, abs_err

    @pytest.mark.parametrize("make", [
        lambda: run_xstate_experiment([2, 3], 4, seed=7),
        lambda: run_gaussian_experiment([0.5, 1, 25.0], n_max=50),
        lambda: run_zeta_check(2.0, 2.0, 1000),
        lambda: run_quad_test("squeezed", 0.5, 0.0, 2.0, [4, 8]),
    ], ids=["xstate", "gaussian", "zeta", "quad"])
    def test_records_hold_python_scalars(self, make):
        report = make()
        for row in report.records:
            assert {type(v) for v in row.values()} <= {int, float, bool, type(None)}
        assert list(report.records[0]) == list(report.columns)

    def test_records_are_derived_and_read_only(self):
        report = run_xstate_experiment([2], 3, seed=1)
        report.records[0]["pass"] = "edited"
        assert report.records[0]["pass"] is True
        with pytest.raises(AttributeError):
            report.records = []
