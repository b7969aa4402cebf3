import io
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

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
from entrodet.entropy import _hu_ye_own_rows
from entrodet.errors import DomainError, NotPositive
from entrodet.experiments import (
    SCHEMA_VERSION,
    TRIANGLE_SLACK,
    ZETA_SLACK,
    ExperimentReport,
    _csv_column,
    _jsonable,
    _strict_json,
)


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

    @pytest.mark.parametrize("d_list, message", [
        (5, "d list must be a list, got 5"), ([2, 9], "subsystem dimension must be <= 8"),
        ([2, 2.0], "subsystem dimension must be an integer"),
    ], ids=["int", "d-too-large", "d-float"])
    def test_bad_d_list_refused_before_any_row(self, monkeypatch, d_list, message):
        drawn, draw = [], states.x_states_random
        monkeypatch.setattr(states, "x_states_random",
                            lambda *args: drawn.append(args) or draw(*args))
        with pytest.raises(DomainError, match=message):
            run_xstate_experiment(d_list, 2)
        assert drawn == []

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
            c[2:] = 1.0  # |c|^2 = 1 > a_p a_q from sample 2 on
            return a, c

        # the sampler's stack is not checked again: the admission of the full
        # states' spectra refuses it, naming the first bad sample
        monkeypatch.setattr(states, "_x_samples", too_strong)
        with pytest.raises(NotPositive, match=r"^d = 3, sample 2, full state: "
                                              r"negative spectrum value -\d\.\d{3}e-01$"):
            run_xstate_experiment([3], samples=4, seed=1)

    def test_refusal_names_d_sample_and_part(self, monkeypatch):
        # a fault at d = 3 after a good d = 2 was named by its row in a stack
        draw, traces = states._x_samples, states.x_partial_traces

        def too_strong(d, seed, first, count):
            a, c = draw(d, seed, first, count)
            if d == 3:
                c[2:] = 1.0
            return a, c

        monkeypatch.setattr(states, "_x_samples", too_strong)
        with pytest.raises(NotPositive, match=r"^d = 3, sample 2, full state: negative "):
            run_xstate_experiment([2, 3], samples=4, seed=1)
        monkeypatch.undo()

        def bad_b(a, c, d):  # sample 2's B reduction gets a negative diagonal entry
            (a_a, c_a), (a_b, c_b) = traces(a, c, d)
            if d == 3:
                a_b[2, :2] += [0.5, -0.5]
            return (a_a, c_a), (a_b, c_b)

        monkeypatch.setattr(states, "x_partial_traces", bad_b)
        with pytest.raises(NotPositive, match=r"^d = 3, sample 2, B reduction: negative "):
            run_xstate_experiment([2, 3], samples=4, seed=1)

    def test_one_admission_per_spectrum_stack(self, monkeypatch):
        # per d: the full states' spectra, then those of both reductions in one
        # stack (the A rows, then the B rows)
        admit = linalg._admit
        calls = []

        def counting(lam, normalized, name=None):
            calls.append(lam.shape)
            return admit(lam, normalized, name)

        for module in vars(entrodet).values():
            if getattr(module, "_admit", None) is admit:
                monkeypatch.setattr(module, "_admit", counting)
        run_xstate_experiment([2, 3], samples=5)
        assert calls == [(5, 4), (10, 2), (5, 9), (10, 3)]

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(2, 8), samples=st.integers(0, 12), seed=st.integers(0, 2**63),
           r=st.floats(0.05, 6.0).filter(lambda r: r != 1.0),
           s=st.floats(-4.0, 4.0).filter(lambda s: s != 0.0))
    @example(d=3, samples=4, seed=1, r=0.5, s=5e-324)  # (1 - r) s underflows to 0
    def test_stacked_reductions_equal_separate_calls(self, d, samples, seed, r, s):
        # one stack of both reductions gives, bit for bit, the values of one
        # stack-kernel call per reduction (x_eigvalsh returns a fresh stack)
        report = run_xstate_experiment([d], samples, r=r, s=s, seed=seed)
        a, c = states.x_states_random(d, seed, samples)
        (a_a, c_a), (a_b, c_b) = states.x_partial_traces(a, c, d)
        full = _hu_ye_own_rows(states.x_eigvalsh(a, c), r, s)
        diff = np.abs(_hu_ye_own_rows(states.x_eigvalsh(a_a, c_a), r, s)
                      - _hu_ye_own_rows(states.x_eigvalsh(a_b, c_b), r, s))
        assert report.columns["hy_full"].tobytes() == full.tobytes()
        assert report.columns["hy_diff"].tobytes() == diff.tobytes()

    def test_rows_past_the_float_range_are_flagged(self):
        # I_2000 of sample 1's full state underflows to 0, and 0^-1 is inf: such a
        # row was written as hy_diff = nan and a triangle failure
        report = run_xstate_experiment([2], samples=2, r=2000, s=-1, seed=42)
        first, second = report.records
        assert first["pass"] is True and math.isfinite(first["hy_diff"])
        assert second["hy_full"] == math.inf
        assert second["hy_diff"] is None and second["pass"] is None
        assert report.summary == {"total": 2, "passed": 1, "past_float_range": 1,
                                  "max_violation": first["hy_diff"] - first["hy_full"]}
        assert report.to_csv().splitlines()[-1] == "2,1,inf,,"
        check_against_row_writer(report)

    def test_every_row_past_the_float_range(self):
        report = run_xstate_experiment([2], samples=3, r=5000, s=-1, seed=1)
        assert [row["pass"] for row in report.records] == [None] * 3
        assert report.summary == {"total": 3, "passed": 0, "past_float_range": 3,
                                  "max_violation": 0.0}
        check_against_row_writer(report)

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
        # z = -2 on (0, 1) and (0, 2) drives the Nystrom determinant negative
        report = run_gaussian_experiment([1.0, 2.0], n_max=50, z=-2.0)
        assert all(not row["logdet_ok"] for row in report.records)
        assert all(row["logdet"] is None for row in report.records)

    @pytest.mark.parametrize("r_grid, z, ok", [([1.0, 1e308], 1.0, [True, False]),
                                               ([1.0], 1e308, [False])])
    def test_refused_determinant_is_flagged_not_fatal(self, r_grid, z, ok):
        # on (0, 1e308) the dense LU is rounding noise, and at z = 1e308 a weighted
        # entry overflows: both DomainErrors ended the sweep
        report = run_gaussian_experiment(r_grid, n_max=50, z=z)
        assert [row["logdet_ok"] for row in report.records] == ok
        assert [row["logdet"] is not None for row in report.records] == ok

    def test_non_finite_z_rejected(self):
        for z in (math.nan, math.inf):
            with pytest.raises(DomainError):
                run_gaussian_experiment([0.5, 1.0], n_max=50, z=z)

    def test_non_finite_grid_rejected(self):
        for r in (math.nan, math.inf):
            with pytest.raises(DomainError):
                run_gaussian_experiment([0.5, r], n_max=50)

    def test_default_interval_follows_r(self):
        report = run_gaussian_experiment([0.1, 0.5, 2.0], n_max=50)
        assert [(row["a"], row["b"]) for row in report.records] == [
            (0.0, 0.25), (0.0, 0.5), (0.0, 2.0)]
        assert report.params == {"r_grid": [0.1, 0.5, 2.0], "n_max": 50, "m": 40, "z": 1.0}

    def test_empty_grid(self):
        with pytest.raises(DomainError):
            run_gaussian_experiment([])

    @pytest.mark.parametrize("r_grid, message", [
        (0.5, "r grid must be a list, got 0.5"), ([0.5, -1.0], "squeezing parameter must be"),
        ([0.5, "1"], "squeezing parameter must be a real number"),
    ], ids=["float", "negative", "str"])
    def test_bad_grid_refused_before_any_row(self, monkeypatch, r_grid, message):
        monkeypatch.setattr(states, "gaussian_entropy_analytic", None)  # no row is started
        with pytest.raises(DomainError, match=message):
            run_gaussian_experiment(r_grid)

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

        def no_sieve(limit):
            raise AssertionError("a second run sieved again")

        # the primes are kept for the process: a second run reads the table
        monkeypatch.setattr(fredholm, "_primes_up_to", no_sieve)
        run_zeta_check(2.0, 2.0, 1000)
        assert calls == [1000, 1000]

    def test_one_admission_per_run(self, monkeypatch):
        # the spectrum is admitted once; every checkpoint reads a prefix of it
        calls = []
        admit = linalg._admit

        def counting(lam, normalized):
            calls.append(len(lam))
            return admit(lam, normalized)

        monkeypatch.setattr(linalg, "_admit", counting)
        run_zeta_check(2.0, 2.0, 10**5)
        assert calls == [10**5]

    @pytest.mark.parametrize("q, r, k", [(2.0, 2.0, 1000), (3.0, 1.5, 54321)])
    def test_csv_equals_the_copy_path(self, q, r, k):
        # the per-checkpoint columns: each checkpoint builds, copies and admits
        # its own spectrum and product
        report = run_zeta_check(q, r, k)
        ks = report.columns["k"]
        log_det = [log_det_r(np.array(zeta_spectrum(q, r, kk, normalized=False).values), r)
                   for kk in ks]
        analytic = report.summary["analytic_ratio"]
        gap = [abs(v - math.log(analytic)) for v in log_det]
        p_k = [int(fredholm.first_k_primes(kk)[-1]) for kk in ks]
        bound = [fredholm._prime_tail_bound(q, p) for p in p_k]
        columns = {
            "k": ks,
            "p_k": p_k,
            "product": [zeta_ratio_product(q, kk) for kk in ks],
            "log_det": log_det,
            "abs_gap": gap,
            "rel_gap": [g / abs(math.log(analytic)) for g in gap],
            "tail_bound": bound,
            "pass": [g <= tb + ZETA_SLACK for g, tb in zip(gap, bound)],
        }
        want = ExperimentReport(report.experiment, report.params, columns, report.summary)
        assert report.to_csv() == want.to_csv()

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

    @pytest.mark.parametrize("kernel, m_list, message", [
        ("constant", 2, "m list must be a list, got 2"),
        ([], [2], r"unknown kernel \[\]"),
        ("constant", [2, 0], "node count must be >= 1"),
        ("constant", [2, 10**6], "node count must be <= 10000"),
    ], ids=["m-int", "kernel-list", "m-zero", "m-too-large"])
    def test_bad_list_or_name_refused_before_any_row(self, monkeypatch, kernel, m_list, message):
        monkeypatch.setattr(fredholm, "fredholm_det", None)  # no row is started
        with pytest.raises(DomainError, match=message):
            run_quad_test(kernel, 1.0, 0.0, 1.0, m_list)

    def test_analytic_overflow_is_domain_error(self):
        with pytest.raises(DomainError):
            run_quad_test("exp-rank-one", 1.0, 0.0, 400.0, [5])

    def test_infinite_interval_rejected(self):
        for kernel in ("constant", "exp-rank-one", "squeezed"):
            with pytest.raises(DomainError):
                run_quad_test(kernel, 1.0, 0.0, math.inf, [5])

    @pytest.mark.parametrize("a, b", [(0, 10**400), (-10**400, 0), (10**400, 10**400 + 1)])
    def test_int_endpoint_past_the_float_range_rejected(self, a, b):
        # the endpoints compare finite as ints, and converting them overflows
        for kernel in ("constant", "exp-rank-one", "squeezed"):
            with pytest.raises(DomainError, match="float range"):
                run_quad_test(kernel, 1.0, a, b, [5])

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


def test_strict_json_writes_non_finite_floats_as_their_csv_cells():
    payload = {"a": [np.float64(np.inf), -math.inf, np.float32("nan")],
               "b": (1, np.int64(2), np.bool_(True)), "c": np.array([0.5, -np.inf])}
    assert _strict_json(payload) == (
        '{"a": ["inf", "-inf", "nan"], "b": [1, 2, true], "c": [0.5, "-inf"]}')
    assert [_csv_column(np.array([v]))[0] for v in (np.inf, -np.inf, np.nan)] == [
        "inf", "-inf", "nan"]
    finite = {"x": [0.1, 1e300, -0.0, np.float64(2.5)], "y": None, "z": (True, "s")}
    assert _strict_json(finite) == json.dumps(finite)


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
    out.write(f"# params={json.dumps(_jsonable(params))}\n")
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
        lambda: run_gaussian_experiment([1, 2.0, 25.0], n_max=50, z=-2.0),
        lambda: run_quad_test("squeezed", 0.5, 0.0, 2.0, [4, 8, 16]),
        lambda: run_quad_test("constant", -0.5, 0.0, 1.0, [1]),
        # NumPy scalars and arrays as arguments: list columns hold the Python scalars
        lambda: run_xstate_experiment([np.int64(2), np.int64(5)], np.int64(6), np.float64(2),
                                      np.float64(0.5), np.int64(7)),
        lambda: run_gaussian_experiment(np.array([0.0, 0.1, 1.0, 25.0]), n_max=np.int64(50),
                                        m=np.int64(8), z=np.float64(-2.0)),
        lambda: run_zeta_check(np.float64(2.0), np.float64(3.0), np.int64(1000)),
        lambda: run_quad_test("constant", np.float64(1), 0.0, 1.0, [np.int64(2), 5]),
        lambda: run_quad_test("exp-rank-one", np.float64(0.5), np.float64(-1.0), np.int64(1),
                              np.arange(2, 6)),
    ], ids=["xstate-200", "gaussian-logdet-none", "quad-analytic-none", "quad-one-row",
            "xstate-numpy-args", "gaussian-ndarray-grid", "zeta-numpy-args",
            "quad-numpy-args", "quad-ndarray-m-list"])
    def test_csv_and_json_equal_the_row_writer(self, make):
        check_against_row_writer(make())

    def test_list_columns_hold_python_scalars(self):
        # a list column kept the arguments as given: a float32 r was written to the
        # CSV as 0.1 and to the JSON as the double the sweep computed with
        gaussian = run_gaussian_experiment([np.float32(0.1)], n_max=50)
        csv_r = gaussian.to_csv().splitlines()[-1].split(",")[0]
        json_r = json.loads(gaussian.to_json())["records"][0]["r"]
        assert float(csv_r) == json_r == float(np.float32(0.1))
        assert type(gaussian.records[0]["r"]) is float and gaussian.params["r_grid"] == [json_r]
        # a Python int stays one, as the CLI's default grid writes it
        assert run_gaussian_experiment([1, np.int64(2)], n_max=50).columns["r"] == [1, 2.0]
        quad = run_quad_test("constant", np.float64(1), 0.0, 1.0, [np.int64(2), 5])
        assert [type(rec["m"]) for rec in quad.records] == [int, int]
        assert [type(m) for m in quad.params["m_list"]] == [int, int]
        xstate = run_xstate_experiment(np.array([2, 3]), 2)
        assert [type(d) for d in xstate.params["d_list"]] == [int, int]

    def test_none_cells(self):
        gaussian = run_gaussian_experiment([1.0], n_max=50, z=-2.0)
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


def str_column(col) -> list[str]:
    """The reference cell writer: true/false, empty for None, else ``str`` of each value."""
    values = col.tolist() if isinstance(col, np.ndarray) else col
    if next((type(v) for v in values if v is not None), None) is bool:
        return ["" if v is None else "true" if v else "false" for v in values]
    return ["" if v is None else str(v) for v in values]


def _bits(x: float) -> int:
    return int(np.float64(x).view(np.uint64))


# Raw float64 bit patterns: any sign, exponent and mantissa (so subnormals, the
# infinities and NaNs too), plus the cells where str and orjson part ways and
# their neighbours drawn often: +-0, the smallest and largest subnormals, +-max,
# +-inf, NaN, and 1e-4 and 1e16 with the floats on either side of them.
_EDGES = [0.0, 5e-324, 2.225073858507201e-308, 1.7976931348623157e308, np.inf, np.nan,
          *(np.nextafter(x, toward) for x in (1e-4, 1e16) for toward in (0.0, x, np.inf))]
_FLOAT_BITS = st.one_of(
    st.sampled_from([_bits(x) | sign for x in _EDGES for sign in (0, 1 << 63)]),
    st.integers(0, (1 << 64) - 1),
)
_FLOAT64_ARRAYS = arrays(np.uint64, st.integers(0, 40), elements=_FLOAT_BITS).map(
    lambda a: a.view(np.float64))
_PY_FLOATS = _FLOAT_BITS.map(lambda b: float(np.uint64(b).view(np.float64)))
_INTS = st.integers(-(1 << 63), (1 << 63) - 1)
_MIXED_CELLS = st.one_of(
    st.none(), _PY_FLOATS, _INTS,
    _PY_FLOATS.map(np.float64), _INTS.map(np.int64),
    st.integers(0, (1 << 32) - 1).map(lambda b: np.uint32(b).view(np.float32)),
)


class TestCsvColumn:
    """``_csv_column`` writes every cell as :func:`str_column` does."""

    @settings(max_examples=400, deadline=None)
    @given(col=_FLOAT64_ARRAYS)
    def test_float64_arrays(self, col):
        assert _csv_column(col) == str_column(col)

    @settings(max_examples=200, deadline=None)
    @given(col=_FLOAT64_ARRAYS, kind=st.sampled_from(["list", "object", "strided"]))
    def test_floats_in_other_containers(self, col, kind):
        if kind == "list":
            col = col.tolist()
        elif kind == "object":
            col = col.astype(object)
        else:
            col = np.repeat(col, 2)[::2]
        assert _csv_column(col) == str_column(col)

    @settings(max_examples=200, deadline=None)
    @given(cells=st.lists(_MIXED_CELLS, max_size=30), as_array=st.booleans())
    def test_mixed_lists_and_object_arrays(self, cells, as_array):
        col = np.array(cells, dtype=object) if as_array else cells
        assert _csv_column(col) == str_column(col)

    @settings(max_examples=100, deadline=None)
    @given(col=st.one_of(
        arrays(st.sampled_from([np.int64, np.int32, np.uint8, np.uint64, np.float32]),
               st.integers(0, 20)),
        arrays(st.sampled_from([np.bool_, np.dtype(">f8"), np.dtype(">i8")]), st.integers(0, 20)),
    ))
    def test_other_dtypes(self, col):
        assert _csv_column(col) == str_column(col)

    @pytest.mark.parametrize("col", [
        [], np.array([]), np.array([], dtype=np.int64), np.array([], dtype=object),
        [None], [None, None], np.array([None], dtype=object), [None, True, False],
    ], ids=["list", "float64", "int64", "object", "none", "nones", "object-none", "bools"])
    def test_empty_and_none_columns(self, col):
        assert _csv_column(col) == str_column(col)
