"""Scalar admission: every scalar parameter of the public API, and of the zeta check's helpers.

A count is whatever ``operator.index`` accepts, a real whatever ``float()``
converts except a string, bytes or a complex number; both are computed with
as the Python int or float they convert to. Anything else, NaN, an infinity,
an int past the float range and a value outside the parameter's domain raise
``DomainError``, never ``TypeError``, ``OverflowError`` or ``ValueError``.
"""

import math

import numpy as np
import pytest

import entrodet as ed
from entrodet import fredholm
from entrodet.errors import DomainError

SPEC = [0.7, 0.2, 0.1]
KERNEL = ed.squeezed_kernel()
RULE = ed.gauss_legendre(4, 0.0, 1.0)
PROBE = ed.power_law_generator(1.0)

HUGE = 10**400
BAD_REALS = {"huge": HUGE, "huge-negative": -(10**5000),  # str() refuses 5001 digits
             "1j": 1j, "complex128": np.complex128(2.0), "str": "2", "bytes": b"2",
             "None": None, "nan": math.nan, "inf": math.inf, "-inf": -math.inf}
BAD_COUNTS = {"huge": HUGE, "huge-negative": -(10**5000), "1j": 1j, "str": "2", "None": None,
              "nan": math.nan, "1.5": 1.5}


def _evaluate(kind, **params):
    return lambda v: ed.evaluate(kind, SPEC, ed.EntropyParams(**{k: v if p is None else p
                                                                 for k, p in params.items()}))


# parameter -> (call of its value with admissible other arguments, an admissible value)
REALS = {
    "trace_power.r": (lambda v: ed.trace_power(SPEC, v), 2.5),
    "log_det_r.r": (lambda v: ed.log_det_r(SPEC, v), 2.5),
    "alpha_star.r": (ed.alpha_star, 0.5),
    "log_det_ren.r": (lambda v: ed.log_det_ren(SPEC, v), 0.5),
    "tsallis.r": (lambda v: ed.tsallis(SPEC, v), 2.5),
    "renyi.r": (lambda v: ed.renyi(SPEC, v), 2.5),
    "hu_ye.r": (lambda v: ed.hu_ye(SPEC, v, 0.5), 2.5),
    "hu_ye.s": (lambda v: ed.hu_ye(SPEC, 2.0, v), 0.5),
    "hy_bound.r": (lambda v: ed.hy_bound(3, v, 0.5), 2.5),
    "hy_bound.s": (lambda v: ed.hy_bound(3, 2.0, v), 0.5),
    "hy_fredholm.r": (lambda v: ed.hy_fredholm(SPEC, v, 0.5), 2.5),
    "hy_fredholm.s": (lambda v: ed.hy_fredholm(SPEC, 2.0, v), 0.5),
    "hy_renormalized.r": (lambda v: ed.hy_renormalized(SPEC, v, 1.0), 0.5),
    "hy_renormalized.s": (lambda v: ed.hy_renormalized(SPEC, 0.5, v), 2.0),
    "divergence_probe.r": (lambda v: ed.divergence_probe(PROBE, v, 3.0, 100), 0.5),
    "divergence_probe.threshold": (lambda v: ed.divergence_probe(PROBE, 0.5, v, 100), 3.0),
    "evaluate[tsallis].r": (_evaluate("tsallis", r=None), 2.5),
    "evaluate[renyi].r": (_evaluate("renyi", r=None), 2.5),
    "evaluate[hy].r": (_evaluate("hy", r=None), 2.5),
    "evaluate[hy].s": (_evaluate("hy", s=None), 0.5),
    "evaluate[hy-fredholm].r": (_evaluate("hy-fredholm", r=None), 2.5),
    "evaluate[hy-fredholm].s": (_evaluate("hy-fredholm", s=None), 0.5),
    "evaluate[hy-ren].r": (_evaluate("hy-ren", r=None), 0.5),
    "evaluate[hy-ren].s": (_evaluate("hy-ren", r=0.5, s=None), 2.0),
    "gauss_legendre.a": (lambda v: ed.gauss_legendre(4, v, 1.0), 0.5),
    "gauss_legendre.b": (lambda v: ed.gauss_legendre(4, 0.0, v), 0.5),
    "nystrom_matrix.z": (lambda v: ed.nystrom_matrix(KERNEL, v, RULE), 0.5),
    "fredholm_det.z": (lambda v: ed.fredholm_det(KERNEL, v, 0.0, 1.0, 4), 0.5),
    "fredholm_det.a": (lambda v: ed.fredholm_det(KERNEL, 1.0, v, 1.0, 4), 0.5),
    "fredholm_det.b": (lambda v: ed.fredholm_det(KERNEL, 1.0, 0.0, v, 4), 0.5),
    "log_fredholm_det.z": (lambda v: ed.log_fredholm_det(KERNEL, v, 0.0, 1.0, 4), 0.5),
    "log_fredholm_det.a": (lambda v: ed.log_fredholm_det(KERNEL, 1.0, v, 1.0, 4), 0.5),
    "log_fredholm_det.b": (lambda v: ed.log_fredholm_det(KERNEL, 1.0, 0.0, v, 4), 0.5),
    "log_euler_factors.q": (lambda v: fredholm._log_euler_factors(v, ed.first_k_primes(5)),
                            2.5),
    "zeta_ratio_product.q": (lambda v: ed.zeta_ratio_product(v, 5), 2.5),
    "zeta_series.q": (ed.zeta_series, 2.5),
    "prime_tail_bound.q": (lambda v: fredholm._prime_tail_bound(v, 11), 2.5),
    "power_law_generator.eps": (ed.power_law_generator, 0.5),
    "log_power_spectrum.beta": (lambda v: ed.log_power_spectrum(v, 5), 1.5),
    "zeta_spectrum.q": (lambda v: ed.zeta_spectrum(v, 2.0, 5), 2.5),
    "zeta_spectrum.r": (lambda v: ed.zeta_spectrum(2.0, v, 5), 2.5),
    "squeezed_schmidt_spectrum.r": (lambda v: ed.squeezed_schmidt_spectrum(v, 5), 0.0),
    "gaussian_entropy_analytic.r": (ed.gaussian_entropy_analytic, 0.0),
    "run_xstate_experiment.r": (lambda v: ed.run_xstate_experiment([2], 2, r=v), 2.5),
    "run_xstate_experiment.s": (lambda v: ed.run_xstate_experiment([2], 2, s=v), 0.5),
    "run_gaussian_experiment.r_grid": (lambda v: ed.run_gaussian_experiment([0.5, v], 5), 0.0),
    "run_gaussian_experiment.z": (lambda v: ed.run_gaussian_experiment([0.5], 5, z=v), 0.5),
    "run_zeta_check.q": (lambda v: ed.run_zeta_check(v, 2.0, 5), 2.5),
    "run_zeta_check.r": (lambda v: ed.run_zeta_check(2.0, v, 5), 2.5),
    "run_quad_test.z": (lambda v: ed.run_quad_test("constant", v, 0.0, 1.0, [2]), 0.5),
    "run_quad_test.a": (lambda v: ed.run_quad_test("constant", 1.0, v, 1.0, [2]), 0.5),
    "run_quad_test.b": (lambda v: ed.run_quad_test("constant", 1.0, 0.0, v, [2]), 0.5),
}
COUNTS = {
    "hy_bound.d": (lambda v: ed.hy_bound(v, 2.0, 0.5), 3),
    "log_det_ren.alpha": (lambda v: ed.log_det_ren(SPEC, 0.5, v), 3),
    "hy_renormalized.alpha": (lambda v: ed.hy_renormalized(SPEC, 0.5, 1.0, v), 3),
    "evaluate[hy-ren].alpha": (_evaluate("hy-ren", r=0.5, alpha=None), 3),
    "divergence_probe.k_max": (lambda v: ed.divergence_probe(PROBE, 0.5, 3.0, v), 100),
    "partial_trace.d_a": (lambda v: ed.partial_trace(np.eye(4) / 4, v, 2), 2),
    "partial_trace.d_b": (lambda v: ed.partial_trace(np.eye(4) / 4, 2, v), 2),
    "gauss_legendre.m": (lambda v: ed.gauss_legendre(v, 0.0, 1.0), 4),
    "fredholm_det.m": (lambda v: ed.fredholm_det(KERNEL, 1.0, 0.0, 1.0, v), 4),
    "log_fredholm_det.m": (lambda v: ed.log_fredholm_det(KERNEL, 1.0, 0.0, 1.0, v), 4),
    "first_k_primes.k": (ed.first_k_primes, 5),
    "zeta_ratio_product.k": (lambda v: ed.zeta_ratio_product(2.0, v), 5),
    "prime_tail_bound.p_last": (lambda v: fredholm._prime_tail_bound(2.0, v), 11),
    "x_state_random.d": (lambda v: ed.x_state_random(v, 1), 2),
    "x_state_random.seed": (lambda v: ed.x_state_random(2, v), 0),
    "x_state_random.index": (lambda v: ed.x_state_random(2, 1, v), 0),
    "random_density.dim": (lambda v: ed.random_density(v, 1), 2),
    "random_density.seed": (lambda v: ed.random_density(2, v), 0),
    "log_power_spectrum.k": (lambda v: ed.log_power_spectrum(1.5, v), 5),
    "zeta_spectrum.k": (lambda v: ed.zeta_spectrum(2.0, 2.0, v), 5),
    "squeezed_schmidt_spectrum.n_max": (lambda v: ed.squeezed_schmidt_spectrum(1.0, v), 5),
    "run_xstate_experiment.d_list": (lambda v: ed.run_xstate_experiment([v], 2), 2),
    "run_xstate_experiment.samples": (lambda v: ed.run_xstate_experiment([2], v), 0),
    "run_xstate_experiment.seed": (lambda v: ed.run_xstate_experiment([2], 2, seed=v), 0),
    "run_gaussian_experiment.n_max": (lambda v: ed.run_gaussian_experiment([0.0], n_max=v), 5),
    "run_gaussian_experiment.m": (lambda v: ed.run_gaussian_experiment([0.5], 5, m=v), 4),
    "run_zeta_check.k": (lambda v: ed.run_zeta_check(2.0, 2.0, v), 5),
    "run_quad_test.m_list": (lambda v: ed.run_quad_test("constant", 1.0, 0.0, 1.0, [v]), 2),
}
# values of the lists above that a parameter admits: seeds and a stream index take
# any integer from their lower bound up, and None is the default of alpha
ADMITTED = {
    **dict.fromkeys(["x_state_random.seed", "x_state_random.index", "random_density.seed",
                     "run_xstate_experiment.seed"], "huge"),
    **dict.fromkeys(["log_det_ren.alpha", "hy_renormalized.alpha", "evaluate[hy-ren].alpha"],
                    "None"),
}


# values of a parameter's own domain edge, refused by a message that names it
EDGES = {
    # 1 + eps rounds to 1, which zeta_series refused as a zeta order q the caller never passed
    "power_law_generator.eps": {"1e-17": (1e-17, r"^power-law exponent must be finite and in "
                                                 r"\(1\.11022e-16, inf\), got 1e-17$")},
}


def _refusals():
    for table, bad in ((REALS, BAD_REALS), (COUNTS, BAD_COUNTS)):
        for name, (call, _) in table.items():
            for label, value in bad.items():
                if ADMITTED.get(name) != label:
                    yield pytest.param(call, value, None, id=f"{name}-{label}")
            for label, (value, match) in EDGES.get(name, {}).items():
                yield pytest.param(call, value, match, id=f"{name}-{label}")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call,value,match", _refusals())
def test_inadmissible_scalar_is_a_domain_error(call, value, match):
    with pytest.raises(DomainError, match=match):
        call(value)


# counts inside their bounds whose arrays pass the 2**47-byte address space, so NumPy
# refuses them at once: each asked for 64 PiB or more and raised an untyped MemoryError
@pytest.mark.parametrize("call", [
    lambda: ed.random_density(94906265, 1),  # the largest dim with dim^2 <= 2**53
    lambda: ed.gauss_legendre(2**53, 0.0, 1.0),
    lambda: ed.log_power_spectrum(1.5, 2**53),
    lambda: ed.squeezed_schmidt_spectrum(1.0, 2**53),
    lambda: ed.run_xstate_experiment([2], 2**53),
    lambda: ed.run_xstate_experiment([8], 2**53),  # bytes past 2**63: NumPy's ValueError
], ids=["random_density", "gauss_legendre", "log_power_spectrum", "squeezed_schmidt_spectrum",
        "run_xstate_experiment-d2", "run_xstate_experiment-d8"])
def test_count_no_machine_holds_is_a_domain_error(call):
    with pytest.raises(DomainError, match=r" \d+ needs more memory than NumPy can allocate$"):
        call()


def test_gaussian_sweep_at_the_count_cap():
    # the sweep's Schmidt entropy is a closed form in n_max: no array, so 2**53 is admitted
    row = ed.run_gaussian_experiment([0.5], 2**53, m=4).records[0]
    assert row["schmidt_tail"] == 0.0
    assert row["schmidt"] == pytest.approx(row["stable"], rel=1e-14)


@pytest.mark.parametrize("name", [*REALS, *COUNTS])
def test_each_table_call_admits_its_value(name):
    # so each refusal above is the parameter's own, not another argument's
    call, value = REALS.get(name) or COUNTS[name]
    call(value)
    if name in ADMITTED:
        call(BAD_COUNTS[ADMITTED[name]])


# name -> (call of the order, a float exact in float32, an int order or None)
ORDERS = {
    "trace_power": (lambda v: ed.trace_power(SPEC, v), 2.5, 3),
    "log_det_r": (lambda v: ed.log_det_r(SPEC, v), 2.5, 3),
    "alpha_star": (ed.alpha_star, 0.375, None),
    "log_det_ren": (lambda v: ed.log_det_ren(SPEC, v), 0.375, None),
    "tsallis": (lambda v: ed.tsallis(SPEC, v), 2.5, 2),
    "renyi": (lambda v: ed.renyi(SPEC, v), 2.5, 2),
    "renyi-base-2": (lambda v: ed.renyi(SPEC, v, "2"), 0.75, 3),
    "hu_ye.r": (lambda v: ed.hu_ye(SPEC, v, 0.5), 2.5, 3),
    "hu_ye.s": (lambda v: ed.hu_ye(SPEC, 2.5, v), 0.75, -2),
    "hy_bound.r": (lambda v: ed.hy_bound(3, v, 0.5), 2.5, 3),
    "hy_bound.s": (lambda v: ed.hy_bound(3, 2.5, v), 0.75, 2),
    "hy_fredholm.r": (lambda v: ed.hy_fredholm(SPEC, v, 0.5), 2.5, 3),
    "hy_fredholm.s": (lambda v: ed.hy_fredholm(SPEC, 2.5, v), 0.75, 2),
    "hy_renormalized.r": (lambda v: ed.hy_renormalized(SPEC, v, 2.0), 0.375, None),
    "hy_renormalized.s": (lambda v: ed.hy_renormalized(SPEC, 0.375, v), 3.0, 3),
    "evaluate": (lambda v: ed.evaluate("hy", SPEC, ed.EntropyParams(r=v, s=v)).value, 2.5, 2),
    "divergence_probe": (lambda v: ed.divergence_probe(PROBE, v, 3.0, 10**6), 0.625, None),
    "zeta_series": (ed.zeta_series, 2.5, 3),
    "zeta_ratio_product": (lambda v: ed.zeta_ratio_product(v, 50), 2.5, 3),
    "prime_tail_bound": (lambda v: fredholm._prime_tail_bound(v, 229), 2.5, 3),
    "log_euler_factors": (
        lambda v: fredholm._log_euler_factors(v, ed.first_k_primes(50)).tobytes(), 2.5, 3),
    "zeta_spectrum": (lambda v: ed.zeta_spectrum(2.5, v, 50).values.tobytes(), 2.5, 3),
    "power_law_generator": (lambda v: ed.power_law_generator(v)(np.arange(1.0, 9.0)).tobytes(),
                            0.625, 2),
    "log_power_spectrum": (lambda v: ed.log_power_spectrum(v, 50).values.tobytes(), 1.625, 2),
    "gaussian_entropy_analytic": (ed.gaussian_entropy_analytic, 2.5, 3),
    "gaussian_entropy_analytic-naive": (lambda v: ed.gaussian_entropy_analytic(v, "naive"),
                                        2.5, 3),
}


def _order_cases():
    for name, (call, x, n) in ORDERS.items():
        for kind, value in (("float32", np.float32(x)), ("float64", np.float64(x)),
                            ("0-d", np.array(x)), ("int", n)):
            if value is not None:
                yield pytest.param(call, value, id=f"{name}-{kind}")


@pytest.mark.parametrize("call,value", _order_cases())
def test_order_computes_as_its_python_float(call, value):
    # a float32 order kept a NumPy result in single precision, and a 0-d array one
    # failed in the power shortcut's dict lookup
    want = call(float(value))
    got = call(value)
    assert type(got) is type(want)
    assert got == want
