"""Packaging checks: declared runtime dependencies, the modules and functions that read shared constants, the pinned public API and entropy options, and the functions the benchmark traces."""

import argparse
import ast
import dataclasses
import functools
import importlib
import inspect
import json
import re
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def imported_packages() -> set[str]:
    """Top-level names of every absolute import in ``src/entrodet/*.py``."""
    names = set()
    for path in (ROOT / "src" / "entrodet").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.partition(".")[0])
    return names


def declared_dependencies() -> list[str]:
    """``[project].dependencies`` of pyproject.toml, read as a Python literal.

    tomllib is Python 3.11 and later; the package supports 3.10.
    """
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    project = re.search(r"^\[project\]$(.*?)(?=^\[|\Z)", text, re.M | re.S)[1]
    return ast.literal_eval(re.search(r"^dependencies\s*=\s*(\[.*?\])", project, re.M | re.S)[1])


def test_third_party_imports_are_declared():
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep)[0].lower().replace("-", "_")
                for dep in declared_dependencies()}
    third_party = imported_packages() - set(sys.stdlib_module_names) - {"entrodet"}
    assert "numpy" in third_party  # the scan sees imports at all
    assert third_party <= declared, f"undeclared runtime dependencies: {sorted(third_party - declared)}"



def names_used(node: ast.AST) -> set[str]:
    """Names a node reads: a bare name, an attribute, or a ``from`` import."""
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, ast.ImportFrom):
        return {alias.name for alias in node.names}
    return set()


def test_only_linalg_reads_the_spectrum_tolerances():
    # the admission policy for spectra lives once, in linalg
    readers = {path.name for path in (ROOT / "src" / "entrodet").glob("*.py")
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if names_used(node) & {"PSD_TOL", "TRACE_TOL"}}
    assert "linalg.py" in readers  # the scan sees the names at all
    assert readers == {"linalg.py"}, f"tolerances read outside linalg: {sorted(readers)}"


def test_only_fredholm_reads_the_euler_maclaurin_weights():
    # every zeta-type sum is the one Euler-Maclaurin sum in fredholm
    readers = {path.name for path in (ROOT / "src" / "entrodet").glob("*.py")
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if names_used(node) & {"_EM_WEIGHTS"}}
    assert "fredholm.py" in readers  # the scan sees the name at all
    assert readers == {"fredholm.py"}, f"weights read outside fredholm: {sorted(readers)}"


def test_three_functions_read_the_grid_tolerance():
    # the tolerance decision of the grid check is written once per grid shape: the
    # one-block check and the blocked one, which serves every kernel. ACA reads the
    # tolerance only to drop a noise cross, at any rank, leaving the decision to them
    readers = {node.name for path in (ROOT / "src" / "entrodet").glob("*.py")
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.FunctionDef)
               and any(names_used(inner) & {"_GRID_TOL"} for inner in ast.walk(node))}
    assert readers == {"_aca", "_one_block_within_tolerance", "_within_tolerance"}, sorted(readers)


def test_one_builder_maps_the_deformed_entropies():
    # the Tsallis, Renyi, unified, determinant and renormalized forms and hy_bound are
    # one map of their statistic, built by _deformed. A second copy of the map would
    # read _float_power from another statement
    readers = {(path.name, getattr(node, "name", type(node).__name__))
               for path in (ROOT / "src" / "entrodet").glob("*.py")
               for node in ast.parse(path.read_text(encoding="utf-8")).body
               if any(names_used(inner) & {"_float_power"} for inner in ast.walk(node))}
    assert readers == {("entropy.py", "_deformed")}, sorted(readers)


def test_one_block_constant_for_long_spectra():
    # one leaf size for every long 1-D pass: the blocked sum of the statistics
    # and the log-power build read it, and no second constant is left over
    readers, leftovers = set(), set()
    for path in (ROOT / "src" / "entrodet").glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        readers |= {(path.name, node.name) for node in tree.body
                    if isinstance(node, ast.FunctionDef)
                    and any(names_used(inner) & {"_BLOCK"} for inner in ast.walk(node))}
        leftovers |= {path.name for node in ast.walk(tree) if names_used(node) & {"_BUILD_CHUNK"}}
    assert readers == {("linalg.py", "_blocked_sum"), ("states.py", "log_power_spectrum")}, sorted(readers)
    assert not leftovers, sorted(leftovers)
    from entrodet import linalg

    assert linalg._BLOCK >= 128  # NumPy's pairwise leaf: a smaller one changes bits


PUBLIC_NAMES = [
    "DensityMatrix", "EntropyParams", "EntropyResult", "ExperimentReport", "KernelSpec",
    "ProbeResult", "QuadratureRule", "Spectrum", "alpha_star", "as_spectrum", "diag_state",
    "divergence_probe", "eig_hermitian", "evaluate", "first_k_primes", "fredholm_det",
    "gauss_legendre", "gaussian_entropy_analytic", "hu_ye", "hy_bound", "hy_fredholm",
    "hy_renormalized", "load_matrix", "log_det_r", "log_det_ren", "log_fredholm_det",
    "log_power_spectrum", "nystrom_matrix", "partial_trace", "power_law_generator",
    "random_density", "renyi", "run_gaussian_experiment", "run_quad_test",
    "run_xstate_experiment", "run_zeta_check", "save_matrix", "spectrum_of", "squeezed_kernel",
    "squeezed_schmidt_spectrum", "trace_distance", "trace_power", "tsallis", "validate_density",
    "vn_renormalized", "vn_via_fredholm", "von_neumann", "x_state", "x_state_random",
    "zeta_ratio_product", "zeta_series", "zeta_spectrum",
]


def test_public_names_are_pinned():
    # a name added to or dropped from the package's API shows up as a diff of this list
    import entrodet

    exported = sorted(name for name, value in vars(entrodet).items()
                      if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert exported == PUBLIC_NAMES


def test_entropy_options_are_pinned():
    # every entropy is in nats: no log base on the parameters, the public entropies or
    # the CLI. A knob that comes back shows up as a diff here
    from entrodet import EntropyParams, cli, renyi, von_neumann

    assert [field.name for field in dataclasses.fields(EntropyParams)] == ["r", "s", "alpha"]
    assert list(inspect.signature(von_neumann).parameters) == ["x"]
    assert list(inspect.signature(renyi).parameters) == ["x", "r"]
    commands = next(action for action in cli.build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    options = sorted(option for action in commands.choices["entropy"]._actions
                     for option in action.option_strings or [action.dest])
    assert options == ["--alpha", "--help", "--kind", "--r", "--s", "-h", "input"]
    with pytest.raises(SystemExit) as refused:
        cli.main(["entropy", "rho.json", "--kind", "vn", "--base", "2"])
    assert refused.value.code == 2


CHECKERS = [
    "entropy._check_deformation", "entropy._check_s", "entropy._check_unified_params",
    "errors._check_count", "errors._check_real", "experiments._check_each",
    "fredholm._check_interval", "linalg._check_hermitian",
]


def test_parameter_checkers_are_pinned():
    # a scalar is admitted by errors._check_count or errors._check_real; the other
    # checkers add a rule on top (r != 1, s != 0, a < b) or check arrays or lists. An ad hoc
    # checker that comes back shows up as a diff of this list
    found = sorted(f"{path.stem}.{node.name}" for path in (ROOT / "src" / "entrodet").glob("*.py")
                   for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                   if isinstance(node, ast.FunctionDef) and node.name.startswith("_check_"))
    assert found == CHECKERS


def test_benchmark_layers_name_live_functions():
    # the benchmark's tracer looks up the layer of each per-layer metric by name
    # (fredholm.zeta_ratio_product of fredholm.zeta_ratio_product.self_ms), so a
    # deleted or renamed function fails here rather than in a traced run; a name
    # of two parts (trace.overhead_ratio) is a counter, not a layer
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    layers = [metric["name"].rpartition(".")[0] for metric in bench["per_layer"]
              if metric["name"].count(".") >= 2]
    assert "fredholm.zeta_ratio_product" in layers  # the scan sees the metrics at all
    dead = []
    for layer in layers:
        module, *path = layer.split(".")
        target = functools.reduce(lambda obj, name: getattr(obj, name, None), path,
                                  importlib.import_module(f"entrodet.{module}"))
        if not callable(target):
            dead.append(layer)
    assert not dead, f"per-layer metrics name no function: {sorted(set(dead))}"
