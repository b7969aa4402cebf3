"""Packaging checks: declared runtime dependencies, the modules that read shared constants, and the pinned public API."""

import ast
import re
import sys
import tomllib
import types
from pathlib import Path

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


def test_third_party_imports_are_declared():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep)[0].lower().replace("-", "_")
                for dep in project["dependencies"]}
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


PUBLIC_NAMES = [
    "DensityMatrix", "EntropyParams", "EntropyResult", "ExperimentReport", "KernelSpec",
    "ProbeResult", "QuadratureRule", "Spectrum", "alpha_star", "as_spectrum", "diag_state",
    "divergence_probe", "eig_hermitian", "evaluate", "f_r", "first_k_primes", "fredholm_det",
    "gauss_legendre", "gaussian_entropy_analytic", "hu_ye", "hy_bound", "hy_fredholm",
    "hy_renormalized", "load_matrix", "log_det_r", "log_det_ren", "log_euler_factors",
    "log_fredholm_det", "log_power_spectrum", "matrix_function", "nystrom_matrix",
    "partial_trace", "power_law_generator", "power_law_spectrum", "prime_tail_bound",
    "random_density", "renyi", "run_gaussian_experiment", "run_quad_test",
    "run_xstate_experiment", "run_zeta_check", "save_matrix", "schatten_norm", "spectrum_of",
    "splice_spectrum", "squeezed_kernel", "squeezed_schmidt_spectrum", "trace_distance",
    "trace_power", "tsallis", "validate_density", "vn_renormalized", "vn_via_fredholm",
    "von_neumann", "x_state", "x_state_random", "zeta_ratio_product", "zeta_series",
    "zeta_spectrum",
]


def test_public_names_are_pinned():
    # a name added to or dropped from the package's API shows up as a diff of this list
    import entrodet

    exported = sorted(name for name, value in vars(entrodet).items()
                      if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert exported == PUBLIC_NAMES
