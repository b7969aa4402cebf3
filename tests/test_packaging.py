"""Every third-party package that entrodet imports is a declared runtime dependency."""

import ast
import re
import sys
import tomllib
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
