"""Modules of the package use each other only through public names, and
only the resonator imports mpmath."""

import ast
from pathlib import Path

import zetamax

PACKAGE = Path(zetamax.__file__).parent


def _private_sibling_imports(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and (node.module or "").split(".")[0] != "zetamax":
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                found.append(f"{path.name}:{node.lineno} imports {alias.name} "
                             f"from {'.' * node.level}{node.module or ''}")
    return found


def test_no_private_names_imported_across_modules():
    found = [hit for path in sorted(PACKAGE.glob("*.py")) for hit in _private_sibling_imports(path)]
    assert found == []


def _mpmath_imports(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module or ""]
        else:
            continue
        if any(m.split(".")[0] == "mpmath" for m in modules):
            found.append(f"{path.name}:{node.lineno} imports mpmath")
    return found


def test_only_resonator_imports_mpmath():
    # the float64 kernels must not slide back to extended precision
    found = [hit for path in sorted(PACKAGE.glob("*.py")) if path.name != "resonator.py"
             for hit in _mpmath_imports(path)]
    assert found == []
