"""Modules of the package use each other only through public names."""

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
