"""Source hygiene: no module in the package, test file or demo script
imports a name it never uses.

A plain AST scan, so it needs no linter.  The package's ``__init__.py`` is
skipped: its imports are the package's re-exports.
"""
import ast
from pathlib import Path

import pytest

import ncl3d

PACKAGE = Path(ncl3d.__file__).resolve().parent
ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SCRIPTS = sorted(p for d in ("tests", "demos") for p in (ROOT / d).glob("*.py"))


def unused_imports(source: str):
    """(line, name) of every imported name the module never references."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.FunctionDef, ast.AsyncFunctionDef, ast.AnnAssign)):
            # a quoted annotation names its types inside a string
            for ann in (getattr(node, "annotation", None), getattr(node, "returns", None)):
                if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                    used |= {n.id for n in ast.walk(ast.parse(ann.value, mode="eval"))
                             if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_scan_finds_unused_and_respects_uses():
    src = ("from __future__ import annotations\n"
           "import os\nimport json\nfrom typing import List, Dict\n"
           "def f(x: 'List[int]') -> None:\n    return json.dumps(x)\n")
    assert unused_imports(src) == [(2, "os"), (4, "Dict")]


@pytest.mark.parametrize("path", MODULES + SCRIPTS,
                         ids=lambda p: p.name if p.parent == PACKAGE else f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
