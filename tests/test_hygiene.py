"""Source hygiene: no module in the package, test file or demo script
imports a name it never uses, every function, method, class and
module-level assignment the package defines is named outside the tests
somewhere besides its own definition, every NamedTuple field the package
defines is read outside the tests, no package module imports
``dataclasses``, and only ``refdata.py``, which holds the calibration fit,
imports scipy.

Plain AST and text scans, so they need no linter.  The package's
``__init__.py`` is skipped: its imports are the package's re-exports.
"""
import ast
import re
from collections import Counter
from pathlib import Path

import pytest

import ncl3d

PACKAGE = Path(ncl3d.__file__).resolve().parent
ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SCRIPTS = sorted(p for d in ("tests", "demos") for p in (ROOT / d).glob("*.py"))


def users(root, modules):
    """Where a package definition may be used: the package, the demos, the
    benchmark harness and the README.  Not the tests: a definition that
    only they reach is one nothing needs, and an oracle the tests keep in
    the package shares code with what it judges."""
    return (modules + sorted((root / "demos").glob("*.py"))
            + sorted((root / "perfbench").glob("*.py")) + [root / "README.md"])


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


def dead_definitions(modules, texts):
    """Names of the functions, methods, classes and module-level assignments
    in ``modules`` (name -> source) that no text in ``texts`` names beyond
    their own definitions.

    A use is any whole-word occurrence, in code, a string or prose, so
    getattr lookups and documented entry points count.  Dunders are called
    by the language and are skipped.
    """
    defined = Counter()
    owners = {}
    for module, source in modules.items():
        tree = ast.parse(source)
        names = [(node.name, node.lineno) for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
        for node in tree.body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            names += [(t.id, node.lineno) for t in targets if isinstance(t, ast.Name)]
        for name, lineno in names:
            if not (name.startswith("__") and name.endswith("__")):
                defined[name] += 1
                owners.setdefault(name, []).append(f"{module}:{lineno}")
    named = Counter(re.findall(r"\w+", "\n".join(texts)))
    return sorted(f"{where} {name}" for name, count in defined.items()
                  if named[name] <= count for where in owners[name])


def test_dead_definition_scan_sees_uses_anywhere(tmp_path):
    """Uses count in the package, a demo, the harness and the README; a
    definition only a test names is flagged."""
    module = tmp_path / "m.py"
    module.write_text("class K:\n    def __init__(self): pass\n"
                      "    def used(self): pass\n    def unused(self): pass\n"
                      "def twice(): pass\ndef twice(): pass\n"
                      "def called(): return K().used() + LIMIT\n"
                      "LIMIT = 3\nSTALE: int = 4\n__all__ = []\n"
                      "def demoed(): pass\ndef benched(): pass\ndef tested(): pass\n")
    for path, text in (("README.md", "see `called`"), ("demos/d.py", "demoed()"),
                       ("perfbench/b.py", "benched()"), ("tests/test_m.py", "tested()")):
        (tmp_path / path).parent.mkdir(exist_ok=True)
        (tmp_path / path).write_text(text)
    texts = [p.read_text() for p in users(tmp_path, [module])]
    assert dead_definitions({"m.py": module.read_text()}, texts) == [
        "m.py:13 tested", "m.py:4 unused", "m.py:5 twice", "m.py:6 twice", "m.py:9 STALE"]


def test_every_definition_is_used():
    modules = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    texts = [p.read_text(encoding="utf-8") for p in users(ROOT, MODULES)]
    assert dead_definitions(modules, texts) == []


def unread_fields(modules, texts):
    """``Class.field`` for each field of a NamedTuple class in ``modules``
    (name -> source) that no text in ``texts`` reads as ``.field`` or names
    in quotes.  A call ``.field(`` is not a read: on a NamedTuple it may be
    a tuple method of the same name, such as ``index`` or ``count``."""
    found = []
    for source in modules.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef) and any(
                    getattr(b, "id", getattr(b, "attr", None)) == "NamedTuple"
                    for b in node.bases):
                found += [(node.name, stmt.target.id) for stmt in node.body
                          if isinstance(stmt, ast.AnnAssign)]
    text = "\n".join(texts)
    read = set(re.findall(r"\.(\w+)\b(?!\()", text)) | set(re.findall(r"[\"'](\w+)[\"']", text))
    return sorted(f"{cls}.{name}" for cls, name in found if name not in read)


def test_unread_field_scan():
    modules = {"m.py": ("class Row(typing.NamedTuple):\n    kept: int\n    quoted: int\n"
                        "    stale: int\n    index: int\n    def f(self): return self.kept\n"
                        "class Plain:\n    other: int\n")}
    texts = list(modules.values()) + ["getattr(r, 'quoted')", "rest.index('->')"]
    assert unread_fields(modules, texts) == ["Row.index", "Row.stale"]


# Technology fields the RC model does not use: they reach only the model
# file and its digest (through ``TechParams.to_dict``), and they stay so
# that the file describes the whole process node.  ``koz`` is the via
# keep-out; its name appears only in TechParams' own list of fields that
# may be 0, which the scan would otherwise count as a read.
GEOMETRY_ONLY = {f"_TechFields.{name}"
                 for name in ("L_G", "l_src", "w_src", "t_ILD", "t_miv", "w_gate", "koz")}


def test_every_named_tuple_field_is_read():
    """By the package, the demos or the benchmark harness: a field only
    tests read is one nothing needs."""
    modules = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    texts = [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))
             + sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))]
    assert [f for f in unread_fields(modules, texts)
            if f not in GEOMETRY_ONLY] == []


def imported_modules(source: str):
    """Top-level names of the modules ``source`` imports, relative ones aside."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module.split(".")[0])
    return names


def test_no_package_module_imports_dataclasses():
    """Every record is a NamedTuple; importing dataclasses costs each
    command about 13 ms, most of it for inspect."""
    assert imported_modules("import dataclasses.x\nfrom dataclasses import field\n"
                            "from . import dataclasses\nimport os as dataclasses\n") == {
        "dataclasses", "os"}
    users = [p.name for p in sorted(PACKAGE.glob("*.py"))
             if "dataclasses" in imported_modules(p.read_text(encoding="utf-8"))]
    assert users == []


def test_only_the_fit_imports_scipy():
    """scipy is an optional extra (``ncl3d[fit]``): every command runs
    without it, and only ``refdata.calibrate`` needs it."""
    users = [p.name for p in sorted(PACKAGE.glob("*.py"))
             if "scipy" in imported_modules(p.read_text(encoding="utf-8"))]
    assert users == ["refdata.py"]


def process_calls(source: str):
    """(line, name) of each use of ``os.fork`` or ``os._exit``, as an
    attribute of ``os`` or imported from it."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr in ("fork", "_exit")
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            found.append((node.lineno, f"os.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [(node.lineno, f"os.{a.name}") for a in node.names
                      if a.name in ("fork", "_exit")]
    return sorted(found)


def test_process_call_scan():
    src = "import os\nfrom os import _exit\nos.fork()\nos.getpid()\nfork = 1\n"
    assert process_calls(src) == [(2, "os._exit"), (3, "os.fork")]


def test_only_forkmap_forks_or_exits():
    """Forking and leaving a forked child live in one place, which reaps
    every child it makes."""
    users = [p.name for p in sorted(PACKAGE.glob("*.py"))
             if process_calls(p.read_text(encoding="utf-8"))]
    assert users == ["forkmap.py"]
