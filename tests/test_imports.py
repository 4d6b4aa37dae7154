"""Every imported name is used, and every definition in the package is
used: a deletion that leaves an import behind, or a function that no
code calls, fails here.  The package's __init__ is skipped, since its
imports are its public names."""

import ast
from pathlib import Path

import pytest

from test_tracing import tracing

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for p in (ROOT / "src" / "redarg").glob("*.py") if p.name != "__init__.py")
FILES = SOURCES + sorted(p for p in (ROOT / "tests").glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef)):
            # a string annotation names what it refers to inside the string
            notes = [getattr(node, "annotation", None), getattr(node, "returns", None)]
            for note in filter(None, notes):
                for sub in ast.walk(note):
                    if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                        used.update(n.id for n in ast.walk(ast.parse(sub.value, mode="eval"))
                                    if isinstance(n, ast.Name))
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_imports_found():
    source = (
        "import os\nimport os.path as osp\nfrom typing import Optional, Union\n"
        "def f(x: 'Optional[int]') -> None:\n    return os.sep\n"
    )
    assert unused_imports(source) == ["Union (line 3)", "osp (line 2)"]


def unused_definitions(sources: list[str], keep: set[str]) -> list[str]:
    """The module-level functions and classes, and the methods but
    dunders, whose name no Name or Attribute of the sources uses, and
    that keep does not list."""
    defined: list[str] = []
    used: set[str] = set()
    for source in sources:
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append(node.name)
            if isinstance(node, ast.ClassDef):
                defined += [d.name for d in node.body if isinstance(d, ast.FunctionDef)
                            and not (d.name.startswith("__") and d.name.endswith("__"))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return sorted(name for name in defined if name not in used | keep)


def test_no_unused_definitions():
    # the benchmark wraps these by name, so they stay even where only it calls them
    traced = {func for _, func in tracing.SPANS + tracing.COUNTED}
    assert unused_definitions([p.read_text() for p in SOURCES], traced) == []


def test_unused_definitions_found():
    source = (
        "class A:\n    def __len__(self):\n        return 0\n"
        "    def used(self):\n        return helper()\n    def unused(self):\n        pass\n"
        "def helper():\n    return A().used\n"
        "def dead():\n    pass\n"
        "def traced():\n    pass\n"
    )
    assert unused_definitions([source], {"traced"}) == ["dead", "unused"]
