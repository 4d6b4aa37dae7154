"""Every imported name is used, and every definition in the package is
used: a deletion that leaves an import behind, or a function that no
code calls, fails here.  The package's __init__ is skipped, since its
imports are its public names.  No module of the package reads the
environment: every setting is a command-line option."""

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
    """The module-level functions and classes whose name no Name of the
    sources loads, and the methods but dunders whose name no loaded Name
    or Attribute of the sources uses, that keep does not list.  An
    attribute of the same name (say a field) does not keep a module-level
    definition alive."""
    defined: list[str] = []
    methods: list[str] = []
    loaded: set[str] = set()
    attributes: set[str] = set()
    for source in sources:
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append(node.name)
            if isinstance(node, ast.ClassDef):
                methods += [d.name for d in node.body if isinstance(d, ast.FunctionDef)
                            and not (d.name.startswith("__") and d.name.endswith("__"))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    return sorted([name for name in defined if name not in loaded | keep]
                  + [name for name in methods if name not in loaded | attributes | keep])


def test_no_unused_definitions():
    # the benchmark wraps these by name, so they stay even where only it calls them
    traced = {func for _, func in tracing.SPANS + tracing.COUNTED}
    assert unused_definitions([p.read_text() for p in SOURCES], traced) == []


def test_unused_definitions_found():
    source = (
        "class A:\n    def __len__(self):\n        return 0\n"
        "    def used(self):\n        return helper()\n    def unused(self):\n        pass\n"
        "def helper():\n    return A().used, A().depth\n"
        "def dead():\n    pass\n"
        "def depth():\n    pass\n"
        "def traced():\n    pass\n"
    )
    # depth is only read as an attribute of something else
    assert unused_definitions([source], {"traced"}) == ["dead", "depth", "unused"]


def recursive_functions(source: str) -> list[str]:
    """The functions, nested ones included, in whose body something
    calls the function by its name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef) and any(
            isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
            and call.func.id == node.name
            for call in ast.walk(node)
        ):
            found.append(node.name)
    return sorted(found)


def test_no_recursive_functions():
    # a recursive walk fails on a deep enough term; every walk is iterative
    assert [name for p in SOURCES for name in recursive_functions(p.read_text())] == []


def test_recursive_functions_found():
    source = (
        "def down(n):\n    return n and down(n - 1)\n"
        "def outer(t):\n    def inner(u):\n        return [inner(a) for a in u]\n"
        "    return inner(t)\n"
        "def via_closure(t):\n    def step(u):\n        return via_closure(u)\n"
        "    return step\n"
        "def flat(t):\n    return len(t)\n"
    )
    assert recursive_functions(source) == ["down", "inner", "via_closure"]


READERS = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))


def write_only_fields(sources: list[str], readers: list[str]) -> list[str]:
    """The fields of the dataclasses of the sources whose name no
    attribute load and no string constant of the readers mentions; a
    string covers a field read by getattr."""
    fields = []
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef) and any(
                isinstance(d, ast.Name) and d.id == "dataclass"
                or isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
                for d in node.decorator_list
            ):
                fields += [(node.name, stmt.target.id) for stmt in node.body
                           if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
    read = set()
    for source in readers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    return sorted(f"{cls}.{name}" for cls, name in fields if name not in read)


def test_no_write_only_fields():
    sources = [p.read_text() for p in (ROOT / "src" / "redarg").glob("*.py")]
    assert write_only_fields(sources, [p.read_text() for p in READERS]) == []


def test_write_only_fields_found():
    source = (
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\nclass A:\n    read: int\n    named: int\n    unread: int\n"
        "@dataclass\nclass B:\n    kept: int\n    dropped: int = 0\n"
        "class C:\n    plain: int\n"
        "def use(a, b):\n    b.dropped = 1\n    return a.read, getattr(a, 'named'), b.kept\n"
    )
    # a store is not a read, and a class that is not a dataclass has no fields
    assert write_only_fields([source], [source]) == ["A.unread", "B.dropped"]


ENVIRONMENT = ("environ", "getenv")


def environment_reads(source: str) -> list[str]:
    """The names through which source reads the environment, in source
    order: os.environ, os.getenv, or either imported by name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.alias):
            name = node.name
        else:
            continue
        if name in ENVIRONMENT:
            found.append((node.lineno, node.col_offset, name))
    return [f"{name} (line {line})" for line, _, name in sorted(found)]


def test_no_environment_reads():
    assert [f"{p.name}: {read}" for p in sorted((ROOT / "src" / "redarg").glob("*.py"))
            for read in environment_reads(p.read_text())] == []


def test_environment_reads_found():
    source = (
        "import os\nfrom os import getenv as ge\n"
        "def fuel():\n    return os.environ.get('FUEL') or os.getenv('FUEL')\n"
        "def path():\n    return os.path.sep\n"
    )
    assert environment_reads(source) == ["getenv (line 2)", "environ (line 4)", "getenv (line 4)"]
