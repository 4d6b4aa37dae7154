"""Every imported name is used: a deletion that leaves an import behind
fails here.  The package's __init__ is skipped, since its imports are
its public names."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    p for p in [*(ROOT / "src" / "redarg").glob("*.py"), *(ROOT / "tests").glob("*.py")]
    if p.name != "__init__.py"
)


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
