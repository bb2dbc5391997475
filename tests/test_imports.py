"""Import hygiene: every name a package or test module imports is read in it."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "relqosc").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def exported(tree: ast.Module) -> set:
    """The names a module lists in a literal __all__."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def unread_imports(tree: ast.Module) -> list:
    """Names bound by the module's imports (not from __future__) that nothing reads and __all__ does not list."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    read |= exported(tree)
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_every_imported_name_is_read(path):
    assert unread_imports(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))) == []


def test_finds_unread_imports():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os, os.path as osp\n"
        "import numpy.linalg\n"
        "from typing import List, Optional\n"
        "from .solver import Grid\n"
        "__all__ = ['Grid']\n"
        "def f(x: List[int]) -> None:\n"
        "    return numpy.linalg.norm(x)\n"
    )
    assert unread_imports(tree) == ["Optional (line 4)", "os (line 2)", "osp (line 2)"]
