"""Each module of circsat keeps its private names to itself.

A name with one leading underscore belongs to the module that defines it.  A
module may read or write such an attribute on `self` or `cls`, or on any
object when one of the module's own classes defines the attribute (as a
method, a class field or a `self._x` assignment).  It may not import such a
name from a sibling module.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "circsat"
MODULES = sorted(SRC.glob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _own_attributes(tree: ast.Module) -> set[str]:
    """The attributes that the module's own classes define."""
    names = set()
    for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names.add(node.target.id)
            elif isinstance(node, ast.Assign):
                names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        names.update(node.attr for node in ast.walk(cls)
                      if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                      and isinstance(node.value, ast.Name) and node.value.id == "self")
    return names


def violations(source: str, filename: str) -> list[str]:
    """'file:line: ...' for each use of another module's private name."""
    tree = ast.parse(source, filename)
    own = _own_attributes(tree)
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and _private(node.attr) and node.attr not in own
                and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))):
            found.append(f"{filename}:{node.lineno}: .{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.level:
            found += [f"{filename}:{node.lineno}: import {alias.name}"
                      for alias in node.names if _private(alias.name)]
    return sorted(found)


def test_checker_flags_foreign_attributes_and_imports():
    source = (
        "from .circuit import Circuit, _REDUCE\n"
        "class A:\n"
        "    _field = 0\n"
        "    def __init__(self, c):\n"
        "        self._own = c._schedule\n"
        "        c._own = c._field + c._method() + c.__len__()\n"
        "    def _method(self):\n"
        "        return cls._other\n"
    )
    assert violations(source, "m.py") == ["m.py:1: import _REDUCE", "m.py:5: ._schedule"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_uses_no_private_name_of_another(path):
    assert violations(path.read_text(), path.name) == []
