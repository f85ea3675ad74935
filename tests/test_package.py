"""The package's public name list, ``latticepick.__all__``, and its
integer-only source."""

from __future__ import annotations

import ast
import types
from pathlib import Path

import latticepick

SOURCES = sorted(Path(latticepick.__file__).parent.glob("*.py"))


def test_every_listed_name_resolves():
    assert len(set(latticepick.__all__)) == len(latticepick.__all__)
    for name in latticepick.__all__:
        assert hasattr(latticepick, name), name


def test_every_imported_public_name_is_listed():
    imported = {name for name, value in vars(latticepick).items()
                if not name.startswith("_")
                and not isinstance(value, types.ModuleType)}
    assert imported - set(latticepick.__all__) == set()


def float_uses(tree: ast.AST) -> list[str]:
    """Every place in ``tree`` where a float could enter: true division,
    a float literal, the name ``float``, or math beyond ``gcd``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) \
                and isinstance(node.op, ast.Div):
            found.append(f"line {node.lineno}: true division")
        elif isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append(f"line {node.lineno}: float literal {node.value!r}")
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append(f"line {node.lineno}: name float")
        elif isinstance(node, ast.Attribute) and node.attr != "gcd" \
                and isinstance(node.value, ast.Name) and node.value.id == "math":
            found.append(f"line {node.lineno}: math.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [f"line {node.lineno}: from math import {alias.name}"
                      for alias in node.names if alias.name != "gcd"]
    return found


def test_no_float_enters_the_library():
    assert len(SOURCES) >= 5
    for path in SOURCES:
        assert float_uses(ast.parse(path.read_text(), str(path))) == [], path.name


def test_float_check_catches_each_form():
    for snippet in ("x = a / b", "x /= 2", "x = 0.5", "x = float(y)",
                    "x = math.sqrt(y)", "from math import floor"):
        assert float_uses(ast.parse(snippet)) != [], snippet
    assert float_uses(ast.parse(
        "from math import gcd\nx = a // b + math.gcd(a, b)")) == []
