"""The package's public name list, ``latticepick.__all__``, and its
integer-only source."""

from __future__ import annotations

import ast
import types
from pathlib import Path

import latticepick

SOURCES = sorted(Path(latticepick.__file__).parent.glob("*.py"))
TESTS = sorted(Path(__file__).parent.glob("*.py"))


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


def loaded_names(tree: ast.AST) -> set[str]:
    """Every name ``tree`` reads, as a bare name, an attribute or an
    imported name."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def private_definitions(tree: ast.Module) -> list[str]:
    """The module-level functions, classes and assigned names of
    ``tree`` that start with a single underscore."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [name for name in names
            if name.startswith("_") and not name.startswith("__")]


def unused_imports(source: str) -> list[str]:
    """The names a module imports but never reads, leaving out the
    ``__future__`` imports and import statements marked
    ``# noqa: F401``."""
    tree = ast.parse(source)
    lines = source.splitlines()
    loads = {node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) \
                or getattr(node, "module", None) == "__future__" \
                or any("# noqa: F401" in line
                       for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in loads:
                unused.append(f"line {node.lineno}: {name}")
    return unused


def unread_parameters(tree: ast.AST) -> list[str]:
    """The parameters of every function and lambda in ``tree`` that its
    body, nested functions included, never reads, leaving out the names
    that start with an underscore."""
    unread = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs + \
            [arg for arg in (args.vararg, args.kwarg) if arg is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        reads = {sub.id for stmt in body for sub in ast.walk(stmt)
                 if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
        name = getattr(node, "name", "lambda")
        unread += [f"line {node.lineno}: {name}({param.arg})"
                   for param in params
                   if not param.arg.startswith("_") and param.arg not in reads]
    return unread


def unread_fields(tree: ast.AST, reads: set[str]) -> list[str]:
    """The fields, as ``Class.field``, of every ``@dataclass`` class in
    ``tree`` whose name is not in ``reads``."""
    unread = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef) or not any(
                "dataclass" in ast.unparse(d) for d in node.decorator_list):
            continue
        unread += [f"{node.name}.{stmt.target.id}" for stmt in node.body
                   if isinstance(stmt, ast.AnnAssign)
                   and isinstance(stmt.target, ast.Name)
                   and stmt.target.id not in reads]
    return unread


def attribute_reads(tree: ast.AST) -> set[str]:
    """Every attribute name ``tree`` reads, as in ``obj.name``."""
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}


def test_every_private_name_is_referenced():
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in SOURCES}
    referenced = set().union(*map(loaded_names, trees.values()))
    for name, tree in trees.items():
        assert set(private_definitions(tree)) - referenced == set(), name


def test_every_import_is_used():
    for path in SOURCES:
        if path.name != "__init__.py":
            assert unused_imports(path.read_text()) == [], path.name


def test_every_parameter_is_read():
    for path in SOURCES:
        assert unread_parameters(ast.parse(path.read_text(), str(path))) \
            == [], path.name


def test_dead_code_checks_catch_each_form():
    tree = ast.parse("_KEPT = 1\n_LEFT = 2\n__dunder__ = 3\n"
                     "def _helper(): return _KEPT\nclass _Gone: pass\n"
                     "x = _helper()\n")
    assert set(private_definitions(tree)) - loaded_names(tree) \
        == {"_LEFT", "_Gone"}
    assert unused_imports("import math\nfrom typing import Sequence\n"
                          "x = math.gcd(1, 2)\n") == ["line 2: Sequence"]
    assert unused_imports("from __future__ import annotations\n"
                          "from .a import b  # noqa: F401\n") == []


def test_every_dataclass_field_is_read():
    trees = [ast.parse(path.read_text(), str(path)) for path in SOURCES]
    reads = set().union(*map(attribute_reads, trees + [
        ast.parse(path.read_text(), str(path)) for path in TESTS]))
    assert [field for tree in trees for field in unread_fields(tree, reads)] \
        == []


def test_dead_field_check_catches_each_form():
    tree = ast.parse(
        "@dataclass(frozen=True)\nclass A:\n    kept: int\n    gone: int\n"
        "    def m(self): return self.kept\n"
        "@dataclasses.dataclass\nclass B:\n    written: int\n"
        "class C:\n    plain: int\n"
        "def f(b): b.written = 1\n")
    assert unread_fields(tree, attribute_reads(tree)) == \
        ["A.gone", "B.written"]


def test_dead_parameter_check_catches_each_form():
    tree = ast.parse(
        "def f(a, /, b, *c, d, e=1, **g): return e\n"
        "class K:\n    def m(self, x): return self\n"
        "h = lambda y, z: z\n"
        "def outer(n, _skip):\n    def inner(): return n\n    return inner\n"
        "def shadow(q, r=q): return r\n")
    assert set(unread_parameters(tree)) == {
        "line 1: f(a)", "line 1: f(b)", "line 1: f(c)", "line 1: f(d)",
        "line 1: f(g)", "line 3: m(x)", "line 4: lambda(y)",
        "line 8: shadow(q)"}
