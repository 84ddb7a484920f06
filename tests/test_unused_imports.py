"""Every name a package module imports is used in the scope that imports
it, every module-level private function or class is used somewhere, no
function calls itself, a description's shape is read in one place,
derived values are kept one way and no module imports ``dataclasses``.

No linter runs on this package, so this test stands in for the unused
import and dead code checks.  An import inside a function body must be
used in that function: the CLI imports in each subcommand what that
subcommand runs.  ``__init__.py`` is checked like any module, as its
exports come from its table of names and not from imports.  A function
that calls itself puts its search on the interpreter stack, whose depth
limit then caps the input size; a search keeps its nodes in a stack of
its own instead.

``formula._parts`` is the only code that tells ``Conj``, ``Disj`` and
``ConjDisj`` apart; everything else reads a description's two parts from
it.  Values computed on first use go through ``context._once``, never
``functools.cached_property``, which takes a lock on its first read.
Records derive from ``context._Record``: importing ``dataclasses`` pulls
in ``inspect`` and costs every command-line call several milliseconds.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "granudesc"
ALL_MODULES = sorted(PACKAGE.glob("*.py"))
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _scopes(tree: ast.Module) -> list[ast.Module | ast.FunctionDef | ast.AsyncFunctionDef]:
    """The module and every function in it, nested ones included."""
    return [tree, *(n for n in ast.walk(tree) if isinstance(n, FUNCTIONS))]


def _scope_nodes(scope: ast.Module | ast.FunctionDef | ast.AsyncFunctionDef):
    """The nodes of a module or function body, not those of the
    functions nested in it."""
    stack = list(scope.body)
    while stack:
        node = stack.pop()
        if not isinstance(node, FUNCTIONS):
            yield node
            stack.extend(ast.iter_child_nodes(node))


def _unused_imports(tree: ast.Module) -> set[tuple[str, int]]:
    """Names an import binds that its scope never reads, with the import's
    line: the module for a module-level import, the function (nested
    functions included) for one in a function body."""
    unused = set()
    for scope in _scopes(tree):
        # an attribute chain starts at a Name, so Name nodes cover it too
        used = {node.id for node in ast.walk(scope) if isinstance(node, ast.Name)}
        for node in _scope_nodes(scope):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name
                if isinstance(node, ast.Import):
                    name = name.split(".")[0]
                if name not in used:
                    unused.add((name, node.lineno))
    return unused


def _referenced(tree: ast.AST) -> Counter[str]:
    """Names and attribute names read anywhere in ``tree``, with counts."""
    found: Counter[str] = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
    return found


def _unreferenced_private_defs(sources: dict[str, str]) -> set[str]:
    """Module-level private functions and classes no module refers to;
    a reference inside the definition itself does not count."""
    trees = {name: ast.parse(text, filename=name) for name, text in sources.items()}
    everywhere: Counter[str] = Counter()
    for tree in trees.values():
        everywhere += _referenced(tree)
    dead = set()
    for name, tree in trees.items():
        for node in tree.body:
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and node.name.startswith("_")
                and not node.name.startswith("__")
                and everywhere[node.name] == _referenced(node)[node.name]
            ):
                dead.add(f"{name}:{node.name}")
    return dead


def _callee(func: ast.expr) -> str | None:
    """The name a call reaches its function by: ``f`` or ``self.f``/``cls.f``."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        return func.attr if func.value.id in ("self", "cls") else None
    return None


def _self_calling_defs(tree: ast.Module) -> set[str]:
    """Functions, at any depth, with a call to their own name in their body."""
    found = set()
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
            isinstance(node, ast.Call) and _callee(node.func) == fn.name
            for stmt in fn.body
            for node in ast.walk(stmt)
        ):
            found.add(fn.name)
    return found


def test_the_package_has_modules_to_check() -> None:
    assert len(ALL_MODULES) >= 6


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path: Path) -> None:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    unused = _unused_imports(tree)
    assert not unused, f"{path.name}: unused imports {sorted(unused)}"


def test_an_unused_import_is_found() -> None:
    tree = ast.parse(
        "from __future__ import annotations\n"
        "from a import b, c\nimport d.e\nimport f as g\nfrom q import r\n\nprint(c, g)\n\n"
        "def h():\n"
        "    from i import j, k\n"
        "    def inner():\n        return k\n"
        "    return inner\n\n"
        "def m():\n"
        "    if c:\n        import n as p\n"
        "    return j, b\n"
    )
    # j is read only in m, where it is another name; b only in m, which
    # counts for the module's import; r is read nowhere
    assert _unused_imports(tree) == {("d", 3), ("r", 5), ("j", 10), ("p", 17)}


def test_every_private_helper_is_referenced() -> None:
    sources = {p.name: p.read_text(encoding="utf-8") for p in ALL_MODULES}
    assert not _unreferenced_private_defs(sources)


def test_an_unreferenced_private_helper_is_found() -> None:
    sources = {
        "a.py": (
            "def _used():\n    pass\n\n"
            "def _self_only(n):\n    return _self_only(n - 1)\n\n"
            "class _Dead:\n    pass\n\n"
            "def __dunder__():\n    pass\n\n"
            "def public():\n    pass\n"
        ),
        "b.py": "import a\n\na._used()\n",
    }
    assert _unreferenced_private_defs(sources) == {"a.py:_self_only", "a.py:_Dead"}


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_no_function_calls_itself(path: Path) -> None:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert not _self_calling_defs(tree)


def test_a_self_calling_function_is_found() -> None:
    tree = ast.parse(
        "def direct(n):\n    return direct(n - 1)\n\n"
        "def outer(xs):\n"
        "    def rec(i):\n        rec(i + 1)\n"
        "    rec(0)\n\n"
        "class C:\n"
        "    def walk(self):\n        self.walk()\n"
        "    def step(self, other):\n        other.step()\n        return step\n\n"
        "def plain(n):\n    return abs(n)\n"
    )
    assert _self_calling_defs(tree) == {"direct", "rec", "walk"}


DESCRIPTION_CLASSES = {"Conj", "Disj", "ConjDisj"}


def _class_names(node: ast.expr) -> set[str]:
    """The class names an ``isinstance`` argument names, tuples included."""
    if isinstance(node, ast.Tuple):
        return set().union(*map(_class_names, node.elts))
    if isinstance(node, ast.Attribute):
        return {node.attr}
    return {node.id} if isinstance(node, ast.Name) else set()


def _description_dispatches(tree: ast.Module) -> set[str]:
    """The functions (or ``<module>``) holding an ``isinstance`` test
    against one of the description classes."""
    return {
        getattr(scope, "name", "<module>")
        for scope in _scopes(tree)
        for node in _scope_nodes(scope)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "isinstance"
        and len(node.args) == 2
        and _class_names(node.args[1]) & DESCRIPTION_CLASSES
    }


def _cached_property_reads(tree: ast.Module) -> set[int]:
    """Lines that import or read ``functools.cached_property``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            if any(alias.name == "cached_property" for alias in node.names):
                found.add(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr == "cached_property":
            found.add(node.lineno)
    return found


def test_only_formula_parts_tells_the_description_classes_apart() -> None:
    found = {
        (path.name, scope)
        for path in ALL_MODULES
        for scope in _description_dispatches(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert found == {("formula.py", "_parts")}


def test_a_description_dispatch_is_found() -> None:
    tree = ast.parse(
        "import formula as f\n"
        "if isinstance(x, Conj):\n    pass\n\n"
        "def shape(d):\n"
        "    def inner(e):\n        return isinstance(e, (int, f.ConjDisj))\n"
        "    return isinstance(d, Atom)\n\n"
        "def side(d):\n    return isinstance(d, (Disj,))\n\n"
        "def other(d):\n    return type(d) is Conj or isinstance(d, Conjunction)\n"
    )
    assert _description_dispatches(tree) == {"<module>", "inner", "side"}


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_no_module_reads_cached_property(path: Path) -> None:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert not _cached_property_reads(tree)


def test_a_cached_property_read_is_found() -> None:
    tree = ast.parse(
        "from functools import cached_property as cp, reduce\n"
        "import functools\n"
        "from functools import lru_cache\n\n"
        "class C:\n"
        "    @functools.cached_property\n    def a(self):\n        return 1\n"
        "    cached_property = None\n"
    )
    assert _cached_property_reads(tree) == {1, 6}


def _dataclasses_imports(tree: ast.Module) -> set[int]:
    """Lines that import ``dataclasses``, at any depth."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(alias.name.split(".")[0] == "dataclasses" for alias in node.names):
                found.add(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if (node.module or "").split(".")[0] == "dataclasses":
                found.add(node.lineno)
    return found


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_no_module_imports_dataclasses(path: Path) -> None:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert not _dataclasses_imports(tree)


def test_a_dataclasses_import_is_found() -> None:
    tree = ast.parse(
        "import json, dataclasses as dc\n"
        "from dataclasses import dataclass\n"
        "from .dataclasses import local\n"
        "import dataclasses_json\n\n"
        "def f():\n    import dataclasses\n    return dataclasses\n"
    )
    assert _dataclasses_imports(tree) == {1, 2, 7}
