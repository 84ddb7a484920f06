"""Every name a package module imports at module level is used there,
every module-level private function or class is used somewhere, and no
function calls itself.

No linter runs on this package, so this test stands in for the unused
import and dead code checks.  ``__init__.py`` is skipped for imports:
its imports are its exports.  A function that calls itself puts its
search on the interpreter stack, whose depth limit then caps the input
size; a search keeps its nodes in a stack of its own instead.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "granudesc"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
ALL_MODULES = sorted(PACKAGE.glob("*.py"))


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Names bound by the module-level imports, with their line numbers."""
    names: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used_names(tree: ast.Module) -> set[str]:
    # an attribute chain starts at a Name, so Name nodes cover it too
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


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
    assert len(MODULES) >= 5


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path: Path) -> None:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = _used_names(tree)
    unused = {name: line for name, line in _imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name}: unused imports {unused}"


def test_an_unused_import_is_found() -> None:
    tree = ast.parse(
        "from a import b, c\nimport d.e\nimport f as g\n\nprint(c, g)\n"
    )
    used = _used_names(tree)
    assert {n for n in _imported_names(tree) if n not in used} == {"b", "d"}


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
