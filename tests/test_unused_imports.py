"""Every name a package module imports at module level is used there.

No linter runs on this package, so this test stands in for the unused
import check.  ``__init__.py`` is skipped: its imports are its exports.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "granudesc"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


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
