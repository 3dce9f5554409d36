"""Every top-level import of a library module is used by that module."""

import ast

import pytest

from conftest import TESTS_DIR

PACKAGE_DIR = TESTS_DIR.parent / "src" / "bitfrag"
MODULES = sorted(p.name for p in PACKAGE_DIR.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module) -> dict[str, int]:
    """Name bound by each top-level import, with its line."""
    bound: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _named(tree: ast.Module) -> set[str]:
    """Every name the module reads, string annotations included."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        for hint in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(hint, ast.Constant) and isinstance(hint.value, str):
                names |= _named(ast.parse(hint.value))
    return names


@pytest.mark.parametrize("module", MODULES)
def test_every_top_level_import_is_used(module):
    tree = ast.parse((PACKAGE_DIR / module).read_text())
    named = _named(tree)
    unused = [
        f"{module}:{line}: {name}"
        for name, line in _imported(tree).items()
        if name not in named
    ]
    assert unused == []
