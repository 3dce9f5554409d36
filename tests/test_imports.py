"""Every top-level import of a library module is used by that module, and
no library module imports another one's underscore names."""

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


def _private_imports(tree: ast.Module) -> list[str]:
    """Underscore names imported from a library module, with their lines."""
    return [
        f"{node.lineno}: {alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "bitfrag")
        for alias in node.names
        if alias.name.startswith("_")
    ]


@pytest.mark.parametrize("module", MODULES)
def test_no_private_name_is_imported_from_another_module(module):
    tree = ast.parse((PACKAGE_DIR / module).read_text())
    assert _private_imports(tree) == []


def _private_definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    """Top-level underscore functions, classes and constants, by name;
    dunder names such as ``__all__`` are not private."""
    defined: dict[str, ast.stmt] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        defined.update(
            (name, node) for name in names
            if name.startswith("_") and not name.endswith("__")
        )
    return defined


def _referenced(node: ast.AST) -> set[str]:
    """Every name and attribute ``node`` reads."""
    names = _named(node)
    names |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
    names |= {a.name for n in ast.walk(node) if isinstance(n, ast.ImportFrom) for a in n.names}
    return names


def test_every_private_definition_is_referenced():
    """No top-level underscore helper is left behind: each is read by
    some code under ``src/`` other than its own definition."""
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(PACKAGE_DIR.glob("*.py"))}
    reads = [
        (node, _referenced(node)) for tree in trees.values() for node in tree.body
    ]
    unused = [
        f"{module}:{node.lineno}: {name}"
        for module, tree in trees.items()
        for name, node in _private_definitions(tree).items()
        if not any(name in names for other, names in reads if other is not node)
    ]
    assert unused == []
