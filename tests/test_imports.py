"""Every top-level import of a library module is used by that module,
no library module imports another one's underscore names, and the
package exports exactly what its ``__init__`` imports."""

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


def test_all_lists_every_package_import_once_in_sorted_order():
    """``bitfrag.__all__`` is the names ``__init__`` imports from its
    modules, each once and sorted, and each one resolves, so a deleted
    name cannot linger as a stale string."""
    import bitfrag

    imported = _imported(ast.parse((PACKAGE_DIR / "__init__.py").read_text()))
    exported = bitfrag.__all__
    assert exported == sorted(set(exported))
    assert set(exported) == set(imported)
    assert [name for name in exported if not hasattr(bitfrag, name)] == []


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


def _records(trees) -> dict[str, set[str]]:
    """Field names of every graph record: a dataclass with ``slots=True``
    and without ``frozen=True``, whose fields nothing may assign."""
    records: dict[str, set[str]] = {}
    for cls in (node for tree in trees for node in ast.walk(tree)):
        if not isinstance(cls, ast.ClassDef):
            continue
        for deco in cls.decorator_list:
            if getattr(getattr(deco, "func", None), "id", None) != "dataclass":
                continue
            flags = {k.arg: getattr(k.value, "value", None) for k in deco.keywords}
            if flags.get("slots") is True and flags.get("frozen") is not True:
                records[cls.name] = {
                    node.target.id for node in cls.body
                    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
                }
    return records


def _targets(node: ast.AST):
    """What an assignment, augmented assignment or ``del`` writes,
    tuple and starred targets unpacked."""
    if isinstance(node, (ast.Assign, ast.Delete)):
        stack = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        stack = [node.target]
    else:
        return
    while stack:
        target = stack.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            stack += target.elts
        elif isinstance(target, ast.Starred):
            stack.append(target.value)
        else:
            yield target


_SETTERS = {"setattr", "__setattr__", "delattr", "__delattr__"}


def _field_writes(tree: ast.Module, fields: set[str]) -> list[str]:
    """Writes to an attribute named like a record field, by line, except
    ``self.<name>`` in a method of the class that owns ``self``; a
    ``setattr`` call with a literal name counts as a write."""
    own: set[int] = set()  # ids of self-attribute targets inside methods
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for method in cls.body:
            if isinstance(method, ast.FunctionDef) and method.args.args:
                me = method.args.args[0].arg
                own |= {
                    id(t) for node in ast.walk(method) for t in _targets(node)
                    if isinstance(t, ast.Attribute) and getattr(t.value, "id", None) == me
                }
    writes = []
    for node in ast.walk(tree):
        writes += [
            (t.lineno, f".{t.attr}") for t in _targets(node)
            if isinstance(t, ast.Attribute) and t.attr in fields and id(t) not in own
        ]
        func = getattr(node, "func", None)
        if getattr(func, "attr", getattr(func, "id", None)) in _SETTERS:
            writes += [
                (node.lineno, f"setattr {a.value!r}") for a in node.args
                if isinstance(a, ast.Constant) and a.value in fields
            ]
    return [f"{line}: {what}" for line, what in sorted(writes)]


def test_no_record_field_is_assigned_outside_its_class():
    """Graph records are slotted and not frozen, so nothing stops a
    write to a field of a record already in a graph, a dict key or a
    cached bit view; this lint does."""
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(PACKAGE_DIR.glob("*.py"))}
    records = _records(trees.values())
    assert {"Operand", "Operation", "Fragment"} <= set(records)
    fields = set().union(*records.values())
    writes = [
        f"{module}:{w}" for module, tree in trees.items() for w in _field_writes(tree, fields)
    ]
    assert writes == []


def test_the_field_write_lint_sees_writes():
    fields = {"hi", "op", "parts"}
    tree = ast.parse(
        "def f(o, r):\n"
        "    o.hi = 3\n"
        "    r.op, x = 'a', 1\n"
        "    o.hi += 1\n"
        "    setattr(o, 'parts', ())\n"
        "    object.__setattr__(o, 'op', 'b')\n"
        "class Plan:\n"
        "    def __init__(self, o):\n"
        "        self.hi = 1\n"
        "        o.hi = 2\n"
    )
    assert _field_writes(tree, fields) == [
        "2: .hi", "3: .op", "4: .hi", "5: setattr 'parts'", "6: setattr 'op'", "10: .hi"
    ]
