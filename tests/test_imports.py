"""Every top-level import of a library module is used by that module,
no library module imports another one's underscore names, the
package exports exactly what its ``__init__`` imports, each record
keeps the style it is declared in and the behaviour it had as a
dataclass, and nothing made at import keeps a dropped copy of the
package alive."""

import ast
import os
import subprocess
import sys

import pytest

from bitfrag.cost import CostReport, Lane, PortMux, RegisterBinding
from bitfrag.dfg import (
    BitView,
    CarryRef,
    Concat,
    Const,
    Diagnostic,
    InputPort,
    InputRef,
    OpKind,
    Operand,
    Operation,
    ResultRef,
    SourceSpan,
)
from bitfrag.dsl import parse
from bitfrag.fragmenter import Fragment, Mobility
from bitfrag.scheduler import Schedule
from bitfrag.simulator import CycleTrace, EquivResult
from bitfrag.timing import CriticalPath
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
    """Field names of every graph record: a class built directly on
    ``Record``, whose ``__slots__`` name its fields; nothing may assign
    them."""
    records: dict[str, set[str]] = {}
    for cls in (node for tree in trees for node in ast.walk(tree)):
        if isinstance(cls, ast.ClassDef) and any(getattr(b, "id", None) == "Record" for b in cls.bases):
            for node in cls.body:
                if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "__slots__":
                    records[cls.name] = set(ast.literal_eval(node.value))
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


def _typing_subscripts(tree: ast.Module) -> list[str]:
    """Subscripts of a name imported from ``typing`` (``Union[...]``,
    ``typing.Optional[...]``) in code that runs at import, by line: module
    and class bodies, bases, decorators and defaults, but no function body,
    and no annotation where ``from __future__ import annotations`` holds."""
    names, modules, lazy = set(), set(), False
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module == "typing":
                names |= {alias.asname or alias.name for alias in node.names}
            lazy |= node.module == "__future__" and any(a.name == "annotations" for a in node.names)
        elif isinstance(node, ast.Import):
            modules |= {alias.asname or alias.name for alias in node.names if alias.name == "typing"}
    found, stack = [], list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            stack += getattr(node, "decorator_list", []) + args.defaults
            stack += [d for d in args.kw_defaults if d is not None]
            if not lazy:
                stack += [a.annotation for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                                 args.vararg, args.kwarg) if a and a.annotation]
                stack += [node.returns] if getattr(node, "returns", None) else []
            continue
        if isinstance(node, ast.AnnAssign) and lazy:
            stack += [node.target] + ([node.value] if node.value else [])
            continue
        if isinstance(node, ast.Subscript):
            value = node.value
            if getattr(value, "id", None) in names or (
                isinstance(value, ast.Attribute) and getattr(value.value, "id", None) in modules
            ):
                found.append((node.lineno, ast.unparse(node)))
        stack += ast.iter_child_nodes(node)
    return [f"{line}: {text}" for line, text in sorted(found)]


def test_no_typing_subscript_runs_at_import():
    """``typing`` keeps each ``Union[...]`` (and every other subscript of
    its special forms) in an LRU cache, and through the classes in it the
    module globals of the copy of ``bitfrag`` that made it, so a dropped
    import of the package would stay in memory.  A PEP 604 union
    (``A | B``) is cached nowhere, and annotations are never evaluated."""
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(PACKAGE_DIR.glob("*.py"))}
    found = [f"{module}:{s}" for module, tree in trees.items() for s in _typing_subscripts(tree)]
    assert found == []


def test_the_typing_subscript_lint_sees_import_time_subscripts():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import typing\n"
        "from typing import NamedTuple, Optional, Union\n"
        "X = Union[A, B]\n"
        "Y: Optional[A] = None\n"
        "class C(NamedTuple):\n"
        "    a: Union[A, B]\n"
        "    b: int = typing.Optional[A]\n"
        "@register(Optional[A])\n"
        "def f(x: Optional[A] = Union[A, B]) -> Optional[A]:\n"
        "    return Optional[A]\n"
        "Z = A | B\n"
    )
    assert _typing_subscripts(tree) == [
        "4: Union[A, B]", "8: typing.Optional[A]", "9: Optional[A]", "10: Union[A, B]"
    ]
    eager = ast.parse("from typing import Optional\ndef f(x: Optional[A]) -> int: ...\n")
    assert _typing_subscripts(eager) == ["2: Optional[A]"]


# Imports the package, drops every module of it from ``sys.modules`` and
# imports it again three times; prints whether the first copy is alive.
_REIMPORT_PROBE = """
import gc
import sys
import weakref

import bitfrag

kind = weakref.ref(bitfrag.dfg.OpKind)
for _ in range(3):
    for name in [n for n in sys.modules if n.split(".")[0] == "bitfrag"]:
        del sys.modules[name]
    import bitfrag
gc.collect()
print("alive" if kind() is not None else "freed")
"""


def test_a_dropped_import_of_the_package_is_freed():
    """The benchmark's set-up imports ``bitfrag`` afresh 25 times a run;
    each copy it drops must be freed, not pinned by a cache made at
    import.  In a subprocess, so the other tests keep their classes."""
    run = subprocess.run(
        [sys.executable, "-c", _REIMPORT_PROBE],
        env=dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent)),
        capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == "freed\n"


def _dataclasses(tree: ast.Module) -> list[str]:
    """Classes with a ``dataclass`` decorator, called or bare, imported
    by name or read from ``dataclasses``, by line."""
    found = []
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            for deco in cls.decorator_list:
                target = getattr(deco, "func", deco)
                if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
                    found.append(f"{cls.lineno}: {cls.name}")
    return found


def test_no_class_but_the_graph_is_a_dataclass():
    """A dataclass generates its methods when its module is imported,
    about half a millisecond a class, and every run of the program pays
    that import.  Graph records and ``Schedule`` are written out on
    ``dfg.Record``, and result records, ``BitView`` among them, are
    named tuples; only ``DataFlowGraph`` stays a dataclass, as graphs
    are copied with ``dataclasses.replace``."""
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(PACKAGE_DIR.glob("*.py"))}
    found = [f"{module}:{c}" for module, tree in trees.items() for c in _dataclasses(tree)]
    assert [c.split(": ")[1] for c in found] == ["DataFlowGraph"]
    assert found[0].startswith("dfg.py:")
    assert _dataclasses(ast.parse(
        "@dataclass\n"
        "class Bare:\n"
        "    x: int\n"
        "@dataclass(frozen=True)\n"
        "class Frozen:\n"
        "    x: int\n"
        "@dataclasses.dataclass(slots=True)\n"
        "class Slotted:\n"
        "    x: int\n"
        "class Kept(Record):\n"
        "    __slots__ = ('x',)\n"
    )) == ["2: Bare", "5: Frozen", "8: Slotted"]


def _name(node: ast.AST) -> str | None:
    """The name ``node`` reads, bare or as an attribute."""
    return getattr(node, "id", getattr(node, "attr", None))


def _frozen_records(tree: ast.Module) -> dict[str, bool]:
    """Every class built directly on ``FrozenRecord``, and whether it
    defines a ``cached_property``."""
    return {
        cls.name: any(
            _name(deco) == "cached_property"
            for node in cls.body if isinstance(node, ast.FunctionDef)
            for deco in node.decorator_list
        )
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) and any(_name(b) == "FrozenRecord" for b in cls.bases)
    }


def test_every_frozen_record_keeps_a_cache():
    """A ``FrozenRecord`` keeps its fields in an instance ``__dict__``
    only so that a ``cached_property`` can keep its value beside them;
    a record without a cache is a ``Record`` or a named tuple."""
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(PACKAGE_DIR.glob("*.py"))}
    frozen = {f"{module}:{name}": cached for module, tree in trees.items()
              for name, cached in _frozen_records(tree).items()}
    assert [name for name, cached in frozen.items() if not cached] == []
    assert _frozen_records(ast.parse(
        "class Bare(FrozenRecord):\n"
        "    _fields = ('x',)\n"
        "    def size(self):\n"
        "        return 1\n"
        "class Cached(dfg.FrozenRecord):\n"
        "    @functools.cached_property\n"
        "    def size(self):\n"
        "        return 1\n"
        "class Plain(Record):\n"
        "    __slots__ = ('x',)\n"
    )) == {"Bare": False, "Cached": True}
    assert _frozen_records(trees["scheduler.py"]) == {"Schedule": True}


_LOOPS = (ast.For, ast.AsyncFor, ast.While)
_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _keyword_extrema_in_loops(tree: ast.AST) -> list[str]:
    """``max`` and ``min`` calls that pass a keyword argument and run
    once per iteration, in a ``for`` or ``while`` body or in a
    comprehension, by line."""
    inside = [node for loop in ast.walk(tree) if isinstance(loop, _LOOPS) for node in loop.body]
    inside += [comp for comp in ast.walk(tree) if isinstance(comp, _COMPREHENSIONS)]
    calls = {
        (call.lineno, call.func.id)
        for node in inside for call in ast.walk(node)
        if isinstance(call, ast.Call) and call.keywords
        and getattr(call.func, "id", None) in {"max", "min"}
    }
    return [f"{line}: {name}" for line, name in sorted(calls)]


def test_no_max_or_min_in_a_loop_takes_a_keyword():
    """The per-bit recurrences call ``max`` and ``min`` positionally,
    ``max(map(at, prods)) if prods else 0``: on CPython 3.10-3.12 a
    keyword argument (``default=``, ``key=``) sends the call down the
    slow argument-parsing path, about twice the cost of a bit.  A call
    outside a loop, run once per pass, may keep its keyword."""
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(PACKAGE_DIR.glob("*.py"))}
    found = [f"{module}:{c}" for module, tree in trees.items() for c in _keyword_extrema_in_loops(tree)]
    assert found == []
    assert _keyword_extrema_in_loops(ast.parse(
        "def slow(ops, at, producers):\n"
        "    top = max(at, default=0)\n"
        "    for n in ops:\n"
        "        at[n] = max(map(at.__getitem__, producers[n]), default=0)\n"
        "    while ops:\n"
        "        best = min(ops.pop(), key=at.__getitem__)\n"
        "    return [max(p, default=0) for p in producers]\n"
    )) == ["4: max", "6: min", "7: max"]
    assert _keyword_extrema_in_loops(ast.parse(
        "def fast(ops, at, producers):\n"
        "    top = max(at, default=0)\n"
        "    for n in ops:\n"
        "        prods = producers[n]\n"
        "        at[n] = max(map(at.__getitem__, prods)) if prods else 0\n"
        "    return [max(p) if p else 0 for p in producers]\n"
    )) == []


# The four per-bit recurrences and critical_path's walk, by module: the
# bit view numbers no glue bit, so none of them has a case for glue.
_GLUE_FREE = {
    "timing.py": ("arrival_table", "critical_path"),
    "fragmenter.py": ("alap_table",),
    "scheduler.py": ("_Plan.settle", "_realized_table"),
}


def _functions(tree: ast.Module) -> dict[str, ast.FunctionDef]:
    """Every top-level function and method of ``tree``, by name, a
    method's as ``Class.method``."""
    found = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            found[node.name] = node
        elif isinstance(node, ast.ClassDef):
            found |= {f"{node.name}.{f.name}": f for f in node.body if isinstance(f, ast.FunctionDef)}
    return found


def _glue_reads(tree: ast.Module, names: tuple[str, ...]) -> list[str]:
    """Each read of an attribute ``glue`` inside the functions ``names``
    of ``tree``, by function and line; a name ``tree`` does not define
    is reported as missing."""
    functions = _functions(tree)
    return [f"{name}: missing" for name in names if name not in functions] + [
        f"{name}: {a.lineno}" for name in names if name in functions
        for a in ast.walk(functions[name]) if isinstance(a, ast.Attribute) and a.attr == "glue"
    ]


def test_no_recurrence_reads_glue():
    found = {
        module: _glue_reads(ast.parse((PACKAGE_DIR / module).read_text()), names)
        for module, names in _GLUE_FREE.items()
    }
    assert found == {module: [] for module in _GLUE_FREE}
    assert _glue_reads(ast.parse(
        "def walk(graph):\n"
        "    return [op for op in graph.ops if not op.kind.glue]\n"
        "class Plan:\n"
        "    glue = ()\n"
        "    def settle(self, k):\n"
        "        if self.glue[k]:\n"
        "            return True\n"
        "def other(op):\n"
        "    return op.kind.glue\n"
    ), ("walk", "Plan.settle", "Plan.vet")) == ["Plan.vet: missing", "walk: 2", "Plan.settle: 6"]


_LANE = Lane("A", 4, ("A_0", "A_1"))
_MUX = PortMux("A", 1, 2, 4)
_REGISTER = RegisterBinding(0, "carry", 1, ("carry lane A",), 1)

# Each result record with the text its frozen dataclass printed; the
# bench digest hashes the repr of lanes, registers and port muxes.
RESULT_RECORDS = [
    (SourceSpan(3, 17), "SourceSpan(line=3, column=17)"),
    (
        Diagnostic("undefined reference B", "X", SourceSpan(3, 17)),
        "Diagnostic(message='undefined reference B', where='X', "
        "span=SourceSpan(line=3, column=17))",
    ),
    (CriticalPath(("X", "Z"), 8), "CriticalPath(ops=('X', 'Z'), time=8)"),
    (
        Mobility(2, {"X": 0}, (1, 1), (2, 3)),
        "Mobility(n_bits=2, base={'X': 0}, asap=(1, 1), alap=(2, 3))",
    ),
    (_LANE, "Lane(parent='A', width=4, fragment_ids=('A_0', 'A_1'))"),
    (_MUX, "PortMux(lane='A', port=1, fan_in=2, width=4)"),
    (
        _REGISTER,
        "RegisterBinding(index=0, kind='carry', width=1, "
        "signals=('carry lane A',), fan_in=1)",
    ),
    (
        CostReport(
            (_LANE,), (("P", 8),), {1: 1}, {1: ("carry(A_0)",)}, 1,
            (_REGISTER,), (_MUX,), {"A": 2}, {1: 2, 2: 2},
        ),
        "CostReport(lanes=(Lane(parent='A', width=4, fragment_ids=('A_0', 'A_1')),), "
        "cores=(('P', 8),), stored_per_boundary={1: 1}, "
        "stored_sets={1: ('carry(A_0)',)}, max_stored=1, "
        "registers=(RegisterBinding(index=0, kind='carry', width=1, "
        "signals=('carry lane A',), fan_in=1),), "
        "port_muxes=(PortMux(lane='A', port=1, fan_in=2, width=4),), "
        "carry_fan_in={'A': 2}, loads={1: 2, 2: 2})",
    ),
    (
        CycleTrace(1, ("A_0",), ("carry(A_0)",)),
        "CycleTrace(cycle=1, executed=('A_0',), latched=('carry(A_0)',))",
    ),
    (
        EquivResult("random", 3, False, {"a": 5}, ("Y", 1, 2)),
        "EquivResult(strategy='random', checked=3, equivalent=False, "
        "counterexample={'a': 5}, mismatch=('Y', 1, 2))",
    ),
]


def _hashable(value) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


def test_result_records_print_as_before_and_stay_immutable_values():
    """The ten result records keep their dataclass text, refuse a field
    write, hash by value when every field does, and keep their
    defaults and truth."""
    for record, text in RESULT_RECORDS:
        assert repr(record) == text
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        if all(map(_hashable, record)):
            assert hash(record) == hash(type(record)(*record))
    assert len({type(r) for r, _ in RESULT_RECORDS}) == 10
    assert _REGISTER.index == 0  # the field shadows tuple.index
    assert Diagnostic("m") == Diagnostic("m", "", None)
    assert str(Diagnostic("m", "X", SourceSpan(3, 17))) == "3:17: X: m"
    assert EquivResult("exhaustive", 8, True) == EquivResult("exhaustive", 8, True, None, None)
    assert EquivResult("exhaustive", 8, True)
    assert not EquivResult("random", 3, False, {"a": 5}, ("Y", 1, 2))
    assert not EquivResult("exhaustive", 0, False)


_A = Operand(InputRef("a"), 3, 0)

# Each graph record with the text its dataclass printed.
GRAPH_RECORDS = [
    (InputRef("a"), "InputRef(name='a')"),
    (ResultRef("X"), "ResultRef(op='X')"),
    (CarryRef("X"), "CarryRef(op='X')"),
    (Const("0101"), "Const(bits='0101')"),
    (
        Concat((_A, Operand(Const("1"), 0, 0))),
        "Concat(parts=(Operand(source=InputRef(name='a'), hi=3, lo=0), "
        "Operand(source=Const(bits='1'), hi=0, lo=0)))",
    ),
    (Operand(ResultRef("X"), 3, 1), "Operand(source=ResultRef(op='X'), hi=3, lo=1)"),
    (
        Operation("Y", OpKind.ADD, 4, False, (_A, Operand(ResultRef("X"), 3, 0)), CarryRef("X")),
        "Operation(id='Y', kind=<OpKind.ADD: 1>, width=4, signed=False, "
        "operands=(Operand(source=InputRef(name='a'), hi=3, lo=0), "
        "Operand(source=ResultRef(op='X'), hi=3, lo=0)), carry_in=CarryRef(op='X'))",
    ),
    (InputPort("a", 4, True), "InputPort(name='a', width=4, signed=True)"),
    (
        Fragment("X", "X0", 0, 2, 1, 2),
        "Fragment(parent='X', id='X0', lo=0, hi=2, asap_cycle=1, alap_cycle=2)",
    ),
]


def test_graph_records_print_compare_and_hash_as_their_dataclasses_did():
    """The nine graph records on ``Record`` keep their dataclass text,
    equal only a record of their own type with equal fields, hash their
    field tuple, take keywords and the old default, and keep no
    ``__dict__``."""
    for record, text in GRAPH_RECORDS:
        fields = tuple(getattr(record, name) for name in record._fields)
        assert repr(record) == text
        assert record == type(record)(*fields)
        assert hash(record) == hash(fields)
        assert type(record)(**dict(zip(record._fields, fields))) == record
        assert not hasattr(record, "__dict__")
    assert len({type(r) for r, _ in GRAPH_RECORDS}) == 9
    assert ResultRef("a") != InputRef("a")
    assert CarryRef("x") != ResultRef("x")
    assert len({ResultRef("a"), InputRef("a"), ResultRef("a")}) == 2
    assert Operand(InputRef("a"), 3, 0) != Operand(InputRef("a"), 3, 1)
    assert ResultRef("a") != ("a",)
    op = Operation(id="X", kind=OpKind.NOT, width=4, signed=False, operands=(_A,))
    assert op.carry_in is None


def test_bit_view_and_schedule_refuse_writes_and_keep_their_caches():
    """``BitView`` and ``Schedule`` refuse any assignment or deletion as
    their frozen dataclasses did, print and compare as before and raise
    TypeError on ``hash`` (a dict field).  A schedule still caches
    ``held`` in its ``__dict__`` and gets a fresh ``fragments``; a view,
    a named tuple, caches nothing."""
    graph = parse("design d; input a : u2; X: add u2 = a + a; output X;")
    sched = Schedule(graph=graph, lam=2, n_bits=2, cycle_of={"X": 1})
    view = BitView({"X": 0}, ("X",), ((), (0,)), frozenset())
    assert repr(view) == (
        "BitView(base={'X': 0}, carried=('X',), producers=((), (0,)), msb_reads=frozenset())"
    )
    assert repr(sched) == (
        "Schedule(graph=DataFlowGraph(name='d', inputs=(InputPort(name='a', width=2, "
        "signed=False),), ops=(Operation(id='X', kind=<OpKind.ADD: 1>, width=2, "
        "signed=False, operands=(Operand(source=InputRef(name='a'), hi=1, lo=0), "
        "Operand(source=InputRef(name='a'), hi=1, lo=0)), carry_in=None),), "
        "outputs=('X',)), lam=2, n_bits=2, cycle_of={'X': 1}, fragments={})"
    )
    assert sched.fragments == {}
    assert sched.fragments is not Schedule(graph, 2, 2, {"X": 1}).fragments
    for frozen in (view, sched):
        for name in (*frozen._fields, "other"):
            with pytest.raises(AttributeError):
                setattr(frozen, name, None)
            if name in frozen._fields:
                with pytest.raises(AttributeError):
                    delattr(frozen, name)
        with pytest.raises(TypeError):
            hash(frozen)
    assert sched.lam == 2 and sched.cycle_of == {"X": 1}
    assert view == BitView({"X": 0}, ("X",), ((), (0,)), frozenset())
    assert view != BitView({"X": 0}, (), ((), (0,)), frozenset())
    assert view != BitView({"X": 0}, ("X",), ((), (0,)), frozenset({1}))
    assert sched == Schedule(graph, 2, 2, {"X": 1}, {})
    assert sched != Schedule(graph, 3, 2, {"X": 1}, {})
    assert not hasattr(view, "__dict__")
    assert sched.held is sched.held == {1: []}
    assert vars(sched)["held"] is sched.held
