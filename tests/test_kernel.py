"""Lowering onto the additive kernel: structure and exact semantics."""

import itertools

import pytest

from bitfrag import extract_kernel, parse
from bitfrag.dfg import Concat, OpKind
from bitfrag.dsl import emit
from bitfrag.simulator import check_equiv, eval_dfg


def _kernel_of(source: str):
    graph = parse(source)
    kernel, trace = extract_kernel(graph)
    return graph, kernel, trace


def _design(body: str, *inputs: str) -> str:
    decls = "\n".join(f"input {d};" for d in inputs)
    return f"design d;\n{decls}\n{body}\noutput R;\n"


def test_kernel_contains_only_kernel_kinds_unsigned(mixed):
    kernel, _ = extract_kernel(mixed)
    for op in kernel.ops:
        assert op.kind.kernel
        assert not op.signed


def test_untouched_ops_have_no_trace_entry():
    _, kernel, trace = _kernel_of(_design("R: add u4 = a + b;", "a : u4", "b : u4"))
    assert trace == {}
    assert [op.id for op in kernel.ops] == ["R"]


def test_signed_add_relabels_in_place():
    g, kernel, trace = _kernel_of(_design("R: add s4 = a + b;", "a : s4", "b : s4"))
    assert trace == {"R": ("R",)}
    assert not kernel.op("R").signed
    assert check_equiv(g, kernel).equivalent


def test_sub_lowering_structure_and_semantics():
    g, kernel, trace = _kernel_of(_design("R: sub u4 = a - b;", "a : u4", "b : u4"))
    assert trace == {"R": ("R_not", "R")}
    assert kernel.op("R_not").kind is OpKind.NOT
    r = kernel.op("R")
    assert r.kind is OpKind.ADD and r.carry_in == 1
    eq = check_equiv(g, kernel)
    assert eq.strategy == "exhaustive" and eq.equivalent


@pytest.mark.parametrize(
    "body, inputs",
    [
        ("R: lt u1 = a < b;", ("a : u4", "b : u4")),
        ("R: lt u1 = a < b;", ("a : s3", "b : s3")),
        ("R: lt u1 = a < b;", ("a : s4", "b : s2")),
        ("R: lt u4 = a < b;", ("a : u4", "b : u4")),
        ("R: lt u2 = a < b;", ("a : s3", "b : s4")),
    ],
)
def test_compare_lowering_exhaustive(body, inputs):
    g, kernel, _ = _kernel_of(_design(body, *inputs))
    eq = check_equiv(g, kernel)
    assert eq.strategy == "exhaustive" and eq.equivalent


def test_compare_lowering_exposes_borrow_in_wider_add():
    _, kernel, trace = _kernel_of(_design("R: lt u1 = a < b;", "a : u4", "b : u4"))
    # The comparison rides a 5-bit subtract whose top bit is the
    # greater-or-equal flag; no carry-out operand is needed.
    widths = {op.id: op.width for op in kernel.ops}
    adds = [op for op in kernel.ops if op.kind is OpKind.ADD]
    assert len(adds) == 1 and adds[0].width == 5
    assert widths["R"] == 1
    assert kernel.op("R").kind.glue


@pytest.mark.parametrize(
    "body, inputs",
    [
        ("R: max u3 = a, b;", ("a : u3", "b : u3")),
        ("R: max u3 = a, b;", ("a : s3", "b : s3")),
        ("R: min u3 = a, b;", ("a : u3", "b : u3")),
        ("R: min u3 = a, b;", ("a : s3", "b : s3")),
        ("R: max u4 = a, b;", ("a : u4", "b : s3")),
    ],
)
def test_minmax_lowering_exhaustive(body, inputs):
    g, kernel, _ = _kernel_of(_design(body, *inputs))
    eq = check_equiv(g, kernel)
    assert eq.strategy == "exhaustive" and eq.equivalent
    sel = kernel.op("R")
    assert sel.kind is OpKind.SELECT


_SIGNED_MULTS = [
    ("s4", "s2", "s2", "b"),
    ("s6", "s3", "s3", "b"),
    ("s7", "s4", "s3", "b"),
    ("s7", "s3", "s4", "b"),
    ("s8", "s4", "s4", "b"),
    ("s3", "s3", "s3", "b"),
    # Wider than the natural product: the sign bit must replicate.
    ("s9", "s4", "s3", "b"),
    ("s10", "s3", "s4", "b"),
    ("s8", "s2", "s2", "b"),
    # 1-bit factors: -1 or 0.
    ("s2", "s1", "s1", "b"),
    ("s4", "s1", "s3", "b"),
    ("s5", "s3", "s1", "b"),
    # Narrower than a factor: the core reads it as it is.
    ("s2", "s4", "s4", "b"),
    ("s4", "s3", "s4", "b"),
    # A concat factor is extended through a pass-through select.
    ("s6", "s1", "s3", "{b, b[2:1]}"),
]


@pytest.mark.parametrize(
    "result, xa, xb, factor",
    _SIGNED_MULTS,
    ids=["-".join(case[:3]) + ("" if case[3] == "b" else "-concat") for case in _SIGNED_MULTS],
)
def test_signed_mult_lowering_exhaustive(result, xa, xb, factor):
    g, kernel, trace = _kernel_of(
        _design(f"R: mult {result} = a * {factor};", f"a : {xa}", f"b : {xb}")
    )
    eq = check_equiv(g, kernel)
    assert eq.strategy == "exhaustive" and eq.equivalent
    op = g.op("R")
    cores = [k for k in kernel.ops if k.kind is OpKind.MULT_CORE]
    assert [k.id for k in cores] == ["R"] and trace["R"][-1] == "R"
    assert cores[0].width == op.width
    assert [o.width for o in cores[0].operands] == [max(op.width, o.width) for o in op.operands]
    # A factor at least as wide as the result is read as it is.
    for read, given in zip(cores[0].operands, op.operands):
        assert read == given or given.width < op.width
    # Besides the core, only pass-through selects of a concat factor.
    for k in kernel.ops[:-1]:
        assert k.kind is OpKind.SELECT and isinstance(k.operands[1].source, Concat)


def test_signed_mult_core_width():
    _, kernel, trace = _kernel_of(_design("R: mult s7 = a * b;", "a : s4", "b : s3"))
    assert trace == {"R": ("R",)}
    core = kernel.op("R")
    # One core of the result width over both factors sign-extended to it.
    assert core.kind is OpKind.MULT_CORE and core.width == 7
    assert [o.width for o in core.operands] == [7, 7]


@pytest.mark.parametrize(
    "body, inputs",
    [
        ("R: mult s2 = a * b;", ("a : s1", "b : s1")),
        ("R: mult s9 = a * b;", ("a : s4", "b : s3")),
        ("R: mult s4 = a * b;", ("a : s3", "b : s4")),
        ("R: mult s6 = a * {b, b[2:1]};", ("a : s1", "b : s3")),
        ("R: mult s5 = {a, b} * const(101);", ("a : s1", "b : u2")),
    ],
    ids=["one-bit", "wide", "truncating", "concat", "concat-const"],
)
def test_signed_mult_kernel_round_trips(body, inputs):
    g, kernel, _ = _kernel_of(_design(body, *inputs))
    again = parse(emit(kernel))
    assert again == kernel and check_equiv(g, again).equivalent


def test_unsigned_core_passes_through():
    g, kernel, trace = _kernel_of(_design("R: mult u8 = a * b;", "a : u4", "b : u4"))
    assert trace == {}
    assert kernel.op("R").kind is OpKind.MULT_CORE
    eq = check_equiv(g, kernel)
    assert eq.strategy == "exhaustive" and eq.equivalent


def test_final_op_keeps_original_id(mixed):
    kernel, trace = extract_kernel(mixed)
    op_ids = {op.id for op in kernel.ops}
    for original, new_ids in trace.items():
        assert new_ids[-1] == original
        assert original in op_ids
    # Outputs keep resolving after lowering.
    for name in mixed.outputs:
        assert name in op_ids


def test_mixed_design_lowering_census(mixed):
    kernel, _ = extract_kernel(mixed)
    kinds = {op.id: op.kind for op in kernel.ops}
    assert len(kernel.ops) == 10
    assert kinds["P"] is OpKind.MULT_CORE
    assert kinds["Q"] is OpKind.ADD
    assert kinds["R_not"] is OpKind.NOT and kinds["R"] is OpKind.ADD
    assert kinds["L_sum"] is OpKind.ADD and kernel.op("L_sum").width == 9
    assert check_equiv(mixed, kernel).equivalent


def test_lowering_of_whole_mixed_design_random_vectors(mixed):
    kernel, _ = extract_kernel(mixed)
    eq = check_equiv(mixed, kernel)
    assert eq.checked == 1000 and eq.equivalent


@pytest.mark.parametrize(
    "body, inputs, selects",
    [
        ("R: lt u1 = {a, b} < c;", ("a : u2", "b : u2", "c : u4"), ["R_a"]),
        ("R: max u4 = c, {a, b};", ("a : u2", "b : u2", "c : u4"), ["R_b"]),
        ("R: min u4 = {a, b}, {c, a};", ("a : u2", "b : u2", "c : u2"), ["R_a", "R_b"]),
        ("R: mult s8 = {a, b} * c;", ("a : u2", "b : s3", "c : s4"), ["R_a"]),
    ],
    ids=["lt", "max", "min", "signed-mult"],
)
def test_concat_operand_lowers_through_a_pass_through_select(body, inputs, selects):
    """A concat cannot be sub-sliced in the surface syntax, so the
    lowering first copies it into a select that it can slice."""
    g, kernel, trace = _kernel_of(_design(body, *inputs))
    for sid in selects:
        keep = kernel.op(sid)
        assert sid in trace["R"]
        assert keep.kind is OpKind.SELECT
        assert isinstance(keep.operands[1].source, Concat)
    assert parse(emit(kernel)) == kernel
    eq = check_equiv(g, kernel)
    assert eq.strategy == "exhaustive" and eq.equivalent
    ports = g.inputs
    for combo in itertools.product(*(range(1 << p.width) for p in ports)):
        vector = {p.name: v for p, v in zip(ports, combo)}
        assert eval_dfg(g, vector) == eval_dfg(kernel, vector)
