"""Structural IR behavior: lookups, bit resolution, validation."""

import pytest

from bitfrag.dfg import (
    CarryBit,
    CarryRef,
    Concat,
    Const,
    ConstBit,
    DataFlowGraph,
    GLUE_KINDS,
    InputBit,
    InputPort,
    InputRef,
    OpBit,
    Operand,
    Operation,
    OpKind,
    ResultRef,
    ValidationError,
    bit_deps,
    check,
    operand_bits,
    source_width,
    validate,
)
from conftest import feasible_pipeline, load_design, random_full_design


def _tiny() -> DataFlowGraph:
    c = Operation(
        "C",
        OpKind.ADD,
        4,
        False,
        (Operand(InputRef("A"), 3, 0), Operand(InputRef("B"), 3, 0)),
    )
    d = Operation(
        "D",
        OpKind.ADD,
        4,
        False,
        (Operand(ResultRef("C"), 3, 0), Operand(Const("01"), 1, 0)),
        CarryRef("C"),
    )
    return check(
        DataFlowGraph(
            "tiny",
            (InputPort("A", 4, False), InputPort("B", 4, False)),
            (c, d),
            ("D",),
        )
    )


def test_lookup_and_widths():
    g = _tiny()
    assert g.is_input("A") and not g.is_op("A")
    assert g.is_op("C") and not g.is_input("C")
    assert g.ref_width("A") == 4
    assert g.ref_width("D") == 4
    assert g.op("D").carry_in == CarryRef("C")


def test_source_widths():
    g = _tiny()
    assert source_width(g, InputRef("A")) == 4
    assert source_width(g, ResultRef("C")) == 4
    assert source_width(g, Const("01")) == 2
    cat = Concat((Operand(InputRef("A"), 3, 0), Operand(Const("1"), 0, 0)))
    assert source_width(g, cat) == 5


def test_operand_bits_slice_and_zext():
    opnd = Operand(InputRef("A"), 2, 1)
    # The bits stop at the slice's width; a wider consumer pads with zeros.
    assert operand_bits(opnd) == [InputBit("A", 1), InputBit("A", 2)]


def test_operand_bits_const_msb_first():
    opnd = Operand(Const("10"), 1, 0)
    assert operand_bits(opnd) == [ConstBit(0), ConstBit(1)]


def test_operand_bits_carry_and_concat():
    cat = Concat((Operand(InputRef("A"), 3, 2), Operand(InputRef("B"), 1, 0)))
    opnd = Operand(cat, 3, 0)
    # Parts are MSB first; indexing runs from the LSB end.
    assert operand_bits(opnd) == [
        InputBit("B", 0),
        InputBit("B", 1),
        InputBit("A", 2),
        InputBit("A", 3),
    ]


def test_bit_deps_ripple_and_carry():
    g = _tiny()
    deps = bit_deps(g)
    assert deps[("C", 0)] == frozenset({InputBit("A", 0), InputBit("B", 0)})
    assert deps[("C", 1)] == frozenset(
        {InputBit("A", 1), InputBit("B", 1), OpBit("C", 0)}
    )
    # Constant operand bits drop out; the chained carry feeds bit 0.
    assert deps[("D", 0)] == frozenset({OpBit("C", 0), CarryBit("C")})
    assert deps[("D", 2)] == frozenset({OpBit("C", 2), OpBit("D", 1)})


def test_bit_deps_glue_and_opaque():
    sel = Operation(
        "S",
        OpKind.SELECT,
        2,
        False,
        (
            Operand(InputRef("A"), 0, 0),
            Operand(InputRef("A"), 1, 0),
            Operand(InputRef("B"), 1, 0),
        ),
    )
    inv = Operation("N", OpKind.NOT, 2, False, (Operand(ResultRef("S"), 1, 0),))
    core = Operation(
        "M",
        OpKind.MULT_CORE,
        4,
        False,
        (Operand(InputRef("A"), 1, 0), Operand(InputRef("B"), 1, 0)),
    )
    g = check(
        DataFlowGraph(
            "glue",
            (InputPort("A", 2, False), InputPort("B", 2, False)),
            (sel, inv, core),
            ("N", "M"),
        )
    )
    deps = bit_deps(g)
    assert deps[("S", 1)] == frozenset(
        {InputBit("A", 0), InputBit("A", 1), InputBit("B", 1)}
    )
    assert deps[("N", 0)] == frozenset({OpBit("S", 0)})
    # Opaque kinds: every result bit sees every operand bit.
    whole = frozenset(
        {InputBit("A", 0), InputBit("A", 1), InputBit("B", 0), InputBit("B", 1)}
    )
    assert deps[("M", 0)] == whole
    assert deps[("M", 3)] == whole


def _view_graphs(case: str) -> list[DataFlowGraph]:
    """A design, its kernel, and its fragmented kernel."""
    if case.startswith("seed"):
        graph = random_full_design(int(case[4:]))
    else:
        graph = load_design(case)
    pipe = feasible_pipeline(graph, 3)
    return [graph, pipe.kernel, pipe.transformed]


@pytest.mark.parametrize(
    "case",
    ["sec2", "fig3", "elliptic", "diffeq"] + [f"seed{s}" for s in range(0, 200, 10)],
)
def test_bit_view_is_built_once_and_matches_bit_deps(case):
    for g in _view_graphs(case):
        view = g.bit_view
        assert g.bit_view is view
        deps = bit_deps(g)

        # Producers: op bits only, a carry standing for its op's MSB.
        for key, refs in deps.items():
            assert len(set(view.producers[key])) == len(view.producers[key])
            assert set(view.producers[key]) == {
                (r.op, g.op(r.op).width - 1) if isinstance(r, CarryBit) else (r.op, r.bit)
                for r in refs
                if isinstance(r, (OpBit, CarryBit))
            }
        inverse = {key: [] for key in deps}
        for key, producers in view.producers.items():
            for p in producers:
                inverse[p].append(key)
        assert {k: sorted(v) for k, v in view.consumers.items()} == {
            k: sorted(v) for k, v in inverse.items()
        }

        def through_glue(ref) -> set:
            if isinstance(ref, OpBit) and g.op(ref.op).kind in GLUE_KINDS:
                return set().union(*(through_glue(r) for r in deps[(ref.op, ref.bit)]))
            return {ref} if isinstance(ref, (OpBit, CarryBit)) else set()

        units = [op for op in g.ops if op.kind not in GLUE_KINDS]
        assert set(view.reads) == {(op.id, i) for op in units for i in range(op.width)}
        for (op_id, i), refs in view.reads.items():
            assert len(set(refs)) == len(refs)
            for r in refs:
                assert isinstance(r, (OpBit, CarryBit))
                assert g.op(r.op).kind not in GLUE_KINDS
            ripple = {OpBit(op_id, b) for b in range(g.op(op_id).width)}
            assert set(refs) == set().union(*(through_glue(r) for r in deps[(op_id, i)])) - ripple
            for r in refs:  # the slot of a read, a carry at its op's MSB
                assert view.slot[r] == (
                    (r.op, g.op(r.op).width - 1) if isinstance(r, CarryBit) else (r.op, r.bit)
                )

        # slot lists every read once, data bits before carries, each in
        # definition order and then by bit.
        position = {op.id: k for k, op in enumerate(g.ops)}
        assert set(view.slot) == {r for refs in view.reads.values() for r in refs}
        assert list(view.slot) == sorted(
            view.slot,
            key=lambda r: (
                (1, position[r.op], 0) if isinstance(r, CarryBit) else (0, position[r.op], r.bit)
            ),
        )


def _diag_messages(graph) -> str:
    return "; ".join(str(d) for d in validate(graph))


def test_validate_reports_undefined_and_forward_refs():
    op = Operation(
        "X",
        OpKind.ADD,
        2,
        False,
        (Operand(ResultRef("Y"), 1, 0), Operand(ResultRef("X"), 1, 0)),
    )
    y = Operation(
        "Y", OpKind.ADD, 2, False,
        (Operand(ResultRef("X"), 1, 0), Operand(ResultRef("X"), 1, 0)),
    )
    g = DataFlowGraph("bad", (), (op, y), ("X",))
    msgs = _diag_messages(g)
    assert "creates a cycle" in msgs


def test_validate_rejects_bad_slices_and_arity():
    op = Operation(
        "X", OpKind.ADD, 2, False, (Operand(InputRef("A"), 5, 0),)
    )
    g = DataFlowGraph("bad", (InputPort("A", 4, False),), (op,), ("X",))
    msgs = _diag_messages(g)
    assert "out of range" in msgs
    assert "takes 2 operands" in msgs


def test_validate_rejects_carry_misuse():
    bad_kind = Operation(
        "N", OpKind.NOT, 2, False, (Operand(InputRef("A"), 1, 0),), 1
    )
    bad_const = Operation(
        "X",
        OpKind.ADD,
        2,
        False,
        (Operand(InputRef("A"), 1, 0), Operand(InputRef("A"), 1, 0)),
        2,
    )
    g = DataFlowGraph("bad", (InputPort("A", 4, False),), (bad_kind, bad_const), ())
    msgs = _diag_messages(g)
    assert "only add may take a carry" in msgs
    assert "carry constant must be 0 or 1" in msgs


def test_validate_rejects_carry_from_non_add():
    inv = Operation("N", OpKind.NOT, 2, False, (Operand(InputRef("A"), 1, 0),))
    add = Operation(
        "X",
        OpKind.ADD,
        2,
        False,
        (Operand(InputRef("A"), 1, 0), Operand(InputRef("A"), 1, 0)),
        CarryRef("N"),
    )
    g = DataFlowGraph("bad", (InputPort("A", 4, False),), (inv, add), ("X",))
    assert "carry source N is not an add" in _diag_messages(g)


def test_validate_rejects_select_condition_width():
    sel = Operation(
        "S",
        OpKind.SELECT,
        2,
        False,
        (
            Operand(InputRef("A"), 1, 0),
            Operand(InputRef("A"), 1, 0),
            Operand(InputRef("A"), 1, 0),
        ),
    )
    g = DataFlowGraph("bad", (InputPort("A", 4, False),), (sel,), ("S",))
    assert "select condition must be 1 bit" in _diag_messages(g)


def test_validate_rejects_duplicates_and_bad_outputs():
    a = InputPort("A", 4, False)
    dup = Operation(
        "A", OpKind.ADD, 2, False,
        (Operand(InputRef("A"), 1, 0), Operand(InputRef("A"), 1, 0)),
    )
    g = DataFlowGraph("bad", (a,), (dup,), ("ghost",))
    msgs = _diag_messages(g)
    assert "duplicate name" in msgs
    assert "undefined reference ghost" in msgs


def test_validate_rejects_malformed_const():
    op = Operation(
        "X", OpKind.ADD, 2, False,
        (Operand(Const("0x1"), 2, 0), Operand(Const(""), 0, 0)),
    )
    g = DataFlowGraph("bad", (), (op,), ("X",))
    assert "malformed constant" in _diag_messages(g)


def test_check_raises_with_diagnostics():
    op = Operation(
        "X", OpKind.ADD, 0, False,
        (Operand(InputRef("A"), 1, 0), Operand(InputRef("A"), 1, 0)),
    )
    g = DataFlowGraph("bad", (InputPort("A", 4, False),), (op,), ("X",))
    with pytest.raises(ValidationError) as err:
        check(g)
    assert any("width must be positive" in str(d) for d in err.value.diagnostics)
    assert validate(_tiny()) == []
