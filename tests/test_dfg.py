"""Structural IR behavior: lookups, bit resolution, validation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitfrag.dfg import (
    CarryBit,
    CarryRef,
    Concat,
    Const,
    DataFlowGraph,
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
    operand_slices,
    source_width,
    validate,
)
from bitfrag.dsl import parse
from bitfrag.fragmenter import InfeasibleError, analyze, bit_alap, bit_asap, fragment
from bitfrag.kernel import extract_kernel
from bitfrag.scheduler import ScheduleError, realized_slots, schedule
from bitfrag.timing import bit_arrivals, estimate_cycle
from conftest import (
    TIE_SOURCE,
    ConstBit,
    feasible_pipeline,
    keyed_view,
    load_design,
    operand_bits,
    random_full_design,
    slice_bits,
)


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
    inputs, ops = {p.name for p in g.inputs}, {op.id for op in g.ops}
    assert "A" in inputs and "A" not in ops
    assert "C" in ops and "C" not in inputs
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


def test_operand_slices_slice_and_zext():
    opnd = Operand(InputRef("A"), 2, 1)
    # The bits stop at the slice's width; a wider consumer pads with zeros.
    assert operand_slices(opnd) == [opnd]
    assert slice_bits(operand_slices(opnd)) == [InputBit("A", 1), InputBit("A", 2)]


def test_operand_slices_const_msb_first():
    opnd = Operand(Const("10"), 1, 0)
    assert operand_slices(opnd) == [opnd]
    assert slice_bits(operand_slices(opnd)) == [ConstBit(0), ConstBit(1)]
    # A partial slice of a constant is cut to its own bits.
    assert operand_slices(Operand(Const("0110"), 2, 1)) == [Operand(Const("11"), 1, 0)]


def test_operand_slices_concat():
    cat = Concat((Operand(InputRef("A"), 3, 2), Operand(InputRef("B"), 1, 0)))
    opnd = Operand(cat, 3, 0)
    # Parts are MSB first; slices run from the LSB end.
    assert operand_slices(opnd) == [
        Operand(InputRef("B"), 1, 0),
        Operand(InputRef("A"), 3, 2),
    ]
    assert slice_bits(operand_slices(opnd)) == [
        InputBit("B", 0),
        InputBit("B", 1),
        InputBit("A", 2),
        InputBit("A", 3),
    ]


_SOURCES = st.sampled_from(
    [(InputRef("A"), 8), (InputRef("B"), 3), (ResultRef("C"), 5), (ResultRef("D"), 1)]
) | st.text("01", min_size=1, max_size=6).map(lambda bits: (Const(bits), len(bits)))


def _slices_of(source_width: tuple) -> st.SearchStrategy:
    """Every slice of a source: single bits, partial and whole ranges."""
    source, width = source_width
    return st.integers(0, width - 1).flatmap(
        lambda lo: st.integers(lo, width - 1).map(lambda hi: Operand(source, hi, lo))
    )


def _concats(parts: st.SearchStrategy) -> st.SearchStrategy:
    return st.lists(parts, min_size=1, max_size=4).map(
        lambda ps: (Concat(tuple(ps)), sum(p.width for p in ps))
    ).flatmap(_slices_of)


_OPERANDS = st.recursive(_SOURCES.flatmap(_slices_of), _concats, max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(_OPERANDS)
def test_operand_slices_expand_to_the_per_bit_resolution(opnd):
    """Nested concats, constant slices, partial slices of concats and
    single-bit parts resolve to flat slices whose bits, lowest first,
    are exactly those the per-bit oracle gives."""
    slices = operand_slices(opnd)
    assert slice_bits(slices) == operand_bits(opnd)
    for s in slices:
        assert not isinstance(s.source, Concat)
        if isinstance(s.source, Const):
            assert (s.hi, s.lo) == (s.source.width - 1, 0)


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
    elif case == "tie":
        graph = parse(TIE_SOURCE)
    else:
        graph = load_design(case)
    pipe = feasible_pipeline(graph, 3)
    return [graph, pipe.kernel, pipe.transformed]


@pytest.mark.parametrize(
    "case",
    ["sec2", "fig3", "elliptic", "diffeq", "tie"] + [f"seed{s}" for s in range(0, 200, 10)],
)
def test_bit_view_is_built_once_and_matches_bit_deps(case):
    for g in _view_graphs(case):
        view = g.bit_view
        assert g.bit_view is view
        ref = keyed_view(g)
        size = len(view.producers)
        data = view.keys[:size]
        assert list(data) == list(ref.producers)

        # Producers: op bits only, a carry standing for its op's MSB.
        for n, key in enumerate(data):
            prods = [view.keys[p] for p in view.producers[n]]
            assert len(set(prods)) == len(prods)
            assert set(prods) == ref.producers[key]

        # Producers ascend, except that a carry-in's MSB goes last unless
        # the bit also reads that MSB as data: critical_path's tie rule.
        number = {key: n for n, key in enumerate(data)}
        deps = bit_deps(g)
        for n, key in enumerate(data):
            expected = sorted(number[r] for r in deps[key] if isinstance(r, OpBit))
            for r in deps[key]:
                msb = number[(r.op, g.op(r.op).width - 1)] if isinstance(r, CarryBit) else None
                if msb is not None and msb not in expected:
                    expected.append(msb)
            assert view.producers[n] == tuple(expected)
        inverse ={key: [] for key in ref.producers}
        for key, producers in ref.producers.items():
            for p in producers:
                inverse[p].append(key)
        assert {
            data[n]: sorted(view.keys[c] for c in users)
            for n, users in enumerate(view.consumers)
        } == {k: sorted(v) for k, v in inverse.items()}

        # Reads: every non-glue bit's, through glue; a glue bit reads none.
        for n, key in enumerate(data):
            reads = view.reads[n]
            if key not in ref.reads:
                assert reads == ()
                continue
            refs = [view.ref(r) for r in reads]
            assert len(set(refs)) == len(refs)
            for r in refs:
                assert isinstance(r, (OpBit, CarryBit))
                assert not g.op(r.op).kind.glue
            assert set(refs) == ref.reads[key]
            # A read's key names its producing op first, a carry's too.
            assert [view.keys[r][0] for r in reads] == [r.op for r in refs]

        # Reads ascend, so they list data bits before carries, each in
        # definition order and then by bit; every carry read has a number.
        assert all(list(reads) == sorted(set(reads)) for reads in view.reads)
        assert set(view.keys[size:]) == {
            r for reads in ref.reads.values() for r in reads if isinstance(r, CarryBit)
        }


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([2, 3, 4]))
def test_bits_are_numbered_in_definition_order_and_passes_keep_it(seed, lam):
    """Bit ``i`` of an op is ``base[op] + i`` in definition order, every
    carry comes after every data bit, and the keyed tables of the passes
    list their keys in number order: ``critical_path``'s "earliest bit
    in definition order" tie rule rests on it."""
    design = random_full_design(seed)
    kernel, _ = extract_kernel(design)
    graphs = [design, kernel]
    n_bits = estimate_cycle(kernel, lam)
    try:
        fragments, transformed = fragment(kernel, analyze(kernel, n_bits, lam))
        sched = schedule(transformed, fragments, lam, n_bits)
    except (InfeasibleError, ScheduleError):
        sched = None
    else:
        graphs.append(transformed)
    for g in graphs:
        view = g.bit_view
        size = len(view.producers)
        order = [(op.id, i) for op in g.ops for i in range(op.width)]
        assert list(view.keys[:size]) == order
        assert view.base == {op.id: order.index((op.id, 0)) for op in g.ops}
        carries = view.keys[size:]
        assert all(isinstance(k, CarryBit) for k in carries)
        position = {op.id: k for k, op in enumerate(g.ops)}
        assert [position[k.op] for k in carries] == sorted(position[k.op] for k in carries)
        if g is design:
            continue
        assert list(bit_arrivals(g)) == order
        assert list(bit_asap(g, n_bits)) == order
        try:
            assert list(bit_alap(g, n_bits, lam)) == order
        except InfeasibleError:
            pass
    if sched is not None:
        view = transformed.bit_view
        realized = realized_slots(transformed, n_bits, sched.cycle_of)[0]
        assert list(realized) == list(view.keys[: len(view.producers)])


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
    g = DataFlowGraph("bad", (a, InputPort("A", 2, False)), (), ())
    assert _diag_messages(g) == "A: duplicate name"


def test_validate_rejects_a_zero_width_input():
    g = DataFlowGraph("bad", (InputPort("A", 0, False),), (), ())
    assert _diag_messages(g) == "A: width must be positive, got 0"


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
