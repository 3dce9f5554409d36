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
    Diagnostic,
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
    validate,
)
from bitfrag.dsl import parse
from bitfrag.fragmenter import (
    InfeasibleError,
    analyze,
    apply_runs,
    bucket_runs,
    op_runs,
    whole_runs,
)
from bitfrag.kernel import extract_kernel
from bitfrag.scheduler import ScheduleError, schedule_kernel
from bitfrag.timing import bit_arrivals, estimate_cycle
from conftest import (
    DESIGN_MAKERS,
    TIE_SOURCE,
    ConstBit,
    bit_alap,
    bit_asap,
    carried_add_design,
    deep_settings,
    eager_keys,
    feasible_pipeline,
    keyed_view,
    load_design,
    operand_bits,
    random_full_design,
    realized_slots,
    replace,
    slice_bits,
    source_width,
    unit_keys,
    validate_oracle,
    view_refs,
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
    return [graph, extract_kernel(graph)[0], feasible_pipeline(graph, 3).graph]


@pytest.mark.parametrize(
    "case",
    ["sec2", "fig3", "elliptic", "diffeq", "tie"] + [f"seed{s}" for s in range(0, 200, 10)],
)
def test_bit_view_is_built_once_and_matches_bit_deps(case):
    for g in _view_graphs(case):
        view = g.bit_view
        assert g.bit_view is view
        ref = keyed_view(g)
        keys = eager_keys(g)
        size = len(view.producers)
        data = keys[:size]
        assert list(data) == list(ref.producers)

        # Producers: unit bits only, each once, in ``keyed_view``'s order:
        # the unit bits the operands are or reach through glue, ascending,
        # then the ripple, or a carry as its op's MSB unless the bit also
        # reads that MSB as data.  That order is critical_path's tie rule.
        for n, key in enumerate(data):
            assert tuple(keys[p] for p in view.producers[n]) == ref.producers[key]

        # Reads, derived on first use and then kept with the graph: every
        # unit bit's, through glue.
        assert g.reads is g.reads
        assert len(g.reads) == size
        for n, key in enumerate(data):
            reads = g.reads[n]
            refs = [view.ref(r) for r in reads]
            assert len(set(refs)) == len(refs)
            for r in refs:
                assert isinstance(r, (OpBit, CarryBit))
                assert not g.op(r.op).kind.glue
            assert set(refs) == ref.reads[key]
            # A read's key names its producing op first, a carry's too.
            assert [keys[r][0] for r in reads] == [r.op for r in refs]

        # Reads list unit bits before a carry; every carry read has a number.
        assert all(r < size for reads in g.reads for r in reads[:-1])
        assert set(keys[size:]) == {
            r for reads in ref.reads.values() for r in reads if isinstance(r, CarryBit)
        }


@deep_settings(100)
@given(
    st.sampled_from(DESIGN_MAKERS),
    st.integers(0, 10_000),
    st.integers(1, 6),
    st.sampled_from([op_runs, bucket_runs, whole_runs]),
)
def test_resolved_view_matches_bit_deps(make, seed, lam, tiling):
    """The view of a design, of its kernel and of a fragmented kernel
    (``carried_view``) numbers only unit bits, and lists for each the
    unit bits it waits on through glue, in the order ``keyed_view``
    gives from ``bit_deps``: strictly ascending, but for a last ripple
    predecessor or carry-in MSB.  What each reads, derived from that, is
    what ``bit_deps`` reaches through glue, plus its carry-in."""
    design = make(seed)
    kernel, _ = extract_kernel(design)
    graphs = [design, kernel]
    try:
        mobility = analyze(kernel, estimate_cycle(kernel, lam), lam)
    except InfeasibleError:
        pass
    else:
        graphs.append(apply_runs(kernel, tiling(kernel, mobility))[1])
    for g in graphs:
        view, ref, keys = g.bit_view, keyed_view(g), eager_keys(g)
        assert list(keys[:len(view.producers)]) == list(ref.producers)
        assert [tuple(keys[p] for p in prods) for prods in view.producers] == [
            *ref.producers.values()
        ]
        assert [{view.ref(r) for r in reads} for reads in g.reads] == [*ref.reads.values()]
        for n, prods in enumerate(view.producers):
            unit, i = keys[n]
            op = g.op(unit)
            last = n - 1 if op.kind.per_bit and i > 0 else None
            if op.kind.per_bit and i == 0 and isinstance(op.carry_in, CarryRef):
                carry = op.carry_in.op
                last = view.base[carry] + g.op(carry).width - 1
            data = prods[:-1] if prods and prods[-1] == last else prods
            assert all(p < q for p, q in zip(data, data[1:]))


def _assert_refs_are_the_eager_keys(g: DataFlowGraph) -> None:
    """``ref`` names every number of ``g``'s view as ``eager_keys``
    counts it out: the same op and bit, as an OpBit, or the same
    CarryBit."""
    refs, keys = view_refs(g.bit_view), eager_keys(g)
    assert refs == list(keys)
    assert [type(r) for r in refs] == [
        CarryBit if isinstance(key, CarryBit) else OpBit for key in keys
    ]


@pytest.mark.parametrize("case", ["sec2", "fig3", "elliptic", "diffeq", "tie"])
def test_refs_are_the_eager_enumeration_on_bundled_views(case):
    for g in _view_graphs(case):
        _assert_refs_are_the_eager_keys(g)


# Widths 3, 4, 1 and 2, a 1-bit op whose first bit is its last, and
# two carries read, X's before Y's: the edges ``ref`` bisects between.
REFS_SOURCE = """
design refs;
input a : u4;
input b : u4;
X: add u3 = a + b;
Y: add u4 carry(X) = a + b;
N: not u1 = Y[0:0];
Z: add u2 carry(Y) = a + N;
output Z;
"""


def test_ref_names_each_ops_first_and_last_bit_and_the_first_and_last_carry():
    g = parse(REFS_SOURCE)
    view = g.bit_view
    assert view.base == {"X": 0, "Y": 3, "Z": 7}  # the glue N has no number
    assert view.carried == ("X", "Y")
    for op in g.ops:
        if op.kind.glue:
            continue
        first, last = view.base[op.id], view.base[op.id] + op.width - 1
        assert view.ref(first) == OpBit(op.id, 0) and type(view.ref(first)) is OpBit
        assert view.ref(last) == OpBit(op.id, op.width - 1)
    assert view.ref(9) == CarryBit("X")
    assert view.ref(10) == CarryBit("Y")
    with pytest.raises(IndexError):
        view.ref(11)
    _assert_refs_are_the_eager_keys(g)


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(DESIGN_MAKERS),
    st.integers(0, 10_000),
    st.integers(1, 6),
    st.sampled_from([op_runs, bucket_runs, whole_runs]),
)
def test_refs_are_the_eager_enumeration(make, seed, lam, tiling):
    """The refs ``ref`` bisects out of ``base`` and ``carried``, for a
    design, its kernel and its fragmented kernel, whose view
    ``carried_view`` derived, are the keys ``eager_keys`` counts out."""
    design = make(seed)
    kernel, _ = extract_kernel(design)
    graphs = [design, kernel]
    try:
        mobility = analyze(kernel, estimate_cycle(kernel, lam), lam)
    except InfeasibleError:
        pass
    else:
        graphs.append(apply_runs(kernel, tiling(kernel, mobility))[1])
    for g in graphs:
        _assert_refs_are_the_eager_keys(g)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([2, 3, 4]))
def test_bits_are_numbered_in_definition_order_and_passes_keep_it(seed, lam):
    """Bit ``i`` of a unit is ``base[op] + i`` in definition order, glue
    has no number, every carry comes after every unit bit, and the
    tables by ``(op, bit)`` list their keys in number order:
    ``critical_path``'s "earliest bit in definition order" tie rule
    rests on it.  ``bit_arrivals`` lists glue bits too."""
    design = random_full_design(seed)
    kernel, _ = extract_kernel(design)
    graphs = [design, kernel]
    n_bits = estimate_cycle(kernel, lam)
    try:
        sched = schedule_kernel(kernel, lam, n_bits)
    except (InfeasibleError, ScheduleError):
        sched = None
    else:
        graphs.append(sched.graph)
    for g in graphs:
        view = g.bit_view
        size = len(view.producers)
        order = unit_keys(g)
        refs = view_refs(view)
        assert refs[:size] == order
        assert view.base == {op.id: order.index((op.id, 0)) for op in g.ops if not op.kind.glue}
        carries = refs[size:]
        assert all(isinstance(k, CarryBit) for k in carries)
        position = {op.id: k for k, op in enumerate(g.ops)}
        assert [position[k.op] for k in carries] == sorted(position[k.op] for k in carries)
        if g is design:
            continue
        assert list(bit_arrivals(g)) == [(op.id, i) for op in g.ops for i in range(op.width)]
        assert list(bit_asap(g, n_bits)) == order
        try:
            assert list(bit_alap(g, n_bits, lam)) == order
        except InfeasibleError:
            pass
    if sched is not None:
        realized = realized_slots(sched.graph, n_bits, sched.cycle_of)[0]
        assert list(realized) == list(eager_keys(sched.graph)[: len(realized)])


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


def test_validate_rejects_a_reference_of_the_wrong_kind():
    """A ``ResultRef`` must name an op and an ``InputRef`` an input.
    Accepted, the first graph would make ``critical_path`` raise a
    KeyError, and the second would lose its dependence on ``x``."""
    inputs = (InputPort("a", 4, False), InputPort("b", 4, False))
    b = Operand(InputRef("b"), 3, 0)
    x = Operation("x", OpKind.ADD, 4, False, (Operand(ResultRef("a"), 3, 0), b))
    g = DataFlowGraph("bad", inputs, (x,), ("x",))
    assert validate(g) == [Diagnostic("result reference to input a", "x")]
    x = Operation("x", OpKind.ADD, 4, False, (Operand(InputRef("a"), 3, 0), b))
    y = Operation("y", OpKind.ADD, 4, False, (Operand(InputRef("x"), 3, 0), b))
    g = DataFlowGraph("bad", inputs, (x, y), ("y",))
    assert validate(g) == [Diagnostic("input reference to result x", "y")]
    # Inside a concatenation too, each with its own diagnostic.
    both = Operand(Concat((Operand(ResultRef("b"), 1, 0), Operand(InputRef("x"), 1, 0))), 3, 0)
    z = Operation("z", OpKind.NOT, 4, False, (both,))
    g = DataFlowGraph("bad", inputs, (x, z), ("z",))
    assert validate(g) == [
        Diagnostic("result reference to input b", "z"),
        Diagnostic("input reference to result x", "z"),
    ]
    assert validate(g) == validate_oracle(g)


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


_NAMES = ["v0", "v1", "t0", "t1", "t3", "n0", "n2", "ghost"]


def _operands(names: list[str]):
    """Operands over any source, concatenations nested, slices in or out
    of range."""
    refs = st.sampled_from(names)
    sources = st.one_of(
        st.builds(InputRef, refs),
        st.builds(ResultRef, refs),
        st.builds(CarryRef, refs),
        st.builds(Const, st.sampled_from(["", "0", "1", "101", "012", "0x1"])),
    )

    def sliced(source):
        return st.builds(Operand, source, st.integers(-1, 12), st.integers(-1, 12))

    return st.recursive(
        sliced(sources),
        lambda inner: sliced(st.builds(Concat, st.lists(inner, min_size=1, max_size=3).map(tuple))),
        max_leaves=5,
    )


@st.composite
def _mutated_graphs(draw):
    """A random design with up to four edits that may break it: an
    operand, carry, width, kind or name replaced, two ops swapped, an
    input narrowed or renamed, or an output renamed."""
    make = draw(st.sampled_from([random_full_design, carried_add_design]))
    graph = make(draw(st.integers(0, 10_000)))
    inputs, ops, outputs = list(graph.inputs), list(graph.ops), list(graph.outputs)
    names = sorted({*_NAMES, *(p.name for p in inputs), *(op.id for op in ops)})
    for _ in range(draw(st.integers(0, 4))):
        k = draw(st.integers(0, len(ops) - 1))
        op = ops[k]
        edit = draw(st.sampled_from(
            ["operand", "carry", "width", "kind", "name", "swap", "input", "output"]
        ))
        if edit == "operand" and op.operands:
            j = draw(st.integers(0, len(op.operands) - 1))
            operands = list(op.operands)
            operands[j] = draw(_operands(names))
            ops[k] = replace(op, operands=tuple(operands))
        elif edit == "carry":
            carry = draw(st.one_of(
                st.none(), st.integers(-1, 2), st.builds(CarryRef, st.sampled_from(names))
            ))
            ops[k] = replace(op, carry_in=carry)
        elif edit == "width":
            ops[k] = replace(op, width=draw(st.integers(-1, 12)))
        elif edit == "kind":
            ops[k] = replace(op, kind=draw(st.sampled_from(list(OpKind))))
        elif edit == "name":
            ops[k] = replace(op, id=draw(st.sampled_from(names)))
        elif edit == "swap":
            j = draw(st.integers(0, len(ops) - 1))
            ops[k], ops[j] = ops[j], ops[k]
        elif edit == "input":
            j = draw(st.integers(0, len(inputs) - 1))
            inputs[j] = replace(
                inputs[j],
                name=draw(st.sampled_from(names)),
                width=draw(st.integers(0, 12)),
            )
        elif edit == "output":
            outputs.append(draw(st.sampled_from(names)))
    return DataFlowGraph(graph.name, tuple(inputs), tuple(ops), tuple(outputs))


@deep_settings(500)
@given(_mutated_graphs())
def test_validate_matches_the_oracle_on_mutated_graphs(graph):
    """``validate`` walks each operand once and measures it as it goes;
    the oracle walks it and then measures it again.  Every diagnostic
    and its order agree."""
    assert validate(graph) == validate_oracle(graph)
