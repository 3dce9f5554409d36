"""Mobility analysis, fragment tiling, and graph rewiring."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitfrag import extract_kernel, fragmenter, parse
from bitfrag.dfg import (
    CarryRef,
    Concat,
    Const,
    DataFlowGraph,
    InputBit,
    InputRef,
    Namer,
    OpBit,
    OpKind,
    Operand,
    Operation,
    ResultRef,
    check,
)
from bitfrag.fragmenter import (
    Fragment,
    InfeasibleError,
    Slot,
    analyze,
    apply_runs,
    bit_alap,
    bit_asap,
    bucket_runs,
    fragment,
    op_runs,
    whole_runs,
)
from bitfrag.scheduler import ScheduleError, schedule, verify_schedule
from bitfrag.simulator import check_equiv
from bitfrag.timing import TimingError, estimate_cycle
from conftest import (
    GLUE_CORE_SOURCE,
    MIXED_SOURCE,
    ConstBit,
    alap_pairs,
    asap_pairs,
    ladder_source,
    load_design,
    operand_bits,
    random_add_design,
    random_full_design,
    smallest_pipeline,
)


def _table(fragments, parent):
    return [
        (f.id, f.lo, f.hi, f.asap_cycle, f.alap_cycle) for f in fragments[parent]
    ]


@pytest.fixture(scope="module")
def sec2_frags(request):
    graph = request.getfixturevalue("sec2")
    kernel, _ = extract_kernel(graph)
    return fragment(kernel, analyze(kernel, 6, 3))


@pytest.fixture(scope="module")
def fig3_frags(request):
    graph = request.getfixturevalue("fig3")
    kernel, _ = extract_kernel(graph)
    return fragment(kernel, analyze(kernel, 3, 3))


def test_single_add_asap_fills_depth_slots():
    g = parse("design d;\ninput a : u7; input b : u7;\nS: add u7 = a + b;\noutput S;")
    asap = bit_asap(g, 3)
    assert asap[("S", 0)] == Slot(1, 1)
    assert asap[("S", 2)] == Slot(1, 3)
    assert asap[("S", 3)] == Slot(2, 1)
    assert asap[("S", 6)] == Slot(3, 1)


def test_glue_over_inputs_is_ready_with_the_inputs():
    asap = bit_asap(parse(GLUE_CORE_SOURCE), 8)
    assert asap[("N", 0)] == Slot(0, 0)
    # The core reads complete inputs, so it can run in cycle 1.
    assert asap[("P", 0)] == Slot(1, 8)
    assert asap[("Q", 0)] == Slot(2, 1)
    # An add over the same glue still starts in cycle 1.
    g = parse(
        "design d;\ninput a : u4; input b : u4;\n"
        "N: not u4 = a;\nS: add u4 = N + b;\noutput S;"
    )
    assert bit_asap(g, 3)[("S", 0)] == Slot(1, 1)


def test_asap_needs_a_cycle_of_at_least_one_bit():
    with pytest.raises(TimingError, match="cycle must hold at least one bit, got 0"):
        bit_asap(parse(GLUE_CORE_SOURCE), 0)


def test_alap_needs_a_latency_of_at_least_one_cycle():
    with pytest.raises(InfeasibleError, match="latency must be at least 1 cycle, got 0"):
        bit_alap(parse(GLUE_CORE_SOURCE), 1, 0)


def test_alap_needs_a_cycle_of_at_least_one_bit():
    with pytest.raises(InfeasibleError, match="cycle must hold at least one bit, got 0"):
        bit_alap(parse(GLUE_CORE_SOURCE), 0, 1)


def test_single_add_alap_counts_back_from_the_deadline():
    g = parse("design d;\ninput a : u7; input b : u7;\nS: add u7 = a + b;\noutput S;")
    alap = bit_alap(g, 3, 4)
    assert alap[("S", 6)] == Slot(4, 3)
    assert alap[("S", 4)] == Slot(4, 1)
    assert alap[("S", 3)] == Slot(3, 3)
    assert alap[("S", 0)] == Slot(2, 3)


def test_alap_raises_when_latency_is_too_small(sec2):
    with pytest.raises(InfeasibleError, match="latency 2 too small"):
        analyze(sec2, 6, 2)


@pytest.mark.parametrize("source,n_bits,lam", [
    (None, 6, 2),  # sec2: an add bit falls before cycle 1
    (GLUE_CORE_SOURCE, 8, 1),  # a core would finish before cycle 1
])
def test_analyze_fails_in_alap_without_running_asap(sec2, monkeypatch, source, n_bits, lam):
    kernel, _ = extract_kernel(sec2 if source is None else parse(source))
    with pytest.raises(InfeasibleError) as alap_error:
        bit_alap(kernel, n_bits, lam)
    calls = []
    asap_table = fragmenter.arrival_table
    monkeypatch.setattr(
        fragmenter, "arrival_table", lambda *args: calls.append(args) or asap_table(*args)
    )
    with pytest.raises(InfeasibleError) as analyze_error:
        analyze(kernel, n_bits, lam)
    assert str(analyze_error.value) == str(alap_error.value)
    assert calls == []
    analyze(kernel, n_bits, lam + 2)  # a budget that fits runs the ASAP loop once
    assert len(calls) == 1


_SLOT_DESIGNS = st.one_of(
    st.builds(
        lambda make, seed: make(seed),
        st.sampled_from([random_add_design, random_full_design]),
        st.integers(0, 10_000),
    ),
    st.sampled_from([GLUE_CORE_SOURCE, MIXED_SOURCE]).map(parse),
)


@settings(max_examples=300, deadline=None)
@given(_SLOT_DESIGNS, st.booleans(), st.integers(1, 6), st.integers(1, 16))
def test_time_tables_match_the_pair_oracles(design, extract, lam, n_bits):
    """``bit_asap`` and ``bit_alap``, computed as times, give the slots
    the pair loops in ``conftest`` give, on kernels and on surface
    designs; an infeasible budget raises the oracle's message.
    ``Mobility`` holds the cycles of those slots, and ``window`` is the
    latest ASAP and the earliest ALAP cycle of an op's bits.  On a
    kernel, the scheduler, which reads its cycles off the same times,
    passes the independent checker."""
    graph = extract_kernel(design)[0] if extract else design
    keyed = graph.bit_view.keyed
    asap = asap_pairs(graph, n_bits)
    assert bit_asap(graph, n_bits) == keyed(asap)
    try:
        alap = alap_pairs(graph, n_bits, lam)
    except InfeasibleError as err:
        for call in (bit_alap, analyze):
            with pytest.raises(InfeasibleError) as raised:
                call(graph, n_bits, lam)
            assert str(raised.value) == str(err)
        return
    assert bit_alap(graph, n_bits, lam) == keyed(alap)
    mobility = analyze(graph, n_bits, lam)
    assert mobility.asap == tuple(c for c, _ in asap)
    assert mobility.alap == tuple(c for c, _ in alap)
    base = graph.bit_view.base
    for op in graph.ops:
        bits = range(base[op.id], base[op.id] + op.width)
        assert mobility.window(op) == (
            max(asap[n][0] for n in bits), min(alap[n][0] for n in bits)
        )
    if not extract:
        return
    fragments, transformed = fragment(graph, mobility)
    try:
        sched = schedule(transformed, fragments, lam, n_bits)
    except ScheduleError:
        return
    assert verify_schedule(sched) == []


def test_glue_alap_keeps_the_virtual_output_slot():
    g = parse(
        "design d;\ninput a : u4; input b : u4;\n"
        "X: add u4 = a + b;\nN: not u4 = X;\noutput N;"
    )
    alap = bit_alap(g, 2, 2)
    # The inverter is free; only the add must land inside the schedule.
    assert alap[("N", 3)] == Slot(3, 1)
    assert alap[("X", 3)] == Slot(2, 2)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([random_add_design, random_full_design]),
    st.integers(0, 10_000),
    st.integers(1, 6),
    st.integers(1, 16),
)
def test_adds_and_cores_are_never_due_after_the_latency(make, seed, lam, n_bits):
    # Only glue can sit at the virtual slot (lam + 1, 1), so the tilers
    # take an add's latest cycle from bit_alap as it is.
    kernel, _ = extract_kernel(make(seed))
    try:
        alap = bit_alap(kernel, n_bits, lam)
    except InfeasibleError:
        return
    for op in kernel.ops:
        if op.kind in (OpKind.ADD, OpKind.MULT_CORE):
            assert all(alap[(op.id, i)].cycle <= lam for i in range(op.width))


def test_sec2_fragment_tiling(sec2_frags):
    frags, _ = sec2_frags
    assert _table(frags, "C") == [
        ("C0", 0, 5, 1, 1),
        ("C1", 6, 11, 2, 2),
        ("C2", 12, 15, 3, 3),
    ]
    assert _table(frags, "E") == [
        ("E0", 0, 4, 1, 1),
        ("E1", 5, 10, 2, 2),
        ("E2", 11, 15, 3, 3),
    ]
    assert _table(frags, "G") == [
        ("G0", 0, 3, 1, 1),
        ("G1", 4, 9, 2, 2),
        ("G2", 10, 15, 3, 3),
    ]
    assert all(f.asap_cycle == f.alap_cycle for parts in frags.values() for f in parts)


def test_fig3_fragment_tiling(fig3_frags):
    frags, _ = fig3_frags
    assert _table(frags, "A") == [("A0", 0, 2, 1, 2), ("A1", 3, 5, 2, 3)]
    assert _table(frags, "B") == [
        ("B0", 0, 1, 1, 1),
        ("B1", 2, 2, 1, 2),
        ("B2", 3, 4, 2, 2),
        ("B3", 5, 5, 2, 3),
    ]
    assert _table(frags, "C") == [
        ("C0", 0, 0, 1, 1),
        ("C1", 1, 1, 1, 2),
        ("C2", 2, 3, 2, 2),
        ("C3", 4, 4, 2, 3),
        ("C4", 5, 5, 3, 3),
    ]
    assert _table(frags, "D") == [
        ("D0", 0, 1, 1, 2),
        ("D1", 2, 2, 1, 3),
        ("D2", 3, 4, 2, 3),
    ]
    assert _table(frags, "E") == [
        ("E0", 0, 0, 1, 2),
        ("E1", 1, 2, 2, 2),
        ("E2", 3, 3, 2, 3),
        ("E3", 4, 5, 3, 3),
    ]
    for p in ("F", "G"):
        assert _table(frags, p) == [
            (f"{p}0", 0, 2, 1, 1),
            (f"{p}1", 3, 5, 2, 2),
            (f"{p}2", 6, 7, 3, 3),
        ]
    assert _table(frags, "H") == [
        ("H0", 0, 1, 1, 1),
        ("H1", 2, 4, 2, 2),
        ("H2", 5, 7, 3, 3),
    ]


def test_fragment_runs_partition_each_op(fig3_frags):
    frags, _ = fig3_frags
    for parent, parts in frags.items():
        assert parts[0].lo == 0
        for left, right in zip(parts, parts[1:]):
            assert right.lo == left.hi + 1
        assert all(f.parent == parent for f in parts)


def test_carry_links_and_reassembly():
    g = parse(
        "design d;\ninput a : u8; input b : u8; input c : u4;\n"
        "X: add u8 carry(1) = a + b;\nY: add u4 carry(X) = c + c;\n"
        "output Y; output X;"
    )
    kernel, _ = extract_kernel(g)
    n = estimate_cycle(kernel, 2)
    frags, transformed = fragment(kernel, analyze(kernel, n, 2))
    assert [(f.id, f.lo, f.hi) for f in frags["X"]] == [("X0", 0, 5), ("X1", 6, 7)]
    # The LSB fragment inherits the original carry-in; the rest chain.
    assert transformed.op("X0").carry_in == 1
    assert transformed.op("X1").carry_in == CarryRef("X0")
    # A consumer of carry(X) now reads the MSB fragment's carry.
    assert transformed.op("Y").carry_in == CarryRef("X1")
    # The fragmented output is reassembled under the original name.
    x = transformed.op("X")
    assert x.kind is OpKind.SELECT
    cat = x.operands[1].source
    assert isinstance(cat, Concat)
    assert [p.source for p in cat.parts] == [ResultRef("X1"), ResultRef("X0")]
    assert check_equiv(g, transformed).equivalent


def test_single_run_ops_keep_their_name(sec2):
    kernel, _ = extract_kernel(sec2)
    frags, transformed = fragment(kernel, analyze(kernel, 18, 1))
    for op_id in ("C", "E", "G"):
        assert [f.id for f in frags[op_id]] == [op_id]
        assert transformed.op(op_id).kind is OpKind.ADD
    assert check_equiv(sec2, transformed).equivalent


def test_op_runs_match_fragment_records(fig3_frags, fig3):
    frags, _ = fig3_frags
    kernel, _ = extract_kernel(fig3)
    runs = op_runs(kernel, analyze(kernel, 3, 3))
    for parent, parts in frags.items():
        assert runs[parent] == [
            (f.lo, f.hi, f.asap_cycle, f.alap_cycle) for f in parts
        ]


def test_bucket_runs_group_whole_cycle_windows(fig3):
    kernel, _ = extract_kernel(fig3)
    runs = bucket_runs(kernel, analyze(kernel, 3, 3))
    # Coarser than per-bit windows: B becomes two tiles instead of four.
    assert runs["B"] == [(0, 2, 1, 2), (3, 5, 2, 3)]


def test_bucket_runs_standalone_add_tiles_per_cycle():
    g = parse("design d;\ninput a : u9; input b : u9;\nS: add u9 = a + b;\noutput S;")
    runs = bucket_runs(g, analyze(g, 3, 3))
    assert runs["S"] == [(0, 2, 1, 1), (3, 5, 2, 2), (6, 8, 3, 3)]


def _bucket_fill(start: int, stop: int, width: int, n_bits: int) -> list[tuple[int, int]]:
    """Per-bit (forward, backward) cycles, poured one bit at a time into
    buckets of n_bits: upward from start, and downward from stop."""
    forward, cycle, used = [], start, 0
    for _ in range(width):
        if used == n_bits:
            cycle, used = cycle + 1, 0
        forward.append(cycle)
        used += 1
    backward, cycle, used = [], stop, 0
    for _ in range(width):
        if used == n_bits:
            cycle, used = cycle - 1, 0
        backward.append(cycle)
        used += 1
    return list(zip(forward, reversed(backward)))


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([random_add_design, random_full_design]),
    st.integers(0, 10_000),
    st.integers(1, 6),
    st.integers(1, 16),
)
def test_bucket_runs_match_a_bit_by_bit_fill(make, seed, lam, n_bits):
    kernel, _ = extract_kernel(make(seed))
    try:
        mobility = analyze(kernel, n_bits, lam)
    except InfeasibleError:
        return
    runs = bucket_runs(kernel, mobility)
    adds = [op for op in kernel.ops if op.kind is OpKind.ADD]
    assert list(runs) == [op.id for op in adds]
    base = kernel.bit_view.base
    for op in adds:
        lo = base[op.id]
        windows = _bucket_fill(
            mobility.asap[lo], mobility.alap[lo + op.width - 1], op.width, n_bits
        )
        expected: list[tuple[int, int, int, int]] = []  # maximal equal-window runs
        for i, window in enumerate(windows):
            if expected and expected[-1][2:] == window:
                expected[-1] = (expected[-1][0], i, *window)
            else:
                expected.append((i, i, *window))
        assert runs[op.id] == expected


def test_whole_runs_keep_each_add_whole_in_its_shared_window(fig3):
    kernel, _ = extract_kernel(fig3)
    mobility = analyze(kernel, 8, 3)
    runs = whole_runs(kernel, mobility)
    adds = [op for op in kernel.ops if op.kind is OpKind.ADD]
    assert list(runs) == [op.id for op in adds]
    base = kernel.bit_view.base
    for op in adds:
        bits = slice(base[op.id], base[op.id] + op.width)
        early, late = max(mobility.asap[bits]), min(mobility.alap[bits])
        assert runs[op.id] == [(0, op.width - 1, early, late)]
    assert runs["F"] == [(0, 7, 1, 2)]
    assert runs["H"] == [(0, 7, 2, 3)]
    # At 3 bits a cycle F's bits span cycles 1-3 and share none.
    assert whole_runs(kernel, analyze(kernel, 3, 3))["F"] == [(0, 7, 3, 1)]


@pytest.mark.parametrize("name", ["sec2", "fig3", "elliptic", "diffeq"])
def test_whole_adds_narrower_cycles_fail_with_a_typed_error(name):
    """Below the widest add no whole-op schedule exists, and the search
    for the smallest n_bits relies on the pipeline saying so with
    ScheduleError or InfeasibleError, never another exception."""
    kernel, _ = extract_kernel(load_design(name))
    widest = max(op.width for op in kernel.ops if op.kind is OpKind.ADD)
    for lam in (1, 2, 3, 4, 6, 11, 40):
        for n_bits in range(1, widest):
            with pytest.raises((ScheduleError, InfeasibleError)):
                mobility = analyze(kernel, n_bits, lam)
                fragments, graph = apply_runs(kernel, whole_runs(kernel, mobility))
                schedule(graph, fragments, lam, n_bits)


@settings(max_examples=50, deadline=None)
@given(
    st.sampled_from([random_add_design, random_full_design]),
    st.integers(0, 10_000),
    st.integers(2, 4),
)
def test_whole_op_baseline_against_fragments_at_their_smallest_cycles(make, seed, lam):
    graph = make(seed)
    split = smallest_pipeline(graph, lam)
    whole = smallest_pipeline(graph, lam, whole_runs)
    assert (split is None) == (whole is None)
    if split is None:
        return
    assert all(
        [(f.id, f.lo, f.hi) for f in parts] == [(parent, 0, whole.kernel.op(parent).width - 1)]
        for parent, parts in whole.fragments.items()
    )
    for p in (split, whole):
        assert verify_schedule(p.sched) == []
        res = check_equiv(graph, p.sched, samples=200, seed=seed)
        assert res.equivalent, res.counterexample
    assert split.n_bits <= whole.n_bits


def test_fragmented_designs_stay_equivalent(sec2, fig3, sec2_frags, fig3_frags):
    for graph, (_, transformed) in ((sec2, sec2_frags), (fig3, fig3_frags)):
        assert check_equiv(graph, transformed).equivalent


# The fragment rewrite as it was before it worked on slices: every
# operand resolved bit by bit, each op bit mapped through a per-bit
# table, and the bits regrouped into slices.  Kept as the oracle of
# ``apply_runs``.

def _per_bit_regroup(bits: list) -> Operand:
    groups: list[list] = []
    for ref in bits:
        last = groups[-1][-1] if groups else None
        if type(ref) is type(last) and (
            isinstance(ref, ConstBit) or ref == (last[0], last[1] + 1)
        ):
            groups[-1].append(ref)
        else:
            groups.append([ref])
    while len(groups) > 1 and all(
        isinstance(r, ConstBit) and r.value == 0 for r in groups[-1]
    ):
        groups.pop()
    terms: list[Operand] = []
    for group in groups:
        first = group[0]
        if isinstance(first, ConstBit):
            bits_str = "".join(str(r.value) for r in reversed(group))
            terms.append(Operand(Const(bits_str), len(group) - 1, 0))
        elif isinstance(first, InputBit):
            terms.append(Operand(InputRef(first.name), group[-1].bit, first.bit))
        else:
            terms.append(Operand(ResultRef(first.op), group[-1].bit, first.bit))
    if len(terms) == 1:
        return terms[0]
    concat = Concat(tuple(reversed(terms)))
    return Operand(concat, concat.width - 1, 0)


def _per_bit_rewire(bits: list, bit_map: dict, lo: int, width: int | None) -> Operand:
    if width is not None:
        bits = bits[lo:lo + width]
        bits += [ConstBit(0)] * (width - len(bits))
    return _per_bit_regroup([bit_map.get(ref, ref) for ref in bits])


def _per_bit_apply_runs(graph: DataFlowGraph, runs: dict):
    namer = Namer({op.id for op in graph.ops} | {p.name for p in graph.inputs})
    fragments: dict[str, list[Fragment]] = {}
    parts: dict[str, list[tuple[str, int, int | None]]] = {}
    bit_map: dict[OpBit, OpBit] = {}
    carry_of: dict[str, str] = {}
    for op in graph.ops:
        split = runs.get(op.id, [])
        if len(split) > 1:
            names = [namer.fresh(f"{op.id}{k}") for k in range(len(split))]
            parts[op.id] = [
                (name, lo, hi - lo + 1) for name, (lo, hi, _, _) in zip(names, split)
            ]
            for name, lo, width in parts[op.id]:
                for i in range(width):
                    bit_map[OpBit(op.id, lo + i)] = OpBit(name, i)
            carry_of[op.id] = names[-1]
        else:
            names = [op.id]
            parts[op.id] = [(op.id, 0, None)]
        if split:
            fragments[op.id] = [
                Fragment(op.id, name, *run) for name, run in zip(names, split)
            ]
    new_ops: list[Operation] = []
    for op in graph.ops:
        operands = [operand_bits(o) for o in op.operands]
        carry = op.carry_in
        if isinstance(carry, CarryRef):
            carry = CarryRef(carry_of.get(carry.op, carry.op))
        for name, lo, width in parts[op.id]:
            new_ops.append(Operation(
                name, op.kind, width or op.width, op.signed,
                tuple(_per_bit_rewire(bits, bit_map, lo, width) for bits in operands),
                carry,
            ))
            carry = CarryRef(name)
    for name in dict.fromkeys(graph.outputs):
        if name not in parts or len(parts[name]) == 1:
            continue
        concat = Concat(tuple(
            Operand(ResultRef(part), width - 1, 0) for part, _, width in reversed(parts[name])
        ))
        new_ops.append(Operation(
            name, OpKind.SELECT, graph.op(name).width, graph.op(name).signed,
            (
                Operand(Const("1"), 0, 0),
                Operand(concat, concat.width - 1, 0),
                Operand(Const("0"), 0, 0),
            ),
        ))
    new_graph = DataFlowGraph(graph.name, graph.inputs, tuple(new_ops), graph.outputs)
    check(new_graph)
    return fragments, new_graph


def _rewrites_match(graph: DataFlowGraph, lams, tilings=(op_runs, bucket_runs)) -> int:
    """Compare both rewrites under every tiling at each feasible latency;
    the number of (latency, tiling) cases compared."""
    kernel, _ = extract_kernel(graph)
    compared = 0
    for lam in lams:
        try:
            mobility = analyze(kernel, estimate_cycle(kernel, lam), lam)
        except InfeasibleError:
            continue
        for tiling in tilings:
            runs = tiling(kernel, mobility)
            assert apply_runs(kernel, runs) == _per_bit_apply_runs(kernel, runs)
            compared += 1
    return compared


@pytest.mark.parametrize("name", ["sec2", "fig3", "elliptic", "diffeq"])
def test_rewrite_matches_the_per_bit_rewrite_on_bundled_designs(name):
    assert _rewrites_match(load_design(name), range(2, 7)) == 10


@pytest.mark.parametrize("make", [random_add_design, random_full_design])
def test_rewrite_matches_the_per_bit_rewrite_on_random_designs(make):
    # Every add design fits each latency; about a third of the full
    # designs do not, and are skipped there.
    compared = sum(_rewrites_match(make(seed), (2, 3, 4)) for seed in range(200))
    assert compared >= 800


@pytest.mark.parametrize("sections,width", [(2, 8), (6, 12), (10, 16), (20, 32)])
def test_rewrite_matches_the_per_bit_rewrite_on_ladders(sections, width):
    assert _rewrites_match(parse(ladder_source(sections, width)), (3, sections)) == 4


# Operands that mix constants, repeat a slice, straddle many fragments of
# one add, merge back across a fragment boundary, or are narrower than a
# fragment that reads them; glue and carries read split adds too.
STRADDLE_SOURCE = """
design straddle;
input A : u8; input B : u4;
C: add u8 = A + {B, B};
D: add u8 = {const(1), C[6:0]} + {B[1:0], const(00), B[3:2], B[1:0]};
E: add u12 carry(C) = {C[7:5], D, const(0)} + {const(101), C[5:1], C[7:6]};
F: add u12 = D[7:2] + {const(0000), C};
H: add u8 = {C[7:4], C[3:0]} + {D[3:0], D[7:4]};
N: not u8 = {C[3:0], C[7:4]};
S: select u8 = D[0:0], N, {const(0), C[7:1]};
G: add u6 carry(E) = S[5:0] + const(1);
output F; output G; output E; output H; output C;
"""


@st.composite
def _any_runs(draw, graph: DataFlowGraph) -> dict:
    """Arbitrary runs per add, down to single bits; some adds get none."""
    runs = {}
    for op in graph.ops:
        if op.kind is OpKind.ADD and draw(st.integers(0, 5)):
            cuts = draw(st.sets(st.integers(1, op.width - 1))) if op.width > 1 else set()
            bounds = [0, *sorted(cuts), op.width]
            runs[op.id] = [(lo, stop - 1, 1, 1) for lo, stop in zip(bounds, bounds[1:])]
    return runs


def test_rewrite_matches_the_per_bit_rewrite_on_straddling_operands():
    graph = parse(STRADDLE_SOURCE)
    assert _rewrites_match(graph, (2, 3, 4, 6)) == 8
    # Every add in three or more fragments: C's slices straddle them all.
    runs = {
        op.id: [(lo, min(lo + 1, op.width - 1), 1, 1) for lo in range(0, op.width, 2)]
        for op in graph.ops if op.kind is OpKind.ADD
    }
    fragments, transformed = apply_runs(graph, runs)
    assert (fragments, transformed) == _per_bit_apply_runs(graph, runs)
    # {C[3:0], C[7:4]} reads C's four fragments out of order.
    swapped = Concat(tuple(Operand(ResultRef(f"C{k}"), 1, 0) for k in (1, 0, 3, 2)))
    assert transformed.op("N").operands == (Operand(swapped, 7, 0),)
    assert check_equiv(graph, transformed).equivalent


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_rewrite_matches_the_per_bit_rewrite_under_any_runs(data):
    graph = parse(STRADDLE_SOURCE)
    runs = data.draw(_any_runs(graph))
    assert apply_runs(graph, runs) == _per_bit_apply_runs(graph, runs)
