"""Mobility analysis, fragment tiling, and graph rewiring."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitfrag import costs, dfg, extract_kernel, fragmenter, parse, timing
from bitfrag.dfg import (
    CarryBit,
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
    analyze,
    apply_runs,
    bucket_fragment,
    bucket_runs,
    fragment,
    op_runs,
    whole_runs,
)
from bitfrag.scheduler import ScheduleError, schedule, schedule_kernel, verify_schedule
from bitfrag.cli import main
from bitfrag.simulator import check_equiv
from bitfrag.timing import TimingError, critical_path, estimate_cycle
from conftest import (
    DESIGN_DIR,
    DESIGN_MAKERS,
    EMPTY_TUPLES_SOURCE,
    GLUE_CORE_SOURCE,
    MIXED_SOURCE,
    SAT_SOURCE,
    ConstBit,
    Slot,
    alap_pairs,
    asap_pairs,
    built_reads,
    bit_alap,
    bit_asap,
    deep_settings,
    eager_keys,
    ladder_source,
    load_design,
    operand_bits,
    random_add_design,
    random_full_design,
    replace,
    run_pipeline,
    smallest_pipeline,
    sorted_reads,
    view_refs,
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
    assert ("N", 0) not in asap  # glue has no slot of its own
    # The core reads complete inputs through N, so it can run in cycle 1.
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
    """A budget too small fails in ALAP before any ASAP loop runs.  A
    budget that fits runs the ``n_bits`` loop once on a kernel with a
    core; a kernel without one has ASAP equal to its arrival table, kept
    with the graph since ``critical_path`` ran, and runs no loop."""
    kernel, _ = extract_kernel(sec2 if source is None else parse(source))
    cores = sum(op.kind is OpKind.MULT_CORE for op in kernel.ops)
    assert cores == (source is not None)
    critical_path(kernel)  # as the pipeline does, before analyze
    with pytest.raises(InfeasibleError) as alap_error:
        bit_alap(kernel, n_bits, lam)
    calls = []
    asap_table = fragmenter.arrival_table
    for module in (fragmenter, timing):  # dfg reads timing's for graph.arrivals
        monkeypatch.setattr(
            module, "arrival_table", lambda *args: calls.append(args) or asap_table(*args)
        )
    with pytest.raises(InfeasibleError) as analyze_error:
        analyze(kernel, n_bits, lam)
    assert str(analyze_error.value) == str(alap_error.value)
    assert calls == []
    mobility = analyze(kernel, n_bits, lam + 2)
    assert calls == ([(kernel, n_bits)] if cores else [])
    assert mobility.asap == tuple(-(-t // n_bits) for t in asap_table(kernel, n_bits))


_SLOT_DESIGNS = st.one_of(
    st.builds(
        lambda make, seed: make(seed),
        st.sampled_from([random_add_design, random_full_design]),
        st.integers(0, 10_000),
    ),
    st.sampled_from([GLUE_CORE_SOURCE, MIXED_SOURCE, EMPTY_TUPLES_SOURCE]).map(parse),
)


@deep_settings(300)
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
    keys = eager_keys(graph)
    asap = asap_pairs(graph, n_bits)
    assert bit_asap(graph, n_bits) == dict(zip(keys, asap))
    try:
        alap = alap_pairs(graph, n_bits, lam)
    except InfeasibleError as err:
        for call in (bit_alap, analyze):
            with pytest.raises(InfeasibleError) as raised:
                call(graph, n_bits, lam)
            assert str(raised.value) == str(err)
        return
    assert bit_alap(graph, n_bits, lam) == dict(zip(keys, alap))
    mobility = analyze(graph, n_bits, lam)
    assert mobility.asap == tuple(c for c, _ in asap)
    assert mobility.alap == tuple(c for c, _ in alap)
    base = graph.bit_view.base
    for op in graph.ops:
        if op.kind.glue:
            continue
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


def test_an_output_read_through_glue_is_due_in_the_last_cycle():
    g = parse(
        "design d;\ninput a : u4; input b : u4;\n"
        "X: add u4 = a + b;\nN: not u4 = X;\noutput N;"
    )
    alap = bit_alap(g, 2, 2)
    # The inverter is free and has no slot; the add lands inside the
    # schedule, one step before the virtual slot (3, 1).
    assert ("N", 3) not in alap
    assert alap[("X", 3)] == Slot(2, 2)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([random_add_design, random_full_design]),
    st.integers(0, 10_000),
    st.integers(1, 6),
    st.integers(1, 16),
)
def test_adds_and_cores_are_never_due_after_the_latency(make, seed, lam, n_bits):
    # No unit bit sits at the virtual slot (lam + 1, 1), so the tilers
    # take an add's latest cycle from bit_alap as it is.
    kernel, _ = extract_kernel(make(seed))
    try:
        alap = bit_alap(kernel, n_bits, lam)
    except InfeasibleError:
        return
    for op in kernel.ops:
        if op.kind in (OpKind.ADD, OpKind.MULT_CORE):
            assert all(alap[(op.id, i)].cycle <= lam for i in range(op.width))


@deep_settings(100)
@given(
    st.sampled_from(DESIGN_MAKERS),
    st.integers(0, 10_000),
    st.sampled_from([2, 3, 4, 6]),
    st.integers(0, 3),
)
def test_per_bit_fragment_records_hold_the_transformed_graphs_windows(make, seed, lam, extra):
    """Under per-bit tiling, every fragment's recorded window is the one
    ``analyze`` derives for its op in the transformed graph, from the
    estimated cycle up: once the bucket tiling is gone, the records'
    windows can be derived instead of kept."""
    kernel, _ = extract_kernel(make(seed))
    n_bits = estimate_cycle(kernel, lam) + extra
    try:
        mobility = analyze(kernel, n_bits, lam)
    except InfeasibleError:
        return
    fragments, transformed = fragment(kernel, mobility)
    derived = analyze(transformed, n_bits, lam)
    for parts in fragments.values():
        for f in parts:
            assert (f.asap_cycle, f.alap_cycle) == derived.window(transformed.op(f.id))


def test_a_bucket_fragment_record_is_not_its_ops_own_window(sec2):
    """A bucket tile can group bits whose per-bit windows disagree, so
    the records, not the transformed graph's windows, are authoritative
    while the bucket tiling stays.  In sec2 at latency 3 and 6 bits, E's
    bit 4 must run in cycle 1 and bit 5 in cycle 2; the bucket tile E1
    holds both and records the window [1, 2], while the window
    ``analyze`` derives for E1 is empty."""
    kernel, _ = extract_kernel(sec2)
    mobility = analyze(kernel, 6, 3)
    assert [cycles[4:6] for cycles in mobility.cycles(kernel.op("E"))] == [(1, 2), (1, 2)]
    fragments, transformed = bucket_fragment(kernel, mobility)
    e1 = fragments["E"][1]
    assert (e1.id, e1.lo, e1.hi, e1.asap_cycle, e1.alap_cycle) == ("E1", 4, 5, 1, 2)
    assert analyze(transformed, 6, 3).window(transformed.op("E1")) == (2, 1)


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


def test_bucket_fragment_covers_every_adder_bit():
    """The bucket tiling of sat at latency 3 schedules all 30 of its
    adder bits, verifies clean and proves equivalent to the design."""
    design = parse(SAT_SOURCE)
    sched = run_pipeline(design, 3, runs=bucket_runs)
    assert verify_schedule(sched) == []
    assert sum(sched.loads().values()) == 30
    assert check_equiv(design, sched).equivalent


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
                schedule_kernel(kernel, lam, n_bits, whole_runs)


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
        [(f.id, f.lo, f.hi) for f in parts] == [(parent, 0, whole.graph.op(parent).width - 1)]
        for parent, parts in whole.fragments.items()
    )
    for sched in (split, whole):
        assert verify_schedule(sched) == []
        res = check_equiv(graph, sched, samples=200, seed=seed)
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


def _rewrites_match(graph: DataFlowGraph, lams, tilings=(op_runs, bucket_runs, whole_runs)) -> int:
    """Compare both rewrites under every tiling at each feasible latency;
    the number of (latency, tiling) cases compared.  Under ``whole_runs``
    no add splits, so every op takes the path that keeps it as it is.
    An op the rewrite leaves unchanged is the kernel's own object."""
    kernel, _ = extract_kernel(graph)
    compared = 0
    for lam in lams:
        try:
            mobility = analyze(kernel, estimate_cycle(kernel, lam), lam)
        except InfeasibleError:
            continue
        for tiling in tilings:
            runs = tiling(kernel, mobility)
            rewrite = apply_runs(kernel, runs)
            assert rewrite == _per_bit_apply_runs(kernel, runs)
            for op in rewrite[1].ops:
                old = kernel._op_map.get(op.id)
                assert op is old or op != old
            compared += 1
    return compared


@pytest.mark.parametrize("name", ["sec2", "fig3", "elliptic", "diffeq"])
def test_rewrite_matches_the_per_bit_rewrite_on_bundled_designs(name):
    assert _rewrites_match(load_design(name), range(2, 7)) == 15


@pytest.mark.parametrize("make", [random_add_design, random_full_design])
def test_rewrite_matches_the_per_bit_rewrite_on_random_designs(make):
    # Every add design fits each latency; about a third of the full
    # designs do not, and are skipped there.
    compared = sum(_rewrites_match(make(seed), (2, 3, 4)) for seed in range(200))
    assert compared >= 1200


@pytest.mark.parametrize("sections,width", [(2, 8), (6, 12), (10, 16), (20, 32)])
def test_rewrite_matches_the_per_bit_rewrite_on_ladders(sections, width):
    assert _rewrites_match(parse(ladder_source(sections, width)), (3, sections)) == 6


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
    assert _rewrites_match(graph, (2, 3, 4, 6)) == 12
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


@deep_settings(200)
@given(st.data())
def test_rewrite_matches_the_per_bit_rewrite_under_any_runs(data):
    graph = parse(STRADDLE_SOURCE)
    runs = data.draw(_any_runs(graph))
    assert apply_runs(graph, runs) == _per_bit_apply_runs(graph, runs)


_VIEW_TABLES = ("base", "carried", "producers", "msb_reads")


def _view_mismatches(graph: DataFlowGraph, view=None, reads=None) -> list[str]:
    """The tables in which ``view`` (by default the view ``apply_runs``
    kept with ``graph``) or ``reads`` (by default ``graph.reads``,
    derived from that view) differ from those of a fresh copy of
    ``graph``, which builds its view and derives its reads from that
    view's producers; "refs" if ``view`` names its bit numbers
    otherwise than ``eager_keys`` counts them out."""
    fresh = dataclasses.replace(graph)
    view = graph.__dict__["bit_view"] if view is None else view
    reads = graph.reads if reads is None else reads
    built = fresh.bit_view
    mismatches = [name for name in _VIEW_TABLES if getattr(view, name) != getattr(built, name)]
    mismatches += ["refs"] * (view_refs(view) != list(eager_keys(graph)))
    return mismatches + ["reads"] * (reads != fresh.reads)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(DESIGN_MAKERS),
    st.integers(0, 10_000),
    st.integers(1, 6),
    st.integers(1, 16),
    st.sampled_from([op_runs, bucket_runs, whole_runs]),
)
def test_carried_view_equals_a_fresh_build(make, seed, lam, n_bits, tiling):
    """The rewritten graph comes with a view derived from the kernel's,
    equal to the one ``_build_bit_view`` builds, table by table.  A
    budget that does not fit falls back to the estimated cycle."""
    kernel, _ = extract_kernel(make(seed))
    for n in (n_bits, estimate_cycle(kernel, lam)):
        try:
            mobility = analyze(kernel, n, lam)
        except InfeasibleError:
            continue
        _, transformed = apply_runs(kernel, tiling(kernel, mobility))
        assert _view_mismatches(transformed) == []
        return


@pytest.mark.parametrize("name", ["sec2", "fig3", "elliptic", "diffeq"])
@pytest.mark.parametrize("lam", range(1, 7))
def test_carried_view_equals_a_fresh_build_on_bundled_designs(name, lam):
    kernel, _ = extract_kernel(load_design(name))
    for n_bits in sorted({1, estimate_cycle(kernel, lam)}):
        try:
            mobility = analyze(kernel, n_bits, lam)
        except InfeasibleError:
            assert n_bits == 1
            continue
        for tiling in (op_runs, bucket_runs, whole_runs):
            _, transformed = apply_runs(kernel, tiling(kernel, mobility))
            assert _view_mismatches(transformed) == []


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_carried_view_equals_a_fresh_build_under_any_runs(data):
    graph = parse(STRADDLE_SOURCE)
    _, transformed = apply_runs(graph, data.draw(_any_runs(graph)))
    assert _view_mismatches(transformed) == []


# Z's bit 0 reads its carry source's MSB, Y[3], as data too, so its
# producers ascend instead of listing the carry's MSB last.
MSB_CARRY_SOURCE = """
design msbcarry;
input a : u4;
input b : u4;
Y: add u4 = a + b;
X: add u4 = b + a;
Z: add u4 carry(Y) = Y[3:3] + X;
output Z;
"""


def test_carried_view_of_a_split_add_reading_its_carry_source_msb():
    kernel = parse(MSB_CARRY_SOURCE)
    halves = [(0, 1, 1, 1), (2, 3, 1, 1)]
    _, transformed = apply_runs(kernel, {"Y": halves, "Z": halves})
    assert [op.id for op in transformed.ops] == ["Y0", "Y1", "X", "Z0", "Z1", "Z"]
    old, view = kernel.bit_view, transformed.bit_view
    assert _view_mismatches(transformed) == []
    z0, z2 = view.base["Z0"], view.base["Z1"]
    assert view.producers[z0] == (view.base["Y1"] + 1, view.base["X"])
    assert view.producers[z0] is old.producers[old.base["Z"]]
    carry = {key.op: n for n, key in enumerate(eager_keys(transformed)) if isinstance(key, CarryBit)}
    reads = transformed.reads
    assert reads[z0][-1] == carry["Y1"] and reads[z2][-1] == carry["Z0"]

    def with_reads(n: int, read: tuple) -> tuple:
        changed = list(reads)
        changed[n] = read
        return tuple(changed)

    # The upper fragment without its lower neighbour's carry, and the
    # lower one reading Y's carry at its kernel number: each is caught.
    assert _view_mismatches(transformed, reads=with_reads(z2, reads[z2][:-1])) == ["reads"]
    assert _view_mismatches(transformed, reads=with_reads(z0, kernel.reads[old.base["Z"]])) == [
        "reads"
    ]


# Z's bit 0 reads its carry source's MSB, Y[3], as data and nothing
# else, so that MSB is both its last producer and a data read: a
# derivation of ``reads`` that drops the last producer of every carried
# bit 0 loses it.
MSB_LAST_SOURCE = """
design msblast;
input a : u4;
input b : u4;
Y: add u4 = a + b;
Z: add u4 carry(Y) = Y[3:3] + a;
output Z;
"""


def test_reads_keep_a_carry_source_msb_that_is_also_the_last_producer():
    kernel = parse(MSB_LAST_SOURCE)
    view = kernel.bit_view
    msb, z0 = view.base["Y"] + 3, view.base["Z"]
    assert view.producers[z0] == (msb,)
    assert kernel.reads[z0] == (msb, len(view.producers)) == built_reads(kernel)[z0]
    halves = [(0, 1, 1, 1), (2, 3, 1, 1)]
    for runs in ({"Y": halves}, {"Y": halves, "Z": halves}, {"Z": halves}):
        _, transformed = apply_runs(kernel, runs)
        assert sorted_reads(transformed) == built_reads(transformed)
        assert _view_mismatches(transformed) == []


# Z's bit 0 reads its carry source's MSB, Y[3], only through glue: a NOT
# or a SELECT whose condition it is.  The glue has no number, so that
# MSB is Z[0]'s one producer, read as data, and its carry comes after.
MSB_THROUGH_GLUE_SOURCES = {
    "not": "N: not u1 = Y[3:3];\nZ: add u4 carry(Y) = N + a;",
    "select": "S: select u1 = Y[3:3], a[0:0], b[0:0];\nZ: add u4 carry(Y) = S + a;",
}


@pytest.mark.parametrize("glue", sorted(MSB_THROUGH_GLUE_SOURCES))
def test_reads_keep_a_carry_source_msb_read_through_glue(glue):
    kernel = parse(
        "design msbglue;\ninput a : u4;\ninput b : u4;\nY: add u4 = a + b;\n"
        f"{MSB_THROUGH_GLUE_SOURCES[glue]}\noutput Z;"
    )
    view = kernel.bit_view
    msb, z0 = view.base["Y"] + 3, view.base["Z"]
    assert view.producers[z0] == (msb,)
    assert kernel.reads[z0] == (msb, len(view.producers)) == built_reads(kernel)[z0]
    halves = [(0, 1, 1, 1), (2, 3, 1, 1)]
    for runs in ({"Y": halves}, {"Y": halves, "Z": halves}, {"Z": halves}):
        _, transformed = apply_runs(kernel, runs)
        view = transformed.bit_view
        z0 = view.base["Z0" if "Z" in runs else "Z"]
        top = "Y1" if "Y" in runs else "Y"
        assert view.producers[z0] == (msb,)
        assert transformed.reads[z0] == (msb, len(view.producers) + view.carried.index(top))
        assert sorted_reads(transformed) == built_reads(transformed)
        assert _view_mismatches(transformed) == []


# Z's bit 0 reads its carry source's MSB, Y[3], as data: directly, through
# a NOT or as a SELECT condition; or it reads no bit of Y at all.
MSB_READ_SOURCES = {
    "direct": "Z: add u4 carry(Y) = Y[3:3] + a;",
    **MSB_THROUGH_GLUE_SOURCES,
    "none": "Z: add u4 carry(Y) = a + b;",
}


@pytest.mark.parametrize("case", sorted(MSB_READ_SOURCES))
def test_msb_reads_hold_each_bit_0_that_reads_its_carry_source_msb(case):
    """The view's ``msb_reads`` holds Z's bit 0 when it reads Y's MSB as
    data and is empty otherwise.  A rewrite keeps the kernel's set, the
    same object, and no fragment above the first is in it: its bit 0
    reads the carry of the fragment below, never that fragment's MSB."""
    kernel = parse(
        "design msbreads;\ninput a : u4;\ninput b : u4;\nY: add u4 = a + b;\n"
        f"{MSB_READ_SOURCES[case]}\noutput Z;"
    )
    view = kernel.bit_view
    assert view.msb_reads == (set() if case == "none" else {view.base["Z"]})
    halves = [(0, 1, 1, 1), (2, 3, 1, 1)]
    for runs in ({"Y": halves}, {"Y": halves, "Z": halves}, {"Z": halves}):
        _, transformed = apply_runs(kernel, runs)
        assert transformed.bit_view.msb_reads is view.msb_reads
        uppers = [transformed.bit_view.base[f"{x}1"] for x in runs]
        assert not view.msb_reads.intersection(uppers)
        assert _view_mismatches(transformed) == []


@deep_settings(100)
@given(
    st.sampled_from(DESIGN_MAKERS),
    st.integers(0, 10_000),
    st.integers(1, 6),
    st.sampled_from([op_runs, bucket_runs, whole_runs]),
)
def test_reads_match_the_operand_oracle(make, seed, lam, tiling):
    """``reads`` of a design, its kernel and a rewrite of the kernel,
    each derived from its own producers, equal what ``built_reads``
    reads off the operands, up to order.  A budget that does not fit
    leaves the rewrite out."""
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
        assert sorted_reads(g) == built_reads(g)


def _count_reads(monkeypatch) -> list:
    """Every graph whose ``reads`` are derived (``_build_reads``) from
    now on, in call order."""
    derived: list = []
    build = dfg._build_reads
    monkeypatch.setattr(dfg, "_build_reads", lambda g: derived.append(g) or build(g))
    return derived


@pytest.mark.parametrize("tile", [op_runs, bucket_runs])
@pytest.mark.parametrize(
    "text",
    [(DESIGN_DIR / f"{name}.dfg").read_text() for name in ("sec2", "fig3", "elliptic", "diffeq")]
    + [MIXED_SOURCE, GLUE_CORE_SOURCE],
    ids=["sec2", "fig3", "elliptic", "diffeq", "mixed", "gluecore"],
)
def test_one_bit_view_is_built_from_parse_to_costs(monkeypatch, text, tile):
    """Only the kernel's view is built, however many tilings are tried:
    the fragmented graph's is derived from it and shares its producers
    table.  ``reads`` are derived once, by ``costs``, for the scheduled
    rewrite from its own producers, and never for the kernel; no tiling
    that failed to schedule derives any."""
    built = []
    build = dfg._build_bit_view
    monkeypatch.setattr(dfg, "_build_bit_view", lambda g: built.append(g) or build(g))
    derived = _count_reads(monkeypatch)
    kernel, _ = extract_kernel(parse(text))
    critical_path(kernel)
    lam = 3
    low = estimate_cycle(kernel, lam)
    for n_bits in range(low, low + 64):  # upward to a cycle that schedules
        try:
            sched = schedule_kernel(kernel, lam, n_bits, tile)
            break
        except (InfeasibleError, ScheduleError):
            continue
    else:
        pytest.fail("no cycle schedules")
    assert verify_schedule(sched) == []
    assert derived == []
    costs(sched)
    assert len(built) == 1 and built[0] is kernel
    assert derived == [sched.graph]
    assert sched.graph.bit_view.producers is kernel.bit_view.producers


def test_reads_are_derived_only_once_a_schedule_needs_them(monkeypatch, tmp_path):
    """A design refused by ``analyze`` or by ``schedule`` derives no
    ``reads``; a clean CLI compile with its proof derives them once, for
    the rewrite it scheduled."""
    derived = _count_reads(monkeypatch)
    kernel, _ = extract_kernel(parse(MIXED_SOURCE))
    critical_path(kernel)
    with pytest.raises(InfeasibleError):
        schedule_kernel(kernel, 3)
    kernel, _ = extract_kernel(parse((DESIGN_DIR / "sec2.dfg").read_text()))
    with pytest.raises(ScheduleError):
        schedule_kernel(kernel, 3, 6, bucket_runs)
    assert derived == []

    args = [str(DESIGN_DIR / "sec2.dfg"), "--latency", "3", "--check-equiv",
            "--out", str(tmp_path), "--emit", "report"]
    assert main(args) == 0
    assert len(derived) == 1
    assert {op.id for op in derived[0].ops} - {op.id for op in kernel.ops}  # fragments
