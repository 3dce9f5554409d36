"""Mobility analysis, fragment tiling, and graph rewiring."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitfrag import extract_kernel, parse
from bitfrag.dfg import CarryRef, Concat, OpKind, ResultRef
from bitfrag.fragmenter import (
    InfeasibleError,
    Slot,
    analyze,
    bit_alap,
    bit_asap,
    bucket_runs,
    fragment,
    op_runs,
)
from bitfrag.simulator import check_equiv
from bitfrag.timing import estimate_cycle
from conftest import GLUE_CORE_SOURCE, random_add_design, random_full_design


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
    assert all(f.prescheduled for parts in frags.values() for f in parts)


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
        assert [f.index for f in parts] == list(range(len(parts)))


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


def test_fragmented_designs_stay_equivalent(sec2, fig3, sec2_frags, fig3_frags):
    for graph, (_, transformed) in ((sec2, sec2_frags), (fig3, fig3_frags)):
        assert check_equiv(graph, transformed).equivalent
