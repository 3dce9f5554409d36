"""Arrival-time analysis, critical paths, and the cycle estimate."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitfrag import extract_kernel, parse
from bitfrag.timing import (
    TimingError,
    bit_arrivals,
    critical_path,
    estimate_cycle,
    path_time,
)
from conftest import op_paths, random_add_design


def test_chained_adds_ripple_arrivals(sec2):
    arr = bit_arrivals(sec2)
    assert arr[("C", 0)] == 1
    assert arr[("C", 15)] == 16
    # Each dependent add starts one delay after the producer bit.
    assert arr[("E", 0)] == 2
    assert arr[("E", 15)] == 17
    assert arr[("G", 15)] == 18
    assert max(arr.values()) == 18


def test_critical_path_three_adds(sec2):
    crit = critical_path(sec2)
    assert crit.ops == ("C", "E", "G")
    assert crit.time == 18
    assert path_time(sec2, crit.ops) == 18


def test_critical_path_balanced_tree(fig3):
    crit = critical_path(fig3)
    assert crit.time == 9
    assert crit.ops == ("F", "H")
    # The twin branch carries the same time.
    assert path_time(fig3, ("G", "H")) == 9


def test_estimate_cycle_fixture_values(sec2, fig3):
    assert estimate_cycle(sec2, 3) == 6
    assert estimate_cycle(fig3, 3) == 3


def test_estimate_cycle_clamps_to_one(sec2):
    assert estimate_cycle(sec2, 18) == 1
    assert estimate_cycle(sec2, 100) == 1


def test_estimate_cycle_rounds_up(sec2):
    # 18 delays over 4 cycles needs 5 bits of chaining.
    assert estimate_cycle(sec2, 4) == 5
    assert estimate_cycle(sec2, 5) == 4


def _arrivals(source: str):
    graph = parse(source)
    return graph, bit_arrivals(graph)


def test_truncating_slice_shifts_the_start():
    g, arr = _arrivals(
        "design d;\ninput a : u8; input b : u8; input c : u4;\n"
        "X: add u8 = a + b;\nY: add u4 = X[7:4] + c;\noutput Y;"
    )
    assert arr[("Y", 0)] == 6
    assert arr[("Y", 3)] == 9
    # The backward formula agrees: 4 bits of Y, one crossing, 4 dropped bits.
    assert path_time(g, ("X", "Y")) == 9


def test_carry_edge_waits_for_the_producer_msb():
    g, arr = _arrivals(
        "design d;\ninput a : u8; input b : u8; input c : u4;\n"
        "X: add u8 = a + b;\nY: add u4 carry(X) = c + c;\noutput Y;"
    )
    assert arr[("Y", 0)] == 9
    assert arr[("Y", 3)] == 12
    assert path_time(g, ("X", "Y")) == 12


def test_glue_is_transparent():
    _, arr = _arrivals(
        "design d;\ninput a : u4; input b : u4;\n"
        "X: add u4 = a + b;\nN: not u4 = X;\nY: add u4 = N + b;\noutput Y;"
    )
    assert arr[("N", 3)] == arr[("X", 3)]
    assert arr[("Y", 3)] == 1 + max(arr[("N", 3)], arr[("Y", 2)])


def test_core_delay_is_opaque():
    src = (
        "design d;\ninput a : u4; input b : u4;\n"
        "M: mult u8 = a * b;\nY: add u8 = M + M;\noutput Y;"
    )
    _, arr0 = _arrivals(src)
    g = parse(src)
    arr5 = bit_arrivals(g, core_delay=5)
    assert arr0[("M", 0)] == 0 and arr0[("M", 7)] == 0
    assert arr5[("M", 7)] == 5
    assert arr5[("Y", 7)] == arr0[("Y", 7)] + 5
    assert estimate_cycle(g, 2, core_delay=5) == estimate_cycle(g, 2) + 3
    with pytest.raises(TimingError, match="core delay"):
        bit_arrivals(g, core_delay=-1)


def test_path_time_rejects_non_adjacent_ops(sec2):
    with pytest.raises(TimingError, match="does not consume"):
        path_time(sec2, ("C", "G"))


def test_path_time_rejects_glue_members():
    g = parse(
        "design d;\ninput a : u4;\nX: add u4 = a + a;\nN: not u4 = X;\noutput N;"
    )
    with pytest.raises(TimingError, match="is not an add"):
        path_time(g, ("X", "N"))


def test_timing_requires_kernel_kinds():
    g = parse("design d;\ninput a : u4;\nS: sub u4 = a - a;\noutput S;")
    with pytest.raises(TimingError, match="kernel"):
        bit_arrivals(g)
    kernel, _ = extract_kernel(g)
    assert max(bit_arrivals(kernel).values()) == 4


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_arrivals_match_exhaustive_path_enumeration(seed):
    g = random_add_design(seed)
    arr = bit_arrivals(g)
    assert max(arr.values()) == max(path_time(g, p) for p in op_paths(g))
