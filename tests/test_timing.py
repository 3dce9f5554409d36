"""Arrival-time analysis, critical paths, and the cycle estimate."""

from math import ceil

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bitfrag import extract_kernel, parse, timing
from bitfrag.dfg import OpKind
from bitfrag.fragmenter import InfeasibleError, analyze
from bitfrag.timing import (
    CriticalPath,
    TimingError,
    arrival_table,
    bit_arrivals,
    critical_path,
    estimate_cycle,
)
from conftest import (
    TIE_SOURCE,
    bit_asap,
    load_design,
    op_paths,
    path_time,
    random_add_design,
    random_full_design,
)


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


def test_critical_path_prefers_data_bits_to_carries_on_ties():
    # Definition order alone would walk from Z into Y's carry.
    kernel, _ = extract_kernel(parse(TIE_SOURCE))
    assert critical_path(kernel) == CriticalPath(("X", "Z"), 8)


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


def test_estimate_cycle_needs_a_latency_of_at_least_one_cycle(sec2):
    with pytest.raises(TimingError, match="latency must be at least 1 cycle, got 0"):
        estimate_cycle(sec2, 0)


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
    # The same slice inside a concat operand.
    g, arr = _arrivals(
        "design d;\ninput a : u8; input b : u8; input c : u4;\n"
        "X: add u8 = a + b;\nY: add u6 = {c[1:0], X[7:4]} + b;\noutput Y;"
    )
    assert arr[("Y", 5)] == 11
    assert path_time(g, ("X", "Y")) == 11


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


def test_core_is_opaque():
    src = (
        "design d;\ninput a : u4; input b : u4;\n"
        "M: mult u8 = a * b;\nY: add u8 = M + M;\noutput Y;"
    )
    _, arr0 = _arrivals(src)
    assert arr0[("M", 0)] == 0 and arr0[("M", 7)] == 0


def test_path_time_rejects_non_adjacent_ops(sec2):
    with pytest.raises(ValueError, match="does not consume"):
        path_time(sec2, ("C", "G"))


def test_path_time_rejects_an_empty_path(sec2):
    with pytest.raises(ValueError, match="empty path"):
        path_time(sec2, ())


def test_path_time_rejects_glue_members():
    g = parse(
        "design d;\ninput a : u4;\nX: add u4 = a + a;\nN: not u4 = X;\noutput N;"
    )
    with pytest.raises(ValueError, match="is not an add"):
        path_time(g, ("X", "N"))


def test_timing_requires_kernel_kinds():
    g = parse("design d;\ninput a : u4;\nS: sub u4 = a - a;\noutput S;")
    # Nothing is kept for a graph timing refuses: every call refuses again.
    for _ in range(2):
        for call in (bit_arrivals, critical_path, lambda g: estimate_cycle(g, 2)):
            with pytest.raises(TimingError, match="kernel"):
                call(g)
    kernel, _ = extract_kernel(g)
    assert max(bit_arrivals(kernel).values()) == 4


def test_a_kernel_runs_the_arrival_recurrence_once(monkeypatch):
    runs = []

    def counted(graph):
        runs.append(graph)
        return arrival_table(graph)

    monkeypatch.setattr(timing, "arrival_table", counted)
    kernel, _ = extract_kernel(load_design("elliptic"))
    crit = critical_path(kernel)
    table = kernel.arrivals
    assert estimate_cycle(kernel, 3) == max(1, ceil(crit.time / 3))
    assert kernel.arrivals is table
    assert list(bit_arrivals(kernel).values()) == list(table)
    assert kernel.arrivals is table
    assert runs == [kernel]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_arrivals_match_exhaustive_path_enumeration(seed):
    g = random_add_design(seed)
    arr = bit_arrivals(g)
    assert max(arr.values()) == max(path_time(g, p) for p in op_paths(g))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_path_oracle_times_the_critical_path(seed):
    """On adds that read each other directly, with no glue or core
    between, the closed form times the critical path as the recurrence
    does."""
    g = random_add_design(seed)
    crit = critical_path(g)
    assert path_time(g, crit.ops) == crit.time


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 12))
def test_estimate_cycle_spreads_the_critical_time_over_the_latency(seed, lam):
    kernel, _ = extract_kernel(random_full_design(seed))
    assert estimate_cycle(kernel, lam) == max(1, ceil(critical_path(kernel).time / lam))


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([random_add_design, random_full_design]),
    st.integers(0, 10_000),
    st.integers(1, 6),
    st.integers(1, 16),
)
@example(random_full_design, 6390, 1, 1)  # glue alone: no adder bit
def test_asap_shares_the_arrival_recurrence(make, seed, lam, n_bits):
    """Without ``n_bits`` the recurrence gives ``graph.arrivals``.  With
    it, only a multiplier core differs, by rounding up to a cycle
    boundary: without cores, a bit's ASAP cycle is its arrival time
    divided into cycles, so the estimated cycle is the smallest that
    fits every ASAP cycle in the latency.  A core can need more.  A
    kernel of glue alone has no adder bit and a critical time of 0, so
    its estimated cycle is 1."""
    kernel, _ = extract_kernel(make(seed))
    arrival = kernel.arrivals
    assert arrival_table(kernel) == arrival
    if any(op.kind is OpKind.MULT_CORE for op in kernel.ops):
        return
    try:
        mobility = analyze(kernel, n_bits, lam)
    except InfeasibleError:
        pass
    else:
        assert mobility.asap == tuple(ceil(t / n_bits) for t in arrival)
    n = estimate_cycle(kernel, lam)
    assert max((s.cycle for s in bit_asap(kernel, n).values()), default=0) <= lam
    if n > 1:
        assert max(s.cycle for s in bit_asap(kernel, n - 1).values()) > lam

