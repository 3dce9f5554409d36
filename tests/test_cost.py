"""Datapath cost model: lanes, boundary registers, multiplexers."""


import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitfrag import extract_kernel, parse
from bitfrag.cost import costs, stored_bits
from bitfrag.dfg import CarryBit, OpBit
from bitfrag.fragmenter import (
    InfeasibleError,
    bucket_runs,
    op_runs,
    whole_runs,
)
from bitfrag.scheduler import ScheduleError, schedule_kernel, verify_schedule
from conftest import (
    DESIGN_MAKERS,
    bit_name,
    carried_full_design,
    deep_settings,
    keyed_refs,
    keyed_stored_bits,
    keyed_view,
    random_full_design,
    realized_slots,
    replace,
    run_pipeline,
    smallest_pipeline,
)


@pytest.fixture(scope="module")
def sec2_cost(request):
    return costs(run_pipeline(request.getfixturevalue("sec2"), 3))


def test_one_lane_per_original_add(sec2_cost):
    assert [(l.parent, l.width, l.fragment_ids) for l in sec2_cost.lanes] == [
        ("C", 6, ("C0", "C1", "C2")),
        ("E", 6, ("E0", "E1", "E2")),
        ("G", 6, ("G0", "G1", "G2")),
    ]


def test_boundary_registers_five_bits(sec2_cost):
    assert sec2_cost.stored_per_boundary == {1: 5, 2: 5}
    assert sec2_cost.max_stored == 5
    assert sec2_cost.stored_sets[1] == (
        "C0[5]",
        "E0[4]",
        "carry(C0)",
        "carry(E0)",
        "carry(G0)",
    )
    assert sec2_cost.stored_sets[2] == (
        "C1[5]",
        "E1[5]",
        "carry(C1)",
        "carry(E1)",
        "carry(G1)",
    )


def test_register_binding_slots(sec2_cost):
    rows = [
        (r.kind, r.width, r.signals, r.fan_in) for r in sec2_cost.registers
    ]
    assert rows == [
        ("data", 1, ("C0[5]", "C1[5]"), 2),
        ("data", 1, ("E0[4]", "E1[5]"), 2),
        ("carry", 1, ("carry lane C",), 1),
        ("carry", 1, ("carry lane E",), 1),
        ("carry", 1, ("carry lane G",), 1),
    ]


def test_port_muxes_and_carry_fan_in(sec2_cost):
    assert [(m.lane, m.port, m.fan_in, m.width) for m in sec2_cost.port_muxes] == [
        ("C", 0, 3, 6),
        ("C", 1, 3, 6),
        ("E", 0, 3, 6),
        ("E", 1, 3, 6),
        ("G", 0, 3, 6),
        ("G", 1, 3, 6),
    ]
    assert sec2_cost.carry_fan_in == {"C": 3, "E": 3, "G": 3}


def test_per_cycle_loads(sec2_cost):
    assert sec2_cost.loads == {1: 15, 2: 18, 3: 15}


def test_original_schedule_comparison(sec2):
    """The unfragmented baseline at the same latency: every add whole, in
    its own cycle, through the same tiling, scheduler and cost model."""
    whole = smallest_pipeline(sec2, 3, whole_runs)
    assert whole.n_bits == 16
    assert smallest_pipeline(sec2, 3).n_bits == 6
    assert whole.cycle_of == {"C": 1, "E": 2, "G": 3}
    assert verify_schedule(whole) == []
    o = costs(whole)
    assert [(l.parent, l.width, l.fragment_ids) for l in o.lanes] == [
        ("C", 16, ("C",)),
        ("E", 16, ("E",)),
        ("G", 16, ("G",)),
    ]
    assert o.stored_per_boundary == {1: 16, 2: 16}
    assert o.stored_sets[1] == tuple(f"C[{i}]" for i in range(16))
    assert o.stored_sets[2] == tuple(f"E[{i}]" for i in range(16))
    assert o.max_stored == 16
    assert {m.fan_in for m in o.port_muxes} == {1}
    assert o.carry_fan_in == {"C": 1, "E": 1, "G": 1}
    assert [(r.kind, r.signals) for r in o.registers] == [
        ("data", (f"C[{i}]", f"E[{i}]")) for i in range(16)
    ]


def test_fig3_lane_widths(fig3):
    report = costs(run_pipeline(fig3, 3))
    assert [(l.parent, l.width) for l in report.lanes] == [
        ("A", 3),
        ("B", 2),
        ("C", 2),
        ("D", 2),
        ("E", 2),
        ("F", 3),
        ("G", 3),
        ("H", 3),
    ]
    assert report.stored_per_boundary == {1: 11, 2: 11}
    assert report.max_stored == 11
    assert report.loads == {1: 17, 2: 18, 3: 18}


def test_cores_are_separate_units(mixed):
    report = costs(run_pipeline(mixed, 6))
    assert report.cores == (("P", 8),)
    assert [(l.parent, l.width) for l in report.lanes] == [
        ("Q", 2),
        ("R", 1),
        ("L_sum", 2),
        ("M_sum", 2),
    ]


def test_stored_bits_hold_only_crossing_reads(sec2):
    sched = run_pipeline(sec2, 3)
    held = stored_bits(sched)
    assert set(held) == {1, 2}
    for bits in held.values():
        assert all(type(n) is int for n in bits) and bits == sorted(set(bits))
    # Internal ripple bits of one fragment never appear: only fragment
    # MSBs feeding the next cycle and the carries between fragments.
    refs = keyed_refs(sched.graph)
    assert [bit_name(refs[n]) for n in held[1]] == [
        "C0[5]", "E0[4]", "carry(C0)", "carry(E0)", "carry(G0)",
    ]


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([random_full_design, carried_full_design]),
    st.integers(0, 10_000),
    st.sampled_from([2, 3, 4, 6]),
    st.booleans(),
)
def test_stored_bits_are_the_reads_that_cross_each_boundary(make, seed, lam, bucket):
    kernel, _ = extract_kernel(make(seed))
    try:
        sched = schedule_kernel(kernel, lam, runs=bucket_runs if bucket else op_runs)
    except (InfeasibleError, ScheduleError):
        return
    graph, n = sched.graph, sched.n_bits
    position = {op.id: k for k, op in enumerate(graph.ops)}
    realized = realized_slots(graph, n, sched.cycle_of)[0]

    def produced(ref) -> int:  # a carry leaves with its op's top bit
        bit = graph.op(ref.op).width - 1 if isinstance(ref, CarryBit) else ref.bit
        return realized[(ref.op, bit)].cycle

    def order(ref) -> tuple:  # data bits, then carries, by graph position
        if isinstance(ref, CarryBit):
            return (1, position[ref.op], 0)
        return (0, position[ref.op], ref.bit)

    held, refs = stored_bits(sched), keyed_refs(graph)
    assert set(held) == set(range(1, lam))
    for b, bits in held.items():
        crossing = {
            ref
            for (unit, _), reads in keyed_view(graph).reads.items()
            if sched.cycle_of[unit] > b
            for ref in reads
            if produced(ref) <= b
        }
        assert [refs[n] for n in bits] == sorted(crossing, key=order)


@deep_settings(150)
@given(
    st.sampled_from(DESIGN_MAKERS),
    st.integers(0, 10_000),
    st.integers(2, 5),
    st.sampled_from([op_runs, bucket_runs, whole_runs]),
    st.data(),
)
def test_stored_bits_match_the_keyed_oracle(make, seed, lam, tiling, data):
    """``stored_bits`` walks the view's units and then its carries,
    listing bit numbers; the oracle reads each bit's op from its key
    and numbers it by the key's place among the keys.  They agree on
    every schedule, and on schedules with units moved anywhere or
    dropped, as the latch check may be handed."""
    try:
        sched = run_pipeline(make(seed), lam, runs=tiling)
    except (InfeasibleError, ScheduleError):
        return
    assert stored_bits(sched) == keyed_stored_bits(sched)
    if sched.cycle_of:
        units = st.sampled_from(sorted(sched.cycle_of))
        cycle_of = {
            **sched.cycle_of,
            **data.draw(st.dictionaries(units, st.integers(-1, lam + 2), max_size=3)),
        }
        for uid in data.draw(st.sets(units, max_size=2)):
            del cycle_of[uid]
        tampered = replace(sched, cycle_of=cycle_of)
        assert stored_bits(tampered) == keyed_stored_bits(tampered)


@deep_settings(100)
@given(
    st.sampled_from(DESIGN_MAKERS),
    st.integers(0, 10_000),
    st.integers(2, 5),
    st.sampled_from([op_runs, bucket_runs, whole_runs]),
)
def test_report_names_the_keyed_refs(make, seed, lam, tiling):
    """The report names each held number once and binds registers by
    number; the oracle names the refs of ``keyed_stored_bits`` with
    ``bit_name`` and binds them slot by slot, data bits then carries,
    a carry by the lane its fragment belongs to."""
    try:
        sched = run_pipeline(make(seed), lam, runs=tiling)
    except (InfeasibleError, ScheduleError):
        return
    report, refs = costs(sched), keyed_refs(sched.graph)
    held = {b: [refs[n] for n in bits] for b, bits in keyed_stored_bits(sched).items()}
    assert report.stored_sets == {b: tuple(map(bit_name, boundary)) for b, boundary in held.items()}
    lane_of = {f.id: f.parent for parts in sched.fragments.values() for f in parts}

    def slots(signals_by_boundary) -> list[list]:
        out: list[list] = []
        for signals in signals_by_boundary:
            for j, signal in enumerate(signals):
                if j == len(out):
                    out.append([])
                if signal not in out[j]:
                    out[j].append(signal)
        return out

    boundaries = held.values()
    data = slots([bit_name(r) for r in boundary if isinstance(r, OpBit)] for boundary in boundaries)
    carries = slots(
        [f"carry lane {lane_of.get(r.op, r.op)}" for r in boundary if isinstance(r, CarryBit)]
        for boundary in boundaries
    )
    assert [(r.kind, list(r.signals), r.fan_in) for r in report.registers] == [
        *(("data", s, len(s)) for s in data),
        *(("carry", s, len(s)) for s in carries),
    ]
    assert [r.index for r in report.registers] == list(range(len(report.registers)))


def test_lane_width_bounds_every_fragment(sat, fig3):
    for graph in (sat, fig3):
        sched = run_pipeline(graph, 3)
        report = costs(sched)
        by_parent = {l.parent: l for l in report.lanes}
        for parent, parts in sched.fragments.items():
            lane = by_parent[parent]
            assert lane.width == max(f.hi - f.lo + 1 for f in parts)
            assert all(f.hi - f.lo + 1 <= lane.width for f in parts)
