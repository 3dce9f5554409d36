"""List scheduling of fragments: placement, loads, verification."""

import types
from math import ceil
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bitfrag import extract_kernel, parse, scheduler
from bitfrag.dfg import OpKind
from bitfrag.fragmenter import (
    InfeasibleError,
    alap_table,
    analyze,
    apply_runs,
    bucket_fragment,
    bucket_runs,
    fragment,
    op_runs,
    whole_runs,
)
from bitfrag.scheduler import (
    Schedule,
    ScheduleError,
    _Plan,
    _ranked,
    _realized_table,
    schedule,
    schedule_kernel,
    unit_windows,
    verify_schedule,
)
from bitfrag.simulator import check_equiv
from bitfrag.timing import critical_path, estimate_cycle
from conftest import (
    DESIGN_MAKERS,
    GLUE_CORE_SOURCE,
    Slot,
    bit_alap,
    bit_asap,
    consumer_successors,
    deep_settings,
    feasible_pipeline,
    feasible_placements,
    keyed_view,
    load_design,
    placement_count,
    random_add_design,
    random_full_design,
    realized_slots,
    replace,
    run_pipeline,
    slot_time,
)


def test_prescheduled_fragments_are_pinned(sec2):
    sched = run_pipeline(sec2, 3)
    assert sched.n_bits == 6
    for parts in sched.fragments.values():
        for f in parts:
            assert f.asap_cycle == f.alap_cycle
            assert sched.cycle_of[f.id] == f.asap_cycle
    assert sched.loads() == {1: 15, 2: 18, 3: 15}
    assert verify_schedule(sched) == []


def test_sec2_realized_ripple_slots(sec2):
    sched = run_pipeline(sec2, 3)
    realized = realized_slots(sched.graph, sched.n_bits, sched.cycle_of)[0]
    assert realized[("C0", 0)] == Slot(1, 1)
    assert realized[("C0", 5)] == Slot(1, 6)
    assert realized[("C1", 0)] == Slot(2, 1)
    # E chains one slot behind C inside the same cycle.
    assert realized[("E0", 0)] == Slot(1, 2)
    assert realized[("G0", 3)] == Slot(1, 6)


def test_fig3_schedule_within_windows(fig3):
    sched = run_pipeline(fig3, 3)
    assert sched.n_bits == 3
    assert verify_schedule(sched) == []
    for parts in sched.fragments.values():
        for f in parts:
            assert f.asap_cycle <= sched.cycle_of[f.id] <= f.alap_cycle
    assert sum(sched.loads().values()) == 53
    assert max(sched.loads().values()) <= 18


def test_balancing_splits_across_nonconsecutive_cycles(sat):
    sched = run_pipeline(sat, 3)
    assert sched.n_bits == 3
    # Cycle 2 is saturated by the chain, so the standalone add splits
    # around it: low half in cycle 1, high half in cycle 3.
    assert [(f.id, f.lo, f.hi) for f in sched.fragments["X"]] == [
        ("X0", 0, 2),
        ("X1", 3, 5),
    ]
    assert sched.cycle_of["X0"] == 1
    assert sched.cycle_of["X1"] == 3
    assert sched.loads() == {1: 11, 2: 9, 3: 10}
    assert verify_schedule(sched) == []


def test_core_occupies_a_full_cycle(mixed):
    sched = run_pipeline(mixed, 6)
    assert sched.cycle_of["P"] == 1
    assert sched.loads()[1] == 0
    realized = realized_slots(sched.graph, sched.n_bits, sched.cycle_of)[0]
    assert realized[("P", 0)] == Slot(1, sched.n_bits)
    assert verify_schedule(sched) == []


def test_core_fed_through_glue_runs_in_the_first_cycle():
    design = parse(GLUE_CORE_SOURCE)
    sched = run_pipeline(design, 2, 8)
    assert sched.cycle_of == {"P": 1, "Q": 2}
    assert verify_schedule(sched) == []
    assert check_equiv(design, sched).equivalent


def test_an_add_over_glue_fed_only_by_inputs_chains_from_depth_one():
    """Glue has no slot of its own; an add that reads glue over inputs
    only waits on nothing, so it chains from depth 1."""
    design = parse(
        "design g; input A : u4; input B : u4;"
        " N: not u4 = A; X: add u4 = N + B; output X;"
    )
    sched = run_pipeline(design, 2)
    realized = realized_slots(sched.graph, sched.n_bits, sched.cycle_of)[0]
    assert ("N", 0) not in realized
    assert realized[("X0", 0)] == Slot(1, 1)


def test_every_add_needs_its_fragment_record(sec2):
    sched = run_pipeline(sec2, 3)
    with pytest.raises(ScheduleError, match="C0: add has no fragment record"):
        schedule(sched.graph, {}, 3, sched.n_bits)
    partial = {k: v for k, v in sched.fragments.items() if k != "E"}
    with pytest.raises(ScheduleError, match="E0: add has no fragment record"):
        schedule(sched.graph, partial, 3, sched.n_bits)
    first, *rest = sched.fragments["E"]
    empty = dict(sched.fragments, E=[replace(first, alap_cycle=0), *rest])
    with pytest.raises(ScheduleError, match=r"E0: empty cycle window \[1, 0\]"):
        schedule(sched.graph, empty, 3, sched.n_bits)


@pytest.mark.parametrize("lam, n_bits, message", [
    (0, 6, "latency must be at least 1 cycle, got 0"),
    (-2, 6, "latency must be at least 1 cycle, got -2"),
    (3, 0, "cycle must hold at least one bit, got 0"),
])
def test_schedule_refuses_a_latency_or_cycle_below_one(sec2, lam, n_bits, message):
    sched = run_pipeline(sec2, 3)
    with pytest.raises(ScheduleError, match=f"^{message}$"):
        schedule(sched.graph, sched.fragments, lam, n_bits)


def test_determinism(fig3):
    a = run_pipeline(fig3, 3)
    b = run_pipeline(fig3, 3)
    assert list(a.cycle_of.items()) == list(b.cycle_of.items())
    assert a == b


def test_unit_windows_prefer_fragment_records(fig3):
    kernel, _ = extract_kernel(fig3)
    mobility = analyze(kernel, 3, 3)
    frags, transformed = bucket_fragment(kernel, mobility)
    windows = unit_windows(transformed, analyze(transformed, 3, 3), frags)
    assert windows["B0"] == (1, 2)
    assert windows["B1"] == (2, 3)


def test_bucket_tiles_schedule_when_decoupled(sat):
    sched = run_pipeline(sat, 3, 3, bucket_runs)
    assert verify_schedule(sched) == []
    from bitfrag.simulator import check_equiv

    assert check_equiv(sat, sched).equivalent


def test_bucket_tiles_fail_honestly_on_coupled_chains(fig3):
    # Whole-cycle tiles cannot interleave the chained bits of this
    # design; the window intersection empties out and scheduling stops.
    with pytest.raises(ScheduleError):
        run_pipeline(fig3, 3, 3, bucket_runs)


def _cycle_sizes(kernel, lam: int) -> range:
    """Every n_bits from the estimate up to the kernel's critical time,
    past which no larger cycle helps."""
    low = estimate_cycle(kernel, lam)
    return range(low, max(low, critical_path(kernel).time) + 1)


# The next two properties are the premise for finding the smallest
# feasible n_bits by bisecting on ALAP alone.
@deep_settings(100)
@given(st.sampled_from(DESIGN_MAKERS), st.integers(0, 10_000), st.integers(2, 4), st.data())
def test_a_per_bit_tiling_schedules_wherever_alap_holds(make, seed, lam, data):
    """Wherever ``analyze`` succeeds, ``schedule_kernel`` with the
    per-bit tiling succeeds and its schedule verifies clean."""
    kernel, _ = extract_kernel(make(seed))
    n_bits = data.draw(st.sampled_from(_cycle_sizes(kernel, lam)))
    try:
        analyze(kernel, n_bits, lam)
    except InfeasibleError:
        return
    assert verify_schedule(schedule_kernel(kernel, lam, n_bits)) == []


@deep_settings(100)
@given(st.sampled_from(DESIGN_MAKERS), st.integers(0, 10_000), st.integers(2, 4))
def test_alap_feasibility_is_monotone_in_n_bits(make, seed, lam):
    """Once ALAP fits at some n_bits, it fits at every larger one."""
    kernel, _ = extract_kernel(make(seed))
    feasible = []
    for n_bits in _cycle_sizes(kernel, lam):
        try:
            alap_table(kernel, n_bits, lam)
        except InfeasibleError:
            feasible.append(False)
        else:
            feasible.append(True)
    assert feasible == sorted(feasible)


def _tampered(sched: Schedule, **moves) -> Schedule:
    cycle_of = dict(sched.cycle_of, **moves)
    return Schedule(sched.graph, sched.lam, sched.n_bits, cycle_of, sched.fragments)


def test_verify_flags_window_escape(sat):
    sched = run_pipeline(sat, 3)
    bad = _tampered(sched, X1=1, X0=1)
    msgs = "; ".join(verify_schedule(bad))
    assert "X1: cycle 1 outside window [2, 3]" in msgs


def test_verify_flags_sibling_order(fig3):
    sched = run_pipeline(fig3, 3)
    first, second = (f.id for f in sched.fragments["A"][:2])
    bad = _tampered(
        sched,
        **{first: sched.cycle_of[second] + 1, second: sched.cycle_of[second]},
    )
    msgs = "; ".join(verify_schedule(bad))
    assert f"A: fragment {first} after its higher half {second}" in msgs


def test_verify_flags_depth_overflow(sec2):
    sched = run_pipeline(sec2, 3)
    # Forcing two chained fragments into one cycle exceeds six slots.
    bad = _tampered(sched, C1=1)
    msgs = verify_schedule(bad)
    assert "C1: cycle 1 outside window [2, 2]" in msgs
    assert "C1[0]: chain depth 7 exceeds 6 bits per cycle" in msgs


def test_verify_reports_a_budget_too_small_for_mobility(sec2):
    # The scheduled graph's own mobility analysis cannot meet the shrunk
    # budget; the units it cannot hold are reported by their cycles.
    sched = run_pipeline(sec2, 3)
    assert verify_schedule(replace(sched, lam=2)) == [
        "C2: cycle 3 outside 1..2",
        "E2: cycle 3 outside 1..2",
        "G2: cycle 3 outside 1..2",
    ]
    problems = verify_schedule(replace(sched, lam=2, n_bits=4))
    assert problems[:3] == [
        "C2: cycle 3 outside 1..2",
        "E2: cycle 3 outside 1..2",
        "G2: cycle 3 outside 1..2",
    ]
    assert "C0[4]: chain depth 5 exceeds 4 bits per cycle" in problems
    assert "G2[5]: chain depth 6 exceeds 4 bits per cycle" in problems


def test_verify_reports_a_missing_unit_and_still_checks_the_rest(sec2):
    sched = run_pipeline(sec2, 3)
    cycle_of = dict(sched.cycle_of)
    del cycle_of["C0"]
    assert verify_schedule(replace(sched, cycle_of=cycle_of)) == [
        "C0: not scheduled"
    ]
    cycle_of["C1"] = 1
    assert verify_schedule(replace(sched, cycle_of=cycle_of)) == [
        "C0: not scheduled",
        "C1: cycle 1 outside window [2, 2]",
    ]


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([random_add_design, random_full_design]),
    st.integers(0, 299),
    st.data(),
)
def test_verify_schedule_reports_and_never_raises_on_tampered_schedules(make, seed, data):
    """Cycles moved anywhere in -1 .. lam + 2, units dropped, and a
    latency or a cycle size of 0, 1, its own or one more: the checker
    returns its problems as a list, empty only for the schedule as
    built, and raises nothing."""
    try:
        sched = run_pipeline(make(seed), 3)
    except (InfeasibleError, ScheduleError):
        return
    # A name no unit has stands in when the design has no unit at all.
    units = st.sampled_from(sorted(sched.cycle_of) or [""])
    moved = data.draw(st.dictionaries(units, st.integers(-1, sched.lam + 2), max_size=4))
    dropped = data.draw(st.sets(units, max_size=2))
    tampered = replace(
        sched,
        lam=data.draw(st.sampled_from([0, 1, sched.lam, sched.lam + 1])),
        n_bits=data.draw(st.sampled_from([0, 1, sched.n_bits, sched.n_bits + 1])),
        cycle_of={
            uid: moved.get(uid, c) for uid, c in sched.cycle_of.items() if uid not in dropped
        },
    )
    problems = verify_schedule(tampered)
    assert isinstance(problems, list)
    assert all(isinstance(p, str) and p for p in problems)
    if tampered == sched:
        assert problems == []


def _verify_with_full_analysis(sched: Schedule) -> list[str]:
    """Oracle for ``verify_schedule``'s verdict: its checks, with every
    window, a core's too, from ``unit_windows`` over the whole of
    ``analyze``, which always runs and reports a budget it cannot meet."""
    problems: list[str] = []
    graph, cycle_of = sched.graph, sched.cycle_of
    try:
        windows = unit_windows(graph, analyze(graph, sched.n_bits, sched.lam), sched.fragments)
    except InfeasibleError as err:
        problems.append(str(err))
        windows = {}
    complete = True
    for op in graph.ops:
        if op.kind.glue:
            continue
        if op.id not in cycle_of:
            problems.append(f"{op.id}: not scheduled")
            complete = False
            continue
        c = cycle_of[op.id]
        if not 1 <= c <= sched.lam:
            problems.append(f"{op.id}: cycle {c} outside 1..{sched.lam}")
        early, late = windows.get(op.id, (c, c))
        if not early <= c <= late:
            problems.append(f"{op.id}: cycle {c} outside window [{early}, {late}]")
    for parent, parts in sched.fragments.items():
        for a, b in zip(parts, parts[1:]):
            if a.id in cycle_of and b.id in cycle_of and cycle_of[a.id] > cycle_of[b.id]:
                problems.append(f"{parent}: fragment {a.id} after its higher half {b.id}")
    if complete:
        problems += realized_slots(graph, sched.n_bits, cycle_of)[1]
    return problems


def _global_names_reached(fn) -> set[str]:
    """Every global name ``fn``'s code reads, nested code included, and
    the names read by each package function it reaches through them."""
    names: set[str] = set()
    seen, todo = {fn}, [fn]
    while todo:
        f = todo.pop()
        codes, own = [f.__code__], set()
        while codes:
            code = codes.pop()
            own.update(code.co_names)
            codes += [c for c in code.co_consts if isinstance(c, types.CodeType)]
        names |= own
        for name in own:
            target = f.__globals__.get(name)
            if (isinstance(target, types.FunctionType) and target not in seen
                    and target.__module__.startswith("bitfrag.")):
                seen.add(target)
                todo.append(target)
    return names


def test_the_checker_reaches_no_mobility_analysis():
    # ``schedule_kernel`` shares the checker's module and calls
    # ``analyze``; no function ``verify_schedule`` runs names it or
    # ``alap_table``, whatever the schedule (the property below counts
    # their calls on drawn ones).
    reached = _global_names_reached(verify_schedule)
    assert "_realized_table" in reached
    assert not {"analyze", "alap_table", "schedule_kernel"} & reached
    assert "analyze" in _global_names_reached(scheduler.schedule_kernel)


@deep_settings(200)
@given(st.integers(0, 299), st.sampled_from([op_runs, bucket_runs]), st.data())
def test_verify_schedule_matches_the_full_analysis_oracle(seed, runs, data):
    """Cycles moved, units dropped, a core moved out of its window, one
    fragment record removed, and a latency or a cycle size changed: the
    checker, which derives no mobility, refuses exactly the schedules
    the oracle refuses, and reports the same problems but for budget
    and window lines."""
    try:
        sched = run_pipeline(random_full_design(seed), 3, runs=runs)
    except (InfeasibleError, ScheduleError):
        return
    units = st.sampled_from(sorted(sched.cycle_of) or [""])
    cycle_of = dict(sched.cycle_of)
    cycle_of.update(data.draw(st.dictionaries(units, st.integers(-1, sched.lam + 2), max_size=3)))
    for uid in data.draw(st.sets(units, max_size=2)):
        cycle_of.pop(uid, None)
    cores = [op for op in sched.graph.ops if op.kind is OpKind.MULT_CORE]
    if cores and data.draw(st.booleans()):
        core = data.draw(st.sampled_from(cores))
        early, late = analyze(sched.graph, sched.n_bits, sched.lam).window(core)
        cycle_of[core.id] = data.draw(st.sampled_from([early - 1, late + 1]))
    fragments = dict(sched.fragments)
    if fragments and data.draw(st.booleans()):
        parent = data.draw(st.sampled_from(sorted(fragments)))
        parts = list(fragments[parent])
        del parts[data.draw(st.integers(0, len(parts) - 1))]
        fragments[parent] = parts
    tampered = replace(
        sched,
        lam=data.draw(st.sampled_from([0, 1, sched.lam - 1, sched.lam, sched.lam + 1])),
        n_bits=data.draw(st.sampled_from([0, 1, sched.n_bits - 1, sched.n_bits])),
        cycle_of=cycle_of,
        fragments=fragments,
    )
    with mock.patch("bitfrag.fragmenter.analyze", wraps=analyze) as derived, \
            mock.patch("bitfrag.fragmenter.alap_table", wraps=alap_table) as latest:
        problems = verify_schedule(tampered)
    assert derived.call_count == latest.call_count == 0
    want = _verify_with_full_analysis(tampered)
    assert bool(problems) == bool(want)
    assert _without_budget_or_windows(problems) == _without_budget_or_windows(want)


def _without_budget_or_windows(problems: list[str]) -> list[str]:
    """``problems`` less a budget below 1 or too small for ALAP and the
    window escapes: the lines the oracle words from its own analysis."""
    return [
        p for p in problems
        if not p.startswith(("cycle must ", "latency ")) and " outside window [" not in p
    ]


GLUE_ONLY_SOURCE = """
design glue;
input a : u4;
N: not u4 = a;
output N;
"""


def _clean_replays(make, seed: int, lam: int, tiling, data):
    """Clean replays of a design: (graph, cycle size, latency, cycles,
    realized ``(cycle, depth)`` table) with every unit in ``1..lam`` and
    no realized problem.

    The units start in their scheduled cycles, or their window floors if
    the tiling does not schedule, and some move to other cycles; each is
    replayed at the latency and the cycle size, each one less, the same
    and one more.
    """
    kernel, _ = extract_kernel(make(seed))
    n_bits = estimate_cycle(kernel, lam)
    try:
        fragments, graph = apply_runs(kernel, tiling(kernel, analyze(kernel, n_bits, lam)))
    except InfeasibleError:
        return
    try:
        cycle_of = schedule(graph, fragments, lam, n_bits).cycle_of
    except ScheduleError:
        windows = unit_windows(graph, analyze(graph, n_bits, lam), fragments)
        cycle_of = {uid: early for uid, (early, _) in windows.items()}
    if cycle_of:
        units = st.sampled_from(sorted(cycle_of))
        cycle_of = {
            **cycle_of,
            **data.draw(st.dictionaries(units, st.integers(1, lam + 1), max_size=3)),
        }
    for budget in (lam - 1, lam, lam + 1):
        for size in (n_bits - 1, n_bits, n_bits + 1):
            if budget < 1 or size < 1 or any(c > budget for c in cycle_of.values()):
                continue
            table, problems = _realized_table(graph, size, cycle_of)
            if not problems:
                yield graph, size, budget, cycle_of, table


_REPLAYED = (
    st.sampled_from(DESIGN_MAKERS),
    st.integers(0, 10_000),
    st.integers(1, 6),
    st.sampled_from([op_runs, bucket_runs, whole_runs]),
    st.data(),
)


@deep_settings(200)
@given(*_REPLAYED)
def test_alap_cannot_fail_on_a_clean_replay(make, seed, lam, tiling, data):
    """Why ``verify_schedule`` runs no ALAP table: on a clean replay, with
    every unit in ``1..lam`` and no realized problem, no bit's ALAP
    cycle is before its realized cycle, so ALAP cannot raise."""
    for graph, size, budget, _, table in _clean_replays(make, seed, lam, tiling, data):
        alap = alap_table(graph, size, budget)
        assert [n for n, t in enumerate(alap) if -(-t // size) < table[n][0]] == []


@deep_settings(200)
@given(*_REPLAYED)
def test_no_unit_leaves_its_derived_window_on_a_clean_replay(make, seed, lam, tiling, data):
    """Why ``verify_schedule`` derives no mobility: on a clean replay,
    every unit, so a core or an add whose record is gone, lies inside
    its ``analyze`` window, as each of its bits lies between its ASAP
    and its ALAP cycle."""
    for graph, size, budget, cycle_of, _ in _clean_replays(make, seed, lam, tiling, data):
        mobility = analyze(graph, size, budget)
        escaped = []
        for op in graph.ops:
            if not op.kind.glue:
                early, late = mobility.window(op)
                if not early <= cycle_of[op.id] <= late:
                    escaped.append(op.id)
        assert escaped == []


def test_verify_reports_a_budget_below_1_with_no_unit_to_check():
    """Bundled schedules verify clean; glue alone has no unit to report
    a problem, so a budget below 1 is the only line."""
    for name in ("sec2", "fig3", "elliptic", "diffeq"):
        assert verify_schedule(feasible_pipeline(load_design(name), 3)) == []
    glue = run_pipeline(parse(GLUE_ONLY_SOURCE), 1)
    assert verify_schedule(glue) == []
    assert verify_schedule(replace(glue, n_bits=0)) == [
        "cycle must hold at least one bit, got 0"
    ]
    assert verify_schedule(replace(glue, lam=0)) == [
        "latency must be at least 1 cycle, got 0"
    ]


def test_realized_slots_report_unready_operands(sec2):
    sched = run_pipeline(sec2, 3)
    cycle_of = dict(sched.cycle_of, E0=1, E1=1, E2=1)
    _, problems = realized_slots(sched.graph, sched.n_bits, cycle_of)
    assert "E1[1]: operand ready in cycle 2, read in 1" in problems
    assert any("chain depth" in m and "exceeds" in m for m in problems)


def test_execution_never_exceeds_the_chaining_budget(sec2, fig3, sat):
    for graph in (sec2, fig3, sat):
        sched = run_pipeline(graph, 3)
        realized = realized_slots(sched.graph, sched.n_bits, sched.cycle_of)[0]
        for op in sched.graph.ops:
            if op.kind is OpKind.ADD:
                for i in range(op.width):
                    slot = realized[(op.id, i)]
                    assert 1 <= slot.depth <= sched.n_bits


def _slot_tables(graph, lam: int) -> dict[str, dict]:
    """Every public slot table of ``graph``'s pipeline at ``lam``:
    mobility, the schedule's realized slots, and a recomputation with
    every unit in cycle 1, which reads operands before they are
    ready."""
    kernel, _ = extract_kernel(graph)
    n_bits = estimate_cycle(kernel, lam)
    tables = {"bit_asap": bit_asap(kernel, n_bits)}
    try:
        tables["bit_alap"] = bit_alap(kernel, n_bits, lam)
        sched = schedule_kernel(kernel, lam, n_bits)
    except (InfeasibleError, ScheduleError):
        return tables
    tables["realized_slots"] = realized_slots(sched.graph, n_bits, sched.cycle_of)[0]
    rushed = dict.fromkeys(sched.cycle_of, 1)
    tables["realized_slots, all in cycle 1"] = realized_slots(sched.graph, n_bits, rushed)[0]
    return tables


def _not_slots(tables: dict[str, dict]) -> dict[str, list]:
    # A plain tuple equals the Slot with its values, so only the type
    # shows one that leaked out of a pass.
    return {
        name: [key for key, slot in table.items() if type(slot) is not Slot]
        for name, table in tables.items()
        if any(type(slot) is not Slot for slot in table.values())
    }


@pytest.mark.parametrize("name", ["sec2", "fig3", "elliptic", "diffeq"])
def test_every_public_slot_is_a_slot_on_bundled_designs(name):
    tables = _slot_tables(load_design(name), 3)
    assert len(tables) == 4 and all(tables.values())
    assert _not_slots(tables) == {}


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([random_add_design, random_full_design]),
    st.integers(0, 10_000),
    st.integers(2, 4),
)
def test_every_public_slot_is_a_slot_on_random_designs(make, seed, lam):
    assert _not_slots(_slot_tables(make(seed), lam)) == {}


@deep_settings(60)
@given(
    st.sampled_from([random_add_design, random_full_design]),
    st.integers(0, 10_000),
    st.integers(2, 4),
    st.sampled_from([op_runs, bucket_runs]),
)
def test_completion_of_a_schedule_is_its_realized_slot_table(make, seed, lam, tiling):
    """A schedule keeps only ``cycle_of``, so the time table the scheduler
    ends on must be the one ``realized_slots`` derives from it, in its
    own ``(cycle, depth)`` pairs: the completion with every unit placed
    at its cycle, in number order, with no problem reported."""
    try:
        sched = run_pipeline(make(seed), lam, runs=tiling)
    except (InfeasibleError, ScheduleError):
        return
    n_bits = sched.n_bits
    windows = {f.id: (f.asap_cycle, f.alap_cycle)
               for parts in sched.fragments.values() for f in parts}
    plan = _Plan(sched.graph, lam, n_bits, windows, dict(sched.cycle_of))
    realized, problems = realized_slots(sched.graph, n_bits, sched.cycle_of)
    assert problems == []
    assert plan.base == [slot_time(slot, n_bits) for slot in realized.values()]


@deep_settings(100)
@given(
    st.sampled_from(DESIGN_MAKERS),
    st.integers(0, 10_000),
    st.integers(1, 6),
    st.sampled_from([op_runs, bucket_runs, whole_runs]),
)
def test_plan_successors_are_the_consumer_sets(make, seed, lam, tiling):
    """``_Plan.successors``, each unit's readers collected from
    ``producers``, equal the sets ``consumer_successors`` reads off
    ``bit_deps``, for a kernel and a rewrite of it, so ``vet`` re-settles
    every unit that consumes a time it changed.  The plan's windows do
    not matter here."""
    kernel, _ = extract_kernel(make(seed))
    n_bits = estimate_cycle(kernel, lam)
    graphs = [kernel]
    try:
        mobility = analyze(kernel, n_bits, lam)
    except InfeasibleError:
        pass
    else:
        graphs.append(apply_runs(kernel, tiling(kernel, mobility))[1])
    for g in graphs:
        plan = _Plan(g, lam, n_bits, {op.id: (1, lam) for op in g.ops}, {})
        assert plan.successors == consumer_successors(g)


def _reference_completes(graph, lam, n_bits, windows, partial) -> bool:
    """Whole-graph vetting: a greedy earliest completion of ``partial``."""
    producers = keyed_view(graph).producers  # unit bits, read through glue
    table = {}
    for op in graph.ops:
        if op.kind.glue:
            continue
        ready = max(
            (
                table[p].cycle
                for i in range(op.width)
                for p in producers[(op.id, i)]
                if p[0] != op.id
            ),
            default=0,
        )
        if op.kind is OpKind.MULT_CORE:
            c = partial.get(op.id, max(windows[op.id][0], ready + 1))
            if c <= ready or c > lam:
                return False
            for i in range(op.width):
                table[(op.id, i)] = Slot(c, n_bits)
            continue
        pinned = op.id in partial
        c = partial[op.id] if pinned else max(windows[op.id][0], ready)
        while True:
            if c > lam or c < ready:
                return False
            fits = True
            for i in range(op.width):
                slots = [table[p] for p in producers[(op.id, i)]]
                depth = 1 + max((s.depth for s in slots if s.cycle == c), default=0)
                if depth > n_bits:
                    fits = False
                    break
                table[(op.id, i)] = Slot(c, depth)
            if fits:
                break
            if pinned:
                return False
            c += 1
    return True


def _reference_schedule(graph, fragments, lam, n_bits):
    """The scheduler as it was before incremental vetting: every
    candidate re-completes the whole graph from a fresh partial map."""
    windows = unit_windows(graph, analyze(graph, n_bits, lam), fragments)

    def completes(partial):
        return _reference_completes(graph, lam, n_bits, windows, partial)

    frag_of = {f.id: f for parts in fragments.values() for f in parts}
    prev_sib, next_sib = {}, {}
    for parts in fragments.values():
        for a, b in zip(parts, parts[1:]):
            prev_sib[b.id] = a.id
            next_sib[a.id] = b.id

    cycle_of = {}
    for uid, (early, late) in windows.items():
        if early > late:
            raise ScheduleError(f"{uid}: empty cycle window [{early}, {late}]")
        if early == late and graph.op(uid).kind is OpKind.ADD:
            cycle_of[uid] = early

    for op in graph.ops:
        if op.kind is not OpKind.MULT_CORE:
            continue
        early, late = windows[op.id]
        for c in range(early, late + 1):
            if completes({**cycle_of, op.id: c}):
                cycle_of[op.id] = c
                break
        else:
            raise ScheduleError(f"no feasible cycle for core {op.id}")

    def order_key(uid):
        early, late = windows[uid]
        frag = frag_of.get(uid)
        return (late - early, early, frag.parent if frag else uid, frag.lo if frag else 0)

    movable = sorted(
        (op.id for op in graph.ops if op.kind is OpKind.ADD and op.id not in cycle_of),
        key=order_key,
    )
    loads = {c: 0 for c in range(1, lam + 1)}
    for op in graph.ops:
        if op.kind is OpKind.ADD and op.id in cycle_of:
            loads[cycle_of[op.id]] += op.width

    for uid in movable:
        lo_c, hi_c = windows[uid]
        if uid in prev_sib and prev_sib[uid] in cycle_of:
            lo_c = max(lo_c, cycle_of[prev_sib[uid]])
        if uid in next_sib and next_sib[uid] in cycle_of:
            hi_c = min(hi_c, cycle_of[next_sib[uid]])
        width = graph.op(uid).width
        best = None
        for c in range(lo_c, hi_c + 1):
            if not completes({**cycle_of, uid: c}):
                continue
            peak = max(loads[k] + (width if k == c else 0) for k in loads)
            if best is None or (peak, c) < best:
                best = (peak, c)
        if best is None:
            raise ScheduleError(f"no feasible cycle for {uid}")
        cycle_of[uid] = best[1]
        loads[best[1]] += width

    problems = realized_slots(graph, n_bits, cycle_of)[1]
    if problems:
        raise ScheduleError("; ".join(problems))
    return Schedule(graph, lam, n_bits, cycle_of, fragments)


def _outcome(scheduler, transformed, fragments, lam, n_bits):
    """``cycle_of`` and the problems ``realized_slots`` finds in it, or
    the typed error raised."""
    try:
        sched = scheduler(transformed, fragments, lam, n_bits)
    except ScheduleError as err:
        return str(err)
    return sched.cycle_of, realized_slots(transformed, n_bits, sched.cycle_of)[1]


_ORACLE_CASES = [
    pytest.param(lambda name=name: load_design(name), lam, id=f"{name}@{lam}")
    for name in ("sec2", "fig3", "elliptic", "diffeq")
    for lam in range(2, 7)
] + [
    pytest.param(
        lambda kind=kind, seed=seed: kind(seed), lam, id=f"{kind.__name__}({seed})@{lam}"
    )
    for kind in (random_add_design, random_full_design)
    for seed in range(0, 200, 25)
    for lam in (2, 3, 4)
] + [
    # Bucket-tiled, its pins alone do not complete and it has a core:
    # scheduling stops on the core before any add is tried.
    pytest.param(lambda: random_full_design(15), 4, id="random_full_design(15)@4"),
]


@pytest.mark.parametrize("tile", [fragment, bucket_fragment], ids=["asap", "bucket"])
@pytest.mark.parametrize("make,lam", _ORACLE_CASES)
def test_incremental_vetting_matches_whole_graph_vetting(make, lam, tile):
    kernel, _ = extract_kernel(make())
    n_bits = estimate_cycle(kernel, lam)
    try:
        fragments, transformed = tile(kernel, analyze(kernel, n_bits, lam))
    except InfeasibleError:
        return
    args = (transformed, fragments, lam, n_bits)
    assert _outcome(schedule, *args) == _outcome(_reference_schedule, *args)


@pytest.mark.parametrize("tile", [fragment, bucket_fragment], ids=["asap", "bucket"])
@pytest.mark.parametrize("make,lam", _ORACLE_CASES)
def test_completion_of_the_pins_is_the_earliest_any_placement_allows(make, lam, tile):
    """What lets ``schedule`` take each core's cycle from the completion
    of the pins, and stop at once when that completion fails."""
    kernel, _ = extract_kernel(make())
    n_bits = estimate_cycle(kernel, lam)
    try:
        fragments, transformed = tile(kernel, analyze(kernel, n_bits, lam))
    except InfeasibleError:
        return
    windows = unit_windows(transformed, analyze(transformed, n_bits, lam), fragments)
    if any(early > late for early, late in windows.values()):
        return
    pins = {
        uid: early
        for uid, (early, late) in windows.items()
        if early == late and transformed.op(uid).kind is OpKind.ADD
    }
    base = _Plan(transformed, lam, n_bits, windows, pins).base

    def accepted(uid):
        early, late = windows[uid]
        return [
            c for c in range(early, late + 1)
            if _reference_completes(transformed, lam, n_bits, windows, {**pins, uid: c})
        ]

    if base is None:
        assert all(accepted(uid) == [] for uid in windows)
        return
    for op in transformed.ops:
        if op.kind is OpKind.MULT_CORE:
            assert accepted(op.id)[:1] == [ceil(base[transformed.bit_view.base[op.id]] / n_bits)]


@pytest.mark.parametrize("tiling", [op_runs, bucket_runs], ids=["asap", "bucket"])
@pytest.mark.parametrize("make,lam", _ORACLE_CASES)
def test_accepted_assignments_are_never_earlier_than_asap(make, lam, tiling):
    """``bit_asap`` is a lower bound on every assignment ``realized_slots``
    accepts: the schedule's own, and the one with each core moved to its
    earliest accepted cycle."""
    try:
        sched = run_pipeline(make(), lam, runs=tiling)
    except (InfeasibleError, ScheduleError):
        return
    transformed, n_bits = sched.graph, sched.n_bits
    earliest = dict(sched.cycle_of)
    for op in transformed.ops:
        if op.kind is OpKind.MULT_CORE:
            earliest[op.id] = next(
                c for c in range(1, lam + 1)
                if not realized_slots(transformed, n_bits, {**earliest, op.id: c})[1]
            )
    asap = bit_asap(transformed, n_bits)
    for cycle_of in (sched.cycle_of, earliest):
        table, problems = realized_slots(transformed, n_bits, cycle_of)
        assert problems == []
        before_asap = [k for k, slot in table.items() if slot < asap[k]]
        assert before_asap == []


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([random_add_design, random_full_design]),
    st.integers(0, 10_000),
    st.integers(2, 4),
    st.sampled_from([fragment, bucket_fragment]),
)
# Designs where a cycle above one that failed ranks before the others.
@example(random_add_design, 1, 4, fragment)
@example(random_full_design, 99, 4, bucket_fragment)
@example(random_add_design, 126, 4, bucket_fragment)
def test_cycles_that_vet_form_one_run_from_the_completion(make, seed, lam, tile):
    """Before each placement, the window cycles where ``vet`` succeeds
    are one run that starts at the unit's cycle in the base completion:
    the completion is monotone, so a later cycle fails only once the
    chains it delays no longer fit.  At that first cycle the unit
    changes no slot of the base.  ``schedule`` relies on both: it takes
    the unit's cycle in the base without a vet, vets only later ones,
    and vets none above a cycle that failed."""
    kernel, _ = extract_kernel(make(seed))
    n_bits = estimate_cycle(kernel, lam)
    try:
        fragments, transformed = tile(kernel, analyze(kernel, n_bits, lam))
    except InfeasibleError:
        return
    place, vet = _Plan.place, _Plan.vet

    def base_cycle(plan, uid):
        return ceil(plan.base[plan.graph.bit_view.base[uid]] / plan.n_bits)

    def checked_place(plan, uid, c, table):
        early, late = plan.windows[uid]
        fits = [k for k in range(early, late + 1) if vet(plan, uid, k) is not None]
        start = base_cycle(plan, uid)
        assert fits and fits[0] == start <= late
        assert fits == list(range(start, start + len(fits)))
        assert vet(plan, uid, start) == plan.base
        place(plan, uid, c, table)

    failed: dict[str, int] = {}  # each unit's lowest cycle that failed

    def checked_vet(plan, uid, c):
        assert c > base_cycle(plan, uid)
        assert c < failed.get(uid, c + 1)
        vetted = vet(plan, uid, c)
        if vetted is None:
            failed[uid] = c
        return vetted

    with mock.patch.object(_Plan, "place", checked_place), \
            mock.patch.object(_Plan, "vet", checked_vet):
        try:
            schedule(transformed, fragments, lam, n_bits)
        except ScheduleError:
            pass


def _full_window_ranking(loads, start, late, width, top):
    """The cycles ``schedule`` ranked before ``_ranked``: every cycle of
    ``(start, late]`` that ranks before ``start``, in rank order."""
    ranked = [(max(top, loads.get(k, 0) + width), k) for k in range(start, late + 1)]
    return [k for _, k in sorted(r for r in ranked if r < ranked[0])]


def _vet_loop(order, start, late, fails):
    """``schedule``'s vet loop over ``order`` when exactly the cycles in
    ``fails`` fail to vet: the cycles vetted, in order, and the one taken."""
    vetted, c, failed = [], start, late + 1
    for k in order:
        if k > failed:
            continue
        vetted.append(k)
        if k not in fails:
            c = k
            break
        failed = k
    return vetted, c


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_ranked_cycles_vet_as_the_whole_window_does(data):
    """Ranking only the start, the busy cycles and the first empty cycle
    vets the same cycles, in the same order, and takes the same one as
    ranking every cycle of the window.  The ranked list is the whole
    window's less each empty cycle but the first, and so is empty, as
    ``_ranked`` returns at once, when ``start`` keeps the peak at
    ``top``."""
    lam = data.draw(st.integers(1, 12) | st.integers(1, 2000))
    loads = data.draw(st.dictionaries(st.integers(1, lam), st.integers(1, 40), max_size=12))
    start = data.draw(st.integers(1, lam))
    late = data.draw(st.integers(start, lam))
    width = data.draw(st.integers(1, 24))
    top = data.draw(st.integers(0, 60))
    fails = data.draw(st.sets(st.integers(start, late) | st.sampled_from(sorted(loads) or [start])))
    ranked = _ranked(loads, sorted(loads), start, late, width, top)
    full = _full_window_ranking(loads, start, late, width, top)
    assert _vet_loop(ranked, start, late, fails) == _vet_loop(full, start, late, fails)
    empty = next((k for k in range(start + 1, late + 1) if k not in loads), None)
    assert ranked == [k for k in full if k in loads or k == empty]


@pytest.mark.parametrize("make,seed,lam,tiling", [
    (random_add_design, 1, 3, op_runs),
    (random_add_design, 1, 4, bucket_runs),
    (random_add_design, 6, 4, op_runs),
    (random_add_design, 12, 3, op_runs),
    (random_add_design, 14, 2, bucket_runs),
    (random_full_design, 8, 4, op_runs),
    (random_full_design, 9, 4, op_runs),
    (random_full_design, 11, 3, op_runs),
    (random_full_design, 15, 3, bucket_runs),
    (random_full_design, 16, 4, bucket_runs),
    (random_full_design, 17, 3, op_runs),
    (random_full_design, 39, 3, op_runs),
], ids=lambda v: getattr(v, "__name__", v))
def test_greedy_placement_is_feasible_and_never_beats_the_exact_oracle(
    make, seed, lam, tiling
):
    """The greedy schedule is one of the assignments the exhaustive
    oracle accepts, and its peak is never below the smallest peak among
    them.  Several of these cases sit above it."""
    sched = run_pipeline(make(seed), lam, runs=tiling)
    assert 1 < placement_count(sched) <= 2000
    feasible = feasible_placements(sched)
    assert sched.cycle_of in feasible

    def peak(cycle_of):
        return max(replace(sched, cycle_of=cycle_of).loads().values())

    assert peak(sched.cycle_of) >= min(peak(cycle_of) for cycle_of in feasible)
