"""Acceptance gate: every deliverable guarantee, one verdict line each.

Verdict lines print with capture disabled so they reach the terminal on
passes too; the assertions underneath carry the details when a guarantee
breaks.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bitfrag.cost import costs
from bitfrag.dfg import OpKind
from bitfrag.dsl import emit, parse
from bitfrag.fragmenter import whole_runs
from bitfrag.kernel import extract_kernel
from bitfrag.scheduler import verify_schedule
from bitfrag.simulator import check_equiv
from bitfrag.timing import bit_arrivals, critical_path, estimate_cycle

from conftest import (
    DESIGN_MAKERS,
    deep_settings,
    feasible_pipeline,
    load_design,
    op_paths,
    path_time,
    random_add_design,
    random_full_design,
    realized_slots,
    run_pipeline,
    smallest_pipeline,
)


class _Verdict:
    def __init__(self, capsys):
        self._capsys = capsys
        self._notes: list[str] = []

    def note(self, text: str) -> None:
        self._notes.append(text)

    def _emit(self, line: str) -> None:
        with self._capsys.disabled():
            print(f"\n{line}", flush=True)
            for text in self._notes:
                print(f"       {text}", flush=True)

    @contextmanager
    def __call__(self, label: str):
        start = time.perf_counter()
        try:
            yield
        except BaseException:
            self._emit(f"[FAIL] {label}")
            raise
        else:
            elapsed = time.perf_counter() - start
            self._emit(f"[PASS] {label} ({elapsed:.2f}s)")


@pytest.fixture
def verdict(capsys):
    return _Verdict(capsys)


def test_chained_adds_critical_time_and_estimate(sec2, verdict):
    with verdict("three chained 16-bit adds: critical time 18, 3-cycle estimate 6, under 1s"):
        start = time.perf_counter()
        kernel, _ = extract_kernel(sec2)
        crit = critical_path(kernel)
        estimate = estimate_cycle(kernel, 3)
        elapsed = time.perf_counter() - start
        assert crit.time == 18
        assert estimate == 6
        assert elapsed < 1.0


def test_chained_adds_fragment_tiling(sec2, verdict):
    with verdict("first add fragments into [5:0]/[11:6]/[15:12]; the others tile their width"):
        sched = run_pipeline(sec2, 3)
        assert [(f.lo, f.hi) for f in sched.fragments["C"]] == [(0, 5), (6, 11), (12, 15)]
        for parent in ("E", "G"):
            parts = sched.fragments[parent]
            assert parts[0].lo == 0 and parts[-1].hi == 15
            for left, right in zip(parts, parts[1:]):
                assert right.lo == left.hi + 1


def test_chained_adds_datapath_costs(sec2, verdict):
    with verdict("3 lanes of width 6, register peak 5 bits, 6 three-way port muxes; whole ops 3x16"):
        report = costs(run_pipeline(sec2, 3))
        assert [lane.width for lane in report.lanes] == [6, 6, 6]
        assert report.max_stored == 5
        assert set(report.stored_sets[1]) == {
            "C0[5]",
            "E0[4]",
            "carry(C0)",
            "carry(E0)",
            "carry(G0)",
        }
        assert len(report.port_muxes) == 6
        assert all(m.fan_in == 3 and m.width == 6 for m in report.port_muxes)
        whole = smallest_pipeline(sec2, 3, whole_runs)
        assert whole.n_bits == 16
        original = costs(whole)
        assert [lane.width for lane in original.lanes] == [16, 16, 16]
        assert original.max_stored == 16
        assert {m.fan_in for m in original.port_muxes} == {1}
        assert [r.fan_in for r in original.registers] == [2] * 16
        verdict.note(
            f"carry-register mux fan-ins (reported, not asserted): "
            f"{report.carry_fan_in}"
        )


# Smallest n_bits, fragmented and whole-op, at latency 2, 3, 4 and 6.
BASELINE_TABLE = {
    "sec2": ((9, 17), (6, 16), (5, 16), (3, 16)),
    "fig3": ((5, 8), (3, 8), (3, 8), (2, 8)),
    "elliptic": ((16, 23), (11, 21), (8, 19), (6, 18)),
    "diffeq": ((10, 17), (7, 17), (5, 16), (4, 16)),
}


def test_fragmented_cycle_against_whole_op_baseline(verdict):
    with verdict("bundled designs: fragmented cycle 57.9% shorter than whole ops at latency 3"):
        shorter = []
        for name, row in BASELINE_TABLE.items():
            graph = load_design(name)
            for lam, cell in zip((2, 3, 4, 6), row):
                split = smallest_pipeline(graph, lam)
                whole = smallest_pipeline(graph, lam, whole_runs)
                assert (split.n_bits, whole.n_bits) == cell, (name, lam)
                for sched in (split, whole):
                    assert verify_schedule(sched) == [], (name, lam)
                    assert check_equiv(graph, sched).equivalent, (name, lam)
                if lam == 3:
                    shorter.append(1 - split.n_bits / whole.n_bits)
        assert round(100 * sum(shorter) / len(shorter), 1) == 57.9
        verdict.note(
            "lane bits are not compared: each add keeps its own lane, "
            "none is shared across cycles"
        )


def test_transformed_spec_needs_no_fragment_records(verdict):
    with verdict("transformed specs, re-parsed: whole-op scheduling gives the fragmented cycle and schedule"):
        for name in BASELINE_TABLE:
            graph = load_design(name)
            for lam in (2, 3, 4, 6):
                split = smallest_pipeline(graph, lam)
                spec = parse(emit(split.graph))
                whole = smallest_pipeline(spec, lam, whole_runs)
                assert whole.n_bits == split.n_bits, (name, lam)
                assert whole.cycle_of == split.cycle_of, (name, lam)
                assert check_equiv(graph, whole).equivalent, (name, lam)
        verdict.note(
            "the emitted spec carries what the fragment records held: a "
            "conventional scheduler needs nothing else"
        )


@deep_settings(40)
@given(st.sampled_from(DESIGN_MAKERS), st.integers(0, 10_000), st.sampled_from([2, 3, 4, 6]))
def test_transformed_spec_of_a_random_design_needs_no_fragment_records(make, seed, lam):
    """The paper's flow on random designs: the emitted spec of a per-bit
    tiling, re-parsed and scheduled whole-op, reaches the fragmented
    n_bits with the same units (the fragments), and its schedule is
    proven equivalent to the source design.  Its ``cycle_of`` may differ:
    ``schedule`` breaks ties between equal windows by each fragment's
    parent and offset, which a re-parsed spec no longer holds."""
    graph = make(seed)
    split = smallest_pipeline(graph, lam)
    if split is None:
        return
    whole = smallest_pipeline(parse(emit(split.graph)), lam, whole_runs)
    assert whole is not None and whole.n_bits == split.n_bits
    assert whole.cycle_of.keys() == split.cycle_of.keys()
    assert check_equiv(graph, whole).equivalent


def test_dual_path_fixture_timing_and_windows(fig3, verdict):
    with verdict("both 9-unit paths found, estimate 3, prescheduled and mobile tilings exact"):
        kernel, _ = extract_kernel(fig3)
        crit = critical_path(kernel)
        assert crit.time == 9
        assert tuple(crit.ops) == ("F", "H")
        assert path_time(kernel, ("G", "H")) == 9
        assert estimate_cycle(kernel, 3) == 3
        sched = run_pipeline(fig3, 3)
        assert [
            (f.lo, f.hi, sched.cycle_of[f.id]) for f in sched.fragments["F"]
        ] == [(0, 2, 1), (3, 5, 2), (6, 7, 3)]
        assert [
            (f.lo, f.hi, f.asap_cycle, f.alap_cycle) for f in sched.fragments["B"]
        ] == [(0, 1, 1, 1), (2, 2, 1, 2), (3, 4, 2, 2), (5, 5, 2, 3)]


def test_arrival_recurrence_matches_path_oracle(verdict):
    with verdict("120 random add DAGs: max path time equals max bit arrival, under 10s"):
        start = time.perf_counter()
        for seed in range(120):
            g = random_add_design(seed)
            by_arrivals = max(bit_arrivals(g).values())
            by_paths = max(path_time(g, path) for path in op_paths(g))
            assert by_paths == by_arrivals, f"seed {seed}"
        assert time.perf_counter() - start < 10.0


LOWERING_SOURCES = (
    "design d; input a : u4; input b : u4; R: sub u4 = a - b; output R;",
    "design d; input a : s4; input b : s4; R: sub s4 = a - b; output R;",
    "design d; input a : s4; input b : s4; R: add s4 = a + b; output R;",
    "design d; input a : u4; input b : u4; R: lt u1 = a < b; output R;",
    "design d; input a : s4; input b : s4; R: lt s1 = a < b; output R;",
    "design d; input a : u4; input b : u4; R: max u4 = a, b; output R;",
    "design d; input a : s4; input b : s4; R: max s4 = a, b; output R;",
    "design d; input a : u4; input b : u4; R: min u4 = a, b; output R;",
    "design d; input a : s4; input b : s4; R: min s4 = a, b; output R;",
    "design d; input a : s4; input b : s4; R: mult s8 = a * b; output R;",
    "design d; input a : s4; input b : s2; R: mult s6 = a * b; output R;",
    "design d; input a : s4; input b : s3; R: mult s10 = a * b; output R;",
    "design d; input a : u4; input b : u4; R: mult u8 = a * b; output R;",
    "design d; input a : u4; R: not u4 = a; output R;",
    "design d; input c : u1; input a : u4; input b : u4;"
    " R: select u4 = c, a, b; output R;",
)


def test_semantic_preservation(sec2, fig3, verdict):
    with verdict("equivalence: exhaustive lowerings, 1000-vector fixtures, 50 random designs"):
        for src in LOWERING_SOURCES:
            g = parse(src)
            kernel, _ = extract_kernel(g)
            res = check_equiv(g, kernel)
            assert res.strategy == "exhaustive", src
            assert res.equivalent, src
        for graph in (sec2, fig3):
            res = check_equiv(graph, run_pipeline(graph, 3), samples=1000)
            assert res.checked == 1000
            assert res.equivalent, graph.name
        for seed in range(50):
            g = random_full_design(seed)
            sched = feasible_pipeline(g, 3)
            res = check_equiv(g, sched, samples=120, seed=seed)
            assert res.equivalent, f"seed {seed}: {res.counterexample}"


def test_schedule_legality_everywhere(sec2, fig3, sat, mixed, elliptic, diffeq, verdict):
    with verdict("verify_schedule clean; depths within budget; windows and carry order hold"):
        scheds = [
            run_pipeline(sec2, 3),
            run_pipeline(fig3, 3),
            run_pipeline(sat, 3),
            run_pipeline(mixed, 6),
        ]
        for graph in (elliptic, diffeq):
            for lam in (4, 6, 11):
                scheds.append(run_pipeline(graph, lam))
        for seed in range(0, 50, 7):
            scheds.append(feasible_pipeline(random_full_design(seed), 3))
        for sched in scheds:
            assert verify_schedule(sched) == [], sched.graph.name
            realized = realized_slots(sched.graph, sched.n_bits, sched.cycle_of)[0]
            for (uid, _bit), slot in realized.items():
                assert 0 <= slot.depth <= sched.n_bits
                if sched.graph.op(uid).kind is OpKind.ADD:
                    assert slot.depth >= 1
            for parts in sched.fragments.values():
                for f in parts:
                    assert f.asap_cycle <= sched.cycle_of[f.id] <= f.alap_cycle


def test_saturated_schedule_splits_across_cycle_gap(sat, verdict):
    with verdict("standalone add runs in cycles 1 and 3 while cycle 2 stays occupied"):
        sched = run_pipeline(sat, 3)
        assert sched.cycle_of["X0"] == 1
        assert sched.cycle_of["X1"] == 3
        assert any(c == 2 for c in sched.cycle_of.values())
        assert sched.loads()[2] > 0
        assert verify_schedule(sched) == []


def test_cycle_tracks_latency_not_width(elliptic, diffeq, verdict):
    with verdict("filter and integrator: cycle = ceil(critical/latency) < the 16-bit add width"):
        for graph, crit_time in ((elliptic, 31), (diffeq, 19)):
            kernel, _ = extract_kernel(graph)
            assert critical_path(kernel).time == crit_time
            widest = max(op.width for op in kernel.ops)
            assert widest == 16
            for lam in (4, 6, 11):
                sched = run_pipeline(graph, lam)
                assert sched.n_bits == math.ceil(crit_time / lam)
                assert sched.n_bits < widest
                assert verify_schedule(sched) == []
