"""Load-balancing list scheduler for fragmented designs.

Every add (fragment or whole) and every multiplier core is a schedulable
unit with a cycle window recomputed from per-bit mobility on the
fragmented graph.  Zero-mobility units are pinned; the rest are placed
in increasing mobility order into the legal cycle that keeps the worst
per-cycle adder-bit load smallest, earliest on ties.  A placement is
legal when the whole design can still finish by the latency bound:
candidates are vetted by greedily completing the remaining units at
their earliest legal cycles and checking realized chain depths.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .dfg import (
    DataFlowGraph,
    GLUE_KINDS,
    OpKind,
)
from .fragmenter import Fragment, Mobility, Slot, analyze


class ScheduleError(ValueError):
    pass


@dataclass(frozen=True)
class Schedule:
    graph: DataFlowGraph
    lam: int
    n_bits: int
    cycle_of: dict[str, int]
    realized: dict[tuple[str, int], Slot]
    fragments: dict[str, list[Fragment]] = field(default_factory=dict)

    def loads(self) -> dict[int, int]:
        """Scheduled adder bits per cycle."""
        out = {c: 0 for c in range(1, self.lam + 1)}
        for op in self.graph.ops:
            if op.kind is OpKind.ADD:
                out[self.cycle_of[op.id]] += op.width
        return out


def unit_windows(
    graph: DataFlowGraph,
    mobility: Mobility,
    fragments: dict[str, list[Fragment]] | None = None,
) -> dict[str, tuple[int, int]]:
    """Cycle window per schedulable unit (adds and multiplier cores).

    A fragment's window is the one its tiling recorded; bucket tiles
    may group bits whose per-bit windows disagree, so the record is
    authoritative.  Cores and uncovered adds fall back to the per-bit
    tables.
    """
    frag_of = {}
    if fragments:
        frag_of = {f.id: f for parts in fragments.values() for f in parts}
    windows: dict[str, tuple[int, int]] = {}
    for op in graph.ops:
        if op.kind in GLUE_KINDS:
            continue
        if op.id in frag_of:
            frag = frag_of[op.id]
            windows[op.id] = (frag.asap_cycle, frag.alap_cycle)
            continue
        early = max(mobility.asap[(op.id, i)].cycle for i in range(op.width))
        late = min(
            min(mobility.alap[(op.id, i)].cycle, mobility.lam)
            for i in range(op.width)
        )
        windows[op.id] = (early, late)
    return windows


def realized_slots(
    graph: DataFlowGraph, n_bits: int, cycle_of: dict[str, int]
) -> tuple[dict[tuple[str, int], Slot], list[str]]:
    """Availability slot of every bit under a concrete assignment.

    Adds chain within their cycle (depth 1 + deepest same-cycle
    producer), glue is transparent, core results fill their cycle.
    Returns the slot table and any legality violations: operands read
    before they exist, chains deeper than the cycle holds, or core
    inputs not complete in a prior cycle.
    """
    producers = graph.bit_view.producers
    table: dict[tuple[str, int], Slot] = {}
    problems: list[str] = []
    for op in graph.ops:
        if op.kind in GLUE_KINDS:
            for i in range(op.width):
                slots = [table[p] for p in producers[(op.id, i)]]
                cycle = max((s.cycle for s in slots), default=0)
                depth = max((s.depth for s in slots if s.cycle == cycle), default=0)
                table[(op.id, i)] = Slot(cycle, depth)
            continue
        cycle = cycle_of[op.id]
        if op.kind is OpKind.MULT_CORE:
            ready = max(
                (table[p].cycle for i in range(op.width) for p in producers[(op.id, i)]),
                default=0,
            )
            if ready >= cycle:
                problems.append(
                    f"{op.id}: core inputs not complete before cycle {cycle}"
                )
            for i in range(op.width):
                table[(op.id, i)] = Slot(cycle, n_bits)
            continue
        for i in range(op.width):
            slots = [table[p] for p in producers[(op.id, i)]]
            late = max((s.cycle for s in slots), default=0)
            if late > cycle:
                problems.append(
                    f"{op.id}[{i}]: operand ready in cycle {late}, read in {cycle}"
                )
            depth = 1 + max(
                (s.depth for s in slots if s.cycle == cycle), default=0
            )
            if depth > n_bits:
                problems.append(
                    f"{op.id}[{i}]: chain depth {depth} exceeds {n_bits} bits per cycle"
                )
            table[(op.id, i)] = Slot(cycle, depth)
    return table, problems


class _Plan:
    def __init__(self, graph: DataFlowGraph, lam: int, n_bits: int,
                 windows: dict[str, tuple[int, int]]):
        self.graph = graph
        self.lam = lam
        self.n_bits = n_bits
        self.windows = windows
        self.producers = graph.bit_view.producers

    def completes(self, partial: dict[str, int]) -> bool:
        """A greedy earliest completion of ``partial`` fits the budget.

        Unassigned units start at their window floor and move later only
        while their chain overflows the cycle; producers come first in
        topo order, so deferring a unit never invalidates one already
        placed.  Pinned units are checked as-is.
        """
        producers = self.producers
        table: dict[tuple[str, int], Slot] = {}
        for op in self.graph.ops:
            if op.kind in GLUE_KINDS:
                for i in range(op.width):
                    slots = [table[p] for p in producers[(op.id, i)]]
                    cycle = max((s.cycle for s in slots), default=0)
                    depth = max(
                        (s.depth for s in slots if s.cycle == cycle), default=0
                    )
                    table[(op.id, i)] = Slot(cycle, depth)
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
                c = partial.get(op.id, max(self.windows[op.id][0], ready + 1))
                if c <= ready or c > self.lam:
                    return False
                for i in range(op.width):
                    table[(op.id, i)] = Slot(c, self.n_bits)
                continue
            pinned = op.id in partial
            c = partial[op.id] if pinned else max(self.windows[op.id][0], ready)
            while True:
                if c > self.lam or c < ready:
                    return False
                fits = True
                for i in range(op.width):
                    slots = [table[p] for p in producers[(op.id, i)]]
                    depth = 1 + max(
                        (s.depth for s in slots if s.cycle == c), default=0
                    )
                    if depth > self.n_bits:
                        fits = False
                        break
                    table[(op.id, i)] = Slot(c, depth)
                if fits:
                    break
                if pinned:
                    return False
                c += 1
        return True


def schedule(
    graph: DataFlowGraph,
    fragments: dict[str, list[Fragment]],
    lam: int,
    n_bits: int,
    mobility: Mobility | None = None,
) -> Schedule:
    """Assign a cycle to every add fragment and multiplier core."""
    if mobility is None:
        mobility = analyze(graph, n_bits, lam)
    windows = unit_windows(graph, mobility, fragments)
    plan = _Plan(graph, lam, n_bits, windows)

    frag_of = {f.id: f for parts in fragments.values() for f in parts}
    prev_sib: dict[str, str] = {}
    next_sib: dict[str, str] = {}
    for parts in fragments.values():
        for a, b in zip(parts, parts[1:]):
            prev_sib[b.id] = a.id
            next_sib[a.id] = b.id

    cycle_of: dict[str, int] = {}
    for uid, (early, late) in windows.items():
        if early > late:
            raise ScheduleError(f"{uid}: empty cycle window [{early}, {late}]")
        if early == late and graph.op(uid).kind is OpKind.ADD:
            cycle_of[uid] = early

    for op in graph.ops:
        if op.kind is not OpKind.MULT_CORE:
            continue
        early, late = windows[op.id]
        placed = False
        for c in range(early, late + 1):
            if plan.completes({**cycle_of, op.id: c}):
                cycle_of[op.id] = c
                placed = True
                break
        if not placed:
            raise ScheduleError(f"no feasible cycle for core {op.id}")

    def order_key(uid: str) -> tuple:
        early, late = windows[uid]
        frag = frag_of.get(uid)
        parent = frag.parent if frag else uid
        lo = frag.lo if frag else 0
        return (late - early, early, parent, lo)

    movable = sorted(
        (
            op.id
            for op in graph.ops
            if op.kind is OpKind.ADD and op.id not in cycle_of
        ),
        key=order_key,
    )

    loads = {c: 0 for c in range(1, lam + 1)}
    for op in graph.ops:
        if op.kind is OpKind.ADD and op.id in cycle_of:
            loads[cycle_of[op.id]] += op.width

    for uid in movable:
        early, late = windows[uid]
        lo_c, hi_c = early, late
        if uid in prev_sib and prev_sib[uid] in cycle_of:
            lo_c = max(lo_c, cycle_of[prev_sib[uid]])
        if uid in next_sib and next_sib[uid] in cycle_of:
            hi_c = min(hi_c, cycle_of[next_sib[uid]])
        width = graph.op(uid).width
        best: tuple[int, int] | None = None
        for c in range(lo_c, hi_c + 1):
            if not plan.completes({**cycle_of, uid: c}):
                continue
            peak = max(
                loads[k] + (width if k == c else 0) for k in loads
            )
            if best is None or (peak, c) < best:
                best = (peak, c)
        if best is None:
            raise ScheduleError(f"no feasible cycle for {uid}")
        cycle_of[uid] = best[1]
        loads[best[1]] += width

    realized, problems = realized_slots(graph, n_bits, cycle_of)
    if problems:
        raise ScheduleError("; ".join(problems))
    return Schedule(graph, lam, n_bits, cycle_of, realized, fragments)


def verify_schedule(sched: Schedule) -> list[str]:
    """Independent legality check; an empty list means the schedule holds.

    Re-derives mobility windows from the scheduled graph and confirms
    assignment completeness, window containment, fragment order, and
    realized chain depths.
    """
    problems: list[str] = []
    graph = sched.graph
    mobility = analyze(graph, sched.n_bits, sched.lam)
    windows = unit_windows(graph, mobility, sched.fragments)

    for uid, (early, late) in windows.items():
        if uid not in sched.cycle_of:
            problems.append(f"{uid}: not scheduled")
            continue
        c = sched.cycle_of[uid]
        if not 1 <= c <= sched.lam:
            problems.append(f"{uid}: cycle {c} outside 1..{sched.lam}")
        if not early <= c <= late:
            problems.append(f"{uid}: cycle {c} outside window [{early}, {late}]")

    for parent, parts in sched.fragments.items():
        for a, b in zip(parts, parts[1:]):
            if a.id in sched.cycle_of and b.id in sched.cycle_of:
                if sched.cycle_of[a.id] > sched.cycle_of[b.id]:
                    problems.append(
                        f"{parent}: fragment {a.id} after its higher half {b.id}"
                    )

    realized, depth_problems = realized_slots(graph, sched.n_bits, sched.cycle_of)
    problems.extend(depth_problems)
    if realized != sched.realized:
        problems.append("recorded slots disagree with recomputation")
    return problems
