"""Load-balancing list scheduler for fragmented designs.

Every add (fragment or whole) and every multiplier core is a schedulable
unit.  An add's cycle window is the one its tiling recorded: tiling does
not change which bits a bit waits on, so the per-bit mobility of the
kernel still holds.  Zero-mobility adds are pinned; the rest are placed
in increasing mobility order into the legal cycle that keeps the worst
per-cycle adder-bit load smallest, earliest on ties.  A placement is
legal when the whole design can still finish by the latency bound: a
greedy completion places the remaining units at their earliest legal
cycles and checks realized chain depths.

The completion is monotone: an op's slots move later only when its
producers' slots do, and so do its failures.  So the completion of the
pins is the earliest schedule any placement allows.  If it fails, no
placement can succeed and scheduling stops at once.  Otherwise each
core takes its cycle in that completion, the cycle after its inputs
are ready, since a later cycle only delays its consumers.

The completion of the placements made so far is kept as a base slot
table.  A candidate re-settles only the region it changes, the ops
downstream of its unit whose slots differ from the base, and a winner's
changes update the base in place: the time-frame update of
force-directed scheduling (Paulin & Knight, IEEE TCAD 1989).  Once every
unit is placed, the base is the schedule's realized slot table.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from .dfg import (
    DataFlowGraph,
    GLUE_KINDS,
    OpKind,
    Operation,
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
    fragments: dict[str, list[Fragment]],
) -> dict[str, tuple[int, int]]:
    """Cycle window per schedulable unit (adds and multiplier cores),
    as ``verify_schedule`` checks them.

    A fragment's window is the one its tiling recorded; bucket tiles
    may group bits whose per-bit windows disagree, so the record is
    authoritative.  Cores and uncovered adds fall back to ``mobility``,
    which the checker derives from the scheduled graph itself.
    """
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
        late = min(mobility.alap[(op.id, i)].cycle for i in range(op.width))
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
                table[(op.id, i)] = max(
                    (table[p] for p in producers[(op.id, i)]), default=Slot(0, 0)
                )
            continue
        cycle = cycle_of[op.id]
        if op.kind is OpKind.MULT_CORE:
            ready = max(
                (table[p] for p in producers[(op.id, 0)]), default=Slot(0, 0)
            ).cycle
            if ready >= cycle:
                problems.append(
                    f"{op.id}: core inputs not complete before cycle {cycle}"
                )
            for i in range(op.width):
                table[(op.id, i)] = Slot(cycle, n_bits)
            continue
        for i in range(op.width):
            slots = [table[p] for p in producers[(op.id, i)]]
            latest = max(slots, default=Slot(0, 0))
            if latest.cycle > cycle:
                problems.append(
                    f"{op.id}[{i}]: operand ready in cycle {latest.cycle}, read in {cycle}"
                )
                # Chain on what is ready by then.
                latest = max((s for s in slots if s.cycle <= cycle), default=Slot(0, 0))
            depth = 1 + latest.depth if latest.cycle == cycle else 1
            if depth > n_bits:
                problems.append(
                    f"{op.id}[{i}]: chain depth {depth} exceeds {n_bits} bits per cycle"
                )
            table[(op.id, i)] = Slot(cycle, depth)
    return table, problems


class _Overlay(dict):
    """Slots one candidate changes, read through to the base elsewhere."""

    def __init__(self, base: dict[tuple[str, int], Slot]):
        super().__init__()
        self.base = base

    def __missing__(self, key: tuple[str, int]) -> Slot:
        return self.base[key]


class _Plan:
    """Greedy completions of the placements made so far.

    ``cycle_of`` holds the placed units and ``base`` the slot table of
    its greedy completion.  ``base`` is None when the completion of the
    pins fails; ``schedule`` then stops before placing anything, so a
    placement always starts from a base that fits.  A candidate re-settles
    its unit and then, in graph order, only the ops that read a slot it
    changed: an op's slots are a pure function of its producer slots,
    its placement and, for an add, its window, so an op whose slots
    come out as in the base stops the change there, and every op
    outside the region settles as it did in the base, which succeeded.
    """

    def __init__(self, graph: DataFlowGraph, lam: int, n_bits: int,
                 windows: dict[str, tuple[int, int]], cycle_of: dict[str, int]):
        self.graph = graph
        self.lam = lam
        self.n_bits = n_bits
        self.windows = windows
        self.cycle_of = cycle_of
        view = graph.bit_view
        self.producers = view.producers
        self.position = {op.id: k for k, op in enumerate(graph.ops)}
        self.successors = [
            {
                self.position[q[0]]
                for i in range(op.width)
                for q in view.consumers[(op.id, i)]
            }
            - {k}
            for k, op in enumerate(graph.ops)
        ]
        self.base = self._complete()

    def settle(self, op: Operation, pin: int | None,
               table: dict[tuple[str, int], Slot]) -> bool:
        """Write the slots of ``op``'s bits; False if it cannot fit.

        An unplaced core (``pin`` None) takes the cycle after its inputs
        are ready; an unplaced add starts at its window floor and moves
        later only while its chain overflows the cycle.  Producers come
        first in topo order, so deferring a unit never invalidates one
        already settled.  A placed unit is checked as-is.
        """
        producers = self.producers
        if op.kind in GLUE_KINDS:
            for i in range(op.width):
                table[(op.id, i)] = max(
                    (table[p] for p in producers[(op.id, i)]), default=Slot(0, 0)
                )
            return True
        if op.kind is OpKind.MULT_CORE:
            ready = max(
                (table[p] for p in producers[(op.id, 0)]), default=Slot(0, 0)
            ).cycle
            c = pin if pin is not None else ready + 1
            if c <= ready or c > self.lam:
                return False
            for i in range(op.width):
                table[(op.id, i)] = Slot(c, self.n_bits)
            return True
        ready = max(
            (
                table[p]
                for i in range(op.width)
                for p in producers[(op.id, i)]
                if p[0] != op.id
            ),
            default=Slot(0, 0),
        ).cycle
        c = pin if pin is not None else max(self.windows[op.id][0], ready)
        while True:
            if c > self.lam or c < ready:
                return False
            # Every operand is ready by cycle c, so a bit chains on its
            # latest producer only if that one finishes in c.
            for i in range(op.width):
                latest = max(
                    (table[p] for p in producers[(op.id, i)]), default=Slot(0, 0)
                )
                depth = 1 + latest.depth if latest.cycle == c else 1
                if depth > self.n_bits:
                    break
                table[(op.id, i)] = Slot(c, depth)
            else:
                return True
            if pin is not None:
                return False
            c += 1

    def _complete(self) -> dict[tuple[str, int], Slot] | None:
        """The whole completion table of ``cycle_of``, or None."""
        table: dict[tuple[str, int], Slot] = {}
        for op in self.graph.ops:
            if not self.settle(op, self.cycle_of.get(op.id), table):
                return None
        return table

    def vet(self, uid: str, c: int) -> dict[tuple[str, int], Slot] | None:
        """The slots that change with ``uid`` at ``c``, or None if the
        completion no longer fits the budget."""
        base = self.base
        ops = self.graph.ops
        table = _Overlay(base)
        heap = [self.position[uid]]
        queued = set(heap)
        while heap:
            k = heapq.heappop(heap)
            op = ops[k]
            pin = c if op.id == uid else self.cycle_of.get(op.id)
            if not self.settle(op, pin, table):
                return None
            if any(table[(op.id, i)] != base[(op.id, i)] for i in range(op.width)):
                for s in self.successors[k]:
                    if s not in queued:
                        queued.add(s)
                        heapq.heappush(heap, s)
        return table

    def place(self, uid: str, c: int, table: dict[tuple[str, int], Slot]) -> None:
        """Commit a candidate that ``vet`` passed, with its table."""
        self.cycle_of[uid] = c
        self.base.update(table)


def schedule(
    graph: DataFlowGraph,
    fragments: dict[str, list[Fragment]],
    lam: int,
    n_bits: int,
) -> Schedule:
    """Assign a cycle to every add fragment and multiplier core; each
    add's window is the one its record in ``fragments`` holds."""
    frag_of = {f.id: f for parts in fragments.values() for f in parts}
    windows: dict[str, tuple[int, int]] = {}
    cycle_of: dict[str, int] = {}
    for op in graph.ops:
        if op.kind is not OpKind.ADD:
            continue
        frag = frag_of.get(op.id)
        if frag is None:
            raise ScheduleError(f"{op.id}: add has no fragment record")
        early, late = windows[op.id] = frag.asap_cycle, frag.alap_cycle
        if early > late:
            raise ScheduleError(f"{op.id}: empty cycle window [{early}, {late}]")
        if early == late:
            cycle_of[op.id] = early

    def order_key(uid: str) -> tuple:
        early, late = windows[uid]
        return (late - early, early, frag_of[uid].parent, frag_of[uid].lo)

    movable = sorted((uid for uid in windows if uid not in cycle_of), key=order_key)
    cores = [op.id for op in graph.ops if op.kind is OpKind.MULT_CORE]
    loads = {c: 0 for c in range(1, lam + 1)}
    for uid, c in cycle_of.items():
        loads[c] += graph.op(uid).width

    plan = _Plan(graph, lam, n_bits, windows, cycle_of)
    if plan.base is None:
        # The completion of the pins is the earliest any placement
        # allows, so no unit has a cycle that fits.
        if cores:
            raise ScheduleError(f"no feasible cycle for core {cores[0]}")
        if movable:
            raise ScheduleError(f"no feasible cycle for {movable[0]}")
        raise ScheduleError("; ".join(realized_slots(graph, n_bits, cycle_of)[1]))
    for core in cores:
        cycle_of[core] = plan.base[(core, 0)].cycle

    for uid in movable:
        early, late = windows[uid]
        width = graph.op(uid).width
        best: tuple[int, int] | None = None
        best_table = None
        top = max(loads.values())
        for c in range(early, late + 1):
            peak = max(top, loads[c] + width)
            # Cycles rise, so a later cycle wins only on a strictly
            # smaller peak; vet only those.
            if best is not None and peak >= best[0]:
                continue
            table = plan.vet(uid, c)
            if table is not None:
                best, best_table = (peak, c), table
        if best is None:
            raise ScheduleError(f"no feasible cycle for {uid}")
        plan.place(uid, best[1], best_table)
        loads[best[1]] += width

    # Every unit is placed, so the base is the completion of cycle_of
    # itself: each op settled at its own cycle under the checks
    # realized_slots makes, and the table is the same.
    return Schedule(graph, lam, n_bits, cycle_of, dict(plan.base), fragments)


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
