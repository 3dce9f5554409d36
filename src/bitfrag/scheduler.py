"""Load-balancing list scheduler for fragmented designs.

Every add (fragment or whole) and every multiplier core is a schedulable
unit.  An add's cycle window is the one its tiling recorded: tiling does
not change which bits a bit waits on, so the per-bit mobility of the
kernel still holds.  A placement is legal when the whole design can
still finish by the latency bound: a greedy completion places the
remaining units at their earliest legal cycles and checks realized
chain depths.  Zero-mobility adds are pinned.  The rest, in increasing
mobility order, each try the cycles from their own in the completion to
the window's end, lowest peak adder-bit load first, earliest on ties,
and take the first legal one.  All empty cycles tie, so only the busy
cycles and the earliest empty one are ranked, and a placement costs the
same at any latency.  cycle_of lists units in placement order.

The completion is monotone: an op's slots move later only when its
producers' slots do, and so do its failures.  So the completion of the
pins is the earliest schedule any placement allows.  If it fails, no
placement can succeed and scheduling stops at once.  Otherwise each
core takes its cycle in that completion, the cycle after its inputs
are ready, since a later cycle only delays its consumers.

The completion of the placements made so far is kept as a base table
of bit times (``timing``).  A candidate re-settles, in a copy of the
base, only the region it changes, the ops downstream of its unit whose
times differ from the base, and the winner's table replaces the base:
the time-frame update of force-directed scheduling (Paulin & Knight,
IEEE TCAD 1989).  Once every unit is placed, the base is the table the
checker derives, in ``(cycle, depth)`` pairs of its own, from
``cycle_of``, so a Schedule holds only the cycle assignment: every bit
of a unit is produced in its unit's cycle.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right, insort
from functools import cached_property

from .dfg import CarryBit, DataFlowGraph, FrozenRecord, InputBit, OpKind, bit_deps
from .fragmenter import Fragment, Mobility


class ScheduleError(ValueError):
    pass


class Schedule(FrozenRecord):
    _fields = ("graph", "lam", "n_bits", "cycle_of", "fragments")

    def __init__(self, graph: DataFlowGraph, lam: int, n_bits: int, cycle_of: dict[str, int],
                 fragments: dict[str, list[Fragment]] | None = None) -> None:
        self.__dict__.update(
            graph=graph, lam=lam, n_bits=n_bits, cycle_of=cycle_of,
            fragments={} if fragments is None else fragments,
        )

    @cached_property
    def held(self) -> dict[int, list[int]]:
        """The bits latched at each boundary, as ascending bit numbers of
        the graph's view: ``cost.stored_bits`` computed on first use and
        then kept, so that ``costs`` and the latch check share one table."""
        from .cost import stored_bits  # cost builds on this module

        return stored_bits(self)

    def loads(self) -> dict[int, int]:
        """Scheduled adder bits per cycle."""
        out = {c: 0 for c in range(1, self.lam + 1)}
        add, cycle_of = OpKind.ADD, self.cycle_of
        for op in self.graph.ops:
            if op.kind is add:
                out[cycle_of[op.id]] += op.width
        return out


def unit_windows(
    graph: DataFlowGraph,
    mobility: Mobility,
    fragments: dict[str, list[Fragment]],
) -> dict[str, tuple[int, int]]:
    """Cycle window per schedulable unit (adds and multiplier cores).

    A fragment's window is the one its tiling recorded; bucket tiles
    may group bits whose per-bit windows disagree, so the record is
    authoritative.  Cores and uncovered adds fall back to ``mobility``,
    derived from the scheduled graph itself.
    """
    frag_of = {f.id: f for parts in fragments.values() for f in parts}
    windows: dict[str, tuple[int, int]] = {}
    for uid in graph.bit_view.base:
        frag = frag_of.get(uid)
        if frag is None:
            windows[uid] = mobility.window(graph.op(uid))
        else:
            windows[uid] = (frag.asap_cycle, frag.alap_cycle)
    return windows


def _realized_table(
    graph: DataFlowGraph, n_bits: int, cycle_of: dict[str, int]
) -> tuple[list[tuple[int, int]], list[str]]:
    """Availability slot of every unit bit under a concrete assignment,
    as ``(cycle, depth)`` pairs by bit number, and the legality problems.

    Adds chain within their cycle (depth 1 + deepest same-cycle
    producer), core results fill their cycle.  The problems are operands
    read before they exist, chains deeper than the cycle holds, and core
    inputs not complete in a prior cycle.  A bit reading a late operand
    chains on the operand bits ready by then, a glue bit once all it
    reads is; only that path reads ``bit_deps``.
    """
    view = graph.bit_view
    producers = view.producers
    table = [(0, 0)] * len(producers)  # (cycle, depth) pairs by bit number
    at = table.__getitem__
    problems: list[str] = []
    core = OpKind.MULT_CORE
    deps: dict = {}  # ``bit_deps``, read only once an operand is late

    def slot(ref) -> tuple[int, int]:
        """Where a ref ``bit_deps`` names is ready: an input at (0, 0), a
        carry with its op's MSB, a glue bit once all it reads is."""
        if type(ref) is InputBit:
            return (0, 0)
        op, bit = ref.op, graph.op(ref.op).width - 1 if type(ref) is CarryBit else ref.bit
        if op in view.base:
            return table[view.base[op] + bit]
        return max(map(slot, deps[(op, bit)]), default=(0, 0))

    for op, lo in zip(map(graph.op, view.base), view.base.values()):
        width, cycle = op.width, cycle_of[op.id]
        if op.kind is core:
            prods = producers[lo]
            ready = max(map(at, prods))[0] if prods else 0
            if ready >= cycle:
                problems.append(
                    f"{op.id}: core inputs not complete before cycle {cycle}"
                )
            table[lo:lo + width] = [(cycle, n_bits)] * width
            continue
        for n in range(lo, lo + width):
            prods = producers[n]
            ready, depth = max(map(at, prods)) if prods else (0, 0)
            if ready > cycle:
                problems.append(
                    f"{op.id}[{n - lo}]: operand ready in cycle {ready}, read in {cycle}"
                )
                # Chain on the operand bits ready by then, a glue bit
                # counting as one.
                deps = deps or bit_deps(graph)
                ready_by = [s for s in map(slot, deps[(op.id, n - lo)]) if s[0] <= cycle]
                ready, depth = max(ready_by) if ready_by else (0, 0)
            depth = 1 + depth if ready == cycle else 1
            if depth > n_bits:
                problems.append(
                    f"{op.id}[{n - lo}]: chain depth {depth} exceeds {n_bits} bits per cycle"
                )
            table[n] = (cycle, depth)
    return table, problems


class _Plan:
    """Greedy completions of the placements made so far.

    ``cycle_of`` holds the placed units and ``base`` the time table of
    its greedy completion, by bit number; units go by position, in
    definition order (``bit_view.base``).
    ``base`` is None when the completion of the pins fails; ``schedule``
    then stops before placing anything, so a placement always starts
    from a base that fits.  A candidate re-settles its unit and then, in
    graph order, only the ops that read a time it changed: an op's times
    are a pure function of its producer times, its placement and, for an
    add, its window, so an op whose times come out as in the base stops
    the change there, and every op outside the region settles as it did
    in the base, which succeeded.
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
        self.units = [graph.op(uid) for uid in view.base]
        self.position = {uid: k for k, uid in enumerate(view.base)}
        # Per unit, by position: whether it is a core, its bit numbers,
        # the bits of other units it reads (every number below its own
        # belongs to another unit), and the units that read it.
        core = OpKind.MULT_CORE
        self.core = [op.kind is core for op in self.units]
        self.bits = [range(lo, lo + op.width) for op, lo in zip(self.units, view.base.values())]
        self.feeds = [
            tuple({p for n in bits for p in self.producers[n] if p < bits.start})
            for bits in self.bits
        ]
        owner = [k for k, bits in enumerate(self.bits) for _ in bits]
        self.successors: list[set[int]] = [set() for _ in self.units]
        for k, bits in enumerate(self.bits):
            for j in {owner[p] for n in bits for p in self.producers[n] if p < bits.start}:
                self.successors[j].add(k)
        self.base = self._complete()

    def settle(self, k: int, pin: int | None, table: list[int]) -> bool:
        """Write the times of the bits of the unit at position ``k`` into
        ``table``, indexed by bit number; False if it cannot fit.

        An unplaced core (``pin`` None) takes the cycle after its inputs
        are ready; an unplaced add starts at its window floor and moves
        later only while its chain overflows the cycle.  Producers come
        first in topo order, so deferring a unit never invalidates one
        already settled.  A placed unit is checked as-is.  ``max`` takes
        no ``default=``: each vetted candidate re-settles its region bit
        by bit, and a keyword call costs about 600 ns a bit on CPython
        3.11 against 300 for the positional one.
        """
        op, bits, producers, n_bits = self.units[k], self.bits[k], self.producers, self.n_bits
        at = table.__getitem__
        feeds = self.feeds[k]
        ready = -(-max(map(at, feeds)) // n_bits) if feeds else 0
        if self.core[k]:
            c = pin if pin is not None else ready + 1
            if c <= ready or c > self.lam:
                return False
            full = c * n_bits
            for n in bits:
                table[n] = full
            return True
        c = pin if pin is not None else max(self.windows[op.id][0], ready)
        while True:
            if c > self.lam or c < ready:
                return False
            # Every operand is ready by cycle c, so a bit chains on its
            # latest producer only if that one finishes in c.
            start, end = (c - 1) * n_bits, c * n_bits
            for n in bits:
                prods = producers[n]
                t = max(max(map(at, prods)) if prods else 0, start) + 1
                if t > end:
                    break
                table[n] = t
            else:
                return True
            if pin is not None:
                return False
            c += 1

    def _complete(self) -> list[int] | None:
        """The whole completion table of ``cycle_of``, or None."""
        table = [0] * len(self.producers)
        for k, op in enumerate(self.units):
            if not self.settle(k, self.cycle_of.get(op.id), table):
                return None
        return table

    def vet(self, uid: str, c: int) -> list[int] | None:
        """The completion table with ``uid`` at ``c``, a copy of the base
        with the changed region re-settled, or None if the completion no
        longer fits the budget."""
        base = self.base
        ops = self.units
        table = base.copy()
        heap = [self.position[uid]]
        queued = set(heap)
        while heap:
            k = heapq.heappop(heap)
            op_id = ops[k].id
            pin = c if op_id == uid else self.cycle_of.get(op_id)
            if not self.settle(k, pin, table):
                return None
            if any(table[n] != base[n] for n in self.bits[k]):
                for s in self.successors[k]:
                    if s not in queued:
                        queued.add(s)
                        heapq.heappush(heap, s)
        return table

    def place(self, uid: str, c: int, table: list[int]) -> None:
        """Commit a candidate that ``vet`` passed: its table becomes the
        base."""
        self.cycle_of[uid] = c
        self.base = table


def _ranked(loads: dict[int, int], busy: list[int], start: int, late: int,
            width: int, top: int) -> list[int]:
    """The cycles of ``(start, late]`` that rank before ``start`` for a
    unit of ``width`` bits, in rank order: by the peak load
    ``max(top, load + width)`` placing it there would leave, then by
    cycle.

    Every empty cycle ranks alike, and ``schedule`` vets no cycle above
    one that failed, so only ``start``, the busy cycles (``busy``,
    sorted) and the first empty cycle after ``start`` are ranked; none
    is if ``start`` keeps the peak at ``top``, as nothing ranks below it.
    """
    if loads.get(start, 0) + width <= top:
        return []
    cycles, empty = [start], start + 1
    for k in busy[bisect_right(busy, start):bisect_right(busy, late)]:
        if k == empty:
            empty += 1
        cycles.append(k)
    if empty <= late:
        cycles.append(empty)
    ranked = [(max(top, loads.get(k, 0) + width), k) for k in cycles]
    return [k for _, k in sorted(r for r in ranked if r < ranked[0])]


def schedule(
    graph: DataFlowGraph,
    fragments: dict[str, list[Fragment]],
    lam: int,
    n_bits: int,
) -> Schedule:
    """Assign a cycle to every add fragment and multiplier core; each
    add's window is the one its record in ``fragments`` holds."""
    if lam < 1:
        raise ScheduleError(f"latency must be at least 1 cycle, got {lam}")
    if n_bits < 1:
        raise ScheduleError(f"cycle must hold at least one bit, got {n_bits}")
    frag_of = {f.id: f for parts in fragments.values() for f in parts}
    windows: dict[str, tuple[int, int]] = {}
    cycle_of: dict[str, int] = {}
    add, core = OpKind.ADD, OpKind.MULT_CORE
    for op in graph.ops:
        if op.kind is not add:
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
    cores = [op.id for op in graph.ops if op.kind is core]
    loads: dict[int, int] = {}  # adder bits per busy cycle
    for uid, c in cycle_of.items():
        loads[c] = loads.get(c, 0) + graph.op(uid).width
    busy = sorted(loads)

    plan = _Plan(graph, lam, n_bits, windows, cycle_of)
    if plan.base is None:
        # The completion of the pins is the earliest any placement
        # allows, so no unit has a cycle that fits.
        if cores:
            raise ScheduleError(f"no feasible cycle for core {cores[0]}")
        if movable:
            raise ScheduleError(f"no feasible cycle for {movable[0]}")
        raise ScheduleError("; ".join(_realized_table(graph, n_bits, cycle_of)[1]))
    first = graph.bit_view.base  # each unit's bit 0

    def base_cycle(uid: str) -> int:
        return -(-plan.base[first[uid]] // n_bits)

    for core in cores:
        cycle_of[core] = base_cycle(core)

    # A unit fits at its cycle in the base completion, as it settled there.
    # Every earlier cycle the completion rejected (operands not ready, or a
    # chain overflow), and vet reads the same, upstream, producer slots.  So
    # the first cycle to fit in (peak, cycle) order has the smallest pair:
    # the base cycle, with no vet, unless a later cycle ranks before it.
    # The cycles that fit form one run from the base cycle, so once a
    # cycle fails, no cycle above it is vetted.
    top = max(loads.values(), default=0)
    for uid in movable:
        start, late = base_cycle(uid), windows[uid][1]
        if start > late:
            raise ScheduleError(f"no feasible cycle for {uid}")
        width = graph.op(uid).width
        c, table, failed = start, plan.base, late + 1
        for k in _ranked(loads, busy, start, late, width, top):
            if k > failed:
                continue
            vetted = plan.vet(uid, k)
            if vetted is not None:
                c, table = k, vetted
                break
            failed = k
        plan.place(uid, c, table)
        if c not in loads:
            insort(busy, c)
        loads[c] = loads.get(c, 0) + width
        top = max(top, loads[c])

    # Every unit is placed, so the base is the completion of cycle_of
    # itself, the table _realized_table derives: cycle_of is the schedule.
    return Schedule(graph, lam, n_bits, cycle_of, fragments)


def verify_schedule(sched: Schedule) -> list[str]:
    """Independent legality check; an empty list means the schedule holds.

    One pass checks that the cycle size and the latency are at least 1,
    that every unit has a cycle in ``1..lam``, inside its fragment
    record's window if it has one, that fragments run in order and, once
    every unit has a cycle, the realized slots: operands ready when read
    and chains no deeper than the cycle.  No mobility is derived: on a
    replay with every unit in ``1..lam`` and no realized problem, ALAP
    cannot fail and no unit, a core or an add without a record, leaves
    its derived window.
    """
    graph, cycle_of, lam, n_bits = sched.graph, sched.cycle_of, sched.lam, sched.n_bits
    problems: list[str] = []
    if n_bits < 1:
        problems.append(f"cycle must hold at least one bit, got {n_bits}")
    if lam < 1:
        problems.append(f"latency must be at least 1 cycle, got {lam}")
    windows = {f.id: (f.asap_cycle, f.alap_cycle)
               for parts in sched.fragments.values() for f in parts}
    complete = True
    for uid in graph.bit_view.base:
        if uid not in cycle_of:
            problems.append(f"{uid}: not scheduled")
            complete = False
            continue
        c = cycle_of[uid]
        if not 1 <= c <= lam:
            problems.append(f"{uid}: cycle {c} outside 1..{lam}")
        early, late = windows.get(uid, (c, c))
        if not early <= c <= late:
            problems.append(f"{uid}: cycle {c} outside window [{early}, {late}]")
    for parent, parts in sched.fragments.items():
        for a, b in zip(parts, parts[1:]):
            if a.id in cycle_of and b.id in cycle_of and cycle_of[a.id] > cycle_of[b.id]:
                problems.append(f"{parent}: fragment {a.id} after its higher half {b.id}")
    if complete:
        problems += _realized_table(graph, n_bits, cycle_of)[1]
    return problems
