"""Datapath cost model for scheduled designs.

Fragments of one original add share a single adder lane sized to the
widest fragment, so the lane count never grows with fragmentation; the
price is paid in steering instead.  This module derives the lanes, the
bits that must be latched at every cycle boundary, a register binding
that reuses one physical register per boundary slot, and the resulting
multiplexer fan-ins at register inputs and functional-unit ports.

Register model: a result bit is latched at boundary c when it is
produced in or before cycle c and some add or core reads it after c,
directly or through glue; design inputs and outputs have dedicated I/O
registers and are not counted.  A lane's carry is
latched while the ripple is suspended, that is between the cycles of
two neighbouring fragments.  The reads and the order of the latched
bits both come from the graph's bit numbers (``graph.reads``, derived
here on first use, and ``bit_view``), so nothing here re-derives bit
order from the fragment records.

The unfragmented design is costed by the same model: tiled with
``fragmenter.whole_runs`` (every add whole, in one cycle) and scheduled
at the same latency, it yields a CostReport like any other schedule.
"""

from __future__ import annotations

from typing import NamedTuple

from .dfg import (
    CarryBit,
    OpBit,
    OpKind,
)
from .scheduler import Schedule


class Lane(NamedTuple):
    parent: str
    width: int
    fragment_ids: tuple[str, ...]


class PortMux(NamedTuple):
    lane: str
    port: int
    fan_in: int
    width: int


class RegisterBinding(NamedTuple):
    index: int
    kind: str  # "data" or "carry"
    width: int
    signals: tuple[str, ...]
    fan_in: int


class CostReport(NamedTuple):
    lanes: tuple[Lane, ...]
    cores: tuple[tuple[str, int], ...]
    stored_per_boundary: dict[int, int]
    stored_sets: dict[int, tuple[str, ...]]
    max_stored: int
    registers: tuple[RegisterBinding, ...]
    port_muxes: tuple[PortMux, ...]
    carry_fan_in: dict[str, int]
    loads: dict[int, int]


def bit_name(ref) -> str:
    """``op[bit]`` or ``carry(op)``: how the cost report and the latch
    trace name a stored bit."""
    if isinstance(ref, CarryBit):
        return f"carry({ref.op})"
    return f"{ref.op}[{ref.bit}]"


def stored_bits(sched: Schedule) -> dict[int, list]:
    """Bits live across each cycle boundary, in the bit view's order.

    Boundary c separates cycle c from c + 1; keys run 1 .. lam - 1.  A
    read bit is held at every boundary from its producing op's cycle (a
    carry's op produces it) up to its last reader's cycle; an
    unscheduled reader or producer holds nothing.  Each boundary lists
    its refs, OpBit or CarryBit, in bit number order: unit bits before
    carries, each in definition order and then by bit.
    """
    graph, cycle_of, lam = sched.graph, sched.cycle_of, sched.lam
    view, reads = graph.bit_view, graph.reads
    base, size = view.base, len(view.producers)
    stop = [0] * (size + len(view.carried))  # each bit's last reader cycle
    for op in graph.ops:
        cycle = cycle_of.get(op.id)
        if cycle is None:
            continue  # glue, or an unscheduled unit: its reads hold nothing
        lo = base[op.id]
        for refs in reads[lo:lo + op.width]:
            for r in refs:
                if stop[r] < cycle:
                    stop[r] = cycle
    out: dict[int, list] = {b: [] for b in range(1, lam)}
    for op in graph.ops:
        op_id = op.id
        first = cycle_of.get(op_id)
        if first is None:
            continue  # glue, or a unit with no cycle: holds its bits nowhere
        lo = base[op_id]
        for i, last in enumerate(stop[lo:lo + op.width]):
            if last:  # a scheduled unit reads it; clamped without a max/min call
                ref = OpBit(op_id, i)
                for b in range(first if first > 1 else 1, last if last < lam else lam):
                    out[b].append(ref)
    for op_id, last in zip(view.carried, stop[size:]):
        if last and op_id in cycle_of:
            ref = CarryBit(op_id)
            for b in range(max(cycle_of[op_id], 1), min(last, lam)):
                out[b].append(ref)
    return out


def _bind_slots(boundaries) -> list[list]:
    """Slot j lists, first seen first, every signal held j-th at some
    boundary; each slot is one physical register."""
    slots: list[list] = []
    for signals in boundaries:
        for j, signal in enumerate(signals):
            if j == len(slots):
                slots.append([])
            if signal not in slots[j]:
                slots[j].append(signal)
    return slots


def bind_registers(sched: Schedule, held: dict[int, list]) -> tuple[RegisterBinding, ...]:
    """One physical register per boundary slot.

    At every boundary the held data bits (then carries) fill slots in a
    fixed order; slot j across all boundaries is a single register, and
    its input needs a multiplexer once it stores more than one signal.
    Two fragments' carries are one signal when they leave the same
    lane's carry-out, so a lane parked in its own slot muxes nothing.
    """
    frag_of = {f.id: f for parts in sched.fragments.values() for f in parts}

    def carry_lane(ref: CarryBit) -> str:
        frag = frag_of.get(ref.op)
        return frag.parent if frag else ref.op

    boundaries = [held[b] for b in sorted(held)]
    data_slots = _bind_slots(
        [r for r in refs if isinstance(r, OpBit)] for refs in boundaries
    )
    carry_slots = _bind_slots(
        [carry_lane(r) for r in refs if isinstance(r, CarryBit)] for refs in boundaries
    )
    registers = []
    for j, signals in enumerate(data_slots):
        registers.append(
            RegisterBinding(
                j, "data", 1,
                tuple(bit_name(r) for r in signals), len(signals),
            )
        )
    for j, signals in enumerate(carry_slots):
        registers.append(
            RegisterBinding(
                len(data_slots) + j, "carry", 1,
                tuple(f"carry lane {lane}" for lane in signals), len(signals),
            )
        )
    return tuple(registers)


def costs(sched: Schedule) -> CostReport:
    graph, core = sched.graph, OpKind.MULT_CORE
    lanes, muxes, carry_fan_in = [], [], {}
    for parent, parts in sched.fragments.items():
        width = max(f.width for f in parts)
        lanes.append(Lane(parent, width, tuple(f.id for f in parts)))
        ops = [graph.op(f.id) for f in parts]
        # Each adder port of a lane, and its carry-in, has one mux input
        # per distinct operand expression (or carry source) its fragments
        # read; a fan-in of 1 needs no multiplexer.
        for port in (0, 1):
            fan_in = len({op.operands[port] for op in ops})
            muxes.append(PortMux(parent, port, fan_in, width))
        carry_fan_in[parent] = len({op.carry_in for op in ops})
    held = sched.held
    per_boundary = {b: len(refs) for b, refs in held.items()}
    return CostReport(
        lanes=tuple(lanes),
        cores=tuple(
            (op.id, op.width) for op in graph.ops if op.kind is core
        ),
        stored_per_boundary=per_boundary,
        stored_sets={
            b: tuple(bit_name(r) for r in refs) for b, refs in held.items()
        },
        max_stored=max(per_boundary.values(), default=0),
        registers=bind_registers(sched, held),
        port_muxes=tuple(muxes),
        carry_fan_in=carry_fan_in,
        loads=sched.loads(),
    )
