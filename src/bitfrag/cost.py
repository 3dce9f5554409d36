"""Datapath cost model for scheduled designs.

Fragments of one original add share a single adder lane sized to the
widest fragment, so the lane count never grows with fragmentation; the
price is paid in steering instead.  This module derives the lanes, the
bits that must be latched at every cycle boundary, a register binding
that reuses one physical register per boundary slot, and the resulting
multiplexer fan-ins at register inputs and functional-unit ports.

Register model: a result bit is latched at boundary c when it is
produced in or before cycle c and some add or core reads it after c.
Reads are traced through transparent glue; design inputs and outputs
have dedicated I/O registers and are not counted.  A lane's carry is
latched while the ripple is suspended, that is between the cycles of
two neighbouring fragments.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dfg import (
    CarryBit,
    DataFlowGraph,
    GLUE_KINDS,
    OpBit,
    OpKind,
)
from .scheduler import Schedule


@dataclass(frozen=True)
class Lane:
    parent: str
    width: int
    fragment_ids: tuple[str, ...]


@dataclass(frozen=True)
class PortMux:
    lane: str
    port: int
    fan_in: int
    width: int


@dataclass(frozen=True)
class RegisterBinding:
    index: int
    kind: str  # "data" or "carry"
    width: int
    signals: tuple[str, ...]
    fan_in: int


@dataclass(frozen=True)
class CostReport:
    lanes: tuple[Lane, ...]
    cores: tuple[tuple[str, int], ...]
    stored_per_boundary: dict[int, int]
    stored_sets: dict[int, tuple[str, ...]]
    max_stored: int
    registers: tuple[RegisterBinding, ...]
    port_muxes: tuple[PortMux, ...]
    carry_fan_in: dict[str, int]
    loads: dict[int, int]


@dataclass(frozen=True)
class OriginalCosts:
    """Costs of the unfragmented design under one-op-per-cycle scheduling."""

    cycles: int
    cycle_time: int
    lane_width: int
    stored_per_boundary: dict[int, int]
    max_stored: int
    registers: tuple[RegisterBinding, ...]
    port_fan_ins: tuple[int, int]


def _bit_name(ref) -> str:
    if isinstance(ref, CarryBit):
        return f"carry({ref.op})"
    return f"{ref.op}[{ref.bit}]"


def _base_consumers(graph: DataFlowGraph) -> dict:
    """Consumption map from producer bits to consuming unit ids.

    Keys are OpBit/CarryBit of non-glue ops, read through glue.
    """
    consumers: dict = {}
    for (unit, _), refs in graph.bit_view.reads.items():
        for ref in refs:
            consumers.setdefault(ref, set()).add(unit)
    return consumers


def stored_bits(sched: Schedule) -> dict[int, list]:
    """Bits live across each cycle boundary, in deterministic order.

    Boundary c separates cycle c from c + 1; keys run 1 .. lam - 1.
    """
    graph = sched.graph
    slot = graph.bit_view.slot
    live: dict = {}
    for ref, users in _base_consumers(graph).items():
        start = sched.realized[slot[ref]].cycle
        stop = max(sched.cycle_of[u] for u in users)
        if stop > start:
            live[ref] = (start, stop)

    frag_of = {f.id: f for parts in sched.fragments.values() for f in parts}
    parent_of = {}
    parent_index: dict[str, int] = {}
    for op in graph.ops:
        pid = frag_of[op.id].parent if op.id in frag_of else op.id
        parent_of[op.id] = pid
        parent_index.setdefault(pid, len(parent_index))

    def key(ref) -> tuple:
        if isinstance(ref, CarryBit):
            frag = frag_of.get(ref.op)
            return (1, parent_index[parent_of[ref.op]], frag.index if frag else 0)
        frag = frag_of.get(ref.op)
        base = frag.lo if frag else 0
        return (0, parent_index[parent_of[ref.op]], base + ref.bit)

    out: dict[int, list] = {}
    for b in range(1, sched.lam):
        held = [ref for ref, (start, stop) in live.items() if start <= b < stop]
        out[b] = sorted(held, key=key)
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
                tuple(_bit_name(r) for r in signals), len(signals),
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


def bind_lanes(sched: Schedule) -> tuple[Lane, ...]:
    lanes = []
    for parent, parts in sched.fragments.items():
        lanes.append(
            Lane(
                parent,
                max(f.width for f in parts),
                tuple(f.id for f in parts),
            )
        )
    return tuple(lanes)


def port_muxes(sched: Schedule, lanes: tuple[Lane, ...]) -> tuple[PortMux, ...]:
    """Steering at the two adder ports of every lane.

    Fan-in counts the distinct operand expressions the lane sees across
    its fragments; a single expression needs no multiplexer.
    """
    muxes = []
    for lane in lanes:
        for port in (0, 1):
            feeds = []
            for fid in lane.fragment_ids:
                opnd = sched.graph.op(fid).operands[port]
                if opnd not in feeds:
                    feeds.append(opnd)
            muxes.append(PortMux(lane.parent, port, len(feeds), lane.width))
    return tuple(muxes)


def carry_fan_ins(sched: Schedule) -> dict[str, int]:
    out = {}
    for parent, parts in sched.fragments.items():
        feeds = []
        for f in parts:
            carry = sched.graph.op(f.id).carry_in
            if carry not in feeds:
                feeds.append(carry)
        out[parent] = len(feeds)
    return out


def costs(sched: Schedule) -> CostReport:
    lanes = bind_lanes(sched)
    held = stored_bits(sched)
    per_boundary = {b: len(refs) for b, refs in held.items()}
    return CostReport(
        lanes=lanes,
        cores=tuple(
            (op.id, op.width)
            for op in sched.graph.ops
            if op.kind is OpKind.MULT_CORE
        ),
        stored_per_boundary=per_boundary,
        stored_sets={
            b: tuple(_bit_name(r) for r in refs) for b, refs in held.items()
        },
        max_stored=max(per_boundary.values(), default=0),
        registers=bind_registers(sched, held),
        port_muxes=port_muxes(sched, lanes),
        carry_fan_in=carry_fan_ins(sched),
        loads=sched.loads(),
    )


def _op_level_consumers(graph: DataFlowGraph) -> dict[str, set[str]]:
    consumers: dict[str, set[str]] = {}
    for base, users in _base_consumers(graph).items():
        consumers.setdefault(base.op, set()).update(users)
    return consumers


def original_costs(graph: DataFlowGraph) -> OriginalCosts:
    """Costs of scheduling the kernel design one operation per cycle.

    The single shared adder lane is as wide as the widest add, whole
    results are stored between cycles, and the lane's two ports see one
    source per operation.  This is the yardstick fragmentation is
    measured against.
    """
    units = [op for op in graph.ops if op.kind not in GLUE_KINDS]
    cycle_of = {op.id: k + 1 for k, op in enumerate(units)}
    cycles = len(units)
    adds = [op for op in units if op.kind is OpKind.ADD]
    lane_width = max((op.width for op in adds), default=0)

    consumers = _op_level_consumers(graph)
    live = {}
    for op in units:
        users = consumers.get(op.id, set())
        stop = max((cycle_of[u] for u in users), default=cycle_of[op.id])
        if stop > cycle_of[op.id]:
            live[op.id] = (cycle_of[op.id], stop)

    index = {op.id: k for k, op in enumerate(graph.ops)}
    held: dict[int, list[str]] = {}
    for b in range(1, cycles):
        held[b] = sorted(
            (o for o, (start, stop) in live.items() if start <= b < stop),
            key=lambda o: index[o],
        )
    slots = _bind_slots(held[b] for b in sorted(held))
    registers = tuple(
        RegisterBinding(
            j,
            "data",
            max(graph.op(o).width for o in signals),
            tuple(signals),
            len(signals),
        )
        for j, signals in enumerate(slots)
    )
    per_boundary = {
        b: sum(graph.op(o).width for o in names) for b, names in held.items()
    }

    fan_ins = []
    for port in (0, 1):
        feeds = []
        for op in adds:
            opnd = op.operands[port]
            if opnd not in feeds:
                feeds.append(opnd)
        fan_ins.append(len(feeds))

    return OriginalCosts(
        cycles=cycles,
        cycle_time=lane_width,
        lane_width=lane_width,
        stored_per_boundary=per_boundary,
        max_stored=max(per_boundary.values(), default=0),
        registers=registers,
        port_fan_ins=(fan_ins[0], fan_ins[1]),
    )
