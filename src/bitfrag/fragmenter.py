"""Bit-level mobility analysis and fragmentation of additive operations.

A schedule slot for a bit is a (cycle, depth) pair: depth counts how
many adder bits already chain inside the cycle, and at most ``n_bits``
of chaining fit in one cycle.  ASAP packs every bit as early as the
recurrence allows, ALAP as late as the latency budget allows, and an
add is then split into maximal runs of contiguous bits whose cycle
windows agree.  Consumers are rewired to the fragment results bit by
bit, carries are chained fragment to fragment, and fragmented design
outputs are reassembled under their original name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .dfg import (
    CarryBit,
    CarryRef,
    Concat,
    Const,
    ConstBit,
    DataFlowGraph,
    GLUE_KINDS,
    InputBit,
    InputRef,
    Namer,
    OpBit,
    OpKind,
    Operand,
    Operation,
    ResultRef,
    check,
    resolve_operand_bit,
)


class InfeasibleError(ValueError):
    """The latency budget cannot hold the design's critical chain."""


class Slot(NamedTuple):
    """Where a bit is ready: a cycle and the adder depth chained in it.

    Slots order by cycle, then depth, so the latest of several
    producers is their ``max`` and the earliest consumer their ``min``.
    """

    cycle: int
    depth: int


@dataclass(frozen=True)
class Fragment:
    parent: str
    index: int
    id: str
    lo: int
    hi: int
    asap_cycle: int
    alap_cycle: int

    @property
    def width(self) -> int:
        return self.hi - self.lo + 1

    @property
    def prescheduled(self) -> bool:
        return self.asap_cycle == self.alap_cycle


@dataclass(frozen=True)
class Mobility:
    lam: int
    n_bits: int
    asap: dict[tuple[str, int], Slot]
    alap: dict[tuple[str, int], Slot]


def bit_asap(graph: DataFlowGraph, n_bits: int) -> dict[tuple[str, int], Slot]:
    """Earliest slot per bit; inputs sit at (0, 0)."""
    if n_bits < 1:
        raise ValueError(f"cycle must hold at least one bit, got {n_bits}")
    producers = graph.bit_view.producers
    table: dict[tuple[str, int], Slot] = {}
    for op in graph.ops:
        if op.kind is OpKind.MULT_CORE:
            # Every bit of a core waits on the same producers.
            latest = max(
                (table[p] for p in producers[(op.id, 0)]), default=Slot(0, 0)
            ).cycle
            # Core inputs must be complete in a prior cycle; results
            # fill their cycle so consumers spill to the next one.
            for i in range(op.width):
                table[(op.id, i)] = Slot(latest + 1, n_bits)
            continue
        for i in range(op.width):
            latest = max(
                (table[p] for p in producers[(op.id, i)]), default=Slot(0, 0)
            )
            if op.kind in GLUE_KINDS:
                table[(op.id, i)] = latest
                continue
            cycle, depth = max(latest, Slot(1, 0))  # adds start in cycle 1
            if depth < n_bits:
                table[(op.id, i)] = Slot(cycle, depth + 1)
            else:
                table[(op.id, i)] = Slot(cycle + 1, 1)
    return table


def bit_alap(graph: DataFlowGraph, n_bits: int, lam: int) -> dict[tuple[str, int], Slot]:
    """Latest slot per bit for a ``lam``-cycle schedule.

    Design outputs (and dangling results) are due at a virtual slot
    (lam + 1, 1).  Raises InfeasibleError when any bit falls before
    cycle 1.
    """
    if n_bits < 1:
        raise ValueError(f"cycle must hold at least one bit, got {n_bits}")
    if lam < 1:
        raise ValueError(f"latency must be at least 1 cycle, got {lam}")
    # Ripple chaining makes bit i+1 a consumer of bit i of the same op;
    # it constrains the backward pass like any external consumer.
    consumers = graph.bit_view.consumers
    due = Slot(lam + 1, 1)
    table: dict[tuple[str, int], Slot] = {}
    for op in reversed(graph.ops):
        if op.kind is OpKind.MULT_CORE:
            cycle = min(
                (table[c] for i in range(op.width) for c in consumers[(op.id, i)]),
                default=due,
            ).cycle - 1
            if cycle < 1:
                raise InfeasibleError(
                    f"latency {lam} too small: {op.id} would finish before cycle 1"
                )
            # Results due at depth 1 so producers retreat a full cycle.
            for i in range(op.width):
                table[(op.id, i)] = Slot(cycle, 1)
            continue
        for i in range(op.width - 1, -1, -1):
            cycle, depth = min(
                (table[c] for c in consumers[(op.id, i)]), default=due
            )
            if op.kind in GLUE_KINDS:
                # Transparent: finishes exactly where its consumer reads.
                table[(op.id, i)] = Slot(cycle, depth)
                continue
            depth -= 1
            if depth < 1:
                cycle, depth = cycle - 1, n_bits
            if cycle < 1:
                raise InfeasibleError(
                    f"latency {lam} too small: {op.id}[{i}] would fall before cycle 1"
                )
            table[(op.id, i)] = Slot(cycle, depth)
    return table


def analyze(graph: DataFlowGraph, n_bits: int, lam: int) -> Mobility:
    return Mobility(lam, n_bits, bit_asap(graph, n_bits), bit_alap(graph, n_bits, lam))


def _clamp(slot: Slot, lam: int) -> Slot:
    # Output-only glue may sit at the virtual due slot; report within budget.
    return slot if slot.cycle <= lam else Slot(lam, slot.depth)


def op_runs(graph: DataFlowGraph, mobility: Mobility) -> dict[str, list[tuple[int, int, int, int]]]:
    """Maximal contiguous bit runs of equal cycle window, per add op.

    Returns ``{op id: [(lo, hi, asap_cycle, alap_cycle), ...]}`` in LSB
    to MSB order.  Glue and the multiplier core are never fragmented.
    """
    runs: dict[str, list[tuple[int, int, int, int]]] = {}
    for op in graph.ops:
        if op.kind is not OpKind.ADD:
            continue
        runs[op.id] = _split_runs([
            (
                mobility.asap[(op.id, i)].cycle,
                _clamp(mobility.alap[(op.id, i)], mobility.lam).cycle,
            )
            for i in range(op.width)
        ])
    return runs


def _split_runs(windows: list[tuple[int, int]]) -> list[tuple[int, int, int, int]]:
    """Maximal runs of equal per-bit windows as (lo, hi, asap, alap), LSB first."""
    out: list[tuple[int, int, int, int]] = []
    lo = 0
    for i in range(1, len(windows) + 1):
        if i == len(windows) or windows[i] != windows[lo]:
            out.append((lo, i - 1, windows[lo][0], windows[lo][1]))
            lo = i
    return out


def _regroup(bits: list) -> Operand:
    """Pack resolved bit refs (LSB first) back into slices and concats."""
    groups: list[list] = []
    for ref in bits:
        if groups:
            last = groups[-1][-1]
            if (
                isinstance(ref, ConstBit)
                and isinstance(last, ConstBit)
            ):
                groups[-1].append(ref)
                continue
            if (
                isinstance(ref, InputBit)
                and isinstance(last, InputBit)
                and ref.name == last.name
                and ref.bit == last.bit + 1
            ):
                groups[-1].append(ref)
                continue
            if (
                isinstance(ref, OpBit)
                and isinstance(last, OpBit)
                and ref.op == last.op
                and ref.bit == last.bit + 1
            ):
                groups[-1].append(ref)
                continue
        groups.append([ref])
    # Trailing high zeros are implicit in the operand's zero extension.
    while len(groups) > 1 and all(
        isinstance(r, ConstBit) and r.value == 0 for r in groups[-1]
    ):
        groups.pop()
    terms: list[Operand] = []
    for group in groups:
        first = group[0]
        if isinstance(first, ConstBit):
            bits_str = "".join(str(r.value) for r in reversed(group))
            terms.append(Operand(Const(bits_str), len(group) - 1, 0))
        elif isinstance(first, InputBit):
            terms.append(Operand(InputRef(first.name), group[-1].bit, first.bit))
        elif isinstance(first, OpBit):
            terms.append(Operand(ResultRef(first.op), group[-1].bit, first.bit))
        else:  # CarryBit
            terms.append(Operand(CarryRef(first.op), 0, 0))
    if len(terms) == 1:
        return terms[0]
    concat = Concat(tuple(reversed(terms)))
    return Operand(concat, concat.width - 1, 0)


def _map_ref(ref, bit_map: dict):
    if isinstance(ref, OpBit):
        new_op, new_bit = bit_map[(ref.op, ref.bit)]
        return OpBit(new_op, new_bit)
    if isinstance(ref, CarryBit):
        return CarryBit(bit_map["carry", ref.op])
    return ref


def _rewire(graph: DataFlowGraph, opnd: Operand, bit_map: dict, count: int, base: int = 0) -> Operand:
    bits = [
        _map_ref(resolve_operand_bit(graph, opnd, base + k), bit_map)
        for k in range(count)
    ]
    return _regroup(bits)


def apply_runs(
    graph: DataFlowGraph,
    runs: dict[str, list[tuple[int, int, int, int]]],
) -> tuple[dict[str, list[Fragment]], DataFlowGraph]:
    """Split adds along ``runs`` and rewire the rest of the design."""
    namer = Namer(
        {op.id for op in graph.ops} | {p.name for p in graph.inputs}
    )
    fragments: dict[str, list[Fragment]] = {}
    # (parent, bit) -> (new op, local bit); "carry", parent -> carry source op.
    bit_map: dict = {}
    for op in graph.ops:
        split = runs.get(op.id, [])
        if len(split) <= 1:
            for i in range(op.width):
                bit_map[(op.id, i)] = (op.id, i)
            bit_map["carry", op.id] = op.id
            if op.id in runs:
                lo, hi, a, l = split[0]
                fragments[op.id] = [Fragment(op.id, 0, op.id, lo, hi, a, l)]
            continue
        parts = []
        for k, (lo, hi, a, l) in enumerate(split):
            frag_id = namer.fresh(f"{op.id}{k}")
            parts.append(Fragment(op.id, k, frag_id, lo, hi, a, l))
            for i in range(lo, hi + 1):
                bit_map[(op.id, i)] = (frag_id, i - lo)
        bit_map["carry", op.id] = parts[-1].id
        fragments[op.id] = parts

    new_ops: list[Operation] = []
    for op in graph.ops:
        parts = fragments.get(op.id, [])
        if len(parts) <= 1:
            carry = op.carry_in
            if isinstance(carry, CarryRef):
                carry = CarryRef(bit_map["carry", carry.op])
            new_ops.append(
                Operation(
                    op.id,
                    op.kind,
                    op.width,
                    op.signed,
                    tuple(
                        _rewire(graph, o, bit_map, o.width) for o in op.operands
                    ),
                    carry,
                )
            )
            continue
        for frag in parts:
            if frag.index == 0:
                carry = op.carry_in
                if isinstance(carry, CarryRef):
                    carry = CarryRef(bit_map["carry", carry.op])
            else:
                carry = CarryRef(parts[frag.index - 1].id)
            new_ops.append(
                Operation(
                    frag.id,
                    OpKind.ADD,
                    frag.width,
                    op.signed,
                    tuple(
                        _rewire(graph, o, bit_map, frag.width, frag.lo)
                        for o in op.operands
                    ),
                    carry,
                )
            )

    outputs = []
    reassembled: set[str] = set()
    for name in graph.outputs:
        outputs.append(name)
        if not graph.is_op(name) or name in reassembled:
            continue
        parts = fragments.get(name, [])
        if len(parts) <= 1:
            continue
        reassembled.add(name)
        concat = Concat(
            tuple(
                Operand(ResultRef(f.id), f.width - 1, 0) for f in reversed(parts)
            )
        )
        # The original name becomes a transparent reassembly of the
        # fragments, so the design signature is unchanged.
        new_ops.append(
            Operation(
                name,
                OpKind.SELECT,
                graph.op(name).width,
                graph.op(name).signed,
                (
                    Operand(Const("1"), 0, 0),
                    Operand(concat, concat.width - 1, 0),
                    Operand(Const("0"), 0, 0),
                ),
            )
        )

    new_graph = DataFlowGraph(graph.name, graph.inputs, tuple(new_ops), graph.outputs)
    check(new_graph)
    return fragments, new_graph


def fragment(
    graph: DataFlowGraph, mobility: Mobility
) -> tuple[dict[str, list[Fragment]], DataFlowGraph]:
    """Fragment every add along its per-bit cycle windows."""
    return apply_runs(graph, op_runs(graph, mobility))


def bucket_runs(
    graph: DataFlowGraph, mobility: Mobility
) -> dict[str, list[tuple[int, int, int, int]]]:
    """Reference tiling that fills per-cycle buckets of ``n_bits``.

    Works from whole-operation windows: bits pour into cycle buckets
    forward from the op's earliest cycle and backward from its latest,
    and fragments are the LSB-first intersection of the two fills.
    This can tile an op more coarsely than the per-bit windows do.
    """
    n_bits = mobility.n_bits
    runs: dict[str, list[tuple[int, int, int, int]]] = {}
    for op in graph.ops:
        if op.kind is not OpKind.ADD:
            continue
        start = mobility.asap[(op.id, 0)].cycle
        stop = _clamp(mobility.alap[(op.id, op.width - 1)], mobility.lam).cycle
        forward: list[int] = []
        cycle, used = start, 0
        for _ in range(op.width):
            if used == n_bits:
                cycle, used = cycle + 1, 0
            forward.append(cycle)
            used += 1
        backward: list[int] = []
        cycle, used = stop, 0
        for _ in range(op.width):
            if used == n_bits:
                cycle, used = cycle - 1, 0
            backward.append(cycle)
            used += 1
        backward.reverse()
        runs[op.id] = _split_runs(list(zip(forward, backward)))
    return runs


def bucket_fragment(
    graph: DataFlowGraph, mobility: Mobility
) -> tuple[dict[str, list[Fragment]], DataFlowGraph]:
    return apply_runs(graph, bucket_runs(graph, mobility))
