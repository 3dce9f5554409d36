"""Bit-level mobility analysis and fragmentation of additive operations.

A schedule slot for a bit is a (cycle, depth) pair: depth counts how
many adder bits already chain inside the cycle, and at most ``n_bits``
of chaining fit in one cycle.  ASAP packs every bit as early as the
recurrence allows, ALAP as late as the latency budget allows, and an
add is then split into maximal runs of contiguous bits whose cycle
windows agree.  Every consumer is then rewired to read the fragment
bits: each operand is resolved once with ``dfg.operand_bits``, each of
its op bits is mapped to the fragment bit that now computes it, and the
bits are regrouped into slices and concatenations.  Carries chain
fragment to fragment, and only fragmented design outputs are
reassembled, under their original name, so the design signature is
unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple

from .dfg import (
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
    ZERO_BIT,
    check,
    operand_bits,
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


# Where inputs and constants are ready: the start of every producer max.
ORIGIN = Slot(0, 0)


def bit_asap(graph: DataFlowGraph, n_bits: int) -> dict[tuple[str, int], Slot]:
    """Earliest slot per bit; inputs sit at (0, 0)."""
    if n_bits < 1:
        raise ValueError(f"cycle must hold at least one bit, got {n_bits}")
    view = graph.bit_view
    producers = view.producers
    table = [ORIGIN] * len(producers)
    at = table.__getitem__
    first = Slot(1, 0)  # adds start in cycle 1
    for op in graph.ops:
        lo, width = view.base[op.id], op.width
        if op.kind is OpKind.MULT_CORE:
            # Every bit of a core waits on the same producers.  Core
            # inputs must be complete in a prior cycle; results fill
            # their cycle so consumers spill to the next one.
            latest = max(map(at, producers[lo]), default=ORIGIN).cycle
            table[lo:lo + width] = [Slot(latest + 1, n_bits)] * width
        elif op.kind in GLUE_KINDS:
            for n in range(lo, lo + width):
                table[n] = max(map(at, producers[n]), default=ORIGIN)
        else:
            for n in range(lo, lo + width):
                latest = max(map(at, producers[n]), default=ORIGIN)
                cycle, depth = max(latest, first)
                if depth < n_bits:
                    table[n] = Slot(cycle, depth + 1)
                else:
                    table[n] = Slot(cycle + 1, 1)
    return view.keyed(table)


def bit_alap(graph: DataFlowGraph, n_bits: int, lam: int) -> dict[tuple[str, int], Slot]:
    """Latest slot per bit for a ``lam``-cycle schedule.

    Design outputs (and dangling results) are due at a virtual slot
    (lam + 1, 1); only glue can stay there, every add and core bit
    lands in cycle lam or earlier.  Raises InfeasibleError when any bit
    falls before cycle 1.
    """
    if n_bits < 1:
        raise ValueError(f"cycle must hold at least one bit, got {n_bits}")
    if lam < 1:
        raise ValueError(f"latency must be at least 1 cycle, got {lam}")
    # Ripple chaining makes bit i+1 a consumer of bit i of the same op;
    # it constrains the backward pass like any external consumer.
    view = graph.bit_view
    consumers = view.consumers
    due = Slot(lam + 1, 1)
    table = [due] * len(consumers)
    at = table.__getitem__
    for op in reversed(graph.ops):
        lo, width = view.base[op.id], op.width
        if op.kind is OpKind.MULT_CORE:
            users = chain.from_iterable(consumers[lo:lo + width])
            cycle = min(map(at, users), default=due).cycle - 1
            if cycle < 1:
                raise InfeasibleError(
                    f"latency {lam} too small: {op.id} would finish before cycle 1"
                )
            # Results due at depth 1 so producers retreat a full cycle.
            table[lo:lo + width] = [Slot(cycle, 1)] * width
        elif op.kind in GLUE_KINDS:
            # Transparent: finishes exactly where its consumer reads.
            for n in range(lo + width - 1, lo - 1, -1):
                table[n] = min(map(at, consumers[n]), default=due)
        else:
            for n in range(lo + width - 1, lo - 1, -1):
                cycle, depth = min(map(at, consumers[n]), default=due)
                depth -= 1
                if depth < 1:
                    cycle, depth = cycle - 1, n_bits
                if cycle < 1:
                    raise InfeasibleError(
                        f"latency {lam} too small: {op.id}[{n - lo}] would fall before cycle 1"
                    )
                table[n] = Slot(cycle, depth)
    return view.keyed(table)


def analyze(graph: DataFlowGraph, n_bits: int, lam: int) -> Mobility:
    return Mobility(lam, n_bits, bit_asap(graph, n_bits), bit_alap(graph, n_bits, lam))


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
            (mobility.asap[(op.id, i)].cycle, mobility.alap[(op.id, i)].cycle)
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
        last = groups[-1][-1] if groups else None
        # Constants run together; an input or op bit, a (name, bit) pair,
        # extends the slice of the same name that ends just below it.
        if type(ref) is type(last) and (
            isinstance(ref, ConstBit) or ref == (last[0], last[1] + 1)
        ):
            groups[-1].append(ref)
        else:
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
        else:  # OpBit
            terms.append(Operand(ResultRef(first.op), group[-1].bit, first.bit))
    if len(terms) == 1:
        return terms[0]
    concat = Concat(tuple(reversed(terms)))
    return Operand(concat, concat.width - 1, 0)


def _rewire(bits: list, bit_map: dict[OpBit, OpBit], lo: int, width: int | None) -> Operand:
    """Rebuild an operand from its resolved ``bits`` on the rewritten ops.

    A fragment reads ``width`` bits from ``lo`` upward, zero-extended; a
    whole op (``width`` None) reads the operand at its own width.  An op
    bit ``bit_map`` holds moves to its fragment; every other bit stays.
    """
    if width is not None:
        bits = bits[lo:lo + width]
        bits += [ZERO_BIT] * (width - len(bits))
    return _regroup([bit_map.get(ref, ref) for ref in bits])


def apply_runs(
    graph: DataFlowGraph,
    runs: dict[str, list[tuple[int, int, int, int]]],
) -> tuple[dict[str, list[Fragment]], DataFlowGraph]:
    """Split adds along ``runs`` and rewire the rest of the design.

    Each op becomes its parts, ``(name, lo, width)`` LSB first: the
    fragments of an add with several runs, else the op itself under its
    own name, with width None.  Only ops with runs get Fragment records.
    """
    namer = Namer(
        {op.id for op in graph.ops} | {p.name for p in graph.inputs}
    )
    fragments: dict[str, list[Fragment]] = {}
    parts: dict[str, list[tuple[str, int, int | None]]] = {}
    # Each bit of a split add -> the fragment bit that now computes it,
    # and the add -> its top fragment, whose carry-out is the add's.
    # Ops that are not split keep their bits and their carry.
    bit_map: dict[OpBit, OpBit] = {}
    carry_of: dict[str, str] = {}
    for op in graph.ops:
        split = runs.get(op.id, [])
        if len(split) > 1:
            names = [namer.fresh(f"{op.id}{k}") for k in range(len(split))]
            parts[op.id] = [
                (name, lo, hi - lo + 1) for name, (lo, hi, _, _) in zip(names, split)
            ]
            for name, lo, width in parts[op.id]:
                for i in range(width):
                    bit_map[OpBit(op.id, lo + i)] = OpBit(name, i)
            carry_of[op.id] = names[-1]
        else:
            names = [op.id]
            parts[op.id] = [(op.id, 0, None)]
        if split:
            fragments[op.id] = [
                Fragment(op.id, k, name, *run)
                for k, (name, run) in enumerate(zip(names, split))
            ]

    new_ops: list[Operation] = []
    for op in graph.ops:
        operands = [operand_bits(o) for o in op.operands]
        carry = op.carry_in
        if isinstance(carry, CarryRef):
            carry = CarryRef(carry_of.get(carry.op, carry.op))
        for name, lo, width in parts[op.id]:
            new_ops.append(
                Operation(
                    name,
                    op.kind,
                    width or op.width,
                    op.signed,
                    tuple(_rewire(bits, bit_map, lo, width) for bits in operands),
                    carry,
                )
            )
            carry = CarryRef(name)  # fragments chain low to high

    for name in dict.fromkeys(graph.outputs):
        if not graph.is_op(name) or len(parts[name]) == 1:
            continue
        concat = Concat(
            tuple(
                Operand(ResultRef(part), width - 1, 0)
                for part, _, width in reversed(parts[name])
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
    This can tile an op more coarsely than the per-bit windows do.  A
    bucket holds ``n_bits`` bits counted from the op's bit 0, whatever
    depth that bit starts at: in sec2 at latency 3, E starts at depth 2
    and G at depth 3, so their first buckets overflow the cycle and the
    scheduler finds no feasible cycle for them.
    """
    n_bits = mobility.n_bits
    runs: dict[str, list[tuple[int, int, int, int]]] = {}
    for op in graph.ops:
        if op.kind is not OpKind.ADD:
            continue
        start = mobility.asap[(op.id, 0)].cycle
        stop = mobility.alap[(op.id, op.width - 1)].cycle
        # Bit i is the (i % n_bits)-th bit of the (i // n_bits)-th bucket
        # from the bottom, and likewise counted down from the top.
        runs[op.id] = _split_runs([
            (start + i // n_bits, stop - (op.width - 1 - i) // n_bits)
            for i in range(op.width)
        ])
    return runs


def bucket_fragment(
    graph: DataFlowGraph, mobility: Mobility
) -> tuple[dict[str, list[Fragment]], DataFlowGraph]:
    return apply_runs(graph, bucket_runs(graph, mobility))
