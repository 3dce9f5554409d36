"""Bit-level mobility analysis and fragmentation of additive operations.

A schedule slot for a bit is a (cycle, depth) pair: depth counts how
many adder bits already chain inside the cycle, and at most ``n_bits``
of chaining fit in one cycle.  ASAP packs every bit as early as the
recurrence allows, ALAP as late as the latency budget allows, and an
add is then split into maximal runs of contiguous bits whose cycle
windows agree.  Every consumer is then rewired to read the fragment
bits, a slice at a time: each part of an op resolves the operand bits
it reads with ``dfg.operand_slices``, each slice of a split add moves
onto the fragments it overlaps, and neighbouring slices are joined back
into slices and concatenations.  Carries chain fragment to fragment,
and only fragmented design outputs are reassembled, under their
original name, so the design signature is unchanged.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain

from .dfg import (
    CarryRef,
    Concat,
    Const,
    DataFlowGraph,
    Namer,
    OpKind,
    Operand,
    Operation,
    ResultRef,
    Slot,
    check,
    operand_slices,
)


class InfeasibleError(ValueError):
    """The latency budget cannot hold the design's critical chain."""


@dataclass(slots=True, unsafe_hash=True)
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
    view = graph.bit_view
    producers = view.producers
    # (cycle, depth) pairs by bit number; inputs and constants are ready
    # at (0, 0), the start of every producer max.
    table = [(0, 0)] * len(producers)
    at = table.__getitem__
    for op in graph.ops:
        lo, width = view.base[op.id], op.width
        if op.kind is OpKind.MULT_CORE:
            # Every bit of a core waits on the same producers.  Core
            # inputs must be complete in a prior cycle; results fill
            # their cycle so consumers spill to the next one.
            latest = max(map(at, producers[lo]), default=(0, 0))[0]
            table[lo:lo + width] = [(latest + 1, n_bits)] * width
        elif op.kind.glue:
            for n in range(lo, lo + width):
                table[n] = max(map(at, producers[n]), default=(0, 0))
        else:
            for n in range(lo, lo + width):
                # Adds start in cycle 1.
                cycle, depth = max(max(map(at, producers[n]), default=(0, 0)), (1, 0))
                if depth < n_bits:
                    table[n] = (cycle, depth + 1)
                else:
                    table[n] = (cycle + 1, 1)
    return view.slots(table)


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
    due = (lam + 1, 1)
    table = [due] * len(consumers)
    at = table.__getitem__
    for op in reversed(graph.ops):
        lo, width = view.base[op.id], op.width
        if op.kind is OpKind.MULT_CORE:
            users = chain.from_iterable(consumers[lo:lo + width])
            cycle = min(map(at, users), default=due)[0] - 1
            if cycle < 1:
                raise InfeasibleError(
                    f"latency {lam} too small: {op.id} would finish before cycle 1"
                )
            # Results due at depth 1 so producers retreat a full cycle.
            table[lo:lo + width] = [(cycle, 1)] * width
        elif op.kind.glue:
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
                table[n] = (cycle, depth)
    return view.slots(table)


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


def _rejoin(slices: list[Operand]) -> Operand:
    """One operand from flat slices, lowest first, in canonical form.

    Neighbouring slices of one source with contiguous bits merge, and so
    do neighbouring constants; a trailing all-zero constant drops while
    another slice remains, since the consumer zero-extends.
    """
    out: list[Operand] = []
    for s in slices:
        if out:
            last = out[-1]
            if type(s.source) is Const:
                if type(last.source) is Const:
                    bits = s.source.bits + last.source.bits  # MSB first
                    out[-1] = Operand(Const(bits), len(bits) - 1, 0)
                    continue
            elif s.source == last.source and s.lo == last.hi + 1:
                out[-1] = Operand(s.source, s.hi, last.lo)
                continue
        out.append(s)
    if len(out) > 1 and type(out[-1].source) is Const and "1" not in out[-1].source.bits:
        out.pop()
    if len(out) == 1:
        return out[0]
    concat = Concat(tuple(reversed(out)))
    return Operand(concat, concat.width - 1, 0)


def _rewire(operand: Operand, moved: dict, lo: int, width: int | None) -> Operand:
    """Rebuild ``operand`` on the rewritten ops.

    A fragment reads ``width`` bits from ``lo`` upward, zero-extended; a
    whole op (``width`` None) reads the operand at its own width.  A
    slice of a split add moves onto the fragments it overlaps, found by
    bisecting the add's fragment starts in ``moved``; every other slice
    stays.
    """
    if width is None:
        slices = operand_slices(operand)
    else:
        lo += operand.lo
        hi = min(operand.hi, lo + width - 1)
        slices = operand_slices(Operand(operand.source, hi, lo)) if lo <= hi else []
        pad = width - max(hi - lo + 1, 0)
        if pad:
            slices.append(Operand(Const("0" * pad), pad - 1, 0))
    rewired: list[Operand] = []
    for s in slices:
        if type(s.source) is not ResultRef or s.source.op not in moved:
            rewired.append(s)
            continue
        starts, names = moved[s.source.op]
        k = bisect_right(starts, s.lo) - 1
        while starts[k] <= s.hi:
            start, top = starts[k], min(s.hi, starts[k + 1] - 1)
            rewired.append(Operand(ResultRef(names[k]), top - start, max(s.lo, start) - start))
            k += 1
    return _rejoin(rewired)


def apply_runs(
    graph: DataFlowGraph,
    runs: dict[str, list[tuple[int, int, int, int]]],
) -> tuple[dict[str, list[Fragment]], DataFlowGraph]:
    """Split adds along ``runs`` and rewire the rest of the design.

    An add with several runs becomes its fragments, LSB first, each
    reading its own bits of the operands; every other op keeps its name
    and reads its operands at their own width.  Only ops with runs get
    Fragment records.
    """
    namer = Namer({op.id for op in graph.ops} | {p.name for p in graph.inputs})
    fragments: dict[str, list[Fragment]] = {}
    # Each split add -> its fragments' starts, then its width, and their
    # names.  Its top fragment's carry-out is the add's.
    moved: dict[str, tuple[list[int], list[str]]] = {}
    for op in graph.ops:
        split = runs.get(op.id, [])
        names = [op.id]
        if len(split) > 1:
            names = [namer.fresh(f"{op.id}{k}") for k in range(len(split))]
            moved[op.id] = ([lo for lo, _, _, _ in split] + [op.width], names)
        if split:
            fragments[op.id] = [
                Fragment(op.id, k, name, *run)
                for k, (name, run) in enumerate(zip(names, split))
            ]

    def parts(op_id: str) -> list[tuple[str, int, int]]:
        starts, names = moved[op_id]
        return [(name, lo, stop - lo) for name, lo, stop in zip(names, starts, starts[1:])]

    new_ops: list[Operation] = []
    for op in graph.ops:
        carry = op.carry_in
        if isinstance(carry, CarryRef) and carry.op in moved:
            carry = CarryRef(moved[carry.op][1][-1])
        for name, lo, width in parts(op.id) if op.id in moved else [(op.id, 0, None)]:
            operands = tuple(_rewire(o, moved, lo, width) for o in op.operands)
            new_ops.append(Operation(name, op.kind, width or op.width, op.signed, operands, carry))
            carry = CarryRef(name)  # fragments chain low to high

    for name in dict.fromkeys(graph.outputs):
        if name not in moved:
            continue
        # The original name becomes a transparent reassembly of the
        # fragments, so the design signature is unchanged.
        whole = _rejoin([Operand(ResultRef(f), w - 1, 0) for f, _, w in parts(name)])
        one, zero = Operand(Const("1"), 0, 0), Operand(Const("0"), 0, 0)
        op = graph.op(name)
        new_ops.append(Operation(name, OpKind.SELECT, op.width, op.signed, (one, whole, zero)))

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
