"""Bit-level mobility analysis and fragmentation of additive operations.

A bit's schedule slot is one int, its time as ``timing`` counts it: at
most ``n_bits`` adder bits chain in a cycle, and depth ``d`` of cycle
``c`` is time ``(c - 1) * n_bits + d``, so a chain spills into the next
cycle by the ``+ 1`` that chains it.  ASAP (``timing.arrival_table``)
packs every bit as early as the recurrence allows, ALAP as late as the
latency budget allows, and an add is then split into maximal runs of
contiguous bits whose cycle windows agree.  Every consumer is then
rewired to read the fragment bits, a slice at a time: each part of an
op resolves the operand bits it reads with ``dfg.operand_slices``, each
slice of a split add moves onto the fragments it overlaps, and
neighbouring slices are joined back into slices and concatenations.
Carries chain fragment to fragment, and only fragmented design outputs
are reassembled, under their original name, so the design signature is
unchanged.
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
from .timing import arrival_table


class InfeasibleError(ValueError):
    """The latency budget cannot hold the design's critical chain."""


@dataclass(slots=True, unsafe_hash=True)
class Fragment:
    parent: str
    id: str
    lo: int
    hi: int
    asap_cycle: int
    alap_cycle: int

    @property
    def width(self) -> int:
        return self.hi - self.lo + 1


@dataclass(frozen=True)
class Mobility:
    """Every data bit's earliest and latest cycle, by the view's bit
    number: ``asap[n]`` and ``alap[n]`` for bit ``n``, so bit ``i`` of
    op ``x`` is at ``base[x] + i`` (``graph.bit_view.base``)."""

    n_bits: int
    base: dict[str, int]
    asap: tuple[int, ...]
    alap: tuple[int, ...]

    def cycles(self, op: Operation) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The ASAP and the ALAP cycles of ``op``'s bits, LSB first."""
        lo = self.base[op.id]
        return self.asap[lo:lo + op.width], self.alap[lo:lo + op.width]

    def window(self, op: Operation) -> tuple[int, int]:
        """The cycles every bit of ``op`` can share: from the latest
        ASAP cycle of its bits to the earliest ALAP cycle."""
        asap, alap = self.cycles(op)
        return max(asap), min(alap)


def _alap_table(graph: DataFlowGraph, n_bits: int, lam: int) -> list[int]:
    """Every bit's latest time for a ``lam``-cycle schedule, by bit
    number."""
    if n_bits < 1:
        raise InfeasibleError(f"cycle must hold at least one bit, got {n_bits}")
    if lam < 1:
        raise InfeasibleError(f"latency must be at least 1 cycle, got {lam}")
    # Ripple chaining makes bit i+1 a consumer of bit i of the same op;
    # it constrains the backward pass like any external consumer.
    view = graph.bit_view
    consumers = view.consumers
    due = lam * n_bits + 1  # depth 1 of the virtual cycle lam + 1
    table = [due] * len(consumers)
    at = table.__getitem__
    for op in reversed(graph.ops):
        lo, width = view.base[op.id], op.width
        if op.kind is OpKind.MULT_CORE:
            users = chain.from_iterable(consumers[lo:lo + width])
            # Due at depth 1 of the cycle before its first reader's, so
            # producers retreat a full cycle.
            t = (-(-min(map(at, users), default=due) // n_bits) - 2) * n_bits + 1
            if t < 1:
                raise InfeasibleError(
                    f"latency {lam} too small: {op.id} would finish before cycle 1"
                )
            table[lo:lo + width] = [t] * width
        elif op.kind.glue:
            # Transparent: finishes exactly where its consumer reads.
            for n in range(lo + width - 1, lo - 1, -1):
                table[n] = min(map(at, consumers[n]), default=due)
        else:
            for n in range(lo + width - 1, lo - 1, -1):
                t = min(map(at, consumers[n]), default=due) - 1
                if t < 1:
                    raise InfeasibleError(
                        f"latency {lam} too small: {op.id}[{n - lo}] would fall before cycle 1"
                    )
                table[n] = t
    return table


def _slots(
    graph: DataFlowGraph, times: list[int] | tuple[int, ...], n_bits: int
) -> dict[tuple[str, int], Slot]:
    """A time table as ``(cycle, depth)`` slots, keyed as
    ``BitView.slots`` gives them; time 0 is slot (0, 0)."""
    def slot(t: int) -> tuple[int, int]:
        cycle, depth = divmod(t - 1, n_bits)
        return (cycle + 1, depth + 1) if t else (0, 0)

    return graph.bit_view.slots(list(map(slot, times)))


def bit_asap(graph: DataFlowGraph, n_bits: int) -> dict[tuple[str, int], Slot]:
    """Earliest slot per bit; inputs sit at (0, 0)."""
    return _slots(graph, arrival_table(graph, n_bits), n_bits)


def bit_alap(graph: DataFlowGraph, n_bits: int, lam: int) -> dict[tuple[str, int], Slot]:
    """Latest slot per bit for a ``lam``-cycle schedule.

    Design outputs (and dangling results) are due at a virtual slot
    (lam + 1, 1); only glue can stay there, every add and core bit
    lands in cycle lam or earlier.  Raises InfeasibleError when any bit
    falls before cycle 1.
    """
    return _slots(graph, _alap_table(graph, n_bits, lam), n_bits)


def analyze(graph: DataFlowGraph, n_bits: int, lam: int) -> Mobility:
    """Both cycle tables of ``graph``.  ALAP runs first: it is the one
    that can fail, and then the ASAP loop is not run at all."""
    alap = _alap_table(graph, n_bits, lam)
    asap = arrival_table(graph, n_bits)
    return Mobility(
        n_bits, graph.bit_view.base,
        tuple([-(-t // n_bits) for t in asap]), tuple([-(-t // n_bits) for t in alap]),
    )


def op_runs(graph: DataFlowGraph, mobility: Mobility) -> dict[str, list[tuple[int, int, int, int]]]:
    """Maximal contiguous bit runs of equal cycle window, per add op.

    Returns ``{op id: [(lo, hi, asap_cycle, alap_cycle), ...]}`` in LSB
    to MSB order.  Glue and the multiplier core are never fragmented.
    """
    runs: dict[str, list[tuple[int, int, int, int]]] = {}
    for op in graph.ops:
        if op.kind is not OpKind.ADD:
            continue
        runs[op.id] = _split_runs(list(zip(*mobility.cycles(op))))
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
                Fragment(op.id, name, *run) for name, run in zip(names, split)
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
        asap, alap = mobility.cycles(op)
        start, stop = asap[0], alap[-1]
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


def whole_runs(
    graph: DataFlowGraph, mobility: Mobility
) -> dict[str, list[tuple[int, int, int, int]]]:
    """The unfragmented baseline: one run per add, its whole width.

    The run's window is the add's ``Mobility.window``, the cycles every
    bit of it can share.  An add wider than ``n_bits`` fits no cycle, so
    the scheduler refuses it.
    """
    runs: dict[str, list[tuple[int, int, int, int]]] = {}
    for op in graph.ops:
        if op.kind is OpKind.ADD:
            runs[op.id] = [(0, op.width - 1, *mobility.window(op))]
    return runs
