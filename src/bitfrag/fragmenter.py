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
An unsplit op that reads no split add and keeps its carry is kept as it
is, and so is each operand of it that reads an input or an unsplit op.
Carries chain fragment to fragment, and only fragmented design outputs
are reassembled, under their original name, so the design signature is
unchanged.  The rewrite changes no bit's data dependences, so the
rewritten graph's bit view is derived from the one it rewrote
(``dfg.carried_view``), not built again.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import NamedTuple

from .dfg import (
    CarryRef,
    Concat,
    Const,
    DataFlowGraph,
    InputRef,
    Namer,
    OpKind,
    Operand,
    Operation,
    Record,
    ResultRef,
    carried_view,
    check,
    operand_slices,
)
from .timing import arrival_table


class InfeasibleError(ValueError):
    """The latency budget cannot hold the design's critical chain."""


class Fragment(Record):
    __slots__ = ("parent", "id", "lo", "hi", "asap_cycle", "alap_cycle")

    def __init__(self, parent: str, id: str, lo: int, hi: int,
                 asap_cycle: int, alap_cycle: int) -> None:
        self.parent = parent
        self.id = id
        self.lo = lo
        self.hi = hi
        self.asap_cycle = asap_cycle
        self.alap_cycle = alap_cycle

    @property
    def width(self) -> int:
        return self.hi - self.lo + 1


class Mobility(NamedTuple):
    """Every unit bit's earliest and latest cycle, by the view's bit
    number: ``asap[n]`` and ``alap[n]`` for bit ``n``, so bit ``i`` of
    unit ``x`` is at ``base[x] + i`` (``graph.bit_view.base``)."""

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


def alap_table(graph: DataFlowGraph, n_bits: int, lam: int) -> list[int]:
    """Every unit bit's latest time for a ``lam``-cycle schedule, by bit
    number; raises InfeasibleError when any bit falls before cycle 1."""
    if n_bits < 1:
        raise InfeasibleError(f"cycle must hold at least one bit, got {n_bits}")
    if lam < 1:
        raise InfeasibleError(f"latency must be at least 1 cycle, got {lam}")
    # The walk runs backward, by bit number: until it reaches a bit, the
    # bit's entry is the earliest time a reader needs it (``due`` if none
    # does); then it is the bit's own time, pushed down to its producers.
    # Every reader of a bit, bit i+1 of a ripple included, has a higher
    # number, so a bit's need is final when the walk reaches it.
    view = graph.bit_view
    producers = view.producers
    due = lam * n_bits + 1  # depth 1 of the virtual cycle lam + 1
    table = [due] * len(producers)
    core = OpKind.MULT_CORE
    for op, lo in reversed([*zip(map(graph.op, view.base), view.base.values())]):
        width = op.width
        if op.kind is core:
            # Due at depth 1 of the cycle before its first reader's, so
            # producers retreat a full cycle; every bit reads the same.
            t = (-(-min(table[lo:lo + width]) // n_bits) - 2) * n_bits + 1
            if t < 1:
                raise InfeasibleError(
                    f"latency {lam} too small: {op.id} would finish before cycle 1"
                )
            table[lo:lo + width] = [t] * width
            for p in producers[lo]:
                if table[p] > t:
                    table[p] = t
            continue
        for n in range(lo + width - 1, lo - 1, -1):
            t = table[n] - 1
            if t < 1:
                raise InfeasibleError(
                    f"latency {lam} too small: {op.id}[{n - lo}] would fall before cycle 1"
                )
            table[n] = t
            for p in producers[n]:
                if table[p] > t:
                    table[p] = t
    return table


def analyze(graph: DataFlowGraph, n_bits: int, lam: int) -> Mobility:
    """Both cycle tables of ``graph``.  ALAP runs first: it is the one
    that can fail, and then the ASAP loop is not run at all.  The ASAP
    recurrence differs from the arrival one only at a core, so a kernel
    without one takes ASAP from ``graph.arrivals``."""
    alap = alap_table(graph, n_bits, lam)
    add = OpKind.ADD
    if all(op.kind is add or op.kind.glue for op in graph.ops):
        asap = graph.arrivals
    else:
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
    add = OpKind.ADD
    for op in graph.ops:
        if op.kind is not add:
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
            elif s.lo == last.hi + 1 and (s.source is last.source or s.source == last.source):
                out[-1] = Operand(s.source, s.hi, last.lo)
                continue
        out.append(s)
    if len(out) > 1 and type(out[-1].source) is Const and "1" not in out[-1].source.bits:
        out.pop()
    if len(out) == 1:
        return out[0]
    return Operand(Concat(tuple(reversed(out))), sum([s.hi - s.lo + 1 for s in out]) - 1, 0)


def _rewire(operand: Operand, moved: dict, lo: int, width: int | None) -> Operand:
    """Rebuild ``operand`` on the rewritten ops.

    A fragment reads ``width`` bits from ``lo`` upward, zero-extended; a
    whole op (``width`` None) reads the operand at its own width.  A
    slice of a split add moves onto the fragments it overlaps, found by
    bisecting the add's fragment starts in ``moved``; every other slice
    stays.  An unpadded read of an input, an unsplit op or one fragment
    is built directly; a whole op's read of the first two is ``operand``.
    """
    source = operand.source
    lo += operand.lo
    hi = operand.hi if width is None else min(operand.hi, lo + width - 1)
    pad = 0 if width is None else width - max(hi - lo + 1, 0)
    kind = type(source)
    if not pad and (kind is ResultRef or kind is InputRef):
        if kind is InputRef or source.op not in moved:
            return operand if width is None else Operand(source, hi, lo)
        starts, refs = moved[source.op]
        k = bisect_right(starts, lo) - 1
        if hi < starts[k + 1]:
            return Operand(refs[k], hi - starts[k], lo - starts[k])
    slices = operand_slices(Operand(source, hi, lo)) if lo <= hi else []
    if pad:
        slices.append(Operand(Const("0" * pad), pad - 1, 0))
    rewired: list[Operand] = []
    for s in slices:
        if type(s.source) is not ResultRef or s.source.op not in moved:
            rewired.append(s)
            continue
        starts, refs = moved[s.source.op]
        k = bisect_right(starts, s.lo) - 1
        while starts[k] <= s.hi:
            start, top = starts[k], min(s.hi, starts[k + 1] - 1)
            rewired.append(Operand(refs[k], top - start, max(s.lo, start) - start))
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
    Fragment records.  Ops keep their order, a split add's fragments
    take its place, and reassembly selects go last; the new graph comes
    with its bit view, derived from ``graph``'s by ``dfg.carried_view``,
    which rests on that order.
    """
    namer = Namer({op.id for op in graph.ops} | {p.name for p in graph.inputs})
    fragments: dict[str, list[Fragment]] = {}
    # Each split add -> its fragments' starts, then its width, and a
    # ResultRef to each.  Its top fragment's carry-out is the add's.
    moved: dict[str, tuple[list[int], list[ResultRef]]] = {}
    for op in graph.ops:
        split = runs.get(op.id, [])
        names = [op.id]
        if len(split) > 1:
            names = [namer.fresh(f"{op.id}{k}") for k in range(len(split))]
            moved[op.id] = ([run[0] for run in split] + [op.width], [*map(ResultRef, names)])
        if split:
            fragments[op.id] = [Fragment(op.id, name, *run) for name, run in zip(names, split)]

    new_ops: list[Operation] = []
    for op in graph.ops:
        carry = op.carry_in
        if type(carry) is CarryRef and carry.op in moved:
            carry = CarryRef(moved[carry.op][1][-1].op)
        if op.id not in moved:
            operands = tuple([_rewire(o, moved, 0, None) for o in op.operands])
            if carry is not op.carry_in or operands != op.operands:
                op = Operation(op.id, op.kind, op.width, op.signed, operands, carry)
            new_ops.append(op)
            continue
        starts, refs = moved[op.id]
        for ref, lo, stop in zip(refs, starts, starts[1:]):
            operands = tuple([_rewire(o, moved, lo, stop - lo) for o in op.operands])
            new_ops.append(Operation(ref.op, op.kind, stop - lo, op.signed, operands, carry))
            carry = CarryRef(ref.op)  # fragments chain low to high

    # The original name of each split output becomes a transparent
    # reassembly of the fragments, so the design signature is unchanged.
    one, zero = Operand(Const("1"), 0, 0), Operand(Const("0"), 0, 0)
    for name in dict.fromkeys(graph.outputs):
        if name in moved:
            starts, refs = moved[name]
            whole = _rejoin([Operand(r, b - a - 1, 0) for r, a, b in zip(refs, starts, starts[1:])])
            op = graph.op(name)
            new_ops.append(Operation(name, OpKind.SELECT, op.width, op.signed, (one, whole, zero)))

    new_graph = DataFlowGraph(graph.name, graph.inputs, tuple(new_ops), graph.outputs)
    check(new_graph)
    # Kept where the cached ``bit_view`` property looks first.
    new_graph.__dict__["bit_view"] = carried_view(graph.bit_view, new_graph)
    return fragments, new_graph


def fragment(
    graph: DataFlowGraph, mobility: Mobility
) -> tuple[dict[str, list[Fragment]], DataFlowGraph]:
    """Fragment every add along its per-bit cycle windows."""
    return apply_runs(graph, op_runs(graph, mobility))


def bucket_runs(
    graph: DataFlowGraph, mobility: Mobility
) -> dict[str, list[tuple[int, int, int, int]]]:
    """Reference tiling that fills per-cycle buckets of ``n_bits``, kept
    only as the benchmark's mixed fixture (``bucket_fragment``).

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
    add = OpKind.ADD
    for op in graph.ops:
        if op.kind is not add:
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
    add = OpKind.ADD
    for op in graph.ops:
        if op.kind is add:
            runs[op.id] = [(0, op.width - 1, *mobility.window(op))]
    return runs
