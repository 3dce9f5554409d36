"""Bit-accurate evaluation and equivalence checking.

Values are plain ints holding the unsigned bit pattern of each signal;
signedness only changes how MULT/LT/MAX/MIN interpret their operands.
``eval_dfg`` evaluates any validated design directly, one vector at a
time; it is the reference oracle.  ``check_equiv`` evaluates blocks of
vectors instead, in the manner of parallel-pattern fault simulators:
``_eval_block`` holds each signal's values for the whole block as the
fixed-stride fields of one int and computes each op with a few big-int
operations on those ints, unpacking fields only to multiply.  The latch
check walks a scheduled design cycle by cycle and insists that every
value crossing a cycle boundary sits in a latch the cost model pays
for; it reads no input values, so ``check_equiv`` runs it once per
schedule, while ``eval_schedule`` runs it with every evaluation.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .dfg import (
    CarryRef,
    Concat,
    Const,
    DataFlowGraph,
    GLUE_KINDS,
    InputRef,
    OpKind,
    Operand,
    Operation,
    ResultRef,
    Source,
    source_width,
)
from .cost import bit_name, stored_bits
from .scheduler import Schedule


class SimulationError(ValueError):
    pass


def _mask(width: int) -> int:
    return (1 << width) - 1


def _signed(value: int, width: int) -> int:
    value &= _mask(width)
    if value >> (width - 1):
        return value - (1 << width)
    return value


class _Env:
    """Resolved signal values during one evaluation."""

    def __init__(self, graph: DataFlowGraph, inputs: dict[str, int]):
        missing = [p.name for p in graph.inputs if p.name not in inputs]
        if missing:
            raise SimulationError(f"missing input values: {', '.join(missing)}")
        self.graph = graph
        self.values: dict[str, int] = {
            p.name: inputs[p.name] & _mask(p.width) for p in graph.inputs
        }
        self.carries: dict[str, int] = {}

    def source_value(self, source) -> int:
        if isinstance(source, (InputRef, ResultRef)):
            name = source.name if isinstance(source, InputRef) else source.op
            return self.values[name]
        if isinstance(source, Const):
            return int(source.bits, 2)
        value = 0
        for part in source.parts:  # Concat, MSB first
            value = (value << part.width) | self.operand_value(part)
        return value

    def operand_value(self, operand: Operand) -> int:
        return (self.source_value(operand.source) >> operand.lo) & _mask(
            operand.width
        )


def _eval_op(env: _Env, op: Operation) -> None:
    w = op.width
    vals = [env.operand_value(o) for o in op.operands]
    widths = [o.width for o in op.operands]
    if op.kind in (OpKind.ADD, OpKind.SUB):
        a, b = vals[0] & _mask(w), vals[1] & _mask(w)
        if op.kind is OpKind.ADD:
            carry_in = op.carry_in
            if isinstance(carry_in, CarryRef):
                carry_in = env.carries[carry_in.op]
            total = a + b + (carry_in or 0)
            env.carries[op.id] = total >> w
        else:
            total = a - b
        env.values[op.id] = total & _mask(w)
    elif op.kind is OpKind.MULT_CORE:
        env.values[op.id] = (vals[0] * vals[1]) & _mask(w)
    elif op.kind is OpKind.MULT:
        a, b = vals[0], vals[1]
        if op.signed:
            a, b = _signed(a, widths[0]), _signed(b, widths[1])
        env.values[op.id] = (a * b) & _mask(w)
    elif op.kind in (OpKind.LT, OpKind.MAX, OpKind.MIN):
        a, b = vals[0], vals[1]
        ka, kb = a, b
        if op.signed:
            ka, kb = _signed(a, widths[0]), _signed(b, widths[1])
        if op.kind is OpKind.LT:
            env.values[op.id] = int(ka < kb) & _mask(w)
        elif op.kind is OpKind.MAX:
            env.values[op.id] = (a if ka >= kb else b) & _mask(w)
        else:
            env.values[op.id] = (b if ka >= kb else a) & _mask(w)
    elif op.kind is OpKind.NOT:
        env.values[op.id] = ~vals[0] & _mask(w)
    else:  # SELECT
        env.values[op.id] = (vals[1] if vals[0] else vals[2]) & _mask(w)


def eval_dfg(graph: DataFlowGraph, inputs: dict[str, int]) -> dict[str, int]:
    """Evaluate a design; returns output name to unsigned bit pattern."""
    env = _Env(graph, inputs)
    for op in graph.ops:
        _eval_op(env, op)
    return {name: env.values[name] for name in graph.outputs}


# Vectors per block in check_equiv.  Each op is decoded once per block
# and costs a few big-int operations whose size grows with the block,
# and a block's values live until it ends.  Over the benchmark's equiv
# designs, 256 vectors ran about 1.5x as fast as 64 and 1024 about 1.2x
# as fast again, while a 1000-vector proof of elliptic's latency-3
# schedule peaked under tracemalloc at 0.11, 0.26 and 0.94 MB.
_BLOCK = 256


def _widest(source: Source) -> int:
    """Widest constant or concatenation in ``source``, else 1."""
    if isinstance(source, Concat):
        return max(source.width, *(_widest(p.source) for p in source.parts))
    return source.width if isinstance(source, Const) else 1


def _stride(*graphs: DataFlowGraph) -> int:
    """Bits per vector in a packed value of any of ``graphs``.

    Room for the widest input, op, constant or concatenation plus two
    guard bits, in whole bytes.  A sum, an offset difference or an
    offset comparison needs one bit above its operands; the guard keeps
    it inside its own field.  Designs with no signal at all (no input
    and no op) take one byte.
    """
    widest = max(
        (
            w
            for g in graphs
            for w in itertools.chain(
                (p.width for p in g.inputs),
                (op.width for op in g.ops),
                (_widest(o.source) for op in g.ops for o in op.operands),
            )
        ),
        default=0,
    )
    return -(-(widest + 2) // 8) * 8


def _pack(values, width: int, stride: int) -> int:
    """One int whose ``j``-th ``stride``-bit field is ``values[j]`` cut
    to ``width`` bits."""
    m, size = _mask(width), stride // 8
    return int.from_bytes(
        b"".join((v & m).to_bytes(size, "little") for v in values), "little"
    )


def _unpack(packed: int, n: int, stride: int) -> list[int]:
    """The ``n`` fields of a packed value, first vector first."""
    size = stride // 8
    raw = packed.to_bytes(size * n, "little")
    return [int.from_bytes(raw[k : k + size], "little") for k in range(0, size * n, size)]


class _Block:
    """Packed signal values while ``_eval_block`` walks one graph.

    A class rather than nested functions: closures that call each other
    form a reference cycle, which would keep every block's values alive
    until the cyclic garbage collector runs.
    """

    def __init__(self, graph: DataFlowGraph, inputs: dict[str, int], ones: int):
        self.graph, self.ones = graph, ones
        self.values = {p.name: inputs[p.name] for p in graph.inputs}
        self.carries: dict[str, int] = {}

    def source(self, src: Source) -> int:
        if isinstance(src, InputRef):
            return self.values[src.name]
        if isinstance(src, ResultRef):
            return self.values[src.op]
        if isinstance(src, Const):
            return int(src.bits, 2) * self.ones
        first, *rest = src.parts  # Concat, MSB first
        packed = self.operand(first)
        for part in rest:
            packed = (packed << part.width) | self.operand(part)
        return packed

    def operand(self, o: Operand, width: int | None = None) -> int:
        """``o``'s values at its own width, cut to ``width`` if narrower."""
        w = o.width if width is None else min(o.width, width)
        packed, lo = self.source(o.source), o.lo
        if lo:
            return (packed >> lo) & (_mask(w) * self.ones)
        if source_width(self.graph, o.source) > w:
            return packed & (_mask(w) * self.ones)
        return packed


def _eval_block(
    graph: DataFlowGraph, inputs: dict[str, int], n: int, stride: int
) -> dict[str, int]:
    """``eval_dfg`` on ``n`` vectors at once.

    Every signal is one int holding its ``n`` values as ``stride``-bit
    fields (see ``_pack``); ``inputs`` maps each input name to its
    packed values, already cut to the port width, and the result maps
    each output name to its packed unsigned bit patterns.  Each op is a
    few big-int operations on whole blocks: a field is always below
    ``1 << (stride - 2)``, so a sum, a difference offset by ``1 << w``
    or a compare offset by ``1 << top`` stays inside its own field.
    Only MULT and MULT_CORE unpack and multiply per vector.  ``stride``
    must be at least ``_stride(graph)``, and the graph validated.
    """
    ones = ((1 << stride * n) - 1) // ((1 << stride) - 1)  # 1 in every field
    block = _Block(graph, inputs, ones)
    values, carries, operand = block.values, block.carries, block.operand

    def offset(packed: int, width: int, top: int) -> int:
        """Two's complement ``width``-bit fields as ``top``-bit offset
        binary (value plus ``1 << (top - 1)``), which orders unsigned."""
        half = 1 << (width - 1)
        return (packed ^ (half * ones)) + ((1 << (top - 1)) - half) * ones

    for op in graph.ops:
        w, kind, opnds = op.width, op.kind, op.operands
        m = _mask(w) * ones
        if kind is OpKind.ADD:
            total = operand(opnds[0], w) + operand(opnds[1], w)
            carry_in = op.carry_in
            if isinstance(carry_in, CarryRef):
                total += carries[carry_in.op]
            elif carry_in:
                total += ones
            values[op.id] = total & m
            carries[op.id] = (total >> w) & ones
        elif kind is OpKind.SUB:
            a, b = operand(opnds[0], w), operand(opnds[1], w)
            values[op.id] = ((ones << w) + a - b) & m
        elif kind is OpKind.NOT:
            values[op.id] = operand(opnds[0], w) ^ m
        elif kind is OpKind.SELECT:
            s, a, b = (operand(o) for o in opnds)
            picked = s * _mask(w)
            values[op.id] = (a & picked) | (b & (m ^ picked))
        elif kind in (OpKind.MULT, OpKind.MULT_CORE):
            a, b = (_unpack(operand(o), n, stride) for o in opnds)
            if op.signed and kind is OpKind.MULT:
                a = [_signed(x, opnds[0].width) for x in a]
                b = [_signed(x, opnds[1].width) for x in b]
            values[op.id] = _pack([x * y for x, y in zip(a, b)], w, stride)
        else:  # LT, MAX, MIN
            a, b = operand(opnds[0]), operand(opnds[1])
            ka, kb = a, b
            top = max(opnds[0].width, opnds[1].width)
            if op.signed:
                ka = offset(a, opnds[0].width, top)
                kb = offset(b, opnds[1].width, top)
            ge = (((ones << top) + ka - kb) >> top) & ones  # 1 where ka >= kb
            if kind is OpKind.LT:
                values[op.id] = ge ^ ones
            else:
                picked = ge * _mask(w)
                x, y = (a, b) if kind is OpKind.MAX else (b, a)
                values[op.id] = (x & picked) | (y & (m ^ picked))
    return {name: values[name] for name in graph.outputs}


@dataclass(frozen=True)
class CycleTrace:
    cycle: int
    executed: tuple[str, ...]
    latched: tuple[str, ...]


def _latch_check(sched: Schedule) -> list[CycleTrace]:
    """Check a schedule's cycle boundaries and trace its cycles.

    Raises SimulationError if any operand bit produced in an earlier
    cycle is missing from the latch set the cost model charges for at
    the intervening boundary, or if a unit has no cycle.  The units are
    walked once, by cycle and then in definition order, so the first
    unlatched read of the earliest cycle is the one named, before any
    unscheduled unit.  Nothing here depends on input values, so one
    check covers every vector.
    """
    graph = sched.graph
    view = graph.bit_view
    keys, slot = view.keys, view.slot
    held = stored_bits(sched)
    # Units by cycle, each in definition order; a unit with no cycle in
    # 1 .. lam goes to ``missing``.
    units: dict[int, list[Operation]] = {c: [] for c in range(1, sched.lam + 1)}
    missing: list[Operation] = []
    for op in graph.ops:
        if op.kind not in GLUE_KINDS:
            units.get(sched.cycle_of.get(op.id), missing).append(op)
    for cycle, ops in units.items():
        # An op bit's key equals its OpBit, so keys look refs up directly.
        latched = set(held.get(cycle - 1, ()))
        for op in ops:
            lo = view.base[op.id]
            for refs in view.reads[lo:lo + op.width]:
                for r in refs:
                    if sched.realized[keys[slot[r]]].cycle < cycle and keys[r] not in latched:
                        raise SimulationError(
                            f"cycle {cycle}: {op.id} reads unlatched "
                            f"bit {view.ref(r)} across boundary {cycle - 1}"
                        )
    if missing:
        raise SimulationError(
            f"unscheduled operations: {', '.join(op.id for op in missing)}"
        )
    return [
        CycleTrace(
            cycle,
            tuple(op.id for op in ops),
            tuple(bit_name(r) for r in held.get(cycle, ())),
        )
        for cycle, ops in units.items()
    ]


def eval_schedule(
    sched: Schedule, inputs: dict[str, int]
) -> tuple[dict[str, int], list[CycleTrace]]:
    """Replay a schedule: one evaluation and its latch check.

    Raises SimulationError for missing inputs, then as ``_latch_check``
    does.
    """
    # A consumer may chain off the low fragments of a glue source whose
    # high fragments land in a later cycle, so whole-op values cannot be
    # settled strictly per cycle; once the latch check passes the
    # arithmetic is order independent and definition order suffices.
    outputs = eval_dfg(sched.graph, inputs)
    return outputs, _latch_check(sched)


@dataclass(frozen=True)
class EquivResult:
    strategy: str  # "exhaustive" or "random"
    checked: int
    equivalent: bool
    counterexample: dict[str, int] | None = None
    mismatch: tuple[str, int, int] | None = None  # output, got, want

    def __bool__(self) -> bool:
        return self.equivalent


EXHAUSTIVE_LIMIT = 16  # total input bits


def check_equiv(
    reference: DataFlowGraph,
    candidate: DataFlowGraph | Schedule,
    samples: int = 1000,
    seed: int = 0,
) -> EquivResult:
    """Compare two designs over their shared input space.

    Exhausts every input combination when the design has at most
    EXHAUSTIVE_LIMIT total input bits, otherwise draws ``samples``
    seeded random vectors; fewer than one sample raises
    SimulationError rather than proving nothing.  A Schedule candidate
    has its latch check run once, before any vector, and its graph is
    then evaluated.  Both designs are evaluated one block of vectors at
    a time, and the result names the first mismatching vector in
    drawing order and its first mismatching output in the reference's
    order, exactly as a vector-by-vector comparison would.
    """
    cand_graph = candidate.graph if isinstance(candidate, Schedule) else candidate
    ref_sig = [(p.name, p.width) for p in reference.inputs]
    cand_sig = [(p.name, p.width) for p in cand_graph.inputs]
    if sorted(ref_sig) != sorted(cand_sig):
        raise SimulationError(
            f"input signatures differ: {ref_sig} vs {cand_sig}"
        )
    ref_out = [(n, reference.ref_width(n)) for n in reference.outputs]
    cand_out = [(n, cand_graph.ref_width(n)) for n in cand_graph.outputs]
    if sorted(ref_out) != sorted(cand_out):
        raise SimulationError(
            f"output signatures differ: {ref_out} vs {cand_out}"
        )

    ports = list(reference.inputs)
    names = [p.name for p in ports]
    if sum(p.width for p in ports) <= EXHAUSTIVE_LIMIT:
        strategy = "exhaustive"
        vectors = itertools.product(*(range(1 << p.width) for p in ports))
    else:
        if samples < 1:
            raise SimulationError(
                f"random equivalence needs at least 1 sample, got {samples}"
            )
        strategy = "random"
        rng = random.Random(seed)
        vectors = (
            tuple(rng.randrange(1 << p.width) for p in ports)
            for _ in range(samples)
        )

    if isinstance(candidate, Schedule):
        _latch_check(candidate)

    stride = _stride(reference, cand_graph)
    field = _mask(stride)
    checked = 0
    while block := list(itertools.islice(vectors, _BLOCK)):
        n = len(block)
        inputs = {
            p.name: _pack(column, p.width, stride)
            for p, column in zip(ports, zip(*block))
        }
        want = _eval_block(reference, inputs, n, stride)
        got = _eval_block(cand_graph, inputs, n, stride)
        if got != want:
            # The first mismatching vector, then the first output in
            # the reference's order, as a vector-by-vector scan finds it.
            diff = {name: got[name] ^ want[name] for name in reference.outputs}
            j = min((d & -d).bit_length() - 1 for d in diff.values() if d) // stride
            name = next(x for x in reference.outputs if (diff[x] >> stride * j) & field)
            return EquivResult(
                strategy, checked + j + 1, False,
                dict(zip(names, block[j])),
                (
                    name,
                    (got[name] >> stride * j) & field,
                    (want[name] >> stride * j) & field,
                ),
            )
        checked += n
    return EquivResult(strategy, checked, True)
