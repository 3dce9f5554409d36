"""Bit-accurate evaluation and equivalence checking.

Values are plain ints holding the unsigned bit pattern of each signal;
signedness only changes how MULT/LT/MAX/MIN interpret their operands.
``eval_dfg`` evaluates any validated design directly, one vector at a
time; it is the reference oracle.  ``check_equiv`` evaluates blocks of
vectors instead: ``_eval_block`` decodes each op once per block and
computes it with one comprehension over the block's values, in the
manner of parallel-pattern fault simulators.  The latch check walks a
scheduled design cycle by cycle and insists that every value crossing a
cycle boundary sits in a latch the cost model pays for; it reads no
input values, so ``check_equiv`` runs it once per schedule, while
``eval_schedule`` runs it with every evaluation.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .dfg import (
    CarryBit,
    CarryRef,
    Const,
    DataFlowGraph,
    GLUE_KINDS,
    InputRef,
    OpKind,
    Operand,
    Operation,
    ResultRef,
    Source,
    bit_key,
    source_width,
)
from .cost import stored_bits
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
        if isinstance(source, CarryRef):
            return self.carries[source.op]
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


# Vectors per block in check_equiv.  Each op is decoded once per block,
# and every column of a block lives until the block ends: over the
# benchmark's equiv designs, 64 vectors ran twice as fast as 16 at a
# tracemalloc peak of 1.2 MB, while 256 were 20% faster again at 2.9 MB.
_BLOCK = 64


def _signed_column(column: list[int], width: int) -> list[int]:
    half, full = 1 << (width - 1), 1 << width
    return [x - full if x & half else x for x in column]


def _eval_block(
    graph: DataFlowGraph, columns: dict[str, list[int]], n: int
) -> dict[str, list[int]]:
    """``eval_dfg`` on ``n`` vectors at once.

    ``columns`` maps every input name to its ``n`` values, one per
    vector; the result maps every output name to its ``n`` unsigned bit
    patterns.  Each op is decoded once, with its slices, carries,
    constants and concatenations resolved, and computed with one
    comprehension over the block.  Takes a validated graph, on which
    every source value already fits its source width.
    """
    values = {
        p.name: [v & _mask(p.width) for v in columns[p.name]] for p in graph.inputs
    }
    carries: dict[str, list[int]] = {}

    def source(src: Source) -> list[int]:
        if isinstance(src, InputRef):
            return values[src.name]
        if isinstance(src, ResultRef):
            return values[src.op]
        if isinstance(src, CarryRef):
            return carries[src.op]
        if isinstance(src, Const):
            return [int(src.bits, 2)] * n
        first, *rest = src.parts  # Concat, MSB first
        column = operand(first)
        for part in rest:
            w = part.width
            column = [(x << w) | y for x, y in zip(column, operand(part))]
        return column

    def operand(o: Operand, width: int | None = None) -> list[int]:
        """``o``'s values at its own width, cut to ``width`` if narrower."""
        w = o.width if width is None else min(o.width, width)
        column, lo = source(o.source), o.lo
        if lo:
            m = _mask(w)
            return [(x >> lo) & m for x in column]
        if source_width(graph, o.source) > w:
            m = _mask(w)
            return [x & m for x in column]
        return column

    for op in graph.ops:
        w, kind, opnds = op.width, op.kind, op.operands
        m = _mask(w)
        if kind is OpKind.ADD:
            a, b = operand(opnds[0], w), operand(opnds[1], w)
            carry_in = op.carry_in
            if isinstance(carry_in, CarryRef):
                total = [x + y + c for x, y, c in zip(a, b, carries[carry_in.op])]
            else:
                c = carry_in or 0
                total = [x + y + c for x, y in zip(a, b)]
            values[op.id] = [t & m for t in total]
            carries[op.id] = [t >> w for t in total]
        elif kind is OpKind.SUB:
            a, b = operand(opnds[0], w), operand(opnds[1], w)
            values[op.id] = [(x - y) & m for x, y in zip(a, b)]
        elif kind is OpKind.NOT:
            values[op.id] = [~x & m for x in operand(opnds[0])]
        elif kind is OpKind.SELECT:
            s, a, b = (operand(o) for o in opnds)
            values[op.id] = [(y if x else z) & m for x, y, z in zip(s, a, b)]
        else:  # MULT_CORE, MULT, LT, MAX, MIN
            a, b = operand(opnds[0]), operand(opnds[1])
            ka, kb = a, b
            if op.signed and kind is not OpKind.MULT_CORE:
                ka = _signed_column(a, opnds[0].width)
                kb = _signed_column(b, opnds[1].width)
            if kind is OpKind.LT:
                values[op.id] = [(x < y) & m for x, y in zip(ka, kb)]
            elif kind is OpKind.MAX:
                values[op.id] = [
                    (p if x >= y else q) & m for p, q, x, y in zip(a, b, ka, kb)
                ]
            elif kind is OpKind.MIN:
                values[op.id] = [
                    (q if x >= y else p) & m for p, q, x, y in zip(a, b, ka, kb)
                ]
            else:
                values[op.id] = [(x * y) & m for x, y in zip(ka, kb)]
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
    the intervening boundary, or if a unit has no cycle.  Nothing here
    depends on input values, so one check covers every vector.
    """
    graph = sched.graph
    reads = graph.bit_view.reads
    held = stored_bits(sched)
    held_sets = {b: set(refs) for b, refs in held.items()}

    trace: list[CycleTrace] = []
    seen: set[str] = set()
    for cycle in range(1, sched.lam + 1):
        executed = []
        for op in graph.ops:
            if op.kind in GLUE_KINDS or sched.cycle_of.get(op.id) != cycle:
                continue
            for i in range(op.width):
                for base in reads[(op.id, i)]:
                    produced = sched.realized[bit_key(graph, base)].cycle
                    if produced < cycle and base not in held_sets.get(cycle - 1, set()):
                        raise SimulationError(
                            f"cycle {cycle}: {op.id} reads unlatched "
                            f"bit {base} across boundary {cycle - 1}"
                        )
            executed.append(op.id)
            seen.add(op.id)
        latched = held.get(cycle, [])
        trace.append(
            CycleTrace(
                cycle,
                tuple(executed),
                tuple(
                    f"carry({r.op})" if isinstance(r, CarryBit) else f"{r.op}[{r.bit}]"
                    for r in latched
                ),
            )
        )
    missing = [
        op.id
        for op in graph.ops
        if op.kind not in GLUE_KINDS and op.id not in seen
    ]
    if missing:
        raise SimulationError(f"unscheduled operations: {', '.join(missing)}")
    return trace


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

    checked = 0
    while block := list(itertools.islice(vectors, _BLOCK)):
        n = len(block)
        columns = dict(zip(names, map(list, zip(*block))))
        want = _eval_block(reference, columns, n)
        got = _eval_block(cand_graph, columns, n)
        if got != want:
            # The first mismatching vector, then the first output in
            # the reference's order, as a vector-by-vector scan finds it.
            for j, vector in enumerate(block):
                for name in reference.outputs:
                    if got[name][j] != want[name][j]:
                        return EquivResult(
                            strategy, checked + j + 1, False,
                            dict(zip(names, vector)),
                            (name, got[name][j], want[name][j]),
                        )
        checked += n
    return EquivResult(strategy, checked, True)
