"""Bit-accurate evaluation and equivalence checking.

Values are plain ints holding the unsigned bit pattern of each signal;
signedness only changes how MULT/LT/MAX/MIN interpret their operands.
``eval_dfg`` evaluates any validated design directly; ``eval_schedule``
replays a scheduled design cycle by cycle and insists that every value
crossing a cycle boundary sits in a latch the cost model pays for.
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
    bit_key,
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


@dataclass(frozen=True)
class CycleTrace:
    cycle: int
    executed: tuple[str, ...]
    latched: tuple[str, ...]


def eval_schedule(
    sched: Schedule, inputs: dict[str, int]
) -> tuple[dict[str, int], list[CycleTrace]]:
    """Replay a schedule cycle by cycle.

    Raises SimulationError if any operand bit produced in an earlier
    cycle is missing from the latch set the cost model charges for at
    the intervening boundary.
    """
    graph = sched.graph
    env = _Env(graph, inputs)
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
    # A consumer may chain off the low fragments of a glue source whose
    # high fragments land in a later cycle, so whole-op values cannot be
    # settled strictly per cycle; with the latch check done the
    # arithmetic is order independent and definition order suffices.
    for op in graph.ops:
        _eval_op(env, op)
    outputs = {name: env.values[name] for name in graph.outputs}
    return outputs, trace


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
    seeded random vectors.  A Schedule candidate is replayed cycle by
    cycle, so latch completeness is exercised along the way.
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

    def run_candidate(inputs: dict[str, int]) -> dict[str, int]:
        if isinstance(candidate, Schedule):
            return eval_schedule(candidate, inputs)[0]
        return eval_dfg(candidate, inputs)

    ports = list(reference.inputs)
    total_bits = sum(p.width for p in ports)

    def compare(inputs: dict[str, int], checked: int, strategy: str) -> EquivResult | None:
        want = eval_dfg(reference, inputs)
        got = run_candidate(inputs)
        for name in reference.outputs:
            if got[name] != want[name]:
                return EquivResult(
                    strategy, checked, False, dict(inputs), (name, got[name], want[name])
                )
        return None

    if total_bits <= EXHAUSTIVE_LIMIT:
        checked = 0
        for combo in itertools.product(*(range(1 << p.width) for p in ports)):
            inputs = {p.name: v for p, v in zip(ports, combo)}
            checked += 1
            failed = compare(inputs, checked, "exhaustive")
            # A mismatch result is falsy by design; test against None.
            if failed is not None:
                return failed
        return EquivResult("exhaustive", checked, True)

    rng = random.Random(seed)
    for k in range(samples):
        inputs = {p.name: rng.randrange(1 << p.width) for p in ports}
        failed = compare(inputs, k + 1, "random")
        if failed is not None:
            return failed
    return EquivResult("random", samples, True)
