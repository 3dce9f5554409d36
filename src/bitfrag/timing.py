"""Delay estimation in units of one 1-bit full-adder delay.

Every ADD bit costs one delta and chains on its lower neighbour, so an
isolated w-bit add finishes after w deltas and a chain of adds after
the sink width plus one delta per crossing (plus any least-significant
bits a crossing truncates away).  NOT/SELECT glue and constants are
free.  The multiplier core is an opaque unit of zero delay here; the
schedule gives it a whole cycle of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

from .dfg import (
    CarryRef,
    Concat,
    DataFlowGraph,
    OpKind,
    Operand,
    ResultRef,
)

KERNEL_ONLY = "timing runs on kernel-extracted designs, found {kind} op {id}"


class TimingError(ValueError):
    pass


@dataclass(frozen=True)
class CriticalPath:
    ops: tuple[str, ...]
    time: int


def _check_kernel(graph: DataFlowGraph) -> None:
    for op in graph.ops:
        if not op.kind.kernel:
            raise TimingError(KERNEL_ONLY.format(kind=op.kind.name.lower(), id=op.id))


def _arrival_table(graph: DataFlowGraph) -> list[int]:
    """Arrival time of every result bit, by bit number."""
    _check_kernel(graph)
    view = graph.bit_view
    producers = view.producers
    arrival = [0] * len(producers)
    at = arrival.__getitem__
    for op in graph.ops:
        lo, width = view.base[op.id], op.width
        if op.kind is OpKind.MULT_CORE:
            # Every bit of a core waits on the same producers.
            worst = max(map(at, producers[lo]), default=0)
            arrival[lo:lo + width] = [worst] * width
            continue
        cost = 1 if op.kind is OpKind.ADD else 0
        for n in range(lo, lo + width):
            arrival[n] = cost + max(map(at, producers[n]), default=0)
    return arrival


def bit_arrivals(graph: DataFlowGraph) -> dict[tuple[str, int], int]:
    """Arrival time of every result bit, inputs and constants at 0."""
    return graph.bit_view.keyed(_arrival_table(graph))


def critical_path(graph: DataFlowGraph) -> CriticalPath:
    """Longest bit chain, reported at operation granularity.

    Backtracks the arrival recurrence from the worst bit, walking
    through glue transparently and stopping at inputs or at the opaque
    multiplier core.  Ties go to the earliest bit in definition order,
    the lowest bit number, and among producers to the first in
    ``bit_view.producers`` order.
    """
    arrival = _arrival_table(graph)
    if not arrival:
        return CriticalPath((), 0)

    view = graph.bit_view
    time = max(arrival)
    cur = arrival.index(time)
    path: list[str] = []
    while True:
        op = graph.op(view.keys[cur][0])
        if op.kind is OpKind.MULT_CORE:
            break
        if op.kind is OpKind.ADD and (not path or path[0] != op.id):
            path.insert(0, op.id)
        if not view.producers[cur]:
            break
        best = max(view.producers[cur], key=arrival.__getitem__)
        if arrival[best] == 0 and op.kind is OpKind.ADD:
            break  # remaining chain is input-fed
        cur = best
    return CriticalPath(tuple(path), time)


def _edge_truncations(graph: DataFlowGraph, producer: str, consumer_id: str) -> list[int]:
    """lo offsets of every reference the consumer makes to the producer."""
    out: list[int] = []

    def scan(opnd: Operand) -> None:
        src = opnd.source
        if isinstance(src, Concat):
            for part in src.parts:
                scan(part)
        elif isinstance(src, ResultRef) and src.op == producer:
            out.append(opnd.lo)

    consumer = graph.op(consumer_id)
    for opnd in consumer.operands:
        scan(opnd)
    if isinstance(consumer.carry_in, CarryRef) and consumer.carry_in.op == producer:
        out.append(graph.op(producer).width - 1)
    return out


def path_time(graph: DataFlowGraph, path: list[str] | tuple[str, ...]) -> int:
    """Ripple time of a chain of adds.

    Counts the width of the last operation, then walking backward one
    delta per crossed operation, plus the truncated low bits whenever a
    crossed operation is wider than its successor.
    """
    if not path:
        raise TimingError("empty path")
    for op_id in path:
        if graph.op(op_id).kind is not OpKind.ADD:
            raise TimingError(f"path op {op_id} is not an add")
    time = graph.op(path[-1]).width
    for i in range(len(path) - 2, -1, -1):
        here, nxt = graph.op(path[i]), graph.op(path[i + 1])
        cuts = _edge_truncations(graph, path[i], path[i + 1])
        if not cuts:
            raise TimingError(f"{nxt.id} does not consume {here.id}")
        if here.width <= nxt.width:
            time += 1
        else:
            time += 1 + max(cuts)
    return time


def estimate_cycle(graph: DataFlowGraph, lam: int) -> int:
    """Clock cycle in delta units for a schedule of ``lam`` cycles."""
    if lam < 1:
        raise TimingError(f"latency must be at least 1 cycle, got {lam}")
    worst = max(_arrival_table(graph), default=0)
    return max(1, ceil(worst / lam))
