"""Delay estimation in units of one 1-bit full-adder delay.

Every ADD bit costs one delta and chains on its lower neighbour, so an
isolated w-bit add finishes after w deltas and a chain of adds after
the sink width plus one delta per crossing (plus any least-significant
bits a crossing truncates away).  NOT/SELECT glue and constants are
free.  The multiplier core is an opaque unit of zero delay here; the
schedule gives it a whole cycle of its own.  Given that cycle's size,
the same recurrence times the earliest schedule (``fragmenter``).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

from .dfg import DataFlowGraph, OpKind

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


def arrival_table(graph: DataFlowGraph, n_bits: int | None = None) -> tuple[int, ...]:
    """Arrival time of every result bit of a kernel, by bit number.

    Passes read it as ``graph.arrivals``, which runs this once per graph
    and keeps the table with the graph, as ``graph.bit_view`` is kept.
    With ``n_bits``, the ASAP time of every bit of any design, where
    every kind but glue and the core costs a delta a bit: a core rounds
    its inputs up to a cycle boundary and fills the next cycle.
    """
    if n_bits is None:
        _check_kernel(graph)
    elif n_bits < 1:
        raise TimingError(f"cycle must hold at least one bit, got {n_bits}")
    view = graph.bit_view
    producers = view.producers
    arrival = [0] * len(producers)
    at = arrival.__getitem__
    for op in graph.ops:
        lo, width = view.base[op.id], op.width
        if op.kind is OpKind.MULT_CORE:
            # Every bit of a core waits on the same producers.
            worst = max(map(at, producers[lo]), default=0)
            if n_bits is not None:
                worst = (-(-worst // n_bits) + 1) * n_bits
            arrival[lo:lo + width] = [worst] * width
            continue
        cost = 0 if op.kind.glue else 1
        for n in range(lo, lo + width):
            arrival[n] = cost + max(map(at, producers[n]), default=0)
    return tuple(arrival)


def bit_arrivals(graph: DataFlowGraph) -> dict[tuple[str, int], int]:
    """Arrival time of every result bit, inputs and constants at 0."""
    return graph.bit_view.keyed(graph.arrivals)


def critical_path(graph: DataFlowGraph) -> CriticalPath:
    """Longest bit chain, reported at operation granularity.

    Backtracks the arrival recurrence from the worst bit, walking
    through glue transparently and stopping at inputs or at the opaque
    multiplier core.  Ties go to the earliest bit in definition order,
    the lowest bit number, and among producers to the first in
    ``bit_view.producers`` order.
    """
    arrival = graph.arrivals
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


def estimate_cycle(graph: DataFlowGraph, lam: int) -> int:
    """Clock cycle in delta units for a schedule of ``lam`` cycles."""
    if lam < 1:
        raise TimingError(f"latency must be at least 1 cycle, got {lam}")
    worst = max(graph.arrivals, default=0)
    return max(1, ceil(worst / lam))
