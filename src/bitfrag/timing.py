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

from bisect import bisect_right
from math import ceil
from typing import NamedTuple

from .dfg import DataFlowGraph, OpBit, OpKind, bit_deps

KERNEL_ONLY = "timing runs on kernel-extracted designs, found {kind} op {id}"


class TimingError(ValueError):
    pass


class CriticalPath(NamedTuple):
    ops: tuple[str, ...]
    time: int


def _check_kernel(graph: DataFlowGraph) -> None:
    for op in graph.ops:
        if not op.kind.kernel:
            raise TimingError(KERNEL_ONLY.format(kind=op.kind.name.lower(), id=op.id))


def arrival_table(graph: DataFlowGraph, n_bits: int | None = None) -> tuple[int, ...]:
    """Arrival time of every unit bit of a kernel, by bit number.

    Passes read it as ``graph.arrivals``, which runs this once per graph
    and keeps the table with the graph, as ``graph.bit_view`` is kept.
    With ``n_bits``, the ASAP time of every unit bit of any design,
    where every kind but the core costs a delta a bit: a core rounds
    its inputs up to a cycle boundary and fills the next cycle.
    Each bit calls ``max`` positionally, ``if prods else 0`` standing
    for ``default=0``: on CPython 3.11 a keyword argument sends the call
    down the slow argument-parsing path, about 600 ns a bit against 300.
    """
    if n_bits is None:
        _check_kernel(graph)
    elif n_bits < 1:
        raise TimingError(f"cycle must hold at least one bit, got {n_bits}")
    view = graph.bit_view
    producers = view.producers
    arrival = [0] * len(producers)
    at = arrival.__getitem__
    core = OpKind.MULT_CORE
    for op, lo in zip(map(graph.op, view.base), view.base.values()):
        if op.kind is core:
            # Every bit of a core waits on the same producers.
            prods = producers[lo]
            worst = max(map(at, prods)) if prods else 0
            if n_bits is not None:
                worst = (-(-worst // n_bits) + 1) * n_bits
            arrival[lo:lo + op.width] = [worst] * op.width
            continue
        for n in range(lo, lo + op.width):
            prods = producers[n]
            arrival[n] = 1 + (max(map(at, prods)) if prods else 0)
    return tuple(arrival)


def bit_arrivals(graph: DataFlowGraph) -> dict[tuple[str, int], int]:
    """Arrival time of every result bit by ``(op, bit)``, in definition
    order and then by bit; inputs and constants arrive at 0.  A glue bit
    has no number, and arrives with the latest bit it reads
    (``dfg.bit_deps``)."""
    arrival, base, deps = graph.arrivals, graph.bit_view.base, bit_deps(graph)
    out: dict[tuple[str, int], int] = {}
    for key, refs in deps.items():  # in definition order and then by bit
        if key[0] in base:
            out[key] = arrival[base[key[0]] + key[1]]
        else:  # glue; an OpBit equals its key
            out[key] = max([0] + [out[r] for r in refs if type(r) is OpBit])
    return out


def critical_path(graph: DataFlowGraph) -> CriticalPath:
    """Longest bit chain, reported at operation granularity.

    Backtracks the arrival recurrence from the worst bit over unit bits,
    whose producers already stand for the glue between them, and stops
    at inputs or at the opaque multiplier core.  Ties go to the earliest
    bit in definition order, the lowest bit number, and among producers
    to the lowest-numbered data producer, a carry-in's MSB only after
    every data producer: the first in ``bit_view.producers`` order.
    """
    arrival = graph.arrivals
    if not arrival:
        return CriticalPath((), 0)

    view = graph.bit_view
    units, starts = list(view.base), list(view.base.values())  # each unit's bit 0
    time = max(arrival)
    cur = arrival.index(time)
    path: list[str] = []
    core = OpKind.MULT_CORE
    while True:
        op = graph.op(units[bisect_right(starts, cur) - 1])
        if op.kind is core:
            break
        if not path or path[0] != op.id:  # a kernel's other units are adds
            path.insert(0, op.id)
        prods = view.producers[cur]
        if not prods:
            break
        times = [arrival[p] for p in prods]
        worst = max(times)
        if worst == 0:
            break  # remaining chain is input-fed
        cur = prods[times.index(worst)]
    return CriticalPath(tuple(path), time)


def estimate_cycle(graph: DataFlowGraph, lam: int) -> int:
    """Clock cycle in delta units for a schedule of ``lam`` cycles."""
    if lam < 1:
        raise TimingError(f"latency must be at least 1 cycle, got {lam}")
    worst = max(graph.arrivals, default=0)
    return max(1, ceil(worst / lam))
