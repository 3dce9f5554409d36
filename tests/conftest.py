"""Shared fixtures: bundled designs, pipeline helpers, random designs,
and an exhaustive placement oracle for small schedules."""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import pytest

from bitfrag import check, extract_kernel, parse
from bitfrag.dfg import (
    CarryBit,
    CarryRef,
    Concat,
    Const,
    DataFlowGraph,
    InputBit,
    InputPort,
    InputRef,
    OpBit,
    Operand,
    Operation,
    OpKind,
    ResultRef,
    bit_deps,
)
from bitfrag.fragmenter import (
    InfeasibleError,
    Mobility,
    analyze,
    apply_runs,
    op_runs,
    whole_runs,
)
from bitfrag.scheduler import (
    Schedule,
    ScheduleError,
    schedule,
    verify_schedule,
)
from bitfrag.simulator import EXHAUSTIVE_LIMIT
from bitfrag.timing import critical_path, estimate_cycle

TESTS_DIR = Path(__file__).resolve().parent
DESIGN_DIR = TESTS_DIR.parent / "src" / "bitfrag" / "designs"

SAT_SOURCE = """
design sat;
input f1 : u8; input f2 : u8; input g1 : u8; input g2 : u8;
input x1 : u6; input x2 : u6;
F: add u8 = f1 + f2;
G: add u8 = g1 + g2;
H: add u8 = F + G;
X: add u6 = x1 + x2;
output H; output X;
"""

MIXED_SOURCE = """
design mixed;
input a : s4;
input b : s4;
input c : u8;
input d : u8;
P: mult s8 = a * b;
Q: add u8 = P + c;
R: sub u8 = Q - d;
L: lt u1 = Q < d;
M: max u8 = Q, d;
output R;
output L;
output M;
"""

# Z[0] waits on X[3] and on the carry of Y, both at time 4: the data bit
# wins the tie although Y is defined first.
TIE_SOURCE = """
design tie;
input a : u4;
input b : u4;
Y: add u4 = a + b;
X: add u4 = b + a;
Z: add u4 carry(Y) = X[3:3] + a;
output Z;
"""

# A multiplier core fed through glue over an input: the glue is ready
# with the inputs, so at --nbits 8 the core runs in cycle 1 and Q in 2.
GLUE_CORE_SOURCE = """
design gluecore;
input a : u4;
input b : u4;
input c : u8;
N: not u4 = a;
P: mult u8 = N * b;
Q: add u8 = P + c;
output Q;
"""


def under_hash_seeds(args: list[str]) -> list[subprocess.CompletedProcess]:
    """Run ``python args...`` once under PYTHONHASHSEED=0 and once under 1,
    with this checkout's ``src`` and ``tests`` on the path."""
    path = os.pathsep.join([str(TESTS_DIR.parent / "src"), str(TESTS_DIR)])
    return [
        subprocess.run(
            [sys.executable, *args],
            env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed),
            capture_output=True,
            text=True,
            timeout=300,
        )
        for seed in ("0", "1")
    ]


def load_design(name: str) -> DataFlowGraph:
    return parse((DESIGN_DIR / f"{name}.dfg").read_text())


@pytest.fixture(scope="session")
def sec2() -> DataFlowGraph:
    return load_design("sec2")


@pytest.fixture(scope="session")
def fig3() -> DataFlowGraph:
    return load_design("fig3")


@pytest.fixture(scope="session")
def elliptic() -> DataFlowGraph:
    return load_design("elliptic")


@pytest.fixture(scope="session")
def diffeq() -> DataFlowGraph:
    return load_design("diffeq")


@pytest.fixture(scope="session")
def sat() -> DataFlowGraph:
    return parse(SAT_SOURCE)


@pytest.fixture(scope="session")
def mixed() -> DataFlowGraph:
    return parse(MIXED_SOURCE)


@dataclass(frozen=True)
class KeyedView:
    """What ``graph.bit_view`` holds, keyed by ``(op, bit)`` and derived
    from ``bit_deps`` alone, so tests need not read the view's layout.

    ``producers`` maps every result bit to the keys it waits on, a carry
    standing for its op's MSB; ``reads`` maps every bit of a non-glue op
    to the OpBit/CarryBit refs of non-glue ops it reads through glue,
    less its op's own ripple.
    """

    producers: dict[tuple[str, int], frozenset[tuple[str, int]]]
    reads: dict[tuple[str, int], frozenset]


@functools.lru_cache(maxsize=64)
def keyed_view(graph: DataFlowGraph) -> KeyedView:
    deps = bit_deps(graph)

    def key(ref) -> tuple[str, int]:  # a carry emerges with its op's MSB
        if isinstance(ref, CarryBit):
            return (ref.op, graph.op(ref.op).width - 1)
        return (ref.op, ref.bit)

    def through_glue(ref) -> set:
        if isinstance(ref, OpBit) and graph.op(ref.op).kind.glue:
            return set().union(*(through_glue(r) for r in deps[(ref.op, ref.bit)]))
        return {ref} if isinstance(ref, (OpBit, CarryBit)) else set()

    producers = {
        k: frozenset(key(r) for r in refs if isinstance(r, (OpBit, CarryBit)))
        for k, refs in deps.items()
    }
    reads = {}
    for op in graph.ops:
        if op.kind.glue:
            continue
        ripple = {OpBit(op.id, b) for b in range(op.width)}
        for i in range(op.width):
            seen = set().union(*(through_glue(r) for r in deps[(op.id, i)]))
            reads[(op.id, i)] = frozenset(seen - ripple)
    return KeyedView(producers, reads)


class ConstBit(NamedTuple):
    """A constant bit, as ``operand_bits`` gives it."""

    value: int  # 0 or 1


def operand_bits(operand: Operand) -> list:
    """Per-bit oracle for ``dfg.operand_slices``: the bits of ``operand``,
    lowest first, at its own width, each an InputBit, OpBit or ConstBit."""
    source, lo, stop = operand.source, operand.lo, operand.hi + 1
    if isinstance(source, InputRef):
        return [InputBit(source.name, k) for k in range(lo, stop)]
    if isinstance(source, ResultRef):
        return [OpBit(source.op, k) for k in range(lo, stop)]
    if isinstance(source, Const):
        # bits string is MSB first
        return [ConstBit(int(c)) for c in reversed(source.bits)][lo:stop]
    bits: list = []
    for part in reversed(source.parts):  # Concat, MSB first
        bits += operand_bits(part)
    return bits[lo:stop]


def slice_bits(slices: list[Operand]) -> list:
    """Flat slices, lowest first, expanded bit by bit as ``operand_bits``
    gives them."""
    bits: list = []
    for s in slices:
        source = s.source
        if isinstance(source, InputRef):
            bits += [InputBit(source.name, k) for k in range(s.lo, s.hi + 1)]
        elif isinstance(source, ResultRef):
            bits += [OpBit(source.op, k) for k in range(s.lo, s.hi + 1)]
        else:
            bits += [ConstBit(int(c)) for c in reversed(source.bits)][s.lo:s.hi + 1]
    return bits


def ladder_source(sections: int, width: int) -> str:
    """DSL text of a wave-filter ladder of ``sections`` sections, every
    signal ``width`` bits; ``ladder_source(5, 16)`` is ``elliptic``."""
    lines = [f"design ladder{sections}x{width};", f"input x : u{width};"]
    lines += [f"input sv{k} : u{width};" for k in range(1, sections + 1)]
    prev = "x"
    for k in range(1, sections + 1):
        lines += [
            f"a{k}: add u{width} = {prev} + sv{k};",
            f"b{k}: add u{width} = a{k} + {prev};",
            f"c{k}: add u{width} = b{k} + a{k};",
            f"e{k}: add u{width} = a{k} + sv{k};",
            f"f{k}: add u{width} = e{k} + b{k};",
        ]
        prev = f"c{k}"
    lines.append(f"yout: add u{width} = {prev} + x;")
    lines += [f"output f{k};" for k in range(1, sections + 1)] + ["output yout;"]
    return "\n".join(lines)


@dataclass
class Pipeline:
    graph: DataFlowGraph
    kernel: DataFlowGraph
    trace: dict[str, tuple[str, ...]]
    lam: int
    n_bits: int
    mobility: Mobility
    fragments: dict
    transformed: DataFlowGraph
    sched: Schedule


def run_pipeline(
    graph: DataFlowGraph, lam: int, n_bits: int | None = None, runs=op_runs
) -> Pipeline:
    """Kernel extraction through scheduling, the adds tiled along
    ``runs`` (per-bit windows by default), with the estimated cycle."""
    kernel, trace = extract_kernel(graph)
    n = n_bits if n_bits is not None else estimate_cycle(kernel, lam)
    mobility = analyze(kernel, n, lam)
    fragments, transformed = apply_runs(kernel, runs(kernel, mobility))
    sched = schedule(transformed, fragments, lam, n)
    return Pipeline(
        graph, kernel, trace, lam, n, mobility, fragments, transformed, sched
    )


def smallest_pipeline(graph: DataFlowGraph, lam: int, runs=op_runs) -> Pipeline | None:
    """The pipeline at the smallest n_bits whose ``runs`` tiling
    schedules, or None if none does.

    The search walks upward from the estimated cycle; a whole add
    (``whole_runs``) must ripple inside one cycle, so its floor is also
    the widest add.  It stops at the kernel's critical time, past which
    no larger n_bits helps.
    """
    kernel, _ = extract_kernel(graph)
    low = estimate_cycle(kernel, lam)
    if runs is whole_runs:
        low = max([low] + [op.width for op in kernel.ops if op.kind is OpKind.ADD])
    for n in range(low, max(low, critical_path(kernel).time) + 1):
        try:
            return run_pipeline(graph, lam, n, runs)
        except (InfeasibleError, ScheduleError):
            continue
    return None


def feasible_pipeline(graph: DataFlowGraph, lam: int, max_lam: int = 24) -> Pipeline:
    """Walk the latency upward past core-quantization infeasibility."""
    while True:
        try:
            return run_pipeline(graph, lam)
        except (InfeasibleError, ScheduleError):
            lam += 1
            if lam > max_lam:
                raise


def _movable_windows(sched: Schedule) -> dict[str, range]:
    return {
        f.id: range(f.asap_cycle, f.alap_cycle + 1)
        for parts in sched.fragments.values()
        for f in parts
        if f.asap_cycle < f.alap_cycle
    }


def placement_count(sched: Schedule) -> int:
    """How many assignments ``feasible_placements`` enumerates."""
    return math.prod(len(w) for w in _movable_windows(sched).values())


def feasible_placements(sched: Schedule) -> list[dict[str, int]]:
    """Every assignment of the movable adds to cycles in their recorded
    windows, pins and cores at their scheduled cycles, whose schedule
    passes ``verify_schedule``.  Exhaustive, so for small designs only."""
    windows = _movable_windows(sched)
    fixed = {uid: c for uid, c in sched.cycle_of.items() if uid not in windows}
    feasible = []
    for cycles in itertools.product(*windows.values()):
        cycle_of = {**fixed, **dict(zip(windows, cycles))}
        candidate = dataclasses.replace(sched, cycle_of=cycle_of)
        if verify_schedule(candidate) == []:
            feasible.append(cycle_of)
    return feasible


def _pick_operand(rng: random.Random, pool: list[tuple[str, int, bool]], width: int) -> Operand:
    # pool rows are (name, width, is_input); slices follow the discipline
    # that a nonzero low offset covers every consumer bit, so the path
    # formula stays exact.
    name, src_w, is_input = rng.choice(pool)
    source = InputRef(name) if is_input else ResultRef(name)
    if src_w > width and rng.random() < 0.5:
        lo = rng.randint(1, src_w - width)
        return Operand(source, lo + width - 1, lo)
    if src_w > width and rng.random() < 0.5:
        return Operand(source, width - 1, 0)
    return Operand(source, src_w - 1, 0)


def random_add_design(seed: int) -> DataFlowGraph:
    """Seeded all-ADD DAG with random truncating slices, <= 12 ops."""
    rng = random.Random(seed)
    inputs = [
        InputPort(f"in{i}", rng.randint(1, 32), False)
        for i in range(rng.randint(2, 4))
    ]
    pool: list[tuple[str, int, bool]] = [(p.name, p.width, True) for p in inputs]
    ops = []
    for k in range(rng.randint(2, 12)):
        width = rng.randint(1, 32)
        operands = (
            _pick_operand(rng, pool, width),
            _pick_operand(rng, pool, width),
        )
        carry = rng.choice([None, None, None, 0, 1])
        op_id = f"n{k}"
        ops.append(Operation(op_id, OpKind.ADD, width, False, operands, carry))
        pool.append((op_id, width, False))
    consumed = {
        o.source.op
        for op in ops
        for o in op.operands
        if isinstance(o.source, ResultRef)
    }
    outputs = tuple(op.id for op in ops if op.id not in consumed)
    return check(DataFlowGraph("rand", tuple(inputs), tuple(ops), outputs))


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


def path_time(graph: DataFlowGraph, path: tuple[str, ...]) -> int:
    """Closed-form oracle for ``timing``: the ripple time of a chain of
    adds, each reading the one before it directly (no glue between).

    Counts the width of the last operation, then walking backward one
    delta per crossed operation, plus the truncated low bits whenever a
    crossed operation is wider than its successor.
    """
    if not path:
        raise ValueError("empty path")
    for op_id in path:
        if graph.op(op_id).kind is not OpKind.ADD:
            raise ValueError(f"path op {op_id} is not an add")
    time = graph.op(path[-1]).width
    for i in range(len(path) - 2, -1, -1):
        here, nxt = graph.op(path[i]), graph.op(path[i + 1])
        cuts = _edge_truncations(graph, path[i], path[i + 1])
        if not cuts:
            raise ValueError(f"{nxt.id} does not consume {here.id}")
        if here.width <= nxt.width:
            time += 1
        else:
            time += 1 + max(cuts)
    return time


def asap_pairs(graph: DataFlowGraph, n_bits: int) -> list[tuple[int, int]]:
    """Pair oracle for ``bit_asap``: every bit's earliest ``(cycle,
    depth)`` slot by bit number, spilling a chain by hand."""
    view = graph.bit_view
    producers = view.producers
    # Inputs and constants are ready at (0, 0), the start of every
    # producer max.
    table = [(0, 0)] * len(producers)
    at = table.__getitem__
    for op in graph.ops:
        lo, width = view.base[op.id], op.width
        if op.kind is OpKind.MULT_CORE:
            # Core inputs must be complete in a prior cycle; results
            # fill their cycle so consumers spill to the next one.
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
    return table


def alap_pairs(graph: DataFlowGraph, n_bits: int, lam: int) -> list[tuple[int, int]]:
    """Pair oracle for ``bit_alap``: every bit's latest ``(cycle,
    depth)`` slot by bit number, or the InfeasibleError it raises."""
    view = graph.bit_view
    consumers = view.consumers
    due = (lam + 1, 1)
    table = [due] * len(consumers)
    at = table.__getitem__
    for op in reversed(graph.ops):
        lo, width = view.base[op.id], op.width
        if op.kind is OpKind.MULT_CORE:
            users = itertools.chain.from_iterable(consumers[lo:lo + width])
            cycle = min(map(at, users), default=due)[0] - 1
            if cycle < 1:
                raise InfeasibleError(
                    f"latency {lam} too small: {op.id} would finish before cycle 1"
                )
            # Results due at depth 1 so producers retreat a full cycle.
            table[lo:lo + width] = [(cycle, 1)] * width
        elif op.kind.glue:
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
    return table


def slot_time(slot: tuple[int, int], n_bits: int) -> int:
    """The time of a ``(cycle, depth)`` slot: depth d of cycle c is
    ``(c - 1) * n_bits + d``, and (0, 0) is 0."""
    cycle, depth = slot
    return (cycle - 1) * n_bits + depth if cycle else 0


def op_paths(graph: DataFlowGraph) -> list[tuple[str, ...]]:
    """Every directed operation path along operand edges."""
    succs: dict[str, set[str]] = {op.id: set() for op in graph.ops}
    for op in graph.ops:
        for o in op.operands:
            if isinstance(o.source, ResultRef):
                succs[o.source.op].add(op.id)
    paths: list[tuple[str, ...]] = []

    def walk(prefix: tuple[str, ...]) -> None:
        paths.append(prefix)
        for nxt in sorted(succs[prefix[-1]]):
            walk(prefix + (nxt,))

    for op in graph.ops:
        walk((op.id,))
    return paths


_SURFACE_KINDS = (
    OpKind.ADD,
    OpKind.SUB,
    OpKind.MULT,
    OpKind.LT,
    OpKind.MAX,
    OpKind.MIN,
    OpKind.NOT,
    OpKind.SELECT,
)


def random_full_design(seed: int) -> DataFlowGraph:
    """Seeded design over every surface kind, sized for fast simulation."""
    rng = random.Random(seed)
    inputs = [
        InputPort(f"v{i}", rng.randint(2, 9), rng.random() < 0.4)
        for i in range(rng.randint(3, 4))
    ]
    # Keep the random-vector strategy in play for every seed.
    while sum(p.width for p in inputs) <= EXHAUSTIVE_LIMIT:
        grown = inputs[0]
        inputs[0] = InputPort(grown.name, grown.width + 4, grown.signed)
    pool: list[tuple[str, int, bool]] = [(p.name, p.width, True) for p in inputs]

    def operand(width: int, at_least: int = 1) -> Operand:
        rows = [r for r in pool if r[1] >= at_least]
        name, src_w, is_input = rng.choice(rows)
        source = InputRef(name) if is_input else ResultRef(name)
        if src_w > max(width, at_least) and rng.random() < 0.3:
            lo = rng.randint(1, src_w - width) if src_w > width else 0
            hi = min(src_w - 1, lo + width - 1)
            if hi - lo + 1 >= at_least:
                return Operand(source, hi, lo)
        return Operand(source, src_w - 1, 0)

    ops = []
    for k in range(rng.randint(3, 8)):
        kind = rng.choice(_SURFACE_KINDS)
        signed = rng.random() < 0.4
        width = rng.randint(2, 10)
        op_id = f"t{k}"
        if kind is OpKind.NOT:
            operands = (operand(width),)
        elif kind is OpKind.SELECT:
            cond = operand(1)
            cond = Operand(cond.source, cond.lo, cond.lo)
            operands = (cond, operand(width), operand(width))
        elif kind is OpKind.MULT:
            # Unsigned multiply is a surface core; the signed decomposition
            # needs 2+ bit factors.
            if not signed:
                kind = OpKind.MULT_CORE
                operands = (operand(width), operand(width))
            else:
                operands = (operand(width, at_least=2), operand(width, at_least=2))
        elif kind is OpKind.LT:
            width = 1 if rng.random() < 0.7 else width
            operands = (operand(8), operand(8))
        else:
            operands = (operand(width), operand(width))
        carry = rng.choice([None, None, None, 0, 1]) if kind is OpKind.ADD else None
        ops.append(Operation(op_id, kind, width, signed, operands, carry))
        pool.append((op_id, width, False))
    consumed = {
        o.source.op
        for op in ops
        for o in op.operands
        if isinstance(o.source, ResultRef)
    }
    outputs = tuple(op.id for op in ops if op.id not in consumed)
    return check(DataFlowGraph("randfull", tuple(inputs), tuple(ops), outputs))
