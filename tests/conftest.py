"""Shared fixtures: bundled designs, pipeline helpers, random designs,
and an exhaustive placement oracle for small schedules."""

from __future__ import annotations

import functools
import itertools
import math
import os
import random
import re
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import settings

from bitfrag import check, extract_kernel, parse
from bitfrag.dfg import (
    BitView,
    CarryBit,
    CarryRef,
    Concat,
    Const,
    DataFlowGraph,
    Diagnostic,
    InputBit,
    InputPort,
    InputRef,
    OpBit,
    Operand,
    Operation,
    OpKind,
    ResultRef,
    Source,
    bit_deps,
)
from bitfrag.fragmenter import (
    InfeasibleError,
    Mobility,
    alap_table,
    analyze,
    apply_runs,
    op_runs,
    whole_runs,
)
from bitfrag.scheduler import (
    Schedule,
    ScheduleError,
    _realized_table,
    schedule,
    verify_schedule,
)
from bitfrag.simulator import EXHAUSTIVE_LIMIT
from bitfrag.timing import arrival_table, critical_path, estimate_cycle

# ``pytest --hypothesis-profile=deep`` runs the properties that read
# ``deep_settings`` at 1,000 examples each; CI runs them so.
settings.register_profile("deep", max_examples=1000)


def deep_settings(max_examples: int) -> settings:
    """A property's settings: ``max_examples`` examples, or the loaded
    profile's count when that is more, and no deadline."""
    return settings(max_examples=max(max_examples, settings.default.max_examples), deadline=None)


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


# Each per-bit recurrence meets an empty producer or consumer tuple: the
# core P, S[0] and the glue N read only inputs and constants; T, the
# glue K and the core D are read by no op and are no output, so their
# top bits (every bit of K and D) have no consumer.
EMPTY_TUPLES_SOURCE = """
design empties;
input a : u4;
input b : u4;
input c : u8;
N: not u4 = a;
P: mult u8 = a * b;
S: add u4 = a + b;
T: add u4 = S + c[3:0];
K: not u4 = b;
D: mult u8 = c[7:4] * b;
Q: add u8 = P + c;
Y: add u8 = Q + {N, S};
output Y;
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


def replace(record, **changes):
    """A copy of a ``dfg.Record`` (a graph record or ``Schedule``) with
    ``changes``, as ``dataclasses.replace`` still copies the one
    dataclass, ``DataFlowGraph``.  An unknown field raises TypeError, as
    there."""
    return type(record)(**{name: getattr(record, name) for name in record._fields} | changes)


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
    """What ``graph.bit_view`` and ``graph.reads`` hold, keyed by
    ``(op, bit)`` and derived from ``bit_deps`` alone, so tests need not
    read the view's layout.

    ``producers`` maps every unit bit (a bit of any op but glue) to the
    unit keys it waits on, in the view's order: the unit bits its other
    ops' bits are or reach through glue, each once, in ``bit_deps`` key
    order (definition order, then bit), then its ripple, or on bit 0
    its carry-in's MSB unless already there.  ``reads`` maps every unit
    bit to the OpBit/CarryBit refs of units it reads through glue, less
    its op's own ripple.
    """

    producers: dict[tuple[str, int], tuple[tuple[str, int], ...]]
    reads: dict[tuple[str, int], frozenset]


@functools.lru_cache(maxsize=64)
def keyed_view(graph: DataFlowGraph) -> KeyedView:
    deps = bit_deps(graph)
    rank = {key: n for n, key in enumerate(deps)}  # every op bit, glue included

    def reach(ref) -> set:
        """The unit bits an OpBit is or reaches through glue."""
        if not graph.op(ref.op).kind.glue:
            return {ref}
        return {x for r in deps[ref] if isinstance(r, OpBit) for x in reach(r)}

    producers, reads = {}, {}
    for op in graph.ops:
        if op.kind.glue:
            continue
        for i in range(op.width):
            key = (op.id, i)
            refs = deps[key]
            data = {x for r in refs if isinstance(r, OpBit) and r.op != op.id for x in reach(r)}
            order = sorted(data, key=rank.__getitem__)
            if i > 0 and op.kind.per_bit:
                order.append(OpBit(op.id, i - 1))
            carries = [r for r in refs if isinstance(r, CarryBit)]
            for r in carries:  # a carry emerges with its op's MSB
                msb = OpBit(r.op, graph.op(r.op).width - 1)
                if msb not in order:
                    order.append(msb)
            producers[key] = tuple((x.op, x.bit) for x in order)
            reads[key] = frozenset({*data, *carries})
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
        candidate = replace(sched, cycle_of=cycle_of)
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


def random_add_design(seed: int, carries: bool = False) -> DataFlowGraph:
    """Seeded all-ADD DAG with random truncating slices, <= 12 ops.

    With ``carries``, about half the adds after the first read an
    earlier add's carry as their carry-in.  Only that flag makes the
    extra draws, so ``carries=False`` leaves every seed as it was.
    """
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
        if carries and ops and rng.random() < 0.5:
            carry = CarryRef(rng.choice(ops).id)
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


# The design language's lexer as a regex with one named group per kind,
# each token found with its kind and offset.
_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+|\#[^\n]*)
      | (?P<id>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<int>[0-9]+)
      | (?P<punct>[;:=+\-*<,{}\[\]()])
      | (?P<bad>.)
    """,
    re.VERBOSE,
)


def lex_oracle(text: str) -> list[tuple[str, str, int]]:
    """Oracle for ``dsl``'s lexer: every token of ``text`` as ``(kind,
    text, offset)``, the kind one of id, int, punct and bad; whitespace
    and ``#`` comments are skipped."""
    return [
        (m.lastgroup, m.group(), m.start())
        for m in _TOKEN_RE.finditer(text)
        if m.lastgroup != "ws"
    ]


def _keyed_slot(graph: DataFlowGraph, table: dict):
    """Where a ``bit_deps`` ref sits in ``table``, keyed by ``(op, bit)``:
    an input at (0, 0), a carry with its op's MSB."""
    def at(ref) -> tuple[int, int]:
        if isinstance(ref, InputBit):
            return (0, 0)
        if isinstance(ref, CarryBit):
            return table[(ref.op, graph.op(ref.op).width - 1)]
        return table[ref]
    return at


def asap_pairs(graph: DataFlowGraph, n_bits: int) -> list[tuple[int, int]]:
    """Pair oracle for ``bit_asap``: every unit bit's earliest ``(cycle,
    depth)`` slot by bit number, spilling a chain by hand.  Computed
    over ``bit_deps`` for every op bit, glue included, which is ready
    with the latest bit it reads."""
    deps = bit_deps(graph)
    # Inputs and constants are ready at (0, 0), the start of every
    # producer max.
    table: dict = {}
    at = _keyed_slot(graph, table)
    for op in graph.ops:
        keys = [(op.id, i) for i in range(op.width)]
        if op.kind is OpKind.MULT_CORE:
            # Core inputs must be complete in a prior cycle; results
            # fill their cycle so consumers spill to the next one.
            latest = max((at(r) for k in keys for r in deps[k]), default=(0, 0))[0]
            table.update(dict.fromkeys(keys, (latest + 1, n_bits)))
        elif op.kind.glue:
            for k in keys:
                table[k] = max(map(at, deps[k]), default=(0, 0))
        else:
            for k in keys:
                # Adds start in cycle 1.
                cycle, depth = max(max(map(at, deps[k]), default=(0, 0)), (1, 0))
                if depth < n_bits:
                    table[k] = (cycle, depth + 1)
                else:
                    table[k] = (cycle + 1, 1)
    return [table[k] for k in unit_keys(graph)]


def producer_inverse(graph: DataFlowGraph) -> dict[tuple[str, int], list[tuple[str, int]]]:
    """Every op bit's readers by ``(op, bit)``, glue included, read off
    ``bit_deps``: a carry-in reads its op's MSB."""
    consumers: dict = {(op.id, i): [] for op in graph.ops for i in range(op.width)}
    for key, refs in bit_deps(graph).items():
        for r in refs:
            if isinstance(r, CarryBit):
                consumers[(r.op, graph.op(r.op).width - 1)].append(key)
            elif isinstance(r, OpBit):
                consumers[r].append(key)
    return consumers


def consumer_successors(graph: DataFlowGraph) -> list[set[int]]:
    """Oracle for ``scheduler._Plan.successors``: per unit, by position
    in definition order, the other units that wait on one of its bits,
    read off ``keyed_view`` (``bit_deps``), not off the view."""
    units = [op.id for op in graph.ops if not op.kind.glue]
    position = {uid: k for k, uid in enumerate(units)}
    out: list[set[int]] = [set() for _ in units]
    for (uid, _), prods in keyed_view(graph).producers.items():
        for op_id, _ in prods:
            if op_id != uid:
                out[position[op_id]].add(position[uid])
    return out


def alap_pairs(graph: DataFlowGraph, n_bits: int, lam: int) -> list[tuple[int, int]]:
    """Pair oracle for ``bit_alap``: every unit bit's latest ``(cycle,
    depth)`` slot by bit number, or the InfeasibleError it raises.
    Computed over the readers ``bit_deps`` gives every op bit, glue
    included, which is due where its earliest reader is."""
    consumers = producer_inverse(graph)
    due = (lam + 1, 1)
    table: dict = {}
    for op in reversed(graph.ops):
        keys = [(op.id, i) for i in range(op.width)]
        if op.kind is OpKind.MULT_CORE:
            users = [table[c] for k in keys for c in consumers[k]]
            cycle = min(users, default=due)[0] - 1
            if cycle < 1:
                raise InfeasibleError(
                    f"latency {lam} too small: {op.id} would finish before cycle 1"
                )
            # Results due at depth 1 so producers retreat a full cycle.
            table.update(dict.fromkeys(keys, (cycle, 1)))
        elif op.kind.glue:
            for k in reversed(keys):
                table[k] = min([table[c] for c in consumers[k]], default=due)
        else:
            for i, k in reversed(list(enumerate(keys))):
                cycle, depth = min([table[c] for c in consumers[k]], default=due)
                depth -= 1
                if depth < 1:
                    cycle, depth = cycle - 1, n_bits
                if cycle < 1:
                    raise InfeasibleError(
                        f"latency {lam} too small: {op.id}[{i}] would fall before cycle 1"
                    )
                table[k] = (cycle, depth)
    return [table[k] for k in unit_keys(graph)]


def slot_time(slot: tuple[int, int], n_bits: int) -> int:
    """The time of a ``(cycle, depth)`` slot: depth d of cycle c is
    ``(c - 1) * n_bits + d``, and (0, 0) is 0."""
    cycle, depth = slot
    return (cycle - 1) * n_bits + depth if cycle else 0


class Slot(NamedTuple):
    """Where a bit is ready: a cycle and the adder depth chained in it.

    Slots order by cycle, then depth, so the latest of several
    producers is their ``max`` and the earliest consumer their ``min``.
    The library holds a slot as one int, its time ``(cycle - 1) *
    n_bits + depth`` (0 for (0, 0)), which orders the same, and its
    checker keeps plain pairs; the slot dicts here make each one a
    ``Slot``.
    """

    cycle: int
    depth: int


def slot_dict(graph: DataFlowGraph, pairs: list[tuple[int, int]]) -> dict[tuple[str, int], Slot]:
    """A per-unit-bit table of ``(cycle, depth)`` pairs by ``(op, bit)``
    key, in number order, each pair made a ``Slot``."""
    return dict(zip(eager_keys(graph), map(Slot._make, pairs)))


def _slots(
    graph: DataFlowGraph, times: list[int] | tuple[int, ...], n_bits: int
) -> dict[tuple[str, int], Slot]:
    """A time table as ``(cycle, depth)`` slots, keyed as ``slot_dict``
    keys them; time 0 is slot (0, 0)."""
    def slot(t: int) -> tuple[int, int]:
        cycle, depth = divmod(t - 1, n_bits)
        return (cycle + 1, depth + 1) if t else (0, 0)

    return slot_dict(graph, list(map(slot, times)))


def bit_asap(graph: DataFlowGraph, n_bits: int) -> dict[tuple[str, int], Slot]:
    """Earliest slot per unit bit, from ``arrival_table(graph, n_bits)``;
    inputs sit at (0, 0)."""
    return _slots(graph, arrival_table(graph, n_bits), n_bits)


def bit_alap(graph: DataFlowGraph, n_bits: int, lam: int) -> dict[tuple[str, int], Slot]:
    """Latest slot per unit bit for a ``lam``-cycle schedule, from
    ``alap_table``.

    Design outputs (and dangling results) are due at a virtual slot
    (lam + 1, 1); every add and core bit lands in cycle lam or earlier.
    Raises InfeasibleError when any bit falls before cycle 1.
    """
    return _slots(graph, alap_table(graph, n_bits, lam), n_bits)


def realized_slots(
    graph: DataFlowGraph, n_bits: int, cycle_of: dict[str, int]
) -> tuple[dict[tuple[str, int], Slot], list[str]]:
    """``scheduler._realized_table`` as a slot dict: the availability
    slot of every unit bit under a concrete assignment, by ``(op, bit)``
    key, and the legality problems it finds."""
    table, problems = _realized_table(graph, n_bits, cycle_of)
    return slot_dict(graph, table), problems


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


def random_full_design(seed: int, carries: bool = False) -> DataFlowGraph:
    """Seeded design over every surface kind, sized for fast simulation.

    ``carries`` makes more of the ops adds and chains carry-ins
    between them as ``random_add_design`` does.
    """
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

    def operand(width: int) -> Operand:
        name, src_w, is_input = rng.choice(pool)
        source = InputRef(name) if is_input else ResultRef(name)
        if src_w > width and rng.random() < 0.3:
            lo = rng.randint(1, src_w - width)
            return Operand(source, lo + width - 1, lo)
        return Operand(source, src_w - 1, 0)

    ops = []
    for k in range(rng.randint(3, 8)):
        kind = rng.choice(_SURFACE_KINDS)
        if carries and rng.random() < 0.4:
            kind = OpKind.ADD  # more adds to chain carries between
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
            if not signed:
                kind = OpKind.MULT_CORE  # unsigned multiply is a surface core
            operands = (operand(width), operand(width))
        elif kind is OpKind.LT:
            width = 1 if rng.random() < 0.7 else width
            operands = (operand(8), operand(8))
        else:
            operands = (operand(width), operand(width))
        carry = rng.choice([None, None, None, 0, 1]) if kind is OpKind.ADD else None
        if carries and kind is OpKind.ADD:
            adds = [op.id for op in ops if op.kind is OpKind.ADD]
            if adds and rng.random() < 0.5:
                carry = CarryRef(rng.choice(adds))
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


def carried_add_design(seed: int) -> DataFlowGraph:
    """``random_add_design`` with carry-ins chained between adds."""
    return random_add_design(seed, carries=True)


def carried_full_design(seed: int) -> DataFlowGraph:
    """``random_full_design`` with carry-ins chained between adds."""
    return random_full_design(seed, carries=True)


# Every random-design maker, the carried ones last.
DESIGN_MAKERS = (random_add_design, random_full_design, carried_add_design, carried_full_design)


def unit_keys(graph: DataFlowGraph) -> list[tuple[str, int]]:
    """The ``(op, bit)`` key of every unit bit, a bit of any op but
    NOT/SELECT glue, in definition order and then by bit."""
    return [(op.id, i) for op in graph.ops if not op.kind.glue for i in range(op.width)]


def eager_keys(graph: DataFlowGraph) -> tuple:
    """The key of every bit number, counted out op by op: the ``(op,
    bit)`` key of every unit bit (``unit_keys``), then the ``CarryBit``
    of every add whose carry is read as a carry-in, in definition
    order.  Oracle for ``BitView.ref`` and the order of every table by
    ``(op, bit)``."""
    read = {op.carry_in.op for op in graph.ops if isinstance(op.carry_in, CarryRef)}
    return (*unit_keys(graph), *(CarryBit(op.id) for op in graph.ops if op.id in read))


def view_refs(view: BitView) -> list:
    """``view.ref(n)`` for every bit number ``n`` of ``view``, unit bits
    then carries; an OpBit equals its key in ``eager_keys``."""
    return [view.ref(n) for n in range(len(view.producers) + len(view.carried))]


def built_reads(graph: DataFlowGraph) -> tuple[tuple[int, ...], ...]:
    """Oracle for ``graph.reads``, read off each op's operand bits
    instead of its producers: a glue bit stands for what the bits it
    waits on read, a unit bit reads its operand bits (not its own
    ripple) with each glue bit replaced so, and an add's bit 0 reads its
    carry-in's number last.  Numbers are ``eager_keys``' positions, and
    each bit's reads ascend, as ``sorted_reads`` gives ``graph.reads``."""
    number = {key: n for n, key in enumerate(eager_keys(graph))}
    glue_reads: dict[tuple[str, int], tuple[int, ...]] = {}

    def through(bits) -> tuple[int, ...]:
        refs = [(b.op, b.bit) for b in bits if isinstance(b, OpBit)]
        return tuple(sorted({x for r in refs if r in glue_reads for x in glue_reads[r]} |
                            {number[r] for r in refs if r not in glue_reads}))

    reads: list[tuple[int, ...]] = []
    for op in graph.ops:
        operands = [operand_bits(o) for o in op.operands]
        whole = through(b for bits in operands for b in bits)
        for i in range(op.width):
            column = [bits[i] for bits in operands if i < len(bits)]
            if op.kind is OpKind.SELECT:
                column.append(operands[0][0])
            if op.kind.glue:
                glue_reads[(op.id, i)] = through(column)
            elif not op.kind.per_bit:
                reads.append(whole)
            elif i == 0 and isinstance(op.carry_in, CarryRef):
                reads.append((*through(column), number[CarryBit(op.carry_in.op)]))
            else:
                reads.append(through(column))
    return tuple(reads)


def sorted_reads(graph: DataFlowGraph) -> tuple[tuple[int, ...], ...]:
    """``graph.reads``, each bit's ascending: a carry, numbered after
    every unit bit, stays last."""
    return tuple(tuple(sorted(refs)) for refs in graph.reads)


def keyed_stored_bits(sched: Schedule) -> dict[int, list[int]]:
    """Oracle for ``cost.stored_bits``: each read bit's producing op
    taken from its key in ``eager_keys``, and its number from the key's
    index there, counted out op by op rather than read off the view."""
    graph, cycle_of = sched.graph, sched.cycle_of
    keys = eager_keys(graph)
    stop = [0] * len(keys)  # each bit's last reader cycle
    lo = 0
    for op in graph.ops:
        if op.kind.glue:
            continue  # no cycle, and no number
        cycle = cycle_of.get(op.id, 0)
        for refs in graph.reads[lo:lo + op.width]:
            for r in refs:
                stop[r] = max(stop[r], cycle)
        lo += op.width
    out: dict[int, list[int]] = {b: [] for b in range(1, sched.lam)}
    for n, (key, last) in enumerate(zip(keys, stop)):
        if not last:
            continue
        start = cycle_of.get(key[0], last)  # none if its op has no cycle
        for b in range(max(start, 1), min(last, sched.lam)):
            out[b].append(n)
    return out


def keyed_refs(graph: DataFlowGraph) -> list:
    """The ref of every bit number, counted out as ``eager_keys`` does:
    an ``OpBit`` for a unit bit's key, then each ``CarryBit``."""
    return [key if isinstance(key, CarryBit) else OpBit(*key) for key in eager_keys(graph)]


def bit_name(ref) -> str:
    """``op[bit]`` or ``carry(op)``: the oracle's name for a stored bit,
    which the cost report and the latch trace must match."""
    if isinstance(ref, CarryBit):
        return f"carry({ref.op})"
    return f"{ref.op}[{ref.bit}]"


def source_width(graph: DataFlowGraph, source: Source) -> int:
    """The width of ``source`` in ``graph``; KeyError for a name the
    graph does not define as that kind of source."""
    if isinstance(source, InputRef):
        return graph.input_port(source.name).width
    if isinstance(source, ResultRef):
        return graph.op(source.op).width
    return source.width  # Const, Concat


def validate_oracle(graph: DataFlowGraph) -> list[Diagnostic]:
    """Oracle for ``dfg.validate``: the same diagnostics in the same
    order, each operand walked for its problems and then measured again
    by ``source_width``."""
    diags: list[Diagnostic] = []
    seen: dict[str, str] = {}

    for port in graph.inputs:
        if port.name in seen:
            diags.append(Diagnostic("duplicate name", port.name))
        seen[port.name] = "input"
        if port.width < 1:
            diags.append(Diagnostic(f"width must be positive, got {port.width}", port.name))

    defined_ops: set[str] = set()

    def check_ref(name: str, where: str, kind: str | None = None) -> None:
        """``kind`` is what an operand reads ``name`` as: "input" or "op"."""
        if name not in seen:
            diags.append(Diagnostic(f"undefined reference {name}", where))
        elif seen[name] == "op" and name not in defined_ops:
            diags.append(Diagnostic(f"reference to {name} creates a cycle", where))
        elif kind == "input" and seen[name] == "op":
            diags.append(Diagnostic(f"input reference to result {name}", where))
        elif kind == "op" and seen[name] == "input":
            diags.append(Diagnostic(f"result reference to input {name}", where))

    def check_operand(opnd: Operand, where: str) -> None:
        src = opnd.source
        if isinstance(src, CarryRef):
            diags.append(Diagnostic(f"carry of {src.op} can only be a carry-in", where))
            return
        if isinstance(src, InputRef):
            check_ref(src.name, where, "input")
        elif isinstance(src, ResultRef):
            check_ref(src.op, where, "op")
        elif isinstance(src, Const):
            if not src.bits or any(c not in "01" for c in src.bits):
                diags.append(Diagnostic(f"malformed constant {src.bits!r}", where))
        else:
            for part in src.parts:
                check_operand(part, where)
        try:
            w = source_width(graph, opnd.source)
        except KeyError:
            return  # undefined reference already reported
        if not (0 <= opnd.lo <= opnd.hi < w):
            diags.append(
                Diagnostic(f"slice [{opnd.hi}:{opnd.lo}] out of range for width {w}", where)
            )

    for op in graph.ops:
        if op.id in seen:
            diags.append(Diagnostic("duplicate name", op.id))
        seen[op.id] = "op"
        if op.width < 1:
            diags.append(Diagnostic(f"width must be positive, got {op.width}", op.id))
        if len(op.operands) != op.kind.arity:
            diags.append(
                Diagnostic(
                    f"{op.kind.name.lower()} takes {op.kind.arity} operands, "
                    f"got {len(op.operands)}",
                    op.id,
                )
            )
        for opnd in op.operands:
            check_operand(opnd, op.id)
        if op.kind is OpKind.SELECT and op.operands:
            if op.operands[0].width != 1:
                diags.append(Diagnostic("select condition must be 1 bit wide", op.id))
        if op.carry_in is not None and op.kind is not OpKind.ADD:
            diags.append(Diagnostic("only add may take a carry", op.id))
        if isinstance(op.carry_in, CarryRef):
            src = op.carry_in.op
            check_ref(src, op.id)
            if seen.get(src) == "input" or (
                src in defined_ops and graph.op(src).kind is not OpKind.ADD
            ):
                diags.append(Diagnostic(f"carry source {src} is not an add", op.id))
        elif isinstance(op.carry_in, int) and op.carry_in not in (0, 1):
            diags.append(Diagnostic(f"carry constant must be 0 or 1, got {op.carry_in}", op.id))
        defined_ops.add(op.id)

    for name in graph.outputs:
        if name not in seen:
            diags.append(Diagnostic(f"undefined reference {name}", "output"))

    return diags
