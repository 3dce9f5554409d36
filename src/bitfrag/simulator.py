"""Bit-accurate evaluation and equivalence checking.

Values are plain ints holding the unsigned bit pattern of each signal;
signedness only changes how MULT/LT/MAX/MIN interpret their operands.
``eval_dfg`` evaluates any validated design directly, one vector at a
time; it is the reference oracle.  ``check_equiv`` evaluates blocks of
vectors instead, in the manner of parallel-pattern fault simulators:
``_eval_block`` holds each signal's values for the whole block as the
fixed-stride fields of one int and computes each op, a multiply
included, with a few big-int operations on those ints.  Each graph is
decoded once per proof (``_decode``), every operand flattened into the
signal slices and constant bits it reads, so a block only runs the
decoded steps.  The vectors are made a stream block at a time, random
ones from one byte string per port and exhaustive ones from a counter,
and a few stream blocks are joined into one evaluation block.
The latch check walks a scheduled design cycle by cycle and insists
that every value crossing a cycle boundary sits in a latch the cost
model pays for (``Schedule.held``, kept with the schedule); it reads no
input values, so ``check_equiv`` runs it once per schedule, while
``eval_schedule`` runs it with every evaluation and traces the cycles
it walked.
"""

from __future__ import annotations

import itertools
import random
from typing import NamedTuple

from .dfg import (
    CarryBit,
    CarryRef,
    Concat,
    Const,
    DataFlowGraph,
    InputRef,
    OpKind,
    Operand,
    Operation,
    ResultRef,
    Source,
)
from .cost import bit_name
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


# Vectors per stream block: the unit in which ``_drawn`` and
# ``_enumerated`` make vectors.  It is part of the random vector stream
# (see ``check_equiv``), and a power of two no larger than 256, so a
# vector's index in its block fits the lowest byte of a field (see
# ``_enumerated``).
_BLOCK = 256
# Stream blocks per evaluation block: ``check_equiv`` joins this many
# into one ``_eval_block`` call (``_joined``).  Each op costs a few
# big-int operations per evaluation block whose size grows with the
# block, and a block's values live until it ends.  Over the benchmark's
# six equiv designs, evaluation blocks of 1024 vectors proved about 1.4x
# as fast as blocks of 256, while a 1000-vector proof of elliptic's
# latency-3 schedule peaked under tracemalloc at 0.76 MB against 0.22 MB.
_JOIN = 4


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


def _ones(n: int, stride: int) -> int:
    """A packed value with 1 in each of its ``n`` fields."""
    return ((1 << stride * n) - 1) // ((1 << stride) - 1)


def _enumerated(ports, stride: int):
    """Every input vector in ``itertools.product`` order, ``_BLOCK`` at
    a time: (vectors, packed inputs).

    Vector ``i`` is the number ``i`` cut into the ports' bits, the last
    port lowest.  A block starts at a multiple of ``_BLOCK``, so its
    vector ``j`` is ``start | j``: the bits of ``start`` are the same in
    every field, and those of ``j`` come from a ramp that counts in the
    lowest byte of each field.
    """
    total = sum(p.width for p in ports)
    step = stride // 8
    ramp = bytearray(_BLOCK * step)
    ramp[::step] = bytes(range(_BLOCK))
    ramp = int.from_bytes(ramp, "little")
    for start in range(0, 1 << total, _BLOCK):
        n = min(_BLOCK, (1 << total) - start)
        ones = _ones(n, stride)
        shift, inputs = total, {}
        for p in ports:
            shift -= p.width
            m = _mask(p.width)
            low = (ramp & ((m << shift) & (_BLOCK - 1)) * ones) >> shift
            inputs[p.name] = ((start >> shift) & m) * ones | low
        yield n, inputs


def _drawn(ports, stride: int, samples: int, seed: int):
    """``samples`` vectors of the random stream (see ``check_equiv``),
    ``_BLOCK`` at a time: (vectors, packed inputs).

    Byte ``k`` of every vector of a port moves into its field with one
    extended-slice copy, and one mask cuts the fields to the port width.
    """
    rng = random.Random(seed)
    step = stride // 8
    for start in range(0, samples, _BLOCK):
        n = min(_BLOCK, samples - start)
        ones = _ones(n, stride)
        inputs = {}
        for p in ports:
            size = -(-p.width // 8)
            raw = rng.randbytes(_BLOCK * size)
            fields = bytearray(n * step)
            for k in range(size):
                fields[k::step] = raw[k : n * size : size]
            inputs[p.name] = int.from_bytes(fields, "little") & (_mask(p.width) * ones)
        yield n, inputs


def _joined(blocks, stride: int):
    """``_JOIN`` consecutive blocks at a time as one: (vectors, packed
    inputs).  Every block but the last is full, so the next one's fields
    start at ``stride * n`` for the ``n`` vectors joined so far."""
    blocks = iter(blocks)
    for n, inputs in blocks:
        inputs = dict(inputs)
        for m, more in itertools.islice(blocks, _JOIN - 1):
            at = stride * n
            for name, packed in more.items():
                inputs[name] |= packed << at
            n += m
        yield n, inputs


def _pieces(width_of: dict[str, int], source: Source, lo: int, width: int, at: int,
            out: list) -> int:
    """Bits ``lo`` up to ``lo + width - 1`` of ``source``, placed from
    bit ``at`` up: each signal slice goes into ``out`` as a piece, and
    the constant bits are returned as one small int.

    A piece is (signal name, shift, width, position, cut): the signal's
    packed values shifted down by ``shift`` and, when ``cut``, masked to
    ``width`` bits, then shifted up to ``position``.  A field holds
    no bit above its signal's width, so only a slice that starts above
    bit 0 or stops below the top needs the mask.
    """
    kind = type(source)
    if kind is ResultRef or kind is InputRef:
        name = source.op if kind is ResultRef else source.name
        out.append((name, lo, width, at, lo > 0 or width_of[name] > width))
        return 0
    if kind is Const:
        return ((int(source.bits, 2) >> lo) & _mask(width)) << at
    const, stop, pos = 0, lo + width, 0  # pos: the concat bit of the part's bit 0
    for part in reversed(source.parts):  # Concat, MSB first
        end = pos + part.hi - part.lo + 1
        first, last = max(lo, pos), min(stop, end)
        if first < last:
            const |= _pieces(
                width_of, part.source, part.lo + first - pos, last - first, at + first - lo, out
            )
        pos = end
    return const


class _Decoded(NamedTuple):
    """A graph as ``_eval_block`` runs it, decoded once per proof.

    ``steps`` pairs each op with its operands in the order the op reads
    them, each as (width read, constant bits, pieces) from ``_pieces``.
    """

    steps: tuple[tuple[Operation, tuple[tuple[int, int, tuple], ...]], ...]
    outputs: tuple[str, ...]


def _decode(graph: DataFlowGraph) -> _Decoded:
    """Flatten every operand of ``graph`` into pieces at the width its
    op reads it: its own width for a select or compare, else cut to the
    result width.  An unsigned product takes its wider operand first,
    so that it shifts and adds over the narrower one."""
    width_of = {p.name: p.width for p in graph.inputs}
    width_of.update((op.id, op.width) for op in graph.ops)
    steps = []
    for op in graph.ops:
        w, kind = op.width, op.kind
        opnds = op.operands
        if (kind is OpKind.MULT and not op.signed) or kind is OpKind.MULT_CORE:
            opnds = sorted(opnds, key=lambda o: o.width, reverse=True)
        own = kind is OpKind.SELECT or kind in (OpKind.LT, OpKind.MAX, OpKind.MIN)
        decoded = []
        for o in opnds:
            read = o.hi - o.lo + 1
            if read > w and not own:
                read = w
            pieces: list = []
            const = _pieces(width_of, o.source, o.lo, read, 0, pieces)
            decoded.append((read, const, tuple(pieces)))
        steps.append((op, tuple(decoded)))
    return _Decoded(tuple(steps), graph.outputs)


def _eval_block(
    decoded: _Decoded, inputs: dict[str, int], n: int, stride: int
) -> dict[str, int]:
    """``eval_dfg`` on ``n`` vectors at once, of a graph ``_decode`` made.

    Every signal is one int holding its ``n`` values as ``stride``-bit
    fields, the first vector lowest; ``inputs`` maps each input name to
    its packed values, already cut to the port width, and the result
    maps each output name to its packed unsigned bit patterns.  Each op
    is a few big-int operations on whole blocks: a field is always below
    ``1 << (stride - 2)``, so a sum, a difference offset by ``1 << w``
    or a compare offset by ``1 << top`` stays inside its own field.
    A multiply shifts and adds over its multiplier's bits, every
    partial product cut to the result width.  ``stride`` must be at
    least ``_stride(graph)``, and the graph validated.
    """
    ones = _ones(n, stride)
    # masks[w] has w ones in every field, for each w up to stride - 2.
    masks = [_mask(w) * ones for w in range(stride - 1)]
    values = dict(inputs)
    carries: dict[str, int] = {}

    # Neither nested function calls the other, so they form no reference
    # cycle, and a block's values are freed when the call returns.
    def operand(o: tuple[int, int, tuple]) -> int:
        _, const, pieces = o
        packed = const * ones if const else 0
        for name, shift, width, at, cut in pieces:
            part = values[name] >> shift if shift else values[name]
            if cut:
                part &= masks[width]
            packed |= part << at if at else part
        return packed

    def offset(packed: int, width: int, top: int) -> int:
        """Two's complement ``width``-bit fields as ``top``-bit offset
        binary (value plus ``1 << (top - 1)``), which orders unsigned."""
        half = 1 << (width - 1)
        return (packed ^ (half * ones)) + ((1 << (top - 1)) - half) * ones

    for op, opnds in decoded.steps:
        w, kind = op.width, op.kind
        m = masks[w]
        if kind is OpKind.ADD:
            total = operand(opnds[0]) + operand(opnds[1])
            carry_in = op.carry_in
            if isinstance(carry_in, CarryRef):
                total += carries[carry_in.op]
            elif carry_in:
                total += ones
            values[op.id] = total & m
            carries[op.id] = (total >> w) & ones
        elif kind is OpKind.SUB:
            values[op.id] = ((ones << w) + operand(opnds[0]) - operand(opnds[1])) & m
        elif kind is OpKind.NOT:
            values[op.id] = operand(opnds[0]) ^ m
        elif kind is OpKind.SELECT:
            s, a, b = map(operand, opnds)
            picked = s * _mask(w)
            values[op.id] = (a & picked) | (b & (m ^ picked))
        elif kind is OpKind.MULT or kind is OpKind.MULT_CORE:
            # The product modulo 1 << w: a signed operand narrower than
            # the result is first sign-extended to it inside its field.
            if op.signed and kind is OpKind.MULT:
                a, b = (
                    offset(operand(o), o[0], w + 1) & m if o[0] < w else operand(o)
                    for o in opnds
                )
                bits = w
            else:
                a, b, bits = operand(opnds[0]), operand(opnds[1]), opnds[1][0]
            total = 0
            for j in range(bits):
                pick = ((b >> j) & ones) * _mask(w - j)  # bit j of b, spread
                total = (total + ((a & pick) << j)) & m
            values[op.id] = total
        else:  # LT, MAX, MIN
            a, b = operand(opnds[0]), operand(opnds[1])
            ka, kb = a, b
            top = max(opnds[0][0], opnds[1][0])
            if op.signed:
                ka = offset(a, opnds[0][0], top)
                kb = offset(b, opnds[1][0], top)
            ge = (((ones << top) + ka - kb) >> top) & ones  # 1 where ka >= kb
            if kind is OpKind.LT:
                values[op.id] = ge ^ ones
            else:
                picked = ge * _mask(w)
                x, y = (a, b) if kind is OpKind.MAX else (b, a)
                values[op.id] = (x & picked) | (y & (m ^ picked))
    return {name: values[name] for name in decoded.outputs}


class CycleTrace(NamedTuple):
    cycle: int
    executed: tuple[str, ...]
    latched: tuple[str, ...]


def _latch_check(sched: Schedule) -> tuple[dict[int, list[Operation]], dict[int, list]]:
    """Check a schedule's cycle boundaries.

    Raises SimulationError if any operand bit produced in an earlier
    cycle is missing from the latch set the cost model charges for at
    the intervening boundary, or if a unit has no cycle.  The units are
    walked once, by cycle and then in definition order, so the first
    unlatched read of the earliest cycle is the one named, before any
    unscheduled unit, and of its bit the lowest number it reads.
    Nothing here depends on input values, so one check covers every
    vector.  Returns what ``eval_schedule`` traces:
    the units by cycle, each in definition order, and ``Schedule.held``.
    """
    graph, cycle_of, lam = sched.graph, sched.cycle_of, sched.lam
    view, reads = graph.bit_view, graph.reads
    base, held = view.base, sched.held
    # Units by cycle, each in definition order; a unit with no cycle in
    # 1 .. lam goes to ``missing``.  ``made`` is the cycle of every unit
    # bit's op by bit number; an unscheduled producer gets lam + 1, so
    # it fails no latch, as ``missing`` reports it.
    units: dict[int, list[Operation]] = {c: [] for c in range(1, lam + 1)}
    missing: list[Operation] = []
    made: list[int] = []
    for op in map(graph.op, base):
        units.get(cycle_of.get(op.id), missing).append(op)
        made += [cycle_of.get(op.id, lam + 1)] * op.width
    carry_no = {x: len(made) + k for k, x in enumerate(view.carried)}
    made += [cycle_of.get(x, lam + 1) for x in view.carried]
    for cycle, ops in units.items():
        kept = held.get(cycle - 1, ())
        latched = {carry_no[r.op] if type(r) is CarryBit else base[r.op] + r.bit for r in kept}
        for op in ops:
            lo = base[op.id]
            for refs in reads[lo:lo + op.width]:
                for r in refs:
                    if made[r] < cycle and r not in latched:
                        lowest = min([x for x in refs if made[x] < cycle and x not in latched])
                        raise SimulationError(
                            f"cycle {cycle}: {op.id} reads unlatched "
                            f"bit {view.ref(lowest)} across boundary {cycle - 1}"
                        )
    if missing:
        raise SimulationError(
            f"unscheduled operations: {', '.join(op.id for op in missing)}"
        )
    return units, held


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
    units, held = _latch_check(sched)
    return outputs, [
        CycleTrace(
            cycle,
            tuple(op.id for op in ops),
            tuple(bit_name(r) for r in held.get(cycle, ())),
        )
        for cycle, ops in units.items()
    ]


class EquivResult(NamedTuple):
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
    EXHAUSTIVE_LIMIT total input bits, in ``itertools.product`` order
    over the reference's ports, otherwise draws ``samples`` seeded
    random vectors; fewer than one sample raises SimulationError rather
    than proving nothing.  A Schedule candidate has its latch check run
    once, before any vector, and its graph is then evaluated.  The
    vectors are made ``_BLOCK`` at a time, and both designs evaluated
    ``_JOIN`` such blocks at a time; the result names the first
    mismatching vector in drawing order and its first mismatching output
    in the reference's order, exactly as a vector-by-vector comparison
    would.

    The random stream depends on ``seed``, the reference's ports and
    ``_BLOCK``, and on nothing else; in particular not on ``samples``
    or the candidate.  ``random.Random(seed)`` draws the vectors a
    block at a time: for each block, each reference port in order
    draws ``randbytes(_BLOCK * size)``, ``size`` being its width in
    whole bytes, and vector ``j`` of the block takes bytes
    ``j * size`` up to ``(j + 1) * size`` of it, read little-endian
    and cut to the port width.  The last block is drawn whole, and
    only its first vectors are used.
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
    stride = _stride(reference, cand_graph)
    if sum(p.width for p in ports) <= EXHAUSTIVE_LIMIT:
        strategy = "exhaustive"
        blocks = _enumerated(ports, stride)
    else:
        if samples < 1:
            raise SimulationError(
                f"random equivalence needs at least 1 sample, got {samples}"
            )
        strategy = "random"
        blocks = _drawn(ports, stride, samples, seed)

    if isinstance(candidate, Schedule):
        _latch_check(candidate)

    field = _mask(stride)
    checked = 0
    ref_decoded, cand_decoded = _decode(reference), _decode(cand_graph)
    for n, inputs in _joined(blocks, stride):
        want = _eval_block(ref_decoded, inputs, n, stride)
        got = _eval_block(cand_decoded, inputs, n, stride)
        if got != want:
            # The first mismatching vector, then the first output in
            # the reference's order, as a vector-by-vector scan finds it.
            diff = {name: got[name] ^ want[name] for name in reference.outputs}
            j = min((d & -d).bit_length() - 1 for d in diff.values() if d) // stride
            name = next(x for x in reference.outputs if (diff[x] >> stride * j) & field)
            return EquivResult(
                strategy, checked + j + 1, False,
                {p.name: (inputs[p.name] >> stride * j) & field for p in ports},
                (
                    name,
                    (got[name] >> stride * j) & field,
                    (want[name] >> stride * j) & field,
                ),
            )
        checked += n
    return EquivResult(strategy, checked, True)
