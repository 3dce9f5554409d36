"""Bit-accurate dataflow graph IR for additive designs.

A design is a list of typed inputs, a list of operations in definition
order, and a list of output references.  Operations reference inputs or
earlier operations only, so definition order is already topological.

Width rules, fixed here and relied on by every later pass:

* An operand resolves to a bit vector at its own width (slice width,
  concat width, or constant width).  Operands narrower than the
  consuming operation are zero-extended; operands wider are used from
  bit 0 upward and the excess bits are ignored.  Zero-extension is the
  only implicit widening.  Sign extension must be spelled out with
  concat glue (see kernel lowering).
* ADD/SUB results are taken modulo 2**width regardless of the signedness
  flag; the flag matters only to MULT/LT/MAX/MIN, which interpret each
  operand's own-width vector as two's complement when signed.
* ADD exposes a 1-bit carry-out, which only another add may read, and
  only as its carry-in: a carry is never a data operand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, auto
from functools import cached_property, partial
from itertools import chain, repeat
from typing import NamedTuple, Union


class OpKind(Enum):
    """What an op computes.

    Each kind holds, as plain attributes, its ``arity``, three flags:
    ``glue`` (transparent glue: zero delay, no functional unit of its
    own), ``per_bit`` (result bit i reads bit i of each operand) and
    ``kernel`` (survives kernel extraction), and the ``word`` and
    operand separator ``sep`` that ``dsl.emit`` writes.  Passes test
    these once per op, as ``op.kind.glue``; a set or dict lookup such
    as ``op.kind in {OpKind.NOT, OpKind.SELECT}`` would hash the kind
    through ``Enum.__hash__``, a Python-level call.
    """

    ADD = auto()
    SUB = auto()
    MULT = auto()
    MULT_CORE = auto()
    LT = auto()
    MAX = auto()
    MIN = auto()
    NOT = auto()
    SELECT = auto()

    def __init__(self, _value: int) -> None:
        self.arity = {"NOT": 1, "SELECT": 3}.get(self.name, 2)
        self.glue = self.name in ("NOT", "SELECT")
        self.per_bit = self.glue or self.name in ("ADD", "SUB")
        self.kernel = self.glue or self.name in ("ADD", "MULT_CORE")
        self.word = "mult" if self.name == "MULT_CORE" else self.name.lower()
        self.sep = {
            "ADD": " + ", "SUB": " - ", "MULT": " * ", "MULT_CORE": " * ",
            "LT": " < ", "NOT": "",
        }.get(self.name, ", ")


@dataclass(frozen=True)
class SourceSpan:
    """Position of a construct in DSL text (1-based line/column)."""

    line: int
    column: int


@dataclass(frozen=True)
class Diagnostic:
    message: str
    where: str = ""
    span: SourceSpan | None = None

    def __str__(self) -> str:
        loc = f"{self.span.line}:{self.span.column}: " if self.span else ""
        ctx = f"{self.where}: " if self.where else ""
        return f"{loc}{ctx}{self.message}"


class ValidationError(ValueError):
    def __init__(self, diagnostics: list[Diagnostic]):
        super().__init__("; ".join(str(d) for d in diagnostics))
        self.diagnostics = diagnostics


# Graph records (sources, operands, operations, ports, and the
# fragmenter's Fragment) are slotted dataclasses that hash by value: a
# pass builds tens of thousands of them, and a slotted one builds in
# about a third of the time a frozen one takes.  They are not frozen,
# yet they are values, shared between graphs and used as dict keys, so
# no code assigns to a field of a built record; a lint in
# tests/test_imports.py fails on any such assignment under src/.


@dataclass(slots=True, unsafe_hash=True)
class InputRef:
    name: str


@dataclass(slots=True, unsafe_hash=True)
class ResultRef:
    op: str


@dataclass(slots=True, unsafe_hash=True)
class CarryRef:
    """The 1-bit carry-out of an ADD operation, read as a carry-in."""

    op: str


@dataclass(slots=True, unsafe_hash=True)
class Const:
    bits: str  # binary, MSB first

    @property
    def width(self) -> int:
        return len(self.bits)


@dataclass(slots=True, unsafe_hash=True)
class Concat:
    parts: "tuple[Operand, ...]"  # MSB first

    @property
    def width(self) -> int:
        return sum(p.width for p in self.parts)


Source = Union[InputRef, ResultRef, Const, Concat]


@dataclass(slots=True, unsafe_hash=True)
class Operand:
    """A sliced reference to a value source.

    The slice [hi:lo] is inclusive and always concrete; parsers and
    builders fill in the full range when none was written.
    """

    source: Source
    hi: int
    lo: int

    @property
    def width(self) -> int:
        return self.hi - self.lo + 1


CarryIn = Union[int, CarryRef, None]  # None, 0, 1, or a chained carry


@dataclass(slots=True, unsafe_hash=True)
class Operation:
    id: str
    kind: OpKind
    width: int
    signed: bool
    operands: tuple[Operand, ...]
    carry_in: CarryIn = None


@dataclass(slots=True, unsafe_hash=True)
class InputPort:
    name: str
    width: int
    signed: bool


# Bit-level references used by bit_deps, timing, and the simulator.
# They are named tuples, so they hash and compare in C, and an OpBit is
# equal to its (op, bit) table key.  Tuples compare by value across
# kinds, so InputBit("a", 0) == OpBit("a", 0); that is safe only because
# validate keeps input names and op names distinct.  Tell refs apart by
# their type, never by equality.


class InputBit(NamedTuple):
    name: str
    bit: int


class OpBit(NamedTuple):
    op: str
    bit: int


class CarryBit(NamedTuple):
    """Carry-out of an ADD; emerges with the MSB sum bit."""

    op: str


BitRef = Union[InputBit, OpBit, CarryBit]


@dataclass(frozen=True)
class DataFlowGraph:
    name: str
    inputs: tuple[InputPort, ...]
    ops: tuple[Operation, ...]
    outputs: tuple[str, ...]
    _input_map: dict = field(default_factory=dict, repr=False, compare=False)
    _op_map: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_input_map", {p.name: p for p in self.inputs})
        object.__setattr__(self, "_op_map", {o.id: o for o in self.ops})

    def op(self, op_id: str) -> Operation:
        return self._op_map[op_id]

    def input_port(self, name: str) -> InputPort:
        return self._input_map[name]

    def ref_width(self, name: str) -> int:
        """Width of a named value (input or operation result)."""
        if name in self._input_map:
            return self._input_map[name].width
        return self._op_map[name].width

    @cached_property
    def bit_view(self) -> "BitView":
        """The graph's bit-level view, built on first use and then shared."""
        return _build_bit_view(self)

    @cached_property
    def arrivals(self) -> tuple[int, ...]:
        """Arrival time of every result bit by number, computed by
        ``timing.arrival_table`` on first use and then kept."""
        from .timing import arrival_table  # timing builds on this module

        return arrival_table(self)


def source_width(graph: DataFlowGraph, source: Source) -> int:
    if isinstance(source, InputRef):
        return graph.input_port(source.name).width
    if isinstance(source, ResultRef):
        return graph.op(source.op).width
    return source.width  # Const, Concat


def operand_slices(operand: Operand) -> list[Operand]:
    """The flat slices of ``operand``, lowest first, at its own width.

    This is the one operand resolver: the bit view, ``bit_deps`` and the
    fragment rewrite read operands through it.  A slice is an input or
    op slice, or a constant cut to its own bits, never a concatenation;
    a consumer wider than the operand sees zeros above it.
    """
    source, lo, hi = operand.source, operand.lo, operand.hi
    if isinstance(source, Const) and (lo or hi + 1 < source.width):
        bits = source.bits[source.width - 1 - hi:source.width - lo]  # MSB first
        return [Operand(Const(bits), hi - lo, 0)]
    if not isinstance(source, Concat):
        return [operand]
    slices: list[Operand] = []
    at = 0  # the concat bit where the part's bit 0 lands
    for part in reversed(source.parts):  # MSB first
        stop = at + part.width
        if stop > lo:  # concat bits max(lo, at) to min(hi, stop - 1) of the part
            shift = part.lo - at
            cut = Operand(part.source, shift + min(hi, stop - 1), shift + max(lo, at))
            slices += operand_slices(cut)
        if stop > hi:
            break
        at = stop
    return slices


def validate(graph: DataFlowGraph) -> list[Diagnostic]:
    """Structural check; an empty list means the graph is well formed."""
    diags: list[Diagnostic] = []
    seen: dict[str, str] = {}

    for port in graph.inputs:
        if port.name in seen:
            diags.append(Diagnostic("duplicate name", port.name))
        seen[port.name] = "input"
        if port.width < 1:
            diags.append(Diagnostic(f"width must be positive, got {port.width}", port.name))

    defined_ops: set[str] = set()

    def check_ref(name: str, where: str) -> None:
        if name in seen:
            if seen[name] == "op" and name not in defined_ops:
                diags.append(Diagnostic(f"reference to {name} creates a cycle", where))
        else:
            diags.append(Diagnostic(f"undefined reference {name}", where))

    def check_operand(opnd: Operand, where: str) -> None:
        src = opnd.source
        if isinstance(src, CarryRef):
            diags.append(Diagnostic(f"carry of {src.op} can only be a carry-in", where))
            return
        if isinstance(src, InputRef):
            check_ref(src.name, where)
        elif isinstance(src, ResultRef):
            check_ref(src.op, where)
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


def check(graph: DataFlowGraph) -> DataFlowGraph:
    diags = validate(graph)
    if diags:
        raise ValidationError(diags)
    return graph


class Namer:
    """Hands out names not yet taken, suffixing ``_2``, ``_3``... on clashes."""

    def __init__(self, taken: set[str]):
        self.taken = set(taken)

    def fresh(self, base: str) -> str:
        name, k = base, 2
        while name in self.taken:
            name = f"{base}_{k}"
            k += 1
        self.taken.add(name)
        return name


def _waits(op: Operation, operands: list[list], own, carry) -> list[set]:
    """What each result bit of ``op`` waits on, one set per bit.

    ``operands`` holds each operand's bits, lowest first, at the
    operand's own width, None for a bit with no producer (a constant);
    ``own(i)`` stands for result bit ``i`` and ``carry`` for the
    carry-in, None if there is none.  Ripple kinds (ADD/SUB) chain each
    bit on the previous one; glue is per-bit transparent, a select's
    condition feeding every bit; MULT/MULT_CORE/LT/MAX/MIN are opaque,
    every result bit waiting on every operand bit through one shared
    frozenset.
    """
    width = op.width
    if not op.kind.per_bit:
        whole = frozenset(x for bits in operands for x in bits if x is not None)
        return [whole] * width
    if op.kind is OpKind.SELECT:
        operands[0] = operands[0][:1] * width
    ripple = not op.kind.glue
    columns = zip(*(bits[:width] + [None] * (width - len(bits)) for bits in operands))
    out = []
    for i, column in enumerate(columns):
        waits = set(column)
        waits.discard(None)
        if ripple and i > 0:
            waits.add(own(i - 1))
        elif carry is not None:  # only an add takes one
            waits.add(carry)
        out.append(waits)
    return out


def bit_deps(graph: DataFlowGraph) -> dict[tuple[str, int], frozenset[BitRef]]:
    """Producer set per (op, result bit), as ``_waits`` gives it.

    Each operand is resolved once per op; constants drop out.
    """
    deps: dict[tuple[str, int], frozenset[BitRef]] = {}
    for op in graph.ops:
        operands = []
        for opnd in op.operands:
            bits: list = []
            for s in operand_slices(opnd):
                source, ks = s.source, range(s.lo, s.hi + 1)
                if type(source) is InputRef:
                    bits += [InputBit(source.name, k) for k in ks]
                elif type(source) is ResultRef:
                    bits += [OpBit(source.op, k) for k in ks]
                else:
                    bits += [None] * len(ks)
            operands.append(bits)
        carry = CarryBit(op.carry_in.op) if isinstance(op.carry_in, CarryRef) else None
        waits = _waits(op, operands, partial(OpBit, op.id), carry)
        for i, refs in enumerate(waits):
            deps[(op.id, i)] = frozenset(refs)
    return deps


BitKey = tuple[str, int]  # (op id, result bit); an OpBit is its own key


class Slot(NamedTuple):
    """Where a bit is ready: a cycle and the adder depth chained in it.

    Slots order by cycle, then depth, so the latest of several
    producers is their ``max`` and the earliest consumer their ``min``.
    Mobility and scheduling hold a slot as one int, its time
    ``(cycle - 1) * n_bits + depth`` (0 for (0, 0)), which orders the
    same; the checker (``scheduler.realized_slots``) keeps plain pairs,
    and ``BitView.slots`` turns a finished pair table into ``Slot``s.
    """

    cycle: int
    depth: int


@dataclass(frozen=True)
class BitView:
    """Bit-level view of one graph, shared read-only by every pass.

    Every result bit has a number: bit ``i`` of op ``x`` is
    ``base[x] + i``, so numbers run in definition order and then by
    bit, and ``keys[n]`` is the ``(op, bit)`` key of number ``n``.  Each
    carry that some add reads as its carry-in is numbered after every
    data bit, again in definition order, and its key is its
    ``CarryBit``.  The other tables are indexed by number.

    ``producers[n]`` lists the data bits result bit ``n`` waits on:
    inputs and constants drop out, and a carry-in becomes the MSB of
    the op it comes from.  ``consumers`` is the inverse of
    ``producers``.  ``reads[n]``, for a bit of a non-glue op, lists the
    data and carry bits of non-glue ops it reads once glue is looked
    through, less the op's own ripple; a glue bit reads nothing.
    ``producers`` and ``reads`` are ascending, so they list data bits
    before carries, each in definition order and then by bit, with one
    exception: a carry-in's MSB goes last in ``producers`` unless the bit
    also reads that MSB as data.  That order is the tie rule of
    ``critical_path``.  A key names its op first, a carry's too, so
    ``keys[n][0]`` is the op that produces bit ``n``.  The view is built
    one loop per op kind; ``bit_deps`` states its rules bit by bit, and
    tests hold one to the other.
    """

    keys: tuple[BitKey | CarryBit, ...]
    base: dict[str, int]
    producers: tuple[tuple[int, ...], ...]
    consumers: tuple[tuple[int, ...], ...]
    reads: tuple[tuple[int, ...], ...]

    def keyed(self, table: list) -> dict:
        """A per-data-bit table as a dict by ``(op, bit)`` key, in
        number order."""
        return dict(zip(self.keys, table))

    def slots(self, table: list[tuple[int, int]]) -> dict[BitKey, Slot]:
        """A per-data-bit table of ``(cycle, depth)`` pairs as ``keyed``
        gives it, each pair made a ``Slot``."""
        return dict(zip(self.keys, map(Slot._make, table)))

    def ref(self, n: int) -> OpBit | CarryBit:
        """The bit ref numbered ``n``."""
        key = self.keys[n]
        return key if isinstance(key, CarryBit) else OpBit(*key)


def _padded(bits: range | list) -> chain:
    """``bits``, then None for every bit above them (zero-extension)."""
    return chain(bits, repeat(None))


def _build_bit_view(graph: DataFlowGraph) -> BitView:
    """Passes reach the view through ``graph.bit_view``, built once.

    One loop per op kind: NOT, the ripple kinds (ADD, SUB), and one for
    SELECT and the opaque kinds.  Each reads an operand as the number of
    each of its bits (a ``range`` for an op slice, None for an input or
    constant bit); the ripple loop orders a bit's one or two operand bits
    by a comparison.  A read is looked through only if it is a glue bit.
    ``bit_deps`` states the same rules through ``_waits``; tests check
    one against the other.
    """
    base: dict[str, int] = {}
    keys: list = []
    for op in graph.ops:
        base[op.id] = len(keys)
        keys += [(op.id, i) for i in range(op.width)]
    size = len(keys)
    carried = {op.carry_in.op for op in graph.ops if isinstance(op.carry_in, CarryRef)}
    carry_of: dict[str, int] = {}
    for op in graph.ops:
        if op.id in carried:
            carry_of[op.id] = len(keys)
            keys.append(CarryBit(op.id))

    def numbers(opnd: Operand) -> range | list:
        source = opnd.source
        if type(source) is ResultRef:
            at = base[source.op]
            return range(at + opnd.lo, at + opnd.hi + 1)
        if type(source) is Concat:
            return [n for s in operand_slices(opnd) for n in numbers(s)]
        return [None] * (opnd.hi - opnd.lo + 1)

    glue_reads: dict[int, tuple[int, ...]] = {}  # each glue bit's reads

    def through(refs: tuple) -> tuple:
        """Ascending ``refs`` with each glue bit replaced by its reads."""
        if glue_reads.keys().isdisjoint(refs):
            return refs
        return tuple(sorted({x for r in refs for x in glue_reads.get(r, (r,))}))

    producers: list[tuple[int, ...]] = []
    reads: list[tuple[int, ...]] = []
    for op in graph.ops:
        lo, kind = base[op.id], op.kind
        bits = range(lo, lo + op.width)
        operands = [numbers(opnd) for opnd in op.operands]
        if kind is OpKind.NOT:
            for n, a in zip(bits, _padded(operands[0])):
                prods = () if a is None else (a,)
                producers.append(prods)
                glue_reads[n] = glue_reads.get(a, prods)
                reads.append(())
        elif kind.per_bit and not kind.glue:  # ripple: bit i waits on bit i - 1
            carry = msb = None
            if isinstance(op.carry_in, CarryRef):  # a carry emerges with its op's MSB
                carry = carry_of[op.carry_in.op]
                msb = base[op.carry_in.op] + graph.op(op.carry_in.op).width - 1
            for n, a, b in zip(bits, *map(_padded, operands)):
                if a is None:
                    pair = () if b is None else (b,)
                elif b is None or a == b:
                    pair = (a,)
                else:
                    pair = (a, b) if a < b else (b, a)
                read = through(pair) if a in glue_reads or b in glue_reads else pair
                if n > lo:
                    producers.append((*pair, n - 1))
                elif carry is None:
                    producers.append(pair)
                else:
                    producers.append(pair if msb in pair else (*pair, msb))
                    read = (*read, carry)
                reads.append(read)
        else:  # SELECT and the opaque kinds: sort each distinct wait set
            if kind.glue:  # a select's condition feeds every bit
                cond = operands[0][0]
                waits = [
                    sorted({cond, a, b} - {None})
                    for _, a, b in zip(bits, *map(_padded, operands[1:]))
                ]
            else:  # every bit waits on every operand bit
                whole = {x for nums in operands for x in nums}
                whole.discard(None)
                waits = [sorted(whole)] * op.width
            last = None
            for n, refs in zip(bits, waits):
                if refs is not last:
                    last = refs
                    prods = tuple(refs)
                    read = through(prods)
                producers.append(prods)
                if kind.glue:
                    glue_reads[n] = read
                reads.append(() if kind.glue else read)
    consumers: list[list[int]] = [[] for _ in range(size)]
    for n, prods in enumerate(producers):
        for p in prods:
            consumers[p].append(n)
    return BitView(
        tuple(keys), base, tuple(producers), tuple(map(tuple, consumers)), tuple(reads)
    )
