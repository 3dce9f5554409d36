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

from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum, auto
from functools import cached_property, partial
from itertools import chain, islice, repeat
from operator import attrgetter
from typing import NamedTuple


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


class SourceSpan(NamedTuple):
    """Position of a construct in DSL text (1-based line/column)."""

    line: int
    column: int


class Diagnostic(NamedTuple):
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


# Records come in three styles, all but one written out by hand: a
# dataclass generates its methods at import, about half a millisecond a
# class, and every run of the program pays its import.  Graph records
# (sources, operands, operations, ports, and the fragmenter's Fragment)
# are built on Record: slotted, hashed by value and compared by type, so
# ResultRef("a") != InputRef("a").  They are not frozen, yet they are
# values, shared between graphs and used as dict keys, so no code assigns
# to a field of a built record; a lint in tests/test_imports.py fails on
# any such assignment under src/.  A Schedule, which caches the bits it
# latches, is a FrozenRecord.  Result records (SourceSpan, Diagnostic,
# BitView, and those timing, fragmenter, cost and simulator return) and
# bit refs are named tuples.  DataFlowGraph alone stays a frozen
# dataclass: graphs are copied with dataclasses.replace.


class Record:
    """Base of the graph records.

    A record names its fields, in order, as its ``__slots__`` and fills
    them in its own ``__init__``.  It equals only a record of its own
    type with equal fields, hashes its field tuple and prints as
    ``Name(field=value, ...)``, as a dataclass does.  Equality and
    hashing read the fields through one ``operator.attrgetter`` per
    class, made when the class is defined.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._fields = fields = cls.__dict__.get("__slots__", cls._fields)
        if fields:
            cls._key = attrgetter(*fields)  # one field: the value, not a tuple
            if len(fields) == 1:
                cls.__hash__ = Record._hash_one

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def _hash_one(self) -> int:
        return hash((self._key(self),))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


class FrozenRecord(Record):
    """A record whose fields, named by ``_fields``, sit in its instance
    ``__dict__``, where a ``cached_property`` keeps its value too, and
    that refuses to assign or delete an attribute.  A record with no
    cache is a Record or a named tuple (a lint in tests/test_imports.py
    checks it)."""

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class InputRef(Record):
    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name


class ResultRef(Record):
    __slots__ = ("op",)

    def __init__(self, op: str) -> None:
        self.op = op


class CarryRef(Record):
    """The 1-bit carry-out of an ADD operation, read as a carry-in."""

    __slots__ = ("op",)

    def __init__(self, op: str) -> None:
        self.op = op


class Const(Record):
    __slots__ = ("bits",)

    def __init__(self, bits: str) -> None:
        self.bits = bits  # binary, MSB first

    @property
    def width(self) -> int:
        return len(self.bits)


class Concat(Record):
    __slots__ = ("parts",)

    def __init__(self, parts: tuple[Operand, ...]) -> None:
        self.parts = parts  # MSB first

    @property
    def width(self) -> int:
        return sum(p.width for p in self.parts)


Source = InputRef | ResultRef | Const | Concat


class Operand(Record):
    """A sliced reference to a value source.

    The slice [hi:lo] is inclusive and always concrete; parsers and
    builders fill in the full range when none was written.
    """

    __slots__ = ("source", "hi", "lo")

    def __init__(self, source: Source, hi: int, lo: int) -> None:
        self.source = source
        self.hi = hi
        self.lo = lo

    @property
    def width(self) -> int:
        return self.hi - self.lo + 1


CarryIn = int | CarryRef | None  # None, 0, 1, or a chained carry


class Operation(Record):
    __slots__ = ("id", "kind", "width", "signed", "operands", "carry_in")

    def __init__(self, id: str, kind: OpKind, width: int, signed: bool,
                 operands: tuple[Operand, ...], carry_in: CarryIn = None) -> None:
        self.id = id
        self.kind = kind
        self.width = width
        self.signed = signed
        self.operands = operands
        self.carry_in = carry_in


class InputPort(Record):
    __slots__ = ("name", "width", "signed")

    def __init__(self, name: str, width: int, signed: bool) -> None:
        self.name = name
        self.width = width
        self.signed = signed


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


BitRef = InputBit | OpBit | CarryBit


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
        """The graph's bit-level view, built on first use and then shared;
        ``fragmenter.apply_runs`` stores its graph's (``carried_view``) in
        this property's place in the instance ``__dict__``."""
        return _build_bit_view(self)

    @cached_property
    def arrivals(self) -> tuple[int, ...]:
        """Arrival time of every unit bit by number, computed by
        ``timing.arrival_table`` on first use and then kept."""
        from .timing import arrival_table  # timing builds on this module

        return arrival_table(self)

    @cached_property
    def reads(self) -> tuple[tuple[int, ...], ...]:
        """Per unit bit, the unit bits and carries it reads, derived from
        the view by ``_build_reads`` on first use."""
        return _build_reads(self)


def operand_slices(operand: Operand) -> list[Operand]:
    """The flat slices of ``operand``, lowest first, at its own width.

    This is the one operand resolver: the bit view, ``bit_deps`` and
    the fragment rewrite read operands through it.
    A slice is an input or op slice, or a constant cut to its own bits,
    never a concatenation; a consumer wider than the operand sees zeros
    above it.
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
    """Structural check; an empty list means the graph is well formed.

    One walk in definition order.  An operand reading, within its width,
    a binary constant or a name defined before it by a ref of its kind
    costs a lookup and a bounds test; only a fault builds a Diagnostic.
    """
    diags: list[Diagnostic] = []
    seen: dict[str, str] = {}  # name -> "input" or "result"
    for port in graph.inputs:
        if port.name in seen:
            diags.append(Diagnostic("duplicate name", port.name))
        seen[port.name] = "input"
        if port.width < 1:
            diags.append(Diagnostic(f"width must be positive, got {port.width}", port.name))
    # Locals, as an enum member read through its class is a slow lookup.
    op_map, input_map, select, add = graph._op_map, graph._input_map, OpKind.SELECT, OpKind.ADD
    widths: dict[str, int] = {}  # each op defined so far -> its op_map width

    def check_ref(name: str, where: str, kind: str | None = None) -> None:
        """Report ``name`` if undefined, not yet defined, or not a ``kind``."""
        seen_as = seen.get(name)
        if seen_as is None:
            diags.append(Diagnostic(f"undefined reference {name}", where))
        elif seen_as == "result" and name not in widths:
            diags.append(Diagnostic(f"reference to {name} creates a cycle", where))
        elif kind is not None and seen_as != kind:
            diags.append(Diagnostic(f"{kind} reference to {seen_as} {name}", where))

    def check_operands(operands: tuple[Operand, ...], where: str) -> int:
        """Check each operand, walking it once; returns their total
        width, a concatenation's when they are its parts."""
        total = 0
        for opnd in operands:
            src = opnd.source
            t = type(src)
            if t is ResultRef:
                w = widths.get(src.op)
                if w is None:
                    check_ref(src.op, where, "result")
                    w = getattr(op_map.get(src.op), "width", None)  # None: no such op, reported
            elif t is InputRef:
                w = input_map[src.name].width if seen.get(src.name) == "input" else None
                if w is None:
                    check_ref(src.name, where, "input")
                    w = getattr(input_map.get(src.name), "width", None)
            elif t is Concat:
                w = check_operands(src.parts, where)
            elif t is Const:
                w = len(src.bits)
                if not w or src.bits.strip("01"):
                    diags.append(Diagnostic(f"malformed constant {src.bits!r}", where))
            else:
                diags.append(Diagnostic(f"carry of {src.op} can only be a carry-in", where))
                w = None
            lo, hi = opnd.lo, opnd.hi
            if w is not None and not 0 <= lo <= hi < w:
                diags.append(Diagnostic(f"slice [{hi}:{lo}] out of range for width {w}", where))
            total += hi - lo + 1
        return total

    for op in graph.ops:
        op_id, kind, operands, carry = op.id, op.kind, op.operands, op.carry_in
        if op_id in seen:
            diags.append(Diagnostic("duplicate name", op_id))
        seen[op_id] = "result"
        if op.width < 1:
            diags.append(Diagnostic(f"width must be positive, got {op.width}", op_id))
        if len(operands) != kind.arity:
            message = f"{kind.name.lower()} takes {kind.arity} operands, got {len(operands)}"
            diags.append(Diagnostic(message, op_id))
        check_operands(operands, op_id)
        if kind is select and operands and operands[0].hi != operands[0].lo:
            diags.append(Diagnostic("select condition must be 1 bit wide", op_id))
        if carry is not None:
            if kind is not add:
                diags.append(Diagnostic("only add may take a carry", op_id))
            if type(carry) is CarryRef:
                src = carry.op
                check_ref(src, op_id)
                if seen.get(src) == "input" or src in widths and op_map[src].kind is not add:
                    diags.append(Diagnostic(f"carry source {src} is not an add", op_id))
            elif isinstance(carry, int) and carry not in (0, 1):
                diags.append(Diagnostic(f"carry constant must be 0 or 1, got {carry}", op_id))
        widths[op_id] = op_map[op_id].width

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


class BitView(NamedTuple):
    """Bit-level view of one graph, shared read-only by every pass.

    Only units, the ops other than NOT/SELECT glue, have numbered bits:
    bit ``i`` of unit ``x`` is ``base[x] + i``, so numbers run in
    definition order and then by bit.  Each carry read as a carry-in is
    numbered after every unit bit, in definition order: the carry of
    ``carried[k]`` is number ``len(producers) + k``.

    ``producers[n]``, the one dependence table, lists the unit bits bit
    ``n`` waits on, each once: those its operand bits are or reach
    through glue (inputs and constants drop out), ascending
    (``_merged``), then an add's ripple predecessor ``n - 1``, or on bit
    0 its carry-in's MSB unless already there.  Every operand is defined
    before its op, so only that MSB can break the ascending order.  The
    order is ``critical_path``'s tie rule.  ``msb_reads`` holds each
    carried add's bit 0 whose operand bits are or reach its carry-in's
    MSB, so that it reads that MSB as data too; usually there is none.
    What a unit bit reads is the graph's ``reads``, derived from
    ``producers`` and ``msb_reads`` once a schedule needs it.
    ``bit_deps`` states the same rules bit by bit, glue included, and
    tests hold one to the other.
    """

    base: dict[str, int]
    carried: tuple[str, ...]
    producers: tuple[tuple[int, ...], ...]
    msb_reads: frozenset[int]

    def ref(self, n: int) -> OpBit | CarryBit:
        """The bit ref numbered ``n``: a unit bit's op is the one whose
        first bit is the last not above ``n``."""
        size = len(self.producers)
        if n >= size:
            return CarryBit(self.carried[n - size])
        starts = list(self.base.values())
        k = bisect_right(starts, n) - 1
        return OpBit(list(self.base)[k], n - starts[k])


def _padded(bits: range | list) -> chain:
    """``bits``, then None for every bit above them (zero-extension)."""
    return chain(bits, repeat(None))


def _merged(*bits) -> tuple[int, ...]:
    """The unit bits that ``bits`` are or reach, ascending and each once.
    A bit is a unit bit's number, None, or a glue bit's reach: the tuple
    of unit bits it reaches."""
    return tuple(sorted({n for x in bits if x is not None
                         for n in (x if x.__class__ is tuple else (x,))}))


def _numbering(graph: DataFlowGraph) -> tuple[dict[str, int], tuple[str, ...]]:
    """The view's ``base``, of units only, and its ``carried``: every op
    whose carry is read as a carry-in, in definition order."""
    base: dict[str, int] = {}
    size = 0
    for op in graph.ops:
        if not op.kind.glue:
            base[op.id] = size
            size += op.width
    read = {op.carry_in.op for op in graph.ops if isinstance(op.carry_in, CarryRef)}
    return base, tuple(op.id for op in graph.ops if op.id in read)


def _build_bit_view(graph: DataFlowGraph) -> BitView:
    """Passes reach the view through ``graph.bit_view``, built once for a
    parsed or kernel graph; a fragmented graph's is ``carried_view``.

    One loop per op kind: glue, the ripple kinds (ADD, SUB) and the
    opaque kinds.  An operand is read as one entry per bit: a unit bit's
    number (a ``range`` for a unit's slice), a glue bit's reach
    (``_merged``), or None for an input or constant bit.  The ripple
    loop orders plain numbers by a comparison and merges only glue.
    """
    base, carried = _numbering(graph)
    reach: dict[str, list[tuple[int, ...]]] = {}  # per glue op, each bit's reach

    def numbers(opnd: Operand) -> range | list:
        source = opnd.source
        if type(source) is ResultRef:
            at = base.get(source.op)
            if at is None:
                return reach[source.op][opnd.lo:opnd.hi + 1]
            return range(at + opnd.lo, at + opnd.hi + 1)
        if type(source) is Concat:
            return [n for s in operand_slices(opnd) for n in numbers(s)]
        return [None] * (opnd.hi - opnd.lo + 1)

    producers: list[tuple[int, ...]] = []
    msb_reads: list[int] = []
    for op in graph.ops:
        kind = op.kind
        operands = [numbers(opnd) for opnd in op.operands]
        if kind.glue:  # bit i reads bit i of each operand, a select's condition every bit
            if kind is OpKind.SELECT:
                cond, columns = operands[0][0], zip(*map(_padded, operands[1:]))
                reach[op.id] = [_merged(cond, a, b) for a, b in islice(columns, op.width)]
            else:  # NOT: what its one operand bit is or reaches, without a merge
                reach[op.id] = [() if a is None else a if a.__class__ is tuple else (a,)
                                for a in islice(_padded(operands[0]), op.width)]
            continue
        lo = base[op.id]
        bits = range(lo, lo + op.width)
        if kind.per_bit:  # ripple: bit i waits on bit i - 1
            msb = None
            if isinstance(op.carry_in, CarryRef):  # a carry emerges with its op's MSB
                msb = base[op.carry_in.op] + graph.op(op.carry_in.op).width - 1
            for n, a, b in zip(bits, *map(_padded, operands)):
                if a.__class__ is tuple or b.__class__ is tuple:  # a glue bit: what it reaches
                    pair = a if b is None else b if a is None else _merged(a, b)
                elif a is None:
                    pair = () if b is None else (b,)
                elif b is None or a == b:
                    pair = (a,)
                else:
                    pair = (a, b) if a < b else (b, a)
                if n > lo:
                    pair = (*pair, n - 1)
                elif msb is not None:
                    if msb in pair:  # read as data as well
                        msb_reads.append(n)
                    else:
                        pair = (*pair, msb)
                producers.append(pair)
        else:  # opaque: every bit waits on every operand bit, one shared tuple
            producers += [_merged(*chain.from_iterable(operands))] * op.width
    return BitView(base, carried, tuple(producers), frozenset(msb_reads))


def carried_view(view: BitView, graph: DataFlowGraph) -> BitView:
    """The view of ``graph``, the fragment rewrite (``apply_runs``) of the
    graph ``view`` belongs to, derived from ``view`` instead of built.

    Fragmenting changes no bit's dependences.  A split add's fragments
    take its place, LSB first, so every unit bit keeps its number and
    producers (``view``'s own table): a fragment's bit 0 waits on the
    MSB of the fragment below, as the add's bit did on its ripple, and
    an operand never reads that MSB, so ``msb_reads`` is ``view``'s too.
    Reassembly selects are glue, with no number.  Only the carries are
    numbered anew.  Tests hold the result to a fresh build.
    """
    base, carried = _numbering(graph)
    return BitView(base, carried, view.producers, view.msb_reads)


def _build_reads(graph: DataFlowGraph) -> tuple[tuple[int, ...], ...]:
    """``graph.reads``, from its producers: what each unit bit reads.  A
    ripple bit drops its ripple, its last producer; an add's bit 0 drops
    its carry-in's MSB, last unless read as data (``msb_reads``), and
    appends the carry's number."""
    view = graph.bit_view
    base, producers, msb_reads = view.base, view.producers, view.msb_reads
    size = len(producers)
    carry_of = {x: size + k for k, x in enumerate(view.carried)}
    reads: list[tuple[int, ...]] = []
    for op, lo in zip(map(graph.op, base), base.values()):
        prods = producers[lo:lo + op.width]
        if not op.kind.per_bit:  # opaque: every bit reads its producers
            reads += prods
            continue
        first, carry = prods[0], op.carry_in
        if type(carry) is CarryRef:
            if lo not in msb_reads:
                first = first[:-1]
            first = (*first, carry_of[carry.op])
        reads.append(first)
        reads += [refs[:-1] for refs in prods[1:]]  # less the bit below
    return tuple(reads)
