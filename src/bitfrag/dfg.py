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
from functools import cached_property
from typing import NamedTuple, Union


class OpKind(Enum):
    ADD = auto()
    SUB = auto()
    MULT = auto()
    MULT_CORE = auto()
    LT = auto()
    MAX = auto()
    MIN = auto()
    NOT = auto()
    SELECT = auto()


# Kinds that survive kernel extraction.
KERNEL_KINDS = frozenset({OpKind.ADD, OpKind.MULT_CORE, OpKind.NOT, OpKind.SELECT})

# Transparent glue: zero delay, no functional unit of its own.
GLUE_KINDS = frozenset({OpKind.NOT, OpKind.SELECT})

# Kinds whose result bit i reads bit i of each operand.
_PER_BIT_KINDS = GLUE_KINDS | {OpKind.ADD, OpKind.SUB}

ARITY = {
    OpKind.ADD: 2,
    OpKind.SUB: 2,
    OpKind.MULT: 2,
    OpKind.MULT_CORE: 2,
    OpKind.LT: 2,
    OpKind.MAX: 2,
    OpKind.MIN: 2,
    OpKind.NOT: 1,
    OpKind.SELECT: 3,
}


@dataclass(frozen=True)
class SourceSpan:
    """Position of a construct in DSL text (1-based line/column)."""

    line: int
    column: int
    offset: int


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


@dataclass(frozen=True)
class InputRef:
    name: str


@dataclass(frozen=True)
class ResultRef:
    op: str


@dataclass(frozen=True)
class CarryRef:
    """The 1-bit carry-out of an ADD operation, read as a carry-in."""

    op: str


@dataclass(frozen=True)
class Const:
    bits: str  # binary, MSB first

    @property
    def width(self) -> int:
        return len(self.bits)


@dataclass(frozen=True)
class Concat:
    parts: "tuple[Operand, ...]"  # MSB first

    @property
    def width(self) -> int:
        return sum(p.width for p in self.parts)


Source = Union[InputRef, ResultRef, Const, Concat]


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class Operation:
    id: str
    kind: OpKind
    width: int
    signed: bool
    operands: tuple[Operand, ...]
    carry_in: CarryIn = None


@dataclass(frozen=True)
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


class ConstBit(NamedTuple):
    value: int  # 0 or 1


BitRef = Union[InputBit, OpBit, CarryBit, ConstBit]

ZERO_BIT = ConstBit(0)


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

    def is_op(self, name: str) -> bool:
        return name in self._op_map

    def input_port(self, name: str) -> InputPort:
        return self._input_map[name]

    def is_input(self, name: str) -> bool:
        return name in self._input_map

    def ref_width(self, name: str) -> int:
        """Width of a named value (input or operation result)."""
        if name in self._input_map:
            return self._input_map[name].width
        return self._op_map[name].width

    @cached_property
    def bit_view(self) -> "BitView":
        """The graph's bit-level view, built on first use and then shared."""
        return _build_bit_view(self)


def source_width(graph: DataFlowGraph, source: Source) -> int:
    if isinstance(source, InputRef):
        return graph.input_port(source.name).width
    if isinstance(source, ResultRef):
        return graph.op(source.op).width
    return source.width  # Const, Concat


def operand_bits(operand: Operand) -> list[BitRef]:
    """The bits of ``operand``, lowest first, at the operand's own width.

    This is the one bit-level resolver: the bit view and the fragment
    rewrite both read operands through it.  Constant bits come back as
    ConstBit; a consumer wider than the operand sees zeros above it.
    """
    source, lo, stop = operand.source, operand.lo, operand.hi + 1
    if isinstance(source, InputRef):
        return [InputBit(source.name, k) for k in range(lo, stop)]
    if isinstance(source, ResultRef):
        return [OpBit(source.op, k) for k in range(lo, stop)]
    if isinstance(source, Const):
        # bits string is MSB first
        return [ConstBit(int(c)) for c in reversed(source.bits)][lo:stop]
    bits: list[BitRef] = []
    for part in reversed(source.parts):  # Concat, MSB first
        bits += operand_bits(part)
    return bits[lo:stop]


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
        if len(op.operands) != ARITY[op.kind]:
            diags.append(
                Diagnostic(
                    f"{op.kind.name.lower()} takes {ARITY[op.kind]} operands, "
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
            if src in defined_ops and graph.op(src).kind is not OpKind.ADD:
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


def bit_deps(graph: DataFlowGraph) -> dict[tuple[str, int], frozenset[BitRef]]:
    """Producer set per (op, result bit).

    Ripple kinds (ADD/SUB) chain each bit on the previous one; glue is
    per-bit transparent, a select's condition feeding every bit;
    MULT/MULT_CORE/LT/MAX/MIN are opaque, every result bit depending on
    every operand bit.  Each operand is resolved once per op.
    """
    deps: dict[tuple[str, int], frozenset[BitRef]] = {}
    for op in graph.ops:
        # None marks a bit with no producer: a constant, or past the
        # operand's top bit.
        operands = [
            [None if isinstance(r, ConstBit) else r for r in operand_bits(opnd)]
            for opnd in op.operands
        ]
        width = op.width
        if op.kind not in _PER_BIT_KINDS:
            whole = frozenset(r for bits in operands for r in bits if r is not None)
            for i in range(width):
                deps[(op.id, i)] = whole
            continue
        if op.kind is OpKind.SELECT:
            operands[0] = operands[0][:1] * width
        ripple = op.kind not in GLUE_KINDS
        columns = zip(*(bits[:width] + [None] * (width - len(bits)) for bits in operands))
        for i, column in enumerate(columns):
            prods = set(column)
            prods.discard(None)
            if ripple and i > 0:
                prods.add(OpBit(op.id, i - 1))
            elif isinstance(op.carry_in, CarryRef):  # only an add takes one
                prods.add(CarryBit(op.carry_in.op))
            deps[(op.id, i)] = frozenset(prods)
    return deps


BitKey = tuple[str, int]  # (op id, result bit); an OpBit is its own key


@dataclass(frozen=True)
class BitView:
    """Bit-level view of one graph, shared read-only by every pass.

    ``producers`` maps each result bit to the keys of the op bits it
    waits on: inputs and constants drop out, a carry-in becomes the MSB
    of the op it comes from.  ``consumers`` is the inverse of
    ``producers``.  ``reads`` maps each bit of a non-glue op to the
    OpBit/CarryBit refs of non-glue ops it reads once glue is looked
    through, less the op's own ripple.  ``producers`` and ``reads`` list
    data bits before carries, each in definition order and then by bit,
    without duplicates; that order is the tie rule of ``critical_path``.
    ``slot`` maps each ref in ``reads`` to its key: an OpBit is its own
    key, and a carry is resolved here once to its op's MSB, so that no
    pass resolves a carry itself.  It lists every read ref once, in that
    same order, which is the order ``cost.stored_bits`` latches them in.
    """

    producers: dict[BitKey, tuple[BitKey, ...]]
    consumers: dict[BitKey, tuple[BitKey, ...]]
    reads: dict[BitKey, tuple[BitRef, ...]]
    slot: dict[BitRef, BitKey]


def _build_bit_view(graph: DataFlowGraph) -> BitView:
    """Passes reach the view through ``graph.bit_view``, built once."""
    deps = bit_deps(graph)
    order = {op.id: k for k, op in enumerate(graph.ops)}

    def rank(ref: OpBit | CarryBit) -> tuple[int, int, int]:
        if isinstance(ref, OpBit):
            return (0, order[ref.op], ref.bit)
        return (1, order[ref.op], 0)

    # The view lives as long as its graph: tuples rather than sets, and
    # one shared key object per bit, keep it small.
    keys = {key: key for key in deps}
    producers: dict[BitKey, tuple[BitKey, ...]] = {}
    consumers: dict[BitKey, list[BitKey]] = {key: [] for key in deps}
    slot: dict[BitRef, BitKey] = {}
    glue_reads: dict[BitKey, dict[BitRef, BitKey]] = {}
    reads: dict[BitKey, tuple[BitRef, ...]] = {}
    for op in graph.ops:
        glue = op.kind in GLUE_KINDS
        for i in range(op.width):
            key = keys[(op.id, i)]
            refs = sorted(
                (r for r in deps[key] if isinstance(r, (OpBit, CarryBit))), key=rank
            )
            slots = [  # an OpBit is its own key; a carry emerges with its op's MSB
                keys[(r.op, graph.op(r.op).width - 1) if isinstance(r, CarryBit) else r]
                for r in refs
            ]
            producers[key] = tuple(dict.fromkeys(slots))
            for p in producers[key]:
                consumers[p].append(key)
            read: dict[BitRef, BitKey] = {}  # each read with its slot
            for r, at in zip(refs, slots):
                if isinstance(r, CarryBit):
                    read[r] = at
                elif at in glue_reads:
                    read.update(glue_reads[at])
                elif r.op != op.id:  # a ripple is not a read
                    read[r] = at
            if glue:
                glue_reads[key] = read
            else:
                reads[key] = tuple(sorted(read, key=rank))
                slot.update(read)
    return BitView(
        producers,
        {key: tuple(users) for key, users in consumers.items()},
        reads,
        {ref: slot[ref] for ref in sorted(slot, key=rank)},
    )
