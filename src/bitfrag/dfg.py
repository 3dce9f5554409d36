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
* ADD exposes a 1-bit carry-out which other operations may consume via
  a carry reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, auto
from functools import cached_property
from typing import Union


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
    """The 1-bit carry-out of an ADD operation."""

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


Source = Union[InputRef, ResultRef, CarryRef, Const, Concat]


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


@dataclass(frozen=True)
class InputBit:
    name: str
    bit: int


@dataclass(frozen=True)
class OpBit:
    op: str
    bit: int


@dataclass(frozen=True)
class CarryBit:
    """Carry-out of an ADD; emerges with the MSB sum bit."""

    op: str


@dataclass(frozen=True)
class ConstBit:
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
    if isinstance(source, CarryRef):
        return 1
    return source.width  # Const, Concat


def full_operand(graph: DataFlowGraph, source: Source) -> Operand:
    return Operand(source, source_width(graph, source) - 1, 0)


def resolve_operand_bit(graph: DataFlowGraph, operand: Operand, k: int) -> BitRef:
    """The bit feeding position ``k`` of a consumer, after slice and
    zero-extension.  Constant and out-of-range bits come back as
    ConstBit."""
    if k > operand.hi - operand.lo:
        return ZERO_BIT
    return _resolve_source_bit(graph, operand.source, operand.lo + k)


def _resolve_source_bit(graph: DataFlowGraph, source: Source, k: int) -> BitRef:
    if isinstance(source, InputRef):
        return InputBit(source.name, k)
    if isinstance(source, ResultRef):
        return OpBit(source.op, k)
    if isinstance(source, CarryRef):
        return CarryBit(source.op) if k == 0 else ZERO_BIT
    if isinstance(source, Const):
        # bits string is MSB first
        return ConstBit(int(source.bits[len(source.bits) - 1 - k]))
    # Concat: index from the LSB end of the part list
    for part in reversed(source.parts):
        if k < part.width:
            return resolve_operand_bit(graph, part, k)
        k -= part.width
    return ZERO_BIT


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

    def check_source(src: Source, where: str) -> None:
        if isinstance(src, InputRef):
            check_ref(src.name, where)
        elif isinstance(src, ResultRef):
            check_ref(src.op, where)
        elif isinstance(src, CarryRef):
            check_ref(src.op, where)
            if src.op in defined_ops and graph.op(src.op).kind is not OpKind.ADD:
                diags.append(Diagnostic(f"carry source {src.op} is not an add", where))
        elif isinstance(src, Const):
            if not src.bits or any(c not in "01" for c in src.bits):
                diags.append(Diagnostic(f"malformed constant {src.bits!r}", where))
        else:
            for part in src.parts:
                check_operand(part, where)

    def check_operand(opnd: Operand, where: str) -> None:
        check_source(opnd.source, where)
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
            check_ref(op.carry_in.op, op.id)
            if op.carry_in.op in defined_ops and graph.op(op.carry_in.op).kind is not OpKind.ADD:
                diags.append(Diagnostic(f"carry source {op.carry_in.op} is not an add", op.id))
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


def topo_order(graph: DataFlowGraph) -> tuple[str, ...]:
    """Operation ids such that every op follows all ops it references.

    Definition order already has this property on validated graphs; it
    is returned as-is so downstream passes share one canonical order.
    """
    return tuple(op.id for op in graph.ops)


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


def operand_bit_producers(graph: DataFlowGraph, operand: Operand, k: int) -> list[BitRef]:
    ref = resolve_operand_bit(graph, operand, k)
    return [] if isinstance(ref, ConstBit) else [ref]


def bit_deps(graph: DataFlowGraph) -> dict[tuple[str, int], frozenset[BitRef]]:
    """Producer set per (op, result bit).

    Ripple kinds (ADD/SUB) chain each bit on the previous one; glue is
    per-bit transparent; MULT/MULT_CORE/LT/MAX/MIN are opaque, every
    result bit depending on every operand bit.
    """
    deps: dict[tuple[str, int], frozenset[BitRef]] = {}
    for op in graph.ops:
        if op.kind in (OpKind.ADD, OpKind.SUB):
            for i in range(op.width):
                prods: list[BitRef] = []
                for opnd in op.operands:
                    prods += operand_bit_producers(graph, opnd, i)
                if i > 0:
                    prods.append(OpBit(op.id, i - 1))
                elif isinstance(op.carry_in, CarryRef):
                    prods.append(CarryBit(op.carry_in.op))
                deps[(op.id, i)] = frozenset(prods)
        elif op.kind is OpKind.NOT:
            for i in range(op.width):
                deps[(op.id, i)] = frozenset(
                    operand_bit_producers(graph, op.operands[0], i)
                )
        elif op.kind is OpKind.SELECT:
            cond = op.operands[0]
            for i in range(op.width):
                prods = operand_bit_producers(graph, cond, 0)
                for opnd in op.operands[1:]:
                    prods += operand_bit_producers(graph, opnd, i)
                deps[(op.id, i)] = frozenset(prods)
        else:
            prods = []
            for opnd in op.operands:
                for k in range(opnd.width):
                    prods += operand_bit_producers(graph, opnd, k)
            whole = frozenset(prods)
            for i in range(op.width):
                deps[(op.id, i)] = whole
    return deps


BitKey = tuple[str, int]  # (op id, result bit)


def bit_key(graph: DataFlowGraph, ref: OpBit | CarryBit) -> BitKey:
    """Table key of an op-produced bit; a carry emerges with its op's MSB."""
    if isinstance(ref, CarryBit):
        return (ref.op, graph.op(ref.op).width - 1)
    return (ref.op, ref.bit)


@dataclass(frozen=True)
class BitView:
    """Bit-level view of one graph, shared read-only by every pass.

    ``deps`` is ``bit_deps(graph)``.  ``producers`` maps each result bit
    to the keys of the op bits it waits on: inputs and constants drop
    out, a carry becomes its op's MSB.  ``consumers`` is the inverse of
    ``producers``.  ``reads`` maps each bit of a non-glue op to the
    OpBit/CarryBit refs of non-glue ops it reads once glue is looked
    through, less the op's own ripple.
    """

    deps: dict[BitKey, frozenset[BitRef]]
    producers: dict[BitKey, tuple[BitKey, ...]]
    consumers: dict[BitKey, tuple[BitKey, ...]]
    reads: dict[BitKey, tuple[BitRef, ...]]


def _build_bit_view(graph: DataFlowGraph) -> BitView:
    """Passes reach the view through ``graph.bit_view``, built once."""
    deps = bit_deps(graph)
    # The view lives as long as its graph: tuples rather than sets, and
    # one shared key object per bit, keep it about the size of ``deps``.
    keys = {key: key for key in deps}
    producers: dict[BitKey, tuple[BitKey, ...]] = {}
    consumers: dict[BitKey, list[BitKey]] = {key: [] for key in deps}
    glue_reads: dict[BitKey, set[BitRef]] = {}
    reads: dict[BitKey, tuple[BitRef, ...]] = {}
    for op in graph.ops:
        glue = op.kind in GLUE_KINDS
        for i in range(op.width):
            key = keys[(op.id, i)]
            refs = [r for r in deps[key] if isinstance(r, (OpBit, CarryBit))]
            producers[key] = tuple({keys[bit_key(graph, r)] for r in refs})
            for p in producers[key]:
                consumers[p].append(key)
            read: set[BitRef] = set()
            for r in refs:
                if isinstance(r, CarryBit):
                    read.add(r)
                elif (r.op, r.bit) in glue_reads:
                    read |= glue_reads[(r.op, r.bit)]
                elif r.op != op.id:  # a ripple is not a read
                    read.add(r)
            if glue:
                glue_reads[key] = read
            else:
                reads[key] = tuple(read)
    return BitView(
        deps,
        producers,
        {key: tuple(users) for key, users in consumers.items()},
        reads,
    )
