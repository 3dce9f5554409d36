"""Textual design language: parser, canonical emitter, DOT export.

Grammar (whitespace and ``#`` line comments are skipped):

    design   := "design" ID ";" decl*
    decl     := input | opdef | output
    input    := "input" ID ":" type ";"
    output   := "output" ID ";"
    opdef    := ID ":" kind type [carry] "=" expr ";"
    kind     := "add" | "sub" | "mult" | "lt" | "max" | "min"
              | "not" | "select"
    type     := ("u" | "s") INT
    carry    := "carry" "(" (ID | "0" | "1") ")"
    expr     := operand (SEP operand)*        SEP one of +  -  *  <  ,
    operand  := term | "{" term ("," term)* "}"
    term     := (ID | "const" "(" BITS ")") ["[" INT ":" INT "]"]

A design is read in one pass: each name resolves, as it is read, to the
input or operation declared so far under it.  A name not declared yet
is left for ``validate`` to report.  Tokens are strings; offsets are
computed only for a diagnostic, and become a line and column there.

Concat braces list terms MSB first.  Separator symbols are
interchangeable; the emitter writes the conventional one for each kind.
``mult`` with an unsigned type denotes the opaque unsigned multiplier
core; with a signed type it is the two's-complement multiply that
kernel extraction turns into the same core over sign-extended factors.

A ``carry(ID)`` clause names the add whose carry-out is this add's
carry-in.  That is the only way to read a carry: it is never a data
operand, and ``validate`` rejects a graph that uses one as such.
"""

from __future__ import annotations

import re
from typing import NoReturn

from .dfg import (
    CarryRef,
    Concat,
    Const,
    DataFlowGraph,
    Diagnostic,
    InputPort,
    InputRef,
    OpKind,
    Operand,
    Operation,
    ResultRef,
    Source,
    SourceSpan,
    validate,
)

KIND_WORDS = {kind.word: kind for kind in OpKind if kind is not OpKind.MULT_CORE}

SEPARATORS = {"+", "-", "*", "<", ","}

# Whitespace and comments match with the group empty.  A token's first
# character tells its kind: an id starts with a letter or ``_``, an int
# with a digit, and any other character but punctuation is unexpected.
_LEX_RE = re.compile(r"\s+|#[^\n]*|([A-Za-z_][A-Za-z0-9_]*|[0-9]+|[;:=+\-*<,{}\[\]()]|.)")
_ID_START = frozenset("_abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")
_DIGITS = frozenset("0123456789")
_KNOWN = _ID_START | _DIGITS | frozenset(";:=+-*<,{}[]()")

_TYPE_RE = re.compile(r"^(u|s)([0-9]+)$")


class ParseError(ValueError):
    def __init__(self, diagnostics: list[Diagnostic]):
        super().__init__("; ".join(str(d) for d in diagnostics))
        self.diagnostics = diagnostics


def _lex(text: str) -> list[str]:
    """Every token of ``text``, in order."""
    return [tok for tok in _LEX_RE.findall(text) if tok]


def _token_starts(text: str) -> list[int]:
    """The offset of every token, then of the end of text."""
    return [m.start() for m in _LEX_RE.finditer(text) if m.lastindex] + [len(text)]


def _span(text: str, offset: int) -> SourceSpan:
    line_start = text.rfind("\n", 0, offset) + 1
    return SourceSpan(text.count("\n", 0, offset) + 1, offset - line_start + 1)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = tokens = _lex(text)
        # Only a one-character token can be unexpected, so each distinct
        # token is tested once; the first in the text is reported.
        bad = [t for t in set(tokens) if t[0] not in _KNOWN]
        if bad:
            at = min(map(tokens.index, bad))
            self._fail(f"unexpected character {tokens[at]!r}", at)
        tokens.append("")  # the end of text
        self.pos = 0
        # Each name declared so far: its source and width (the latest
        # declaration), and the token index of its first declaration.
        self.refs: dict[str, tuple[Source, int]] = {}
        self.offsets: dict[str, int] = {}
        # Each output statement's name and its token index, in order.
        self.outputs: list[tuple[str, int]] = []

    def _fail(self, message: str, at: int | None = None) -> NoReturn:
        """Raise ``message`` at token ``at``, by default the current one."""
        offset = _token_starts(self.text)[self.pos if at is None else at]
        raise ParseError([Diagnostic(message, span=_span(self.text, offset))])

    def expect(self, text: str) -> None:
        tok = self.tokens[self.pos]
        if tok != text:
            self._fail(f"expected {text!r}, found {tok!r}")
        self.pos += 1

    def take(self, first: frozenset[str] = _ID_START, kind: str = "id") -> str:
        """Move past the current token, which must start with a
        character in ``first``, and return it."""
        tok = self.tokens[self.pos]
        if tok[:1] not in first:
            self._fail(f"expected {kind}, found {tok!r}")
        self.pos += 1
        return tok

    def parse_design(self) -> DataFlowGraph:
        self.expect("design")
        name = self.take()
        self.expect(";")

        inputs: list[InputPort] = []
        ops: list[Operation] = []
        outputs: list[str] = []

        tokens = self.tokens
        while tok := tokens[self.pos]:
            if tok[0] not in _ID_START:
                self._fail(f"expected declaration, found {tok!r}")
            if tok == "input":
                self.pos += 1
                self.offsets.setdefault(tokens[self.pos], self.pos)
                port = self.take()
                self.expect(":")
                signed, width = self._parse_type()
                self.expect(";")
                inputs.append(InputPort(port, width, signed))
                self.refs[port] = (InputRef(port), width)
            elif tok == "output":
                self.pos += 1
                self.outputs.append((tokens[self.pos], self.pos))
                outputs.append(self.take())
                self.expect(";")
            else:
                op = self._parse_opdef()
                ops.append(op)
                self.refs[op.id] = (ResultRef(op.id), op.width)

        return DataFlowGraph(name, tuple(inputs), tuple(ops), tuple(outputs))

    def _parse_type(self) -> tuple[bool, int]:
        tok = self.take()
        m = _TYPE_RE.match(tok)
        if m is None or int(m.group(2)) == 0:
            self._fail(f"expected a type like u16 or s8, found {tok!r}", self.pos - 1)
        return m.group(1) == "s", int(m.group(2))

    def _parse_opdef(self) -> Operation:
        tokens = self.tokens
        self.offsets.setdefault(tokens[self.pos], self.pos)
        op_id = self.take()
        self.expect(":")
        kind = KIND_WORDS.get(tokens[self.pos])
        word = self.take()
        if kind is None:
            self._fail(f"unknown operation kind {word!r}", self.pos - 1)
        signed, width = self._parse_type()
        if kind is OpKind.MULT and not signed:
            kind = OpKind.MULT_CORE

        carry = None
        if tokens[self.pos] == "carry":
            self.pos += 1
            self.expect("(")
            tok = tokens[self.pos]
            if tok in ("0", "1"):
                carry = int(tok)
            elif tok[:1] in _ID_START:
                carry = CarryRef(tok)
            else:
                self._fail(f"expected carry source, found {tok!r}")
            self.pos += 1
            self.expect(")")

        self.expect("=")
        operands = [self._parse_operand()]
        while tokens[self.pos] in SEPARATORS:
            self.pos += 1
            operands.append(self._parse_operand())
        self.expect(";")
        return Operation(op_id, kind, width, signed, tuple(operands), carry)

    def _parse_operand(self) -> Operand:
        if self.tokens[self.pos] == "{":
            self.pos += 1
            parts = [self._parse_term()]
            while self.tokens[self.pos] == ",":
                self.pos += 1
                parts.append(self._parse_term())
            self.expect("}")
            cat = Concat(tuple(parts))
            return Operand(cat, cat.width - 1, 0)
        return self._parse_term()

    def _parse_term(self) -> Operand:
        tokens = self.tokens
        source: Source
        if tokens[self.pos] == "const":
            self.pos += 1
            self.expect("(")
            bits = tokens[self.pos]
            if bits[:1] not in _DIGITS or bits.strip("01"):
                self._fail(f"expected binary digits, found {bits!r}")
            self.pos += 1
            self.expect(")")
            source = Const(bits)
            default_width = len(bits)
        else:
            name = self.take()
            # Not declared yet: let validate() report it with context.
            source, default_width = self.refs.get(name, (InputRef(name), 1))
        if tokens[self.pos] == "[":
            self.pos += 1
            hi = int(self.take(_DIGITS, "int"))
            self.expect(":")
            lo = int(self.take(_DIGITS, "int"))
            self.expect("]")
        else:
            hi, lo = default_width - 1, 0
        return Operand(source, hi, lo)


def parse(text: str) -> DataFlowGraph:
    """Parse and validate a design; raises ParseError on any problem."""
    parser = _Parser(text)
    graph = parser.parse_design()
    diags = validate(graph)
    if diags:
        starts = _token_starts(text)
        offsets = parser.offsets
        # validate reports an output naming nothing declared at "output",
        # one per statement and in order; each goes at its statement's
        # name, never at a declaration that happens to be named output.
        undefined = iter(at for name, at in parser.outputs if name not in offsets)

        def located(d: Diagnostic) -> Diagnostic:
            if d.where == "output" and d.message.startswith("undefined reference "):
                at = next(undefined)
            else:
                at = offsets.get(d.where)
            return Diagnostic(d.message, d.where, None if at is None else _span(text, starts[at]))

        raise ParseError([located(d) for d in diags])
    return graph


# Emission


def _emit_term(width_of: dict[str, int], opnd: Operand) -> str:
    src = opnd.source
    kind = type(src)
    if kind is ResultRef or kind is InputRef:
        base = src.op if kind is ResultRef else src.name
        full = width_of[base]
    elif kind is Const:
        base, full = f"const({src.bits})", len(src.bits)
    else:
        raise ValueError("nested concat cannot be emitted as a term")
    if opnd.hi == full - 1 and opnd.lo == 0:
        return base
    return f"{base}[{opnd.hi}:{opnd.lo}]"


def _emit_operand(width_of: dict[str, int], opnd: Operand) -> str:
    src = opnd.source
    if type(src) is Concat:
        if opnd.hi != src.width - 1 or opnd.lo != 0:
            raise ValueError("sliced concat operands have no DSL syntax")
        return "{" + ", ".join([_emit_term(width_of, p) for p in src.parts]) + "}"
    return _emit_term(width_of, opnd)


def emit(graph: DataFlowGraph) -> str:
    """Canonical text for a validated graph; parse(emit(g)) == g.

    Every input and op width is looked up in one table by name, built
    once per call.  Raises ValueError for a concat nested in a concat
    or a sliced concat operand, which the grammar cannot write."""
    width_of = {port.name: port.width for port in graph.inputs}
    width_of.update([(op.id, op.width) for op in graph.ops])
    lines = [f"design {graph.name};", ""]
    for port in graph.inputs:
        sign = "s" if port.signed else "u"
        lines.append(f"input {port.name} : {sign}{port.width};")
    if graph.inputs:
        lines.append("")
    for op in graph.ops:
        sign = "s" if op.signed else "u"
        carry_in = op.carry_in
        if carry_in is None:
            carry = ""
        elif type(carry_in) is CarryRef:
            carry = f" carry({carry_in.op})"
        else:
            carry = f" carry({carry_in})"
        body = op.kind.sep.join([_emit_operand(width_of, o) for o in op.operands])
        lines.append(f"{op.id}: {op.kind.word} {sign}{op.width}{carry} = {body};")
    if graph.ops:
        lines.append("")
    for name in graph.outputs:
        lines.append(f"output {name};")
    return "\n".join(lines).rstrip("\n") + "\n"


def emit_dot(graph: DataFlowGraph) -> str:
    """GraphViz rendering: one node per operation, one edge per
    operation-to-operation operand reference, labeled with the slice."""
    lines = [f'digraph "{graph.name}" {{', "  rankdir=TB;"]
    for op in graph.ops:
        label = f"{op.id}\\n{op.kind.name.lower()} {op.width}"
        lines.append(f'  "{op.id}" [shape=box, label="{label}"];')

    def operand_edges(op: Operation, opnd: Operand) -> list[str]:
        out = []
        src = opnd.source
        if isinstance(src, Concat):
            for part in src.parts:
                out += operand_edges(op, part)
        elif isinstance(src, ResultRef):
            out.append(f'  "{src.op}" -> "{op.id}" [label="[{opnd.hi}:{opnd.lo}]"];')
        return out

    for op in graph.ops:
        for opnd in op.operands:
            lines += operand_edges(op, opnd)
        if isinstance(op.carry_in, CarryRef):
            lines.append(
                f'  "{op.carry_in.op}" -> "{op.id}" [label="carry", style=dashed];'
            )
    lines.append("}")
    return "\n".join(lines) + "\n"
