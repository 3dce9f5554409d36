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
is left for ``validate`` to report.  Tokens keep only their offset; an
offset becomes a line and column only when a diagnostic is raised.

Concat braces list terms MSB first.  Separator symbols are
interchangeable; the emitter writes the conventional one for each kind.
``mult`` with an unsigned type denotes the opaque unsigned multiplier
core; with a signed type it is the two's-complement multiply that
kernel extraction decomposes.

A ``carry(ID)`` clause names the add whose carry-out is this add's
carry-in.  That is the only way to read a carry: it is never a data
operand, and ``validate`` rejects a graph that uses one as such.
"""

from __future__ import annotations

import re
from typing import NamedTuple, NoReturn

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

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+|\#[^\n]*)
      | (?P<id>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<int>[0-9]+)
      | (?P<punct>[;:=+\-*<,{}\[\]()])
      | (?P<bad>.)
    """,
    re.VERBOSE,
)

_TYPE_RE = re.compile(r"^(u|s)([0-9]+)$")


class ParseError(ValueError):
    def __init__(self, diagnostics: list[Diagnostic]):
        super().__init__("; ".join(str(d) for d in diagnostics))
        self.diagnostics = diagnostics


class _Token(NamedTuple):
    kind: str  # "id", "int", "punct", "bad", "eof"
    text: str
    offset: int


def _lex(text: str) -> list[_Token]:
    tokens = [
        _Token(m.lastgroup, m.group(), m.start())
        for m in _TOKEN_RE.finditer(text)
        if m.lastgroup != "ws"
    ]
    tokens.append(_Token("eof", "", len(text)))
    return tokens


def _span(text: str, offset: int) -> SourceSpan:
    line_start = text.rfind("\n", 0, offset) + 1
    return SourceSpan(text.count("\n", 0, offset) + 1, offset - line_start + 1, offset)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _lex(text)
        self.pos = 0
        for tok in self.tokens:
            if tok.kind == "bad":
                self._fail(f"unexpected character {tok.text!r}", tok)
        # Each name declared so far: its source and width (the latest
        # declaration), and the offset of its first declaration.
        self.refs: dict[str, tuple[Source, int]] = {}
        self.offsets: dict[str, int] = {}
        # Each output statement's name and its offset, in order.
        self.outputs: list[tuple[str, int]] = []

    @property
    def tok(self) -> _Token:
        return self.tokens[self.pos]

    def _fail(self, message: str, tok: _Token) -> NoReturn:
        raise ParseError([Diagnostic(message, span=_span(self.text, tok.offset))])

    def advance(self) -> _Token:
        tok = self.tok
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, kind: str, text: str | None = None) -> _Token:
        tok = self.tok
        if tok.kind != kind or (text is not None and tok.text != text):
            want = repr(text) if text is not None else kind
            self._fail(f"expected {want}, found {tok.text!r}", tok)
        return self.advance()

    def at_punct(self, text: str) -> bool:
        return self.tok.kind == "punct" and self.tok.text == text

    def parse_design(self) -> DataFlowGraph:
        self.expect("id", "design")
        name = self.expect("id").text
        self.expect("punct", ";")

        inputs: list[InputPort] = []
        ops: list[Operation] = []
        outputs: list[str] = []

        while self.tok.kind != "eof":
            if self.tok.kind != "id":
                self._fail(f"expected declaration, found {self.tok.text!r}", self.tok)
            if self.tok.text == "input":
                self.advance()
                id_tok = self.expect("id")
                self.offsets.setdefault(id_tok.text, id_tok.offset)
                self.expect("punct", ":")
                signed, width = self._parse_type()
                self.expect("punct", ";")
                inputs.append(InputPort(id_tok.text, width, signed))
                self.refs[id_tok.text] = (InputRef(id_tok.text), width)
            elif self.tok.text == "output":
                self.advance()
                id_tok = self.expect("id")
                outputs.append(id_tok.text)
                self.outputs.append((id_tok.text, id_tok.offset))
                self.expect("punct", ";")
            else:
                op = self._parse_opdef()
                ops.append(op)
                self.refs[op.id] = (ResultRef(op.id), op.width)

        return DataFlowGraph(name, tuple(inputs), tuple(ops), tuple(outputs))

    def _parse_type(self) -> tuple[bool, int]:
        tok = self.expect("id")
        m = _TYPE_RE.match(tok.text)
        if m is None or int(m.group(2)) == 0:
            self._fail(f"expected a type like u16 or s8, found {tok.text!r}", tok)
        return m.group(1) == "s", int(m.group(2))

    def _parse_opdef(self) -> Operation:
        id_tok = self.expect("id")
        self.offsets.setdefault(id_tok.text, id_tok.offset)
        self.expect("punct", ":")
        kind_tok = self.expect("id")
        kind = KIND_WORDS.get(kind_tok.text)
        if kind is None:
            self._fail(f"unknown operation kind {kind_tok.text!r}", kind_tok)
        signed, width = self._parse_type()
        if kind is OpKind.MULT and not signed:
            kind = OpKind.MULT_CORE

        carry = None
        if self.tok.kind == "id" and self.tok.text == "carry":
            self.advance()
            self.expect("punct", "(")
            tok = self.advance()
            if tok.kind == "int" and tok.text in ("0", "1"):
                carry = int(tok.text)
            elif tok.kind == "id":
                carry = CarryRef(tok.text)
            else:
                self._fail(f"expected carry source, found {tok.text!r}", tok)
            self.expect("punct", ")")

        self.expect("punct", "=")
        operands = [self._parse_operand()]
        while self.tok.kind == "punct" and self.tok.text in SEPARATORS:
            self.advance()
            operands.append(self._parse_operand())
        self.expect("punct", ";")
        return Operation(id_tok.text, kind, width, signed, tuple(operands), carry)

    def _parse_operand(self) -> Operand:
        if self.at_punct("{"):
            self.advance()
            parts = [self._parse_term()]
            while self.at_punct(","):
                self.advance()
                parts.append(self._parse_term())
            self.expect("punct", "}")
            cat = Concat(tuple(parts))
            return Operand(cat, cat.width - 1, 0)
        return self._parse_term()

    def _parse_term(self) -> Operand:
        source: Source
        if self.tok.kind == "id" and self.tok.text == "const":
            self.advance()
            self.expect("punct", "(")
            bits_tok = self.advance()
            if bits_tok.kind != "int" or any(c not in "01" for c in bits_tok.text):
                self._fail(f"expected binary digits, found {bits_tok.text!r}", bits_tok)
            self.expect("punct", ")")
            source = Const(bits_tok.text)
            default_width = len(bits_tok.text)
        else:
            name = self.expect("id").text
            # Not declared yet: let validate() report it with context.
            source, default_width = self.refs.get(name, (InputRef(name), 1))
        if self.at_punct("["):
            self.advance()
            hi = int(self.expect("int").text)
            self.expect("punct", ":")
            lo = int(self.expect("int").text)
            self.expect("punct", "]")
        else:
            hi, lo = default_width - 1, 0
        return Operand(source, hi, lo)


def parse(text: str) -> DataFlowGraph:
    """Parse and validate a design; raises ParseError on any problem."""
    parser = _Parser(text)
    graph = parser.parse_design()
    diags = validate(graph)
    if diags:
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
            return Diagnostic(d.message, d.where, None if at is None else _span(text, at))

        raise ParseError([located(d) for d in diags])
    return graph


# Emission


def _emit_term(graph: DataFlowGraph, opnd: Operand) -> str:
    src = opnd.source
    if isinstance(src, InputRef):
        base, full = src.name, graph.input_port(src.name).width
    elif isinstance(src, ResultRef):
        base, full = src.op, graph.op(src.op).width
    elif isinstance(src, Const):
        base, full = f"const({src.bits})", len(src.bits)
    else:
        raise ValueError("nested concat cannot be emitted as a term")
    if (opnd.hi, opnd.lo) == (full - 1, 0):
        return base
    return f"{base}[{opnd.hi}:{opnd.lo}]"


def _emit_operand(graph: DataFlowGraph, opnd: Operand) -> str:
    if isinstance(opnd.source, Concat):
        if (opnd.hi, opnd.lo) != (opnd.source.width - 1, 0):
            raise ValueError("sliced concat operands have no DSL syntax")
        return "{" + ", ".join(_emit_term(graph, p) for p in opnd.source.parts) + "}"
    return _emit_term(graph, opnd)


def emit(graph: DataFlowGraph) -> str:
    """Canonical text for a validated graph; parse(emit(g)) == g."""
    lines = [f"design {graph.name};", ""]
    for port in graph.inputs:
        sign = "s" if port.signed else "u"
        lines.append(f"input {port.name} : {sign}{port.width};")
    if graph.inputs:
        lines.append("")
    for op in graph.ops:
        sign = "s" if op.signed else "u"
        carry = ""
        if isinstance(op.carry_in, CarryRef):
            carry = f" carry({op.carry_in.op})"
        elif op.carry_in is not None:
            carry = f" carry({op.carry_in})"
        body = op.kind.sep.join(_emit_operand(graph, o) for o in op.operands)
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
