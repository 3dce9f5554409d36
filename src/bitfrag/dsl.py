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
from dataclasses import dataclass

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

KIND_WORDS = {
    "add": OpKind.ADD,
    "sub": OpKind.SUB,
    "mult": OpKind.MULT,
    "lt": OpKind.LT,
    "max": OpKind.MAX,
    "min": OpKind.MIN,
    "not": OpKind.NOT,
    "select": OpKind.SELECT,
}

# Conventional operand separator written by emit().
KIND_SEP = {
    OpKind.ADD: " + ",
    OpKind.SUB: " - ",
    OpKind.MULT: " * ",
    OpKind.MULT_CORE: " * ",
    OpKind.LT: " < ",
    OpKind.MAX: ", ",
    OpKind.MIN: ", ",
    OpKind.SELECT: ", ",
    OpKind.NOT: "",
}

SEPARATORS = {"+", "-", "*", "<", ","}

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+|\#[^\n]*)
      | (?P<id>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<int>[0-9]+)
      | (?P<punct>[;:=+\-*<,{}\[\]()])
    """,
    re.VERBOSE,
)

_TYPE_RE = re.compile(r"^(u|s)([0-9]+)$")


class ParseError(ValueError):
    def __init__(self, diagnostics: list[Diagnostic]):
        super().__init__("; ".join(str(d) for d in diagnostics))
        self.diagnostics = diagnostics


@dataclass(frozen=True)
class _Token:
    kind: str  # "id", "int", "punct", "eof"
    text: str
    span: SourceSpan


def _lex(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    line = 1
    line_start = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            span = SourceSpan(line, pos - line_start + 1, pos)
            raise ParseError([Diagnostic(f"unexpected character {text[pos]!r}", span=span)])
        if m.lastgroup != "ws":
            span = SourceSpan(line, pos - line_start + 1, pos)
            tokens.append(_Token(m.lastgroup, m.group(), span))
        nl = m.group().count("\n")
        if nl:
            line += nl
            line_start = m.start() + m.group().rindex("\n") + 1
        pos = m.end()
    tokens.append(_Token("eof", "", SourceSpan(line, pos - line_start + 1, pos)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _lex(text)
        self.pos = 0

    @property
    def tok(self) -> _Token:
        return self.tokens[self.pos]

    def _fail(self, message: str) -> None:
        raise ParseError([Diagnostic(message, span=self.tok.span)])

    def advance(self) -> _Token:
        tok = self.tok
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, kind: str, text: str | None = None) -> _Token:
        tok = self.tok
        if tok.kind != kind or (text is not None and tok.text != text):
            want = repr(text) if text is not None else kind
            self._fail(f"expected {want}, found {tok.text!r}")
        return self.advance()

    def at_punct(self, text: str) -> bool:
        return self.tok.kind == "punct" and self.tok.text == text

    def parse_design(self) -> tuple[DataFlowGraph, dict[str, SourceSpan]]:
        self.expect("id", "design")
        name = self.expect("id").text
        self.expect("punct", ";")

        inputs: list[InputPort] = []
        ops: list[Operation] = []
        outputs: list[str] = []
        spans: dict[str, SourceSpan] = {}
        widths: dict[str, int] = {}

        while self.tok.kind != "eof":
            if self.tok.kind != "id":
                self._fail(f"expected declaration, found {self.tok.text!r}")
            if self.tok.text == "input":
                self.advance()
                id_tok = self.expect("id")
                self.expect("punct", ":")
                signed, width = self._parse_type()
                self.expect("punct", ";")
                inputs.append(InputPort(id_tok.text, width, signed))
                spans.setdefault(id_tok.text, id_tok.span)
                widths[id_tok.text] = width
            elif self.tok.text == "output":
                self.advance()
                id_tok = self.expect("id")
                self.expect("punct", ";")
                outputs.append(id_tok.text)
            else:
                op = self._parse_opdef(spans, widths)
                ops.append(op)
                widths[op.id] = op.width

        graph = DataFlowGraph(name, tuple(inputs), tuple(ops), tuple(outputs))
        return graph, spans

    def _parse_type(self) -> tuple[bool, int]:
        tok = self.expect("id")
        m = _TYPE_RE.match(tok.text)
        if m is None or int(m.group(2)) == 0:
            raise ParseError(
                [Diagnostic(f"expected a type like u16 or s8, found {tok.text!r}", span=tok.span)]
            )
        return m.group(1) == "s", int(m.group(2))

    def _parse_opdef(self, spans: dict[str, SourceSpan], widths: dict[str, int]) -> Operation:
        id_tok = self.expect("id")
        spans.setdefault(id_tok.text, id_tok.span)
        self.expect("punct", ":")
        kind_tok = self.expect("id")
        kind = KIND_WORDS.get(kind_tok.text)
        if kind is None:
            raise ParseError(
                [Diagnostic(f"unknown operation kind {kind_tok.text!r}", span=kind_tok.span)]
            )
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
                raise ParseError(
                    [Diagnostic(f"expected carry source, found {tok.text!r}", span=tok.span)]
                )
            self.expect("punct", ")")

        self.expect("punct", "=")
        operands = [self._parse_operand(widths)]
        while self.tok.kind == "punct" and self.tok.text in SEPARATORS:
            self.advance()
            operands.append(self._parse_operand(widths))
        self.expect("punct", ";")
        return Operation(id_tok.text, kind, width, signed, tuple(operands), carry)

    def _parse_operand(self, widths: dict[str, int]) -> Operand:
        if self.at_punct("{"):
            self.advance()
            parts = [self._parse_term(widths)]
            while self.at_punct(","):
                self.advance()
                parts.append(self._parse_term(widths))
            self.expect("punct", "}")
            cat = Concat(tuple(parts))
            return Operand(cat, cat.width - 1, 0)
        return self._parse_term(widths)

    def _parse_term(self, widths: dict[str, int]) -> Operand:
        source: Source
        if self.tok.kind == "id" and self.tok.text == "const":
            self.advance()
            self.expect("punct", "(")
            bits_tok = self.advance()
            if bits_tok.kind != "int" or any(c not in "01" for c in bits_tok.text):
                raise ParseError(
                    [Diagnostic(f"expected binary digits, found {bits_tok.text!r}",
                                span=bits_tok.span)]
                )
            self.expect("punct", ")")
            source = Const(bits_tok.text)
            default_width = len(bits_tok.text)
        else:
            id_tok = self.expect("id")
            if id_tok.text in widths:
                default_width = widths[id_tok.text]
            else:
                # Unknown name: let validate() report it with context.
                default_width = 1
            source = InputRef(id_tok.text)  # repaired to ResultRef below
        if self.at_punct("["):
            self.advance()
            hi = int(self.expect("int").text)
            self.expect("punct", ":")
            lo = int(self.expect("int").text)
            self.expect("punct", "]")
        else:
            hi, lo = default_width - 1, 0
        return Operand(source, hi, lo)


def _fix_name_refs(graph: DataFlowGraph) -> DataFlowGraph:
    """The parser reads every name as an input reference; rewrite the
    ones that name operations."""
    op_ids = {op.id for op in graph.ops}

    def fix_operand(opnd: Operand) -> Operand:
        src = opnd.source
        if isinstance(src, InputRef) and src.name in op_ids:
            return Operand(ResultRef(src.name), opnd.hi, opnd.lo)
        if isinstance(src, Concat):
            return Operand(
                Concat(tuple(fix_operand(p) for p in src.parts)), opnd.hi, opnd.lo
            )
        return opnd

    ops = tuple(
        Operation(
            op.id,
            op.kind,
            op.width,
            op.signed,
            tuple(fix_operand(o) for o in op.operands),
            op.carry_in,
        )
        for op in graph.ops
    )
    return DataFlowGraph(graph.name, graph.inputs, ops, graph.outputs)


def parse(text: str) -> DataFlowGraph:
    """Parse and validate a design; raises ParseError on any problem."""
    graph, spans = _Parser(text).parse_design()
    graph = _fix_name_refs(graph)
    diags = validate(graph)
    if diags:
        located = [
            Diagnostic(d.message, d.where, d.span or spans.get(d.where)) for d in diags
        ]
        raise ParseError(located)
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
        word = "mult" if op.kind is OpKind.MULT_CORE else op.kind.name.lower()
        sign = "s" if op.signed else "u"
        carry = ""
        if isinstance(op.carry_in, CarryRef):
            carry = f" carry({op.carry_in.op})"
        elif op.carry_in is not None:
            carry = f" carry({op.carry_in})"
        body = KIND_SEP[op.kind].join(_emit_operand(graph, o) for o in op.operands)
        lines.append(f"{op.id}: {word} {sign}{op.width}{carry} = {body};")
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
