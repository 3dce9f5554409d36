"""Design-language round trips, diagnostics, and export."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitfrag import ParseError, emit, emit_dot, parse
from bitfrag.dfg import (
    CarryRef,
    Concat,
    Const,
    DataFlowGraph,
    InputPort,
    InputRef,
    Operand,
    Operation,
    OpKind,
    ResultRef,
    ValidationError,
    validate,
)
from conftest import (
    DESIGN_DIR,
    MIXED_SOURCE,
    SAT_SOURCE,
    load_design,
    random_add_design,
    random_full_design,
)


@pytest.mark.parametrize("name", ["sec2", "fig3", "elliptic", "diffeq"])
def test_bundled_designs_round_trip(name):
    g = load_design(name)
    assert parse(emit(g)) == g


@pytest.mark.parametrize("source", [SAT_SOURCE, MIXED_SOURCE])
def test_inline_fixtures_round_trip(source):
    g = parse(source)
    assert parse(emit(g)) == g


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_generated_designs_round_trip(seed):
    for g in (random_add_design(seed), random_full_design(seed)):
        assert parse(emit(g)) == g


def test_separators_are_interchangeable():
    base = "design d;\ninput A : u4;\ninput B : u4;\nX: add u4 = A {} B;\noutput X;\n"
    graphs = [parse(base.format(sep)) for sep in ["+", "-", "*", "<", ","]]
    assert all(g == graphs[0] for g in graphs)


def test_emit_writes_conventional_separators():
    text = emit(parse("design d;\ninput A : u4;\nX: add u4 = A, A;\noutput X;"))
    assert "X: add u4 = A + A;" in text
    text = emit(parse("design d;\ninput A : u4;\nY: max u4 = A + A;\noutput Y;"))
    assert "Y: max u4 = A, A;" in text


def test_mult_type_selects_core_or_signed():
    g = parse(
        "design d;\ninput A : u4;\nU: mult u8 = A * A;\nS: mult s8 = A * A;\n"
        "output U; output S;"
    )
    assert g.op("U").kind is OpKind.MULT_CORE and not g.op("U").signed
    assert g.op("S").kind is OpKind.MULT and g.op("S").signed
    # Both print back as the one surface word.
    text = emit(g)
    assert "U: mult u8" in text and "S: mult s8" in text


def test_terms_slices_consts_concat_carry():
    g = parse(
        """
        # leading comment
        design terms;
        input A : u4;  # trailing comment
        input B : u2;
        X: add u4 carry(1) = A[2:1] + const(101);
        Y: add u6 carry(X) = {A, B} + const(000001);
        Z: select u2 = X[0:0], B, A[1:0];
        output Y; output Z;
        """
    )
    x = g.op("X")
    assert x.operands[0] == Operand(InputRef("A"), 2, 1)
    assert x.operands[1] == Operand(Const("101"), 2, 0)
    assert x.carry_in == 1
    y = g.op("Y")
    assert y.carry_in == CarryRef("X")
    cat = y.operands[0].source
    assert isinstance(cat, Concat)
    # Concat braces list parts MSB first.
    assert cat.parts == (Operand(InputRef("A"), 3, 0), Operand(InputRef("B"), 1, 0))
    assert parse(emit(g)) == g


def test_emit_omits_full_width_slices():
    text = emit(
        parse("design d;\ninput A : u4;\nX: add u4 = A[3:0] + A[2:0];\noutput X;")
    )
    assert "A + A[2:0]" in text


@pytest.mark.parametrize(
    "source, line, column, message",
    [
        ("design d\ninput A : u4;", 2, 1, "expected ';', found 'input'"),
        ("design d;\ninput A : q4;\nX: add u4 = A + A;\noutput X;",
         2, 11, "expected a type like u16 or s8, found 'q4'"),
        ("design d;\ninput A : u4;\nX: frob u4 = A + A;\noutput X;",
         3, 4, "unknown operation kind 'frob'"),
        ("design d;\ninput A : u4;\nX: add u4 = A + @;\noutput X;",
         3, 17, "unexpected character '@'"),
        ("design d;\ninput A : u4;\nX: add u4 = A + ghost;\noutput X;",
         3, 1, "X: undefined reference ghost"),
        ("design d;\ninput A : u4;\nX: add u4 = A[5:0] + A;\noutput X;",
         3, 1, "X: slice [5:0] out of range for width 4"),
        ("design d;\ninput A : u4;\n62: add u4 = A + A;\noutput X;",
         3, 1, "expected declaration, found '62'"),
        ("design d;\ninput A : u4;\nX: add u4 carry(2) = A + A;\noutput X;",
         3, 17, "expected carry source, found '2'"),
        ("design d;\ninput x : u8;\nb: add u8 carry(x) = x + x;\noutput b;",
         3, 1, "b: carry source x is not an add"),
        ("design d;\ninput A : u4;\nX: add u4 = A + const(12);\noutput X;",
         3, 23, "expected binary digits, found '12'"),
        # A name is resolved as it is read, so a reference to the op itself
        # is not yet a result and its slice is not range-checked as one.
        ("design d;\ninput A : u4;\nX: add u4 = A + X[7:0];\noutput X;",
         3, 1, "X: reference to X creates a cycle"),
        # An undefined output is placed at its name in the output
        # statement, even when an input happens to be named output.
        ("design d;\ninput A : u4;\nX: add u4 = A + A;\noutput Y;",
         4, 8, "output: undefined reference Y"),
        ("design d;\ninput output : u4;\nX: add u4 = output + output;\noutput Y;",
         4, 8, "output: undefined reference Y"),
    ],
)
def test_parse_errors_carry_spans(source, line, column, message):
    with pytest.raises(ParseError) as err:
        parse(source)
    assert str(err.value) == f"{line}:{column}: {message}"
    span = err.value.diagnostics[0].span
    assert (span.line, span.column) == (line, column)


def test_validate_refuses_carry_operand():
    """A carry is read only as a carry-in, so the DSL needs no syntax
    for a carry operand: at top level or inside a concat, it is an error."""
    a = Operation(
        "A", OpKind.ADD, 2, False,
        (Operand(InputRef("x"), 1, 0), Operand(InputRef("x"), 1, 0)),
    )
    carry = Operand(CarryRef("A"), 0, 0)
    top = Operation("B", OpKind.ADD, 2, False, (carry, Operand(InputRef("x"), 1, 0)))
    cat = Concat((Operand(InputRef("x"), 0, 0), carry))
    inner = Operation(
        "C", OpKind.ADD, 2, False, (Operand(cat, 1, 0), Operand(InputRef("x"), 1, 0))
    )
    g = DataFlowGraph("d", (InputPort("x", 2, False),), (a, top, inner), ("B", "C"))
    assert [str(d) for d in validate(g)] == [
        "B: carry of A can only be a carry-in",
        "C: carry of A can only be a carry-in",
    ]


def test_emit_refuses_sliced_and_nested_concat():
    part = Operand(InputRef("x"), 1, 0)
    sliced = Operand(Concat((part, part)), 2, 1)
    nested = Operand(Concat((Operand(Concat((part, part)), 3, 0), part)), 5, 0)
    base = Operand(InputRef("x"), 1, 0)
    for bad in (sliced, nested):
        op = Operation("A", OpKind.ADD, 4, False, (bad, base))
        g = DataFlowGraph("d", (InputPort("x", 2, False),), (op,), ("A",))
        with pytest.raises(ValueError, match="concat"):
            emit(g)


def test_dot_export_nodes_and_edges(sec2):
    dot = emit_dot(sec2)
    assert 'digraph "sec2"' in dot
    assert '"C" [shape=box, label="C\\nadd 16"];' in dot
    assert '"C" -> "E" [label="[15:0]"];' in dot


def test_dot_export_marks_carry_edges():
    g = parse(
        "design d;\ninput A : u4;\nX: add u4 = A + A;\n"
        "Y: add u4 carry(X) = A + A;\noutput Y;"
    )
    assert '"X" -> "Y" [label="carry", style=dashed];' in emit_dot(g)


_BUNDLED_TEXTS = [
    (DESIGN_DIR / f"{name}.dfg").read_text()
    for name in ("sec2", "fig3", "elliptic", "diffeq")
]


@st.composite
def _mutated_design_text(draw) -> str:
    """A bundled design with characters inserted, deleted or duplicated."""
    text = draw(st.sampled_from(_BUNDLED_TEXTS + [SAT_SOURCE, MIXED_SOURCE]))
    for _ in range(draw(st.integers(1, 8))):
        at = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(["insert", "delete", "duplicate"]))
        if edit == "insert":
            text = text[:at] + draw(st.text(min_size=1, max_size=3)) + text[at:]
        elif edit == "delete":
            text = text[:at] + text[at + draw(st.integers(1, 6)):]
        else:
            text = text[:at] + text[at:at + draw(st.integers(1, 12))] + text[at:]
    return text


@settings(max_examples=200, deadline=None)
@given(_mutated_design_text())
def test_mutated_text_parses_or_raises_a_typed_error(text):
    try:
        parse(text)
    except (ParseError, ValidationError):
        pass
