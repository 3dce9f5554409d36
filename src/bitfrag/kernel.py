"""Lowering of subtract, multiply, compare, and min/max onto the
additive kernel: unsigned ADD, the opaque unsigned multiplier core, and
zero-delay NOT/SELECT glue.

Every rewrite keeps the original operation id on the op that delivers
the result, so consumers and outputs never need rewiring.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .dfg import (
    Concat,
    Const,
    DataFlowGraph,
    Diagnostic,
    Namer,
    OpKind,
    Operand,
    Operation,
    ResultRef,
    check,
)


class KernelError(ValueError):
    def __init__(self, diagnostic: Diagnostic):
        super().__init__(str(diagnostic))
        self.diagnostic = diagnostic


@dataclass
class LoweringTrace:
    """Original op id -> ids of its replacement ops, in definition order.

    Ops that pass through untouched have no entry; a signedness-only
    relabel maps the id to itself.
    """

    replacements: dict[str, tuple[str, ...]] = field(default_factory=dict)

    def record(self, original: str, new_ops: list[Operation]) -> None:
        self.replacements[original] = tuple(op.id for op in new_ops)


def _result(op: Operation, hi: int | None = None, lo: int = 0) -> Operand:
    if hi is None:
        hi = op.width - 1
    return Operand(ResultRef(op.id), hi, lo)


def _const(bits: str) -> Operand:
    return Operand(Const(bits), len(bits) - 1, 0)


def _ones(width: int) -> Operand:
    return _const("1" * width)


def _sub_slice(opnd: Operand, hi: int, lo: int) -> Operand:
    """Bits [hi:lo] of an operand, re-expressed against its source."""
    return Operand(opnd.source, opnd.lo + hi, opnd.lo + lo)


def _sliceable(opnd: Operand, base: str, namer: Namer, ops: list[Operation]) -> Operand:
    """Concat operands cannot be sub-sliced in the surface syntax, so
    route them through a pass-through select first."""
    if not isinstance(opnd.source, Concat):
        return opnd
    w = opnd.width
    keep = Operation(namer.fresh(base), OpKind.SELECT, w, False,
                     (_const("1"), opnd, _const("0")))
    ops.append(keep)
    return _result(keep)


def lower_sub(op: Operation, namer: Namer) -> list[Operation]:
    """a - b as a + ~b + 1, exact modulo 2**width for either signedness."""
    a, b = op.operands
    inv = Operation(namer.fresh(f"{op.id}_not"), OpKind.NOT, op.width, False, (b,))
    add = Operation(op.id, OpKind.ADD, op.width, False, (a, _result(inv)), 1)
    return [inv, add]


def _compare_machinery(
    op: Operation, namer: Namer
) -> tuple[list[Operation], Operand]:
    """Shared core of LT/MAX/MIN lowering.

    Returns the new ops plus a 1-bit operand that is 1 iff the first
    operand is greater than or equal to the second.  The comparison runs
    at the wider operand width; signed compares first flip both MSBs of
    the sign-extended operands, which maps two's-complement order onto
    unsigned order without any XOR.
    """
    ops: list[Operation] = []
    a = _sliceable(op.operands[0], f"{op.id}_a", namer, ops)
    b = _sliceable(op.operands[1], f"{op.id}_b", namer, ops)
    cw = max(a.width, b.width)

    def adjust(x: Operand, tag: str) -> Operand:
        if not op.signed:
            return x
        wx = x.width
        msb = _sub_slice(x, wx - 1, wx - 1)
        flip = Operation(namer.fresh(f"{op.id}_{tag}msb"), OpKind.NOT, 1, False, (msb,))
        ops.append(flip)
        parts = [_result(flip)] + [msb] * (cw - wx)
        if wx > 1:
            parts.append(_sub_slice(x, wx - 2, 0))
        cat = Concat(tuple(parts))
        return Operand(cat, cat.width - 1, 0)

    a_adj = adjust(a, "a")
    b_adj = adjust(b, "b")
    inv = Operation(namer.fresh(f"{op.id}_not"), OpKind.NOT, cw, False, (b_adj,))
    # One bit wider than the compare so the carry lands in the sum.
    total = Operation(
        namer.fresh(f"{op.id}_sum"), OpKind.ADD, cw + 1, False, (a_adj, _result(inv)), 1
    )
    ops += [inv, total]
    return ops, _result(total, cw, cw)


def lower_compare(op: Operation, namer: Namer) -> list[Operation]:
    """LT via a + ~b + 1; the discarded carry is the not-less-than bit."""
    ops, ge = _compare_machinery(op, namer)
    if op.width == 1:
        final = Operation(op.id, OpKind.NOT, 1, False, (ge,))
    else:
        final = Operation(
            op.id, OpKind.SELECT, op.width, False, (ge, _const("0"), _const("1"))
        )
    return ops + [final]


def lower_minmax(op: Operation, namer: Namer) -> list[Operation]:
    """MAX/MIN as the lowered comparison steering a SELECT."""
    ops, ge = _compare_machinery(op, namer)
    a, b = op.operands
    picks = (a, b) if op.kind is OpKind.MAX else (b, a)
    final = Operation(op.id, OpKind.SELECT, op.width, False, (ge, *picks))
    return ops + [final]


def lower_signed_mult(op: Operation, namer: Namer) -> list[Operation]:
    """Two's-complement m x n multiply decomposed into an unsigned
    (m-1) x (n-1) core plus adds of m and n+1 bits.

    With sign bits s_a/s_b and magnitude fields A/B, the product is

        A*B + 2^(m-1) * (s_a ? ~B+1 : 0) + 2^(n-1) * (s_b ? ~A+1 : 0)
            - 2^(m+n-2) * (s_a | s_b)

    Rewriting each conditional increment as SELECT(s, ~X, ones) + 1
    makes both "+1"s unconditional, so they ride the two adders'
    constant carry-ins; the leftover single-bit terms collapse into one
    AND bit and constant ones on the second adder's concat operand.
    """
    ops: list[Operation] = []
    x = _sliceable(op.operands[0], f"{op.id}_a", namer, ops)
    y = _sliceable(op.operands[1], f"{op.id}_b", namer, ops)
    if x.width < 2 or y.width < 2:
        raise KernelError(
            Diagnostic(
                f"signed multiply needs operands of 2+ bits, got "
                f"{x.width}x{y.width}",
                op.id,
            )
        )
    if x.width < y.width:
        x, y = y, x
    m, n = x.width, y.width

    mag_x = _sub_slice(x, m - 2, 0)  # A, m-1 bits
    mag_y = _sub_slice(y, n - 2, 0)  # B, n-1 bits
    sign_x = _sub_slice(x, m - 1, m - 1)
    sign_y = _sub_slice(y, n - 1, n - 1)

    core = Operation(
        namer.fresh(f"{op.id}_core"), OpKind.MULT_CORE, m + n - 2, False, (mag_x, mag_y)
    )
    inv_a = Operation(namer.fresh(f"{op.id}_nota"), OpKind.NOT, m - 1, False, (mag_x,))
    inv_b = Operation(namer.fresh(f"{op.id}_notb"), OpKind.NOT, n - 1, False, (mag_y,))
    sel_a = Operation(
        namer.fresh(f"{op.id}_sela"), OpKind.SELECT, n - 1, False,
        (sign_x, _result(inv_b), _ones(n - 1)),
    )
    sel_b = Operation(
        namer.fresh(f"{op.id}_selb"), OpKind.SELECT, m - 1, False,
        (sign_y, _result(inv_a), _ones(m - 1)),
    )
    both = Operation(
        namer.fresh(f"{op.id}_both"), OpKind.SELECT, 1, False,
        (sign_x, sign_y, _const("0")),
    )
    z1 = Operation(
        namer.fresh(f"{op.id}_lo"), OpKind.ADD, m, False,
        (_result(core, m + n - 3, n - 1), _result(sel_b)), 1,
    )
    hi_operand = Operand(
        Concat((_const("1"), _result(both), _result(sel_a))), n, 0
    )
    z2 = Operation(
        namer.fresh(f"{op.id}_hi"), OpKind.ADD, n + 1, False,
        (_result(z1, m - 1, m - n), hi_operand), 1,
    )
    parts = [_result(z2)]
    if m > n:
        parts.append(_result(z1, m - n - 1, 0))
    parts.append(_result(core, n - 2, 0))
    # A result wider than the natural m+n product replicates its sign.
    if op.width > m + n:
        parts = [_result(z2, n, n)] * (op.width - (m + n)) + parts
    cat = Concat(tuple(parts))
    final = Operation(
        op.id, OpKind.SELECT, op.width, False,
        (_const("1"), Operand(cat, cat.width - 1, 0), _const("0")),
    )
    ops += [core, inv_a, inv_b, sel_a, sel_b, both, z1, z2, final]
    return ops


def extract_kernel(graph: DataFlowGraph) -> tuple[DataFlowGraph, LoweringTrace]:
    """Rewrite every design onto unsigned ADD / MULT_CORE / NOT / SELECT.

    Unsigned subtracts and signed adds are already modulo-2**w additive,
    so they only need complement glue or a signedness relabel; signed
    multiplies get the core decomposition; comparisons and min/max reuse
    the subtract carry trick.
    """
    trace = LoweringTrace()
    namer = Namer({p.name for p in graph.inputs} | {o.id for o in graph.ops})
    new_ops: list[Operation] = []

    for op in graph.ops:
        if op.kind is OpKind.SUB:
            lowered = lower_sub(op, namer)
        elif op.kind is OpKind.MULT:
            lowered = lower_signed_mult(op, namer)
        elif op.kind is OpKind.LT:
            lowered = lower_compare(op, namer)
        elif op.kind in (OpKind.MAX, OpKind.MIN):
            lowered = lower_minmax(op, namer)
        elif op.signed:
            lowered = [
                Operation(op.id, op.kind, op.width, False, op.operands, op.carry_in)
            ]
        else:
            new_ops.append(op)
            continue
        trace.record(op.id, lowered)
        new_ops.extend(lowered)

    result = DataFlowGraph(graph.name, graph.inputs, tuple(new_ops), graph.outputs)
    check(result)
    for op in result.ops:
        assert op.kind.kernel
        assert not op.signed
    return result, trace
