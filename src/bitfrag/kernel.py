"""Lowering of subtract, multiply, compare, and min/max onto the
additive kernel: unsigned ADD, the opaque unsigned multiplier core, and
zero-delay NOT/SELECT/concat glue.  Every multiply, signed or not, is
one core; a signed one reads its operands sign-extended to its width.

Every rewrite keeps the original operation id on the op that delivers
the result, so consumers and outputs never need rewiring.
"""

from __future__ import annotations

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
    """A design that kernel extraction cannot lower.  No lowering raises
    it now; it stays part of the typed errors a pipeline catches."""

    def __init__(self, diagnostic: Diagnostic):
        super().__init__(str(diagnostic))
        self.diagnostic = diagnostic


def _result(op: Operation, hi: int | None = None, lo: int = 0) -> Operand:
    if hi is None:
        hi = op.width - 1
    return Operand(ResultRef(op.id), hi, lo)


def _const(bits: str) -> Operand:
    return Operand(Const(bits), len(bits) - 1, 0)


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
    """Two's-complement multiply as one unsigned core, keeping the op's id.

    Modulo 2**width the signed product equals the unsigned product of
    both operands sign-extended to width bits, so concat glue repeats
    each narrower operand's MSB up to the result width.  An operand at
    least that wide is read as it is: the core keeps its low width bits.
    """
    ops: list[Operation] = []

    def extend(x: Operand, tag: str) -> Operand:
        pad = op.width - x.width
        if pad <= 0:
            return x
        x = _sliceable(x, f"{op.id}_{tag}", namer, ops)
        msb = _sub_slice(x, x.width - 1, x.width - 1)
        return Operand(Concat((msb,) * pad + (x,)), op.width - 1, 0)

    a = extend(op.operands[0], "a")
    b = extend(op.operands[1], "b")
    return ops + [Operation(op.id, OpKind.MULT_CORE, op.width, False, (a, b))]


def extract_kernel(graph: DataFlowGraph) -> tuple[DataFlowGraph, dict[str, tuple[str, ...]]]:
    """Rewrite every design onto unsigned ADD / MULT_CORE / NOT / SELECT.

    Unsigned subtracts and signed adds are already modulo-2**w additive,
    so they only need complement glue or a signedness relabel; a signed
    multiply becomes one unsigned core over sign-extended operands;
    comparisons and min/max reuse the subtract carry trick.

    Returns the kernel and its trace: original op id -> ids of its
    replacement ops, in definition order.  Ops that pass through
    untouched have no entry; a signedness-only relabel maps the id to
    itself.
    """
    trace: dict[str, tuple[str, ...]] = {}
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
        trace[op.id] = tuple(o.id for o in lowered)
        new_ops.extend(lowered)

    result = DataFlowGraph(graph.name, graph.inputs, tuple(new_ops), graph.outputs)
    check(result)
    for op in result.ops:
        assert op.kind.kernel
        assert not op.signed
    return result, trace
