"""Seeded design generators for the benchmark.

Every generator returns a validated ``DataFlowGraph``; the harness turns
it into ``.dfg`` text with ``emit`` so the program under test only ever
sees source text.  The mixed-kind generator is the benchmark's own copy:
it must not change when the test suite's generators do.
"""

from __future__ import annotations

import random

from bitfrag.dfg import (
    CarryRef,
    DataFlowGraph,
    InputPort,
    InputRef,
    Operand,
    Operation,
    OpKind,
    ResultRef,
    check,
)
from bitfrag.simulator import EXHAUSTIVE_LIMIT


def _full(source, width: int) -> Operand:
    return Operand(source, width - 1, 0)


def ladder(
    sections: int,
    width: int,
    sub: tuple[int, ...] = (),
    mult: tuple[int, ...] = (),
    name: str | None = None,
) -> DataFlowGraph:
    """Wave-filter ladder of ``sections`` sections, every signal ``width`` bits.

    Section k reads the previous section's spine ``c`` (the input ``x``
    for k = 1) and its state input ``svk``; ``ladder(5, 16)`` is the
    bundled ``elliptic`` design.  Sections listed in ``sub`` turn their
    ``b`` and ``f`` adds into subtracts; sections listed in ``mult``
    turn their ``e`` tap into an unsigned multiplier core.
    """
    def op(op_id: str, kind: OpKind, a: str, b: str) -> Operation:
        return Operation(
            op_id, kind, width, False,
            (_full(ref(a), width), _full(ref(b), width)),
        )

    inputs = [InputPort("x", width, False)] + [
        InputPort(f"sv{k}", width, False) for k in range(1, sections + 1)
    ]
    names = {p.name for p in inputs}

    def ref(n: str):
        return InputRef(n) if n in names else ResultRef(n)

    ops: list[Operation] = []
    prev = "x"
    for k in range(1, sections + 1):
        sv = f"sv{k}"
        b_kind = OpKind.SUB if k in sub else OpKind.ADD
        e_kind = OpKind.MULT_CORE if k in mult else OpKind.ADD
        ops += [
            op(f"a{k}", OpKind.ADD, prev, sv),
            op(f"b{k}", b_kind, f"a{k}", prev),
            op(f"c{k}", OpKind.ADD, f"b{k}", f"a{k}"),
            op(f"e{k}", e_kind, f"a{k}", sv),
            op(f"f{k}", b_kind, f"e{k}", f"b{k}"),
        ]
        prev = f"c{k}"
    ops.append(op("yout", OpKind.ADD, prev, "x"))
    outputs = tuple(f"f{k}" for k in range(1, sections + 1)) + ("yout",)
    if name is None:
        name = f"ladder{sections}x{width}"
    return check(DataFlowGraph(name, tuple(inputs), tuple(ops), outputs))


_SURFACE_KINDS = (
    OpKind.ADD,
    OpKind.SUB,
    OpKind.MULT,
    OpKind.LT,
    OpKind.MAX,
    OpKind.MIN,
    OpKind.NOT,
    OpKind.SELECT,
)


def mixed_design(seed: int, name: str = "mixed") -> DataFlowGraph:
    """Seeded small design over every surface kind.

    Signed and unsigned ``mult`` (the unsigned one is a multiplier
    core), ``sub``, ``lt``, ``max``/``min``, ``not``, ``select``, and adds
    with constant or chained (``carry(ID)``) carry-ins.  Total input
    width stays above the exhaustive limit, so equivalence checks draw
    a fixed number of random vectors whatever the seed.
    """
    rng = random.Random(seed)
    inputs = [
        InputPort(f"v{i}", rng.randint(2, 9), rng.random() < 0.4)
        for i in range(rng.randint(3, 4))
    ]
    while sum(p.width for p in inputs) <= EXHAUSTIVE_LIMIT:
        grown = inputs[0]
        inputs[0] = InputPort(grown.name, grown.width + 4, grown.signed)
    pool: list[tuple[str, int, bool]] = [(p.name, p.width, True) for p in inputs]

    def operand(width: int, at_least: int = 1) -> Operand:
        rows = [r for r in pool if r[1] >= at_least]
        src_name, src_w, is_input = rng.choice(rows)
        source = InputRef(src_name) if is_input else ResultRef(src_name)
        if src_w > max(width, at_least) and rng.random() < 0.3:
            lo = rng.randint(1, src_w - width) if src_w > width else 0
            hi = min(src_w - 1, lo + width - 1)
            if hi - lo + 1 >= at_least:
                return Operand(source, hi, lo)
        return Operand(source, src_w - 1, 0)

    ops: list[Operation] = []
    adds: list[str] = []
    for k in range(rng.randint(3, 8)):
        kind = rng.choice(_SURFACE_KINDS)
        signed = rng.random() < 0.4
        width = rng.randint(2, 10)
        carry = None
        if kind is OpKind.NOT:
            operands = (operand(width),)
        elif kind is OpKind.SELECT:
            cond = operand(1)
            operands = (
                Operand(cond.source, cond.lo, cond.lo),
                operand(width),
                operand(width),
            )
        elif kind is OpKind.MULT:
            if signed:
                operands = (operand(width, at_least=2), operand(width, at_least=2))
            else:
                kind = OpKind.MULT_CORE
                operands = (operand(width), operand(width))
        elif kind is OpKind.LT:
            width = 1 if rng.random() < 0.7 else width
            operands = (operand(8), operand(8))
        else:
            operands = (operand(width), operand(width))
        if kind is OpKind.ADD:
            carry = rng.choice([None, None, 0, 1, "chain"])
            if carry == "chain":
                carry = CarryRef(rng.choice(adds)) if adds else None
        op_id = f"t{k}"
        ops.append(Operation(op_id, kind, width, signed, operands, carry))
        pool.append((op_id, width, False))
        if kind is OpKind.ADD:
            adds.append(op_id)
    consumed = {
        o.source.op
        for op in ops
        for o in op.operands
        if isinstance(o.source, ResultRef)
    }
    outputs = tuple(op.id for op in ops if op.id not in consumed)
    return check(DataFlowGraph(name, tuple(inputs), tuple(ops), outputs))
