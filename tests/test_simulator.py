"""Bit-accurate evaluation and equivalence checking."""

import dataclasses
import itertools
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitfrag import check, extract_kernel, parse
from bitfrag import cost, simulator
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
)
from bitfrag.fragmenter import InfeasibleError
from bitfrag.scheduler import Schedule, ScheduleError
from bitfrag.simulator import (
    EXHAUSTIVE_LIMIT,
    EquivResult,
    SimulationError,
    check_equiv,
    eval_dfg,
    eval_schedule,
)
from conftest import (
    TESTS_DIR,
    eager_keys,
    load_design,
    random_add_design,
    random_full_design,
    replace,
    run_pipeline,
    under_hash_seeds,
)


def _eval(source: str, **inputs):
    return eval_dfg(parse(source), inputs)


def test_add_wraps_and_chains_carry():
    out = _eval(
        "design d;\ninput a : u4; input b : u4; input c : u4; input e : u4;\n"
        "X: add u4 = a + b;\nY: add u4 carry(X) = c + e;\noutput X; output Y;",
        a=7, b=12, c=1, e=1,
    )
    assert out == {"X": 3, "Y": 3}


def test_constant_carry_in():
    out = _eval(
        "design d;\ninput a : u4;\nX: add u4 carry(1) = a + const(0000);\noutput X;",
        a=5,
    )
    assert out == {"X": 6}


def test_sub_wraps_modulo():
    out = _eval(
        "design d;\ninput a : u4; input b : u4;\nX: sub u4 = a - b;\noutput X;",
        a=3, b=5,
    )
    assert out == {"X": 14}


def test_not_covers_zero_extension():
    out = _eval(
        "design d;\ninput a : u2;\nX: not u3 = a;\noutput X;",
        a=0b10,
    )
    assert out == {"X": 0b101}


def test_signed_mult_two_complement():
    out = _eval(
        "design d;\ninput a : s3; input b : s3;\nR: mult s6 = a * b;\noutput R;",
        a=0b101, b=0b010,  # -3 * 2
    )
    assert out == {"R": (-6) % 64}


def test_unsigned_core_mult():
    out = _eval(
        "design d;\ninput a : u3; input b : u3;\nR: mult u4 = a * b;\noutput R;",
        a=3, b=5,
    )
    assert out == {"R": 15}


def test_compare_interpretations():
    # The comparison's own type letter picks the interpretation.
    src = "design d;\ninput a : s3; input b : s3;\nR: lt s1 = a < b;\noutput R;"
    assert _eval(src, a=0b111, b=0)["R"] == 1  # -1 < 0 signed
    src_u = "design d;\ninput a : u3; input b : u3;\nR: lt u1 = a < b;\noutput R;"
    assert _eval(src_u, a=0b111, b=0)["R"] == 0  # 7 < 0 unsigned


def test_minmax_return_the_raw_vector():
    src = (
        "design d;\ninput a : s3; input b : s3;\n"
        "X: max s3 = a, b;\nY: min s3 = a, b;\noutput X; output Y;"
    )
    out = _eval(src, a=0b111, b=2)  # -1 vs 2
    assert out == {"X": 2, "Y": 0b111}


def test_select_picks_on_condition():
    src = (
        "design d;\ninput c : u1; input a : u3; input b : u3;\n"
        "S: select u3 = c, a, b;\noutput S;"
    )
    assert _eval(src, c=1, a=5, b=2)["S"] == 5
    assert _eval(src, c=0, a=5, b=2)["S"] == 2


def test_operands_zero_extend_to_the_result_width():
    out = _eval(
        "design d;\ninput a : u2; input b : u4;\nX: add u4 = a + b;\noutput X;",
        a=3, b=12,
    )
    assert out == {"X": 15}


def test_missing_input_raises():
    with pytest.raises(SimulationError, match="missing input values: b"):
        _eval("design d;\ninput a : u2; input b : u2;\nX: add u2 = a + b;\noutput X;", a=1)


def test_schedule_replay_matches_direct_evaluation(sec2, fig3, sat):
    for graph in (sec2, fig3, sat):
        sched = run_pipeline(graph, 3).sched
        inputs = {
            p.name: (0x9E37 * (i + 1)) & ((1 << p.width) - 1)
            for i, p in enumerate(graph.inputs)
        }
        direct = eval_dfg(graph, inputs)
        replayed, trace = eval_schedule(sched, inputs)
        assert replayed == direct
        assert [t.cycle for t in trace] == [1, 2, 3]


def test_trace_reports_execution_and_latching(sec2):
    sched = run_pipeline(sec2, 3).sched
    inputs = {p.name: 0xFFFF for p in sec2.inputs}
    _, trace = eval_schedule(sched, inputs)
    assert trace[0].executed == ("C0", "E0", "G0")
    assert trace[0].latched == (
        "C0[5]",
        "E0[4]",
        "carry(C0)",
        "carry(E0)",
        "carry(G0)",
    )
    # Nothing survives the final cycle.
    assert trace[2].latched == ()


def test_replay_rejects_missing_unit():
    g = parse("design d;\ninput a : u4; input b : u4;\nX: add u4 = a + b;\noutput X;")
    p = run_pipeline(g, 2, n_bits=4)
    from bitfrag.scheduler import Schedule

    broken = Schedule(p.sched.graph, p.sched.lam, p.sched.n_bits, {}, p.sched.fragments)
    with pytest.raises(SimulationError, match="unscheduled operations"):
        eval_schedule(broken, {"a": 1, "b": 2})


def test_unscheduled_reader_is_named_not_a_lookup_failure(sec2):
    # C1 reads C0's top bit and carry; with C1 unscheduled nothing holds
    # them for it, and the check names C1 instead of failing to find it.
    sched = run_pipeline(sec2, 3).sched
    cycle_of = dict(sched.cycle_of)
    del cycle_of["C1"]
    with pytest.raises(SimulationError, match="^unscheduled operations: C1$"):
        eval_schedule(
            replace(sched, cycle_of=cycle_of),
            {p.name: 0 for p in sec2.inputs},
        )


def test_unscheduled_producer_holds_nothing_and_is_named(sec2):
    # C1 reads C0's top bit and carry across boundary 1; with C0
    # unscheduled they are produced in no cycle, so nothing holds them
    # and no latch fails before the check names C0.
    sched = run_pipeline(sec2, 3).sched
    cycle_of = dict(sched.cycle_of)
    del cycle_of["C0"]
    broken = replace(sched, cycle_of=cycle_of)
    c0 = {n for n, key in enumerate(eager_keys(sched.graph)) if key[0] == "C0"}
    assert len(c0) == 7 and not c0 & {n for bits in broken.held.values() for n in bits}
    with pytest.raises(SimulationError, match="^unscheduled operations: C0$"):
        eval_schedule(broken, {p.name: 0 for p in sec2.inputs})


def test_replay_insists_on_latched_crossings(sec2, monkeypatch):
    # Dropping one stored bit from the cost model must be caught by the
    # replay, proving the discipline check is wired to real reads.  The
    # schedule computes its held bits on first use, so after the patch.
    sched = run_pipeline(sec2, 3).sched
    real = cost.stored_bits
    dropped = eager_keys(sched.graph).index(("C0", 5))

    def leaky(s):
        held = {b: list(bits) for b, bits in real(s).items()}
        held[1] = [n for n in held[1] if n != dropped]
        return held

    monkeypatch.setattr(cost, "stored_bits", leaky)
    with pytest.raises(
        SimulationError, match=r"reads unlatched bit OpBit\(op='C0', bit=5\) across boundary 1$"
    ):
        eval_schedule(sched, {p.name: 0xFFFF for p in sec2.inputs})


_UNLATCHED_PROBE = """
from bitfrag import cost, simulator
from conftest import load_design, run_pipeline

cost.stored_bits = lambda sched: {}
elliptic = load_design("elliptic")
try:
    simulator.check_equiv(elliptic, run_pipeline(elliptic, 2).sched)
except simulator.SimulationError as exc:
    print(exc)
"""


def test_unlatched_read_is_named_the_same_under_any_hash_seed():
    # With nothing latched, b12 reads several unlatched bits; the check
    # names the first in the view's fixed order, not in set order.
    runs = under_hash_seeds(["-c", _UNLATCHED_PROBE])
    assert [r.returncode for r in runs] == [0, 0], [r.stderr for r in runs]
    assert {r.stdout for r in runs} == {
        "cycle 2: b12 reads unlatched bit OpBit(op='a11', bit=0) across boundary 1\n"
    }


# Calls are counted by the profiler, so a caller that imported
# ``stored_bits`` under its own name is counted too.
_HELD_COUNT_PROBE = """
import cProfile
import sys
from pathlib import Path

from bitfrag import cost, parse, simulator
from conftest import DESIGN_DIR, run_pipeline

sys.path.insert(0, str(Path(sys.argv[1]) / "bench"))
from workloads import equiv_cases

cases = equiv_cases(0, DESIGN_DIR)
scheds = [run_pipeline(parse(case.text), case.lam).sched for case in cases]
profile = cProfile.Profile()
profile.enable()
for case, sched in zip(cases, scheds):
    design = parse(case.text)
    cost.costs(sched)
    assert simulator.check_equiv(design, sched).equivalent
    simulator.eval_schedule(sched, {p.name: 0 for p in design.inputs})
profile.disable()
profile.create_stats()
calls = sum(
    counts[1] for (path, _, name), counts in profile.stats.items()
    if name == "stored_bits" and Path(path).name == "cost.py"
)
print(len(scheds), calls)
"""


def test_a_schedule_computes_its_held_bits_once():
    # Over the benchmark's six equiv designs, costing a schedule, proving
    # it and replaying it runs stored_bits once per schedule.
    run = subprocess.run(
        [sys.executable, "-c", _HELD_COUNT_PROBE, str(TESTS_DIR.parent)],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join([str(TESTS_DIR.parent / "src"), str(TESTS_DIR)])),
        capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == "6 6\n"


def test_check_equiv_rejects_missing_unit():
    g = parse("design d;\ninput a : u4; input b : u4;\nX: add u4 = a + b;\noutput X;")
    p = run_pipeline(g, 2, n_bits=4)
    from bitfrag.scheduler import Schedule

    broken = Schedule(p.sched.graph, p.sched.lam, p.sched.n_bits, {}, p.sched.fragments)
    with pytest.raises(SimulationError, match="unscheduled operations"):
        check_equiv(g, broken)


def test_check_equiv_insists_on_latched_crossings_once(sec2, monkeypatch):
    # The latch check reads no input values: check_equiv runs it once
    # per schedule, the schedule keeps the held bits it reads, and a
    # dropped stored bit still stops the proof of a fresh schedule.
    sched = run_pipeline(sec2, 3).sched
    real = cost.stored_bits
    calls = []

    def counted(s):
        calls.append(s)
        return real(s)

    monkeypatch.setattr(cost, "stored_bits", counted)
    assert check_equiv(sec2, sched, samples=20).equivalent
    assert len(calls) == 1
    assert check_equiv(sec2, sched, samples=20).equivalent
    assert len(calls) == 1
    sched = replace(sched)

    dropped = eager_keys(sched.graph).index(("C0", 5))

    def leaky(s):
        held = {b: list(bits) for b, bits in real(s).items()}
        held[1] = [n for n in held[1] if n != dropped]
        return held

    monkeypatch.setattr(cost, "stored_bits", leaky)
    with pytest.raises(
        SimulationError, match=r"reads unlatched bit OpBit\(op='C0', bit=5\) across boundary 1$"
    ):
        check_equiv(sec2, sched, samples=20)


def test_glue_between_fragmented_adds_replays(mixed):
    # The multiply lowering leaves a select between fragmented adds; a
    # consumer may chain off its low fragments in the same cycle.
    p = run_pipeline(mixed, 6)
    eq = check_equiv(mixed, p.sched, samples=200)
    assert eq.strategy == "random" and eq.equivalent


def test_check_equiv_exhausts_small_designs():
    ref = parse("design d;\ninput a : u3; input b : u3;\nX: add u3 = a + b;\noutput X;")
    cand = parse("design d;\ninput a : u3; input b : u3;\nX: add u3 = b + a;\noutput X;")
    eq = check_equiv(ref, cand)
    assert eq.strategy == "exhaustive"
    assert eq.checked == 64
    assert bool(eq)


def test_check_equiv_samples_large_designs(sec2):
    total = sum(p.width for p in sec2.inputs)
    assert total > EXHAUSTIVE_LIMIT
    eq = check_equiv(sec2, sec2, samples=50)
    assert eq.strategy == "random" and eq.checked == 50


def test_check_equiv_finds_counterexamples():
    ref = parse("design d;\ninput a : u3; input b : u3;\nX: add u3 = a + b;\noutput X;")
    cand = parse("design d;\ninput a : u3; input b : u3;\nX: sub u3 = a - b;\noutput X;")
    eq = check_equiv(ref, cand)
    assert not eq
    name, got, want = eq.mismatch
    assert name == "X"
    inputs = eq.counterexample
    assert (inputs["a"] - inputs["b"]) % 8 == got
    assert (inputs["a"] + inputs["b"]) % 8 == want


def test_check_equiv_rejects_signature_mismatches():
    ref = parse("design d;\ninput a : u3;\nX: add u3 = a + a;\noutput X;")
    renamed = parse("design d;\ninput q : u3;\nX: add u3 = q + q;\noutput X;")
    wider = parse("design d;\ninput a : u3;\nX: add u4 = a + a;\noutput X;")
    with pytest.raises(SimulationError, match="input signatures differ"):
        check_equiv(ref, renamed)
    with pytest.raises(SimulationError, match="output signatures differ"):
        check_equiv(ref, wider)


def test_check_equiv_rejects_a_vacuous_random_proof(sec2):
    # Zero random vectors prove nothing; the exhaustive strategy ignores
    # the sample count.
    for samples in (0, -3):
        with pytest.raises(SimulationError, match="at least 1 sample"):
            check_equiv(sec2, sec2, samples=samples)
    small = parse("design d;\ninput a : u3;\nX: add u3 = a + a;\noutput X;")
    assert check_equiv(small, small, samples=0) == EquivResult("exhaustive", 8, True)


# Block evaluation against the per-vector oracle.


def _eval_block_columns(graph: DataFlowGraph, vectors: list[dict], stride: int) -> dict:
    """``_eval_block`` on per-vector inputs, its packed outputs unpacked
    into one list of values per output."""
    n = len(vectors)
    inputs = {
        p.name: _pack([v[p.name] for v in vectors], p.width, stride)
        for p in graph.inputs
    }
    block = simulator._eval_block(simulator._decode(graph), inputs, n, stride)
    return {name: _unpack(x, n, stride) for name, x in block.items()}


def _pack(values: list[int], width: int, stride: int) -> int:
    """One int whose ``j``-th ``stride``-bit field is ``values[j]`` cut
    to ``width`` bits."""
    return sum((v & ((1 << width) - 1)) << stride * j for j, v in enumerate(values))


def _unpack(packed: int, n: int, stride: int) -> list[int]:
    """The ``n`` ``stride``-bit fields of ``packed``, first field first."""
    return [(packed >> stride * j) & ((1 << stride) - 1) for j in range(n)]


def _assert_block_matches_oracle(
    graph: DataFlowGraph, vectors: list[dict], stride: int | None = None
) -> None:
    block = _eval_block_columns(graph, vectors, stride or simulator._stride(graph))
    assert list(block) == list(dict.fromkeys(graph.outputs))
    for j, inputs in enumerate(vectors):
        assert {name: column[j] for name, column in block.items()} == eval_dfg(
            graph, inputs
        )


def _vectors(rng: random.Random, graph: DataFlowGraph, n: int) -> list[dict]:
    """Values up to three bits wider than their port, so masking counts."""
    return [
        {p.name: rng.randrange(1 << (p.width + rng.randint(0, 3))) for p in graph.inputs}
        for _ in range(n)
    ]


def _random_graph(rng: random.Random) -> DataFlowGraph:
    """A valid design over every op kind and source kind, sliced anywhere."""
    inputs = [
        InputPort(f"i{k}", rng.randint(1, 10), rng.random() < 0.5)
        for k in range(rng.randint(1, 4))
    ]
    widths = {p.name: p.width for p in inputs}
    ports = set(widths)
    adds: list[str] = []

    def source():
        r = rng.random()
        if r < 0.3:
            bits = "".join(rng.choice("01") for _ in range(rng.randint(1, 6)))
            return Const(bits), len(bits)
        if r < 0.4:
            parts = tuple(term() for _ in range(rng.randint(1, 3)))
            return Concat(parts), sum(p.width for p in parts)
        name = rng.choice(list(widths))
        ref = InputRef(name) if name in ports else ResultRef(name)
        return ref, widths[name]

    def term(one_bit: bool = False) -> Operand:
        src, w = source()
        lo = rng.randrange(w)
        return Operand(src, lo if one_bit else rng.randint(lo, w - 1), lo)

    ops = []
    for k in range(rng.randint(1, 10)):
        kind = rng.choice(list(OpKind))
        width = rng.randint(1, 10)
        carry_in = None
        if kind is OpKind.SELECT:
            operands = (term(one_bit=True), term(), term())
        elif kind is OpKind.NOT:
            operands = (term(),)
        else:
            operands = (term(), term())
        if kind is OpKind.ADD:
            carry_in = rng.choice([None, 0, 1] + [CarryRef(a) for a in adds[-2:]])
        op = Operation(f"n{k}", kind, width, rng.random() < 0.5, operands, carry_in)
        ops.append(op)
        widths[op.id] = width
        if kind is OpKind.ADD:
            adds.append(op.id)
    names = list(widths)
    outputs = tuple(rng.sample(names, rng.randint(1, min(3, len(names)))))
    return check(DataFlowGraph("blocks", tuple(inputs), tuple(ops), outputs))


def _constructs(graph: DataFlowGraph) -> set:
    found = set()

    def walk(o: Operand) -> None:
        found.add(type(o.source).__name__)
        if isinstance(o.source, Concat):
            for part in o.source.parts:
                walk(part)

    for op in graph.ops:
        found.add((op.kind, op.signed))
        if isinstance(op.carry_in, CarryRef):
            found.add("carry-in")
        for o in op.operands:
            walk(o)
    return found


def test_random_graphs_cover_every_construct():
    found = set().union(*(_constructs(_random_graph(random.Random(s))) for s in range(200)))
    assert {(kind, signed) for kind in OpKind for signed in (False, True)} <= found
    assert {"Concat", "Const", "carry-in", "InputRef", "ResultRef"} <= found


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**9), st.integers(1, simulator._BLOCK))
def test_block_evaluation_matches_the_oracle(seed, n):
    rng = random.Random(seed)
    graph = _random_graph(rng)
    _assert_block_matches_oracle(graph, _vectors(rng, graph, n))


def _pipeline_graphs(graph: DataFlowGraph) -> list[DataFlowGraph]:
    """The design, its kernel and, where it schedules, its fragmented graph."""
    kernel, _ = extract_kernel(graph)
    try:
        transformed = run_pipeline(graph, 3).transformed
    except (InfeasibleError, ScheduleError):
        return [graph, kernel]
    return [graph, kernel, transformed]


@pytest.mark.parametrize(
    "make, seed",
    [(random_add_design, s) for s in range(0, 200, 10)]
    + [(random_full_design, s) for s in range(0, 200, 10)]
    + [(lambda name: load_design(name), n) for n in ("sec2", "fig3", "elliptic", "diffeq")],
)
def test_block_evaluation_matches_the_oracle_through_the_pipeline(make, seed):
    rng = random.Random(str(seed))
    for graph in _pipeline_graphs(make(seed)):
        for n in (1, 7, simulator._BLOCK):
            _assert_block_matches_oracle(graph, _vectors(rng, graph, n))


def _every_kind(width: int, sign: str) -> DataFlowGraph:
    """Every op kind over two ``width``-bit inputs, at ``width`` bits."""
    w = f"{sign}{width}"
    return parse(
        f"design d;\ninput a : {w}; input b : {w}; input c : u1;\n"
        f"S: add {w} = a + b;\nT: add {w} carry(S) = a + b;\n"
        f"U: add {w} carry(1) = a + b;\nD: sub {w} = a - b;\n"
        f"E: sub {w} = b - a;\nN: not {w} = a;\nK: select {w} = c, a, b;\n"
        f"L: lt {sign}1 = a < b;\nX: max {w} = a, b;\nY: min {w} = a, b;\n"
        f"P: mult {w} = a * b;\n"
        "output S; output T; output U; output D; output E; output N; output K;\n"
        "output L; output X; output Y; output P;"
    )


def _extremes(graph: DataFlowGraph, repeat: int = 3) -> list[dict]:
    """Each input all zeros or all ones, every combination, ``repeat``
    times over: neighbouring fields hold opposite extremes."""
    ports = list(graph.inputs)
    combos = itertools.product(*((0, (1 << p.width) - 1) for p in ports))
    vectors = [dict(zip((p.name for p in ports), v)) for v in combos]
    return vectors * repeat


@pytest.mark.parametrize("sign", ["u", "s"])
@pytest.mark.parametrize("width", [6, 14, 22])
def test_widths_that_fill_the_stride_keep_their_fields_apart(width, sign):
    # A sum, difference or compare of the widest signals reaches into the
    # guard bits; all-zero and all-ones fields side by side show any
    # carry or borrow that leaks into the next field.
    graph = _every_kind(width, sign)
    assert simulator._stride(graph) == width + 2
    _assert_block_matches_oracle(graph, _extremes(graph))
    _assert_block_matches_oracle(graph, _vectors(random.Random(width), graph, 100))


def test_constants_and_concatenations_widen_the_stride():
    graph = parse(
        "design d;\ninput a : u2;\n"
        "X: add u2 = {a, a, a, a, a, a, a, a, a, a, a} + const(0000000000000000000011);\n"
        "output X;"
    )
    assert simulator._stride(graph) == 24  # 22 bits and two guard bits
    _assert_block_matches_oracle(graph, _extremes(graph) + _vectors(random.Random(1), graph, 20))
    # A wide constant sliced inside a narrow concatenation.
    wide = Operand(Const("10" * 11), 21, 20)
    nested = Operand(Concat((wide, Operand(InputRef("a"), 1, 0))), 3, 0)
    graph = check(DataFlowGraph(
        "d", (InputPort("a", 2, False),),
        (Operation("X", OpKind.ADD, 4, False, (nested, nested)),), ("X",),
    ))
    assert simulator._stride(graph) == 24
    _assert_block_matches_oracle(graph, _extremes(graph))


def test_empty_design_proves_on_its_one_vector():
    # No input and no op: one empty vector, exhaustively.
    graph = parse("design e;\n")
    assert simulator._stride(graph) == 8
    want = EquivResult("exhaustive", 1, True)
    assert check_equiv(graph, graph) == want
    assert check_equiv(graph, run_pipeline(graph, 2).sched) == want


def test_signed_compares_of_unequal_widths():
    graph = parse(
        "design d;\ninput a : s3; input b : s7;\n"
        "L: lt s1 = a < b;\nM: lt s1 = b < a;\nX: max s7 = a, b;\n"
        "Y: min s7 = b, a;\nZ: max s2 = b, a;\nW: min s9 = a, b;\n"
        "output L; output M; output X; output Y; output Z; output W;"
    )
    vectors = [{"a": a, "b": b} for a in range(8) for b in range(128)]
    _assert_block_matches_oracle(graph, vectors)


@pytest.mark.parametrize("sign", ["u", "s"])
def test_full_width_products(sign):
    graph = parse(
        f"design d;\ninput a : {sign}11; input b : {sign}11; input c : {sign}4;\n"
        f"P: mult {sign}22 = a * b;\nQ: mult {sign}15 = c * a;\n"
        f"R: mult {sign}8 = c * c;\noutput P; output Q; output R;"
    )
    assert simulator._stride(graph) == 24
    edges = [{"a": a, "b": b, "c": c}
             for a in (0, 1, 1023, 1024, 2047) for b in (0, 1, 1023, 1024, 2047)
             for c in (0, 7, 8, 15)]
    _assert_block_matches_oracle(graph, edges)


def _products(wa: int, wb: int) -> DataFlowGraph:
    """Every multiply of a ``wa``-bit by a ``wb``-bit input at result
    widths 1 to 5: MULT unsigned and signed, MULT_CORE with either flag."""
    a = Operand(InputRef("a"), wa - 1, 0)
    b = Operand(InputRef("b"), wb - 1, 0)
    ops = tuple(
        Operation(f"{tag}{w}", kind, w, signed, (a, b))
        for w in range(1, 6)
        for tag, kind, signed in (
            ("U", OpKind.MULT, False), ("S", OpKind.MULT, True),
            ("C", OpKind.MULT_CORE, False), ("K", OpKind.MULT_CORE, True),
        )
    )
    inputs = (InputPort("a", wa, False), InputPort("b", wb, False))
    return check(DataFlowGraph("products", inputs, ops, tuple(op.id for op in ops)))


@pytest.mark.parametrize("wb", range(1, 6))
@pytest.mark.parametrize("wa", range(1, 6))
def test_packed_products_match_the_oracle_exhaustively(wa, wb):
    # Operands narrower than, as wide as and wider than the result,
    # 1-bit signed ones included, at the graph's own stride and wider.
    graph = _products(wa, wb)
    vectors = [{"a": x, "b": y} for x in range(1 << wa) for y in range(1 << wb)]
    _assert_block_matches_oracle(graph, vectors)
    _assert_block_matches_oracle(graph, vectors, simulator._stride(graph) + 8)


def test_blocks_at_a_wider_stride_match_the_oracle():
    # check_equiv packs both designs at the stride of the wider one.
    rng = random.Random(11)
    for _ in range(40):
        graph = _random_graph(rng)
        stride = simulator._stride(graph) + 8 * rng.randint(1, 3)
        _assert_block_matches_oracle(graph, _vectors(rng, graph, 30), stride)


# check_equiv against the per-vector comparison it replaced.

_BLOCK = simulator._BLOCK
# Vectors per evaluation block: check_equiv joins that many stream blocks.
_EVAL = simulator._JOIN * _BLOCK


def _stream(widths: list[int], seed: int, count: int) -> list[tuple[int, ...]]:
    """The first ``count`` vectors of check_equiv's random stream over
    ports of ``widths``, as its docstring states it, one at a time.

    A block at a time, each port in turn draws ``_BLOCK * size`` bytes,
    ``size`` being its width in whole bytes; vector ``j`` of the block
    reads bytes ``j * size`` up to ``(j + 1) * size`` little-endian, cut
    to the port width.
    """
    rng = random.Random(seed)
    vectors: list[tuple[int, ...]] = []
    while len(vectors) < count:
        columns = []
        for width in widths:
            size = (width + 7) // 8
            raw = rng.randbytes(_BLOCK * size)
            columns.append([
                int.from_bytes(raw[j * size:(j + 1) * size], "little") % (1 << width)
                for j in range(_BLOCK)
            ])
        vectors += zip(*columns)
    return vectors[:count]


def _per_vector_check_equiv(
    reference: DataFlowGraph,
    candidate: DataFlowGraph | Schedule,
    samples: int = 1000,
    seed: int = 0,
) -> EquivResult:
    """check_equiv one vector at a time, with ``_stream``'s vectors."""
    cand_graph = candidate.graph if isinstance(candidate, Schedule) else candidate
    ref_sig = [(p.name, p.width) for p in reference.inputs]
    cand_sig = [(p.name, p.width) for p in cand_graph.inputs]
    if sorted(ref_sig) != sorted(cand_sig):
        raise SimulationError(
            f"input signatures differ: {ref_sig} vs {cand_sig}"
        )
    ref_out = [(n, reference.ref_width(n)) for n in reference.outputs]
    cand_out = [(n, cand_graph.ref_width(n)) for n in cand_graph.outputs]
    if sorted(ref_out) != sorted(cand_out):
        raise SimulationError(
            f"output signatures differ: {ref_out} vs {cand_out}"
        )

    if isinstance(candidate, Schedule):
        simulator._latch_check(candidate)

    ports = list(reference.inputs)
    total_bits = sum(p.width for p in ports)

    def compare(inputs: dict[str, int], checked: int, strategy: str) -> EquivResult | None:
        want = eval_dfg(reference, inputs)
        got = eval_dfg(cand_graph, inputs)
        for name in reference.outputs:
            if got[name] != want[name]:
                return EquivResult(
                    strategy, checked, False, dict(inputs), (name, got[name], want[name])
                )
        return None

    if total_bits <= EXHAUSTIVE_LIMIT:
        checked = 0
        for combo in itertools.product(*(range(1 << p.width) for p in ports)):
            inputs = {p.name: v for p, v in zip(ports, combo)}
            checked += 1
            failed = compare(inputs, checked, "exhaustive")
            if failed is not None:
                return failed
        return EquivResult("exhaustive", checked, True)

    vectors = _stream([p.width for p in ports], seed, samples)
    for k, vector in enumerate(vectors):
        inputs = {p.name: v for p, v in zip(ports, vector)}
        failed = compare(inputs, k + 1, "random")
        if failed is not None:
            return failed
    return EquivResult("random", samples, True)


def _trigger_pair(width: int, trigger: int) -> tuple[DataFlowGraph, DataFlowGraph]:
    """A reference and an add-to-sub flipped candidate that differ only
    where the concatenation {a, b} of two ``width``-bit inputs equals
    ``trigger``; their outputs are listed in opposite orders."""
    bits = format(trigger, f"0{2 * width}b")

    def design(op: str, sign: str, outputs: str) -> DataFlowGraph:
        return parse(
            f"design d;\ninput a : u{width}; input b : u{width};\n"
            f"B: lt u1 = {{a, b}} < const({bits});\n"
            f"A: lt u1 = const({bits}) < {{a, b}};\n"
            "R: select u4 = A, const(0000), const(0001);\n"
            "Q: select u4 = B, const(0000), R;\n"
            f"Y: {op} u4 = a[3:0] {sign} Q;\n"
            f"Z: {op} u4 = b[3:0] {sign} Q;\n" + outputs
        )

    ref = design("add", "+", "output Z; output Y;")
    cand = design("sub", "-", "output Y; output Z;")
    return ref, cand


# First vector, inside the first block, its last vector, the first of
# the second block, and inside later blocks; then around the boundary
# of the first evaluation block, and just past the second one.
_MISMATCH_AT = (
    0, 5, _BLOCK - 1, _BLOCK, _BLOCK + _BLOCK // 2, 3 * _BLOCK + 7,
    _EVAL - 1, _EVAL, _EVAL + 1, 2 * _EVAL + 1,
)
# Random proofs end in a short evaluation block, one full stream block
# and a short one, that holds the last mismatch above.
_SAMPLES = 2 * _EVAL + _BLOCK + 50


@pytest.mark.parametrize("index", _MISMATCH_AT + ((1 << 12) - 1,))
def test_exhaustive_mismatch_lands_where_the_vector_scan_finds_it(index):
    ref, cand = _trigger_pair(6, index)  # 12 input bits, {a, b} == vector index
    got = check_equiv(ref, cand)
    assert got == _per_vector_check_equiv(ref, cand)
    assert got.strategy == "exhaustive" and got.checked == index + 1
    assert got.counterexample == {"a": index >> 6, "b": index & 63}
    assert got.mismatch[0] == "Z"  # the reference's order


@pytest.mark.parametrize("index", _MISMATCH_AT)
def test_random_mismatch_lands_where_the_vector_scan_finds_it(index):
    seed = 3
    drawn = _stream([12, 12], seed, index + 1)
    a, b = drawn[index]
    assert drawn.index((a, b)) == index
    ref, cand = _trigger_pair(12, (a << 12) | b)
    got = check_equiv(ref, cand, samples=_SAMPLES, seed=seed)
    assert got == _per_vector_check_equiv(ref, cand, samples=_SAMPLES, seed=seed)
    assert got.strategy == "random" and got.checked == index + 1
    assert got.counterexample == {"a": a, "b": b}
    assert got.mismatch[0] == "Z"


@pytest.mark.parametrize(
    "widths, index",
    [([5, 6], _EVAL + 1), ([5, 6], 1500), ([5, 6], 2 * _EVAL - 1), ([6, 6], 3 * _EVAL - 2),
     ([4, 5], 300)],
)
def test_exhaustive_mismatch_past_the_first_evaluation_block(widths, index):
    # 11 and 12 input bits fill two and four evaluation blocks; 9 bits
    # fill half of one, two stream blocks joined.
    vectors = list(itertools.product(*(range(1 << w) for w in widths)))
    ref, cand = _vector_pair(widths, vectors[index])
    got = check_equiv(ref, cand)
    assert got == _per_vector_check_equiv(ref, cand)
    assert got.strategy == "exhaustive" and got.checked == index + 1
    assert got.counterexample == dict(zip("pqrs", vectors[index]))
    assert check_equiv(ref, ref) == EquivResult("exhaustive", len(vectors), True)


def test_equal_designs_match_the_vector_scan():
    # 1024 exhaustive vectors fill whole blocks; 150 random ones end in
    # a short block.
    ref, _ = _trigger_pair(5, 0)
    assert check_equiv(ref, ref) == _per_vector_check_equiv(ref, ref)
    assert check_equiv(ref, ref).checked == 1024
    ref, _ = _trigger_pair(12, 0)
    got = check_equiv(ref, ref, samples=150, seed=2)
    assert got == _per_vector_check_equiv(ref, ref, samples=150, seed=2)
    assert got == EquivResult("random", 150, True)


@pytest.mark.parametrize("samples", [1, _BLOCK, _BLOCK + 1])
def test_proofs_of_one_and_of_a_block_match_the_vector_scan(samples):
    ref, _ = _trigger_pair(12, 0)
    got = check_equiv(ref, ref, samples=samples, seed=4)
    assert got == _per_vector_check_equiv(ref, ref, samples=samples, seed=4)
    assert got == EquivResult("random", samples, True)
    drawn = _stream([12, 12], 4, samples)
    a, b = drawn[-1]
    ref, cand = _trigger_pair(12, (a << 12) | b)
    got = check_equiv(ref, cand, samples=samples, seed=4)
    assert got == _per_vector_check_equiv(ref, cand, samples=samples, seed=4)
    assert got.checked == drawn.index((a, b)) + 1


def _vector_pair(widths: list[int], vector: tuple[int, ...]) -> tuple[DataFlowGraph, DataFlowGraph]:
    """A reference and an add-to-sub flipped candidate over inputs
    ``p``, ``q``, ``r``, ``s``... of ``widths`` that differ only on
    ``vector``."""
    names = "pqrs"[: len(widths)]
    bits = "".join(format(v, f"0{w}b") for v, w in zip(vector, widths))
    joined = "{" + ", ".join(names) + "}"

    def design(op: str, sign: str) -> DataFlowGraph:
        return parse(
            "design d;\n" + "".join(f"input {n} : u{w}; " for n, w in zip(names, widths))
            + f"\nB: lt u1 = {joined} < const({bits});\n"
            f"A: lt u1 = const({bits}) < {joined};\n"
            "R: select u4 = A, const(0000), const(0001);\n"
            "Q: select u4 = B, const(0000), R;\n"
            f"Y: {op} u4 = const(0000) {sign} Q;\noutput Y;"
        )

    return design("add", "+"), design("sub", "-")


def test_the_random_stream_is_pinned():
    # Seed 0 over ports of 1, 12, 17 and 32 bits: the first vectors and
    # the first of the second block, written out so that every Python
    # version must draw the same ones.
    widths = [1, 12, 17, 32]
    drawn = _stream(widths, 0, _BLOCK + 1)
    assert drawn[:3] == [
        (1, 4035, 88666, 3759914832),
        (1, 687, 39627, 2893842435),
        (0, 3586, 23420, 2440191754),
    ]
    assert drawn[_BLOCK] == (1, 1541, 65080, 30857475)
    for index in (0, 1, 2, _BLOCK):
        ref, cand = _vector_pair(widths, drawn[index])
        got = check_equiv(ref, cand, samples=_BLOCK + 1, seed=0)
        assert got.checked == index + 1
        assert got.counterexample == dict(zip("pqrs", drawn[index]))


def _unpacked_blocks(blocks, ports: list[InputPort], stride: int) -> list[tuple[int, ...]]:
    """The vectors of packed ``(n, inputs)`` blocks, first block first;
    each packed value must hold exactly ``n`` fields."""
    vectors: list[tuple[int, ...]] = []
    for n, inputs in blocks:
        assert list(inputs) == [p.name for p in ports]
        assert all(x >> stride * n == 0 for x in inputs.values())
        vectors += zip(*(_unpack(inputs[p.name], n, stride) for p in ports))
    return vectors


@pytest.mark.parametrize("stride", [8, 16, 24])
@pytest.mark.parametrize("widths", [[6, 6, 4], [6, 1, 5], [5, 1, 2], [3, 2, 1], [6]])
def test_packed_blocks_hold_the_vectors_in_order(widths, stride):
    # Ports of up to six bits fit a one-byte field; the enumeration
    # counts across it, and the stream reads it, at any stride.
    ports = [InputPort(f"i{k}", w, False) for k, w in enumerate(widths)]
    enumerated = simulator._enumerated(ports, stride)
    want = list(itertools.product(*(range(1 << w) for w in widths)))
    assert _unpacked_blocks(enumerated, ports, stride) == want
    for samples in (1, 300, 2 * _BLOCK):
        drawn = simulator._drawn(ports, stride, samples, 9)
        assert _unpacked_blocks(drawn, ports, stride) == _stream(widths, 9, samples)


@pytest.mark.parametrize("widths", [[16], [1, 15], [5, 1, 7], [3, 2, 1, 4], [2]])
def test_exhaustive_vectors_come_in_product_order(widths):
    # Ports wider and narrower than a block's count, a port split
    # across the bits that count inside a block and those that count
    # blocks, and a space smaller than one block.
    vectors = list(itertools.product(*(range(1 << w) for w in widths)))
    for index in sorted({
        0, 3, _BLOCK - 1, _BLOCK, _EVAL - 1, _EVAL, _EVAL + 1, 2 * _EVAL + 1,
        len(vectors) // 2 + 3, len(vectors) - 1,
    }):
        if index >= len(vectors):
            continue
        ref, cand = _vector_pair(widths, vectors[index])
        got = check_equiv(ref, cand)
        assert got.strategy == "exhaustive" and got.checked == index + 1
        assert got.counterexample == dict(zip("pqrs", vectors[index]))
    assert check_equiv(ref, ref) == EquivResult("exhaustive", len(vectors), True)


@pytest.mark.parametrize(
    "index", [0, 5, _BLOCK - 1, _BLOCK, 700, _EVAL - 1, _EVAL, _EVAL + 1, 2 * _EVAL + 1]
)
def test_a_vector_does_not_depend_on_the_sample_count(index):
    drawn = _stream([12, 12], 6, index + 1)
    a, b = drawn[index]
    assert drawn.index((a, b)) == index
    ref, cand = _trigger_pair(12, (a << 12) | b)
    for samples in (1, _BLOCK, _BLOCK + 1, 1000, _EVAL, _EVAL + 1, 2 * _EVAL + 2):
        got = check_equiv(ref, cand, samples=samples, seed=6)
        if samples > index:
            assert got.checked == index + 1 and got.counterexample == {"a": a, "b": b}
        else:
            assert got == EquivResult("random", samples, True)


def test_vectors_do_not_depend_on_the_candidate():
    # An unread 40-bit add widens the candidate's fields; the vectors,
    # and so the counterexample, stay the same.
    index = _BLOCK + 9
    drawn = _stream([12, 12], 8, index + 1)
    a, b = drawn[index]
    assert drawn.index((a, b)) == index
    ref, cand = _trigger_pair(12, (a << 12) | b)
    wide_add = Operation(
        "W", OpKind.ADD, 40, False,
        (Operand(InputRef("a"), 11, 0), Operand(InputRef("b"), 11, 0)),
    )
    wide = check(dataclasses.replace(cand, ops=cand.ops + (wide_add,)))
    assert simulator._stride(ref, cand) < simulator._stride(ref, wide)
    got = check_equiv(ref, cand, samples=_SAMPLES, seed=8)
    assert got == check_equiv(ref, wide, samples=_SAMPLES, seed=8)
    assert got.checked == index + 1 and got.counterexample == {"a": a, "b": b}


def _flipped(graph: DataFlowGraph, op_id: str) -> DataFlowGraph:
    """``graph`` with ``op_id`` flipped between add and sub."""
    ops = []
    for op in graph.ops:
        if op.id == op_id:
            kind = OpKind.SUB if op.kind is OpKind.ADD else OpKind.ADD
            op = replace(op, kind=kind, carry_in=None)
        ops.append(op)
    return check(dataclasses.replace(graph, ops=tuple(ops)))


def _flippable(graph: DataFlowGraph) -> list[str]:
    carried = {op.carry_in.op for op in graph.ops if isinstance(op.carry_in, CarryRef)}
    return [
        op.id
        for op in graph.ops
        if op.kind in (OpKind.ADD, OpKind.SUB) and op.id not in carried
    ]


@pytest.mark.parametrize(
    "make, seed",
    [(random_add_design, s) for s in range(0, 120, 6)]
    + [(random_full_design, s) for s in range(0, 120, 6)],
)
def test_check_equiv_matches_the_vector_scan_on_flipped_candidates(make, seed):
    graph = make(seed)
    for op_id in _flippable(graph):
        cand = _flipped(graph, op_id)
        for samples in (1, 100, 300):
            assert check_equiv(graph, cand, samples=samples, seed=seed) == (
                _per_vector_check_equiv(graph, cand, samples=samples, seed=seed)
            )


@pytest.mark.parametrize("name", ["sec2", "fig3", "elliptic", "diffeq"])
def test_check_equiv_matches_the_vector_scan_on_schedules(name):
    graph = load_design(name)
    sched = run_pipeline(graph, 3).sched
    assert check_equiv(graph, sched, samples=150, seed=5) == _per_vector_check_equiv(
        graph, sched, samples=150, seed=5
    )
    for op_id in _flippable(graph):
        cand = _flipped(graph, op_id)
        assert check_equiv(cand, sched, samples=150, seed=5) == (
            _per_vector_check_equiv(cand, sched, samples=150, seed=5)
        )


def _sign_flipped(graph: DataFlowGraph, op_id: str) -> DataFlowGraph:
    """``graph`` with ``op_id``'s signedness flipped."""
    ops = tuple(
        replace(op, signed=not op.signed) if op.id == op_id else op
        for op in graph.ops
    )
    return check(dataclasses.replace(graph, ops=ops))


def test_check_equiv_matches_the_vector_scan_on_sign_flipped_products():
    # A signed MULT read as unsigned differs only where an operand is
    # negative, so most candidates are refuted somewhere inside a block.
    refuted = 0
    for seed in range(0, 200, 2):
        graph = random_full_design(seed)
        for op in graph.ops:
            if op.kind is not OpKind.MULT:
                continue
            cand = _sign_flipped(graph, op.id)
            for samples in (1, 300):
                got = check_equiv(graph, cand, samples=samples, seed=seed)
                assert got == _per_vector_check_equiv(graph, cand, samples=samples, seed=seed)
                refuted += not got.equivalent
    assert refuted >= 20
