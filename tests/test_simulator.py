"""Bit-accurate evaluation and equivalence checking."""

import pytest

from bitfrag import parse
from bitfrag import simulator
from bitfrag.dfg import OpBit
from bitfrag.simulator import (
    EXHAUSTIVE_LIMIT,
    SimulationError,
    check_equiv,
    eval_dfg,
    eval_schedule,
)
from conftest import run_pipeline


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

    broken = Schedule(
        p.sched.graph, p.sched.lam, p.sched.n_bits, {}, p.sched.realized,
        p.sched.fragments,
    )
    with pytest.raises(SimulationError, match="unscheduled operations"):
        eval_schedule(broken, {"a": 1, "b": 2})


def test_replay_insists_on_latched_crossings(sec2, monkeypatch):
    # Dropping one stored bit from the cost model must be caught by the
    # replay, proving the discipline check is wired to real reads.
    sched = run_pipeline(sec2, 3).sched
    real = simulator.stored_bits

    def leaky(s):
        held = {b: list(refs) for b, refs in real(s).items()}
        held[1] = [r for r in held[1] if r != OpBit("C0", 5)]
        return held

    monkeypatch.setattr(simulator, "stored_bits", leaky)
    with pytest.raises(SimulationError, match="reads unlatched bit"):
        eval_schedule(sched, {p.name: 0xFFFF for p in sec2.inputs})


def test_check_equiv_rejects_missing_unit():
    g = parse("design d;\ninput a : u4; input b : u4;\nX: add u4 = a + b;\noutput X;")
    p = run_pipeline(g, 2, n_bits=4)
    from bitfrag.scheduler import Schedule

    broken = Schedule(
        p.sched.graph, p.sched.lam, p.sched.n_bits, {}, p.sched.realized,
        p.sched.fragments,
    )
    with pytest.raises(SimulationError, match="unscheduled operations"):
        check_equiv(g, broken)


def test_check_equiv_insists_on_latched_crossings_once(sec2, monkeypatch):
    # The latch check reads no input values: check_equiv runs it once
    # per schedule, and a dropped stored bit still stops the proof.
    sched = run_pipeline(sec2, 3).sched
    real = simulator.stored_bits
    calls = []

    def counted(s):
        calls.append(s)
        return real(s)

    monkeypatch.setattr(simulator, "stored_bits", counted)
    assert check_equiv(sec2, sched, samples=20).equivalent
    assert len(calls) == 1

    def leaky(s):
        held = {b: list(refs) for b, refs in real(s).items()}
        held[1] = [r for r in held[1] if r != OpBit("C0", 5)]
        return held

    monkeypatch.setattr(simulator, "stored_bits", leaky)
    with pytest.raises(SimulationError, match="reads unlatched bit"):
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
