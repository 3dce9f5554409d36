"""End-to-end checks of the command line driver."""

from __future__ import annotations

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitfrag import cli, dfg
from bitfrag.cli import _SUFFIX, main
from bitfrag.dfg import BitView
from bitfrag.dsl import ParseError, emit, parse
from bitfrag.cost import costs
from bitfrag.fragmenter import analyze, fragment
from bitfrag.kernel import extract_kernel
from bitfrag.scheduler import schedule, verify_schedule
from bitfrag.simulator import EquivResult, check_equiv
from bitfrag.timing import bit_arrivals, critical_path, estimate_cycle

from conftest import (
    DESIGN_DIR,
    GLUE_CORE_SOURCE,
    TIE_SOURCE,
    eager_keys,
    random_add_design,
    random_full_design,
    realized_slots,
    replace,
    under_hash_seeds,
)

SEC2 = str(DESIGN_DIR / "sec2.dfg")


def _all_emissions(args: list[str]) -> list[str]:
    for what in _SUFFIX:
        args += ["--emit", what]
    return args


def test_report_fields(capsys):
    assert main([SEC2, "--latency", "3"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["design"] == "sec2"
    assert report["lambda"] == 3
    assert report["n_bits"] == 6
    assert report["critical_path"] == {"ops": ["C", "E", "G"], "time": 18}
    tiles = [(f["lo"], f["hi"], f["cycle"]) for f in report["fragments"]["C"]]
    assert tiles == [(0, 5, 1), (6, 11, 2), (12, 15, 3)]
    assert report["schedule"]["loads"] == {"1": 15, "2": 18, "3": 15}
    assert report["costs"]["registers"]["max"] == 5
    muxes = report["costs"]["port_muxes"]
    assert len(muxes) == 6
    assert all(m["fan_in"] == 3 and m["width"] == 6 for m in muxes)
    assert "equiv" not in report


def test_emitted_transform_is_equivalent(capsys, sec2):
    assert main([SEC2, "--latency", "3", "--emit", "transformed"]) == 0
    transformed = parse(capsys.readouterr().out)
    assert check_equiv(sec2, transformed).equivalent


def test_out_dir_gets_one_file_per_emission(tmp_path):
    args = _all_emissions([SEC2, "--latency", "3", "--out", str(tmp_path)])
    assert main(args) == 0
    for suffix in _SUFFIX.values():
        path = tmp_path / f"sec2{suffix}"
        assert path.is_file() and path.stat().st_size > 0
    assert "cycle 1: 15 adder bits" in (tmp_path / "sec2.schedule.txt").read_text()
    assert "C[0] = 1" in (tmp_path / "sec2.arrivals.txt").read_text()
    assert (tmp_path / "sec2.dot").read_text().startswith("digraph")


def test_repeated_emission_is_written_once(tmp_path, capsys):
    args = [SEC2, "--latency", "3"]
    for what in ("schedule", "arrivals", "schedule", "report", "arrivals"):
        args += ["--emit", what]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert main(args + ["--out", str(tmp_path)]) == 0
    # First-seen order on stdout, one file each with --out.
    names = [f"sec2{_SUFFIX[w]}" for w in ("schedule", "arrivals", "report")]
    assert out == "".join((tmp_path / name).read_text() for name in names)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)


def test_core_fed_through_glue_schedules_and_proves(tmp_path, capsys):
    src = tmp_path / "gluecore.dfg"
    src.write_text(GLUE_CORE_SOURCE)
    args = [str(src), "--latency", "2", "--nbits", "8", "--check-equiv"]
    assert main(args) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["schedule"]["cycles"] == {"1": ["P"], "2": ["Q"]}
    assert report["equiv"]["equivalent"] is True


def test_signed_multiply_by_a_one_bit_factor_compiles_and_proves():
    """A signed multiply is one core over sign-extended factors, so a
    1-bit factor and a concat factor need no special case."""
    text = (
        "design d; input a : s1; input b : s3; input c : u6;"
        " P: mult s6 = a * {b, b[2:1]}; Q: add u6 = P + c; output Q;"
    )
    code, out, err = _run_text(text, ["--latency", "3", "--nbits", "3", "--check-equiv"])
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["costs"]["cores"] == [{"id": "P", "width": 6}]
    assert report["equiv"] == {"strategy": "exhaustive", "checked": 1024, "equivalent": True}


def test_schedule_lists_a_core_by_its_kind(tmp_path, capsys):
    src = tmp_path / "gluecore.dfg"
    src.write_text(GLUE_CORE_SOURCE)
    args = [str(src), "--latency", "2", "--nbits", "8", "--emit", "schedule"]
    assert main(args) == 0
    assert capsys.readouterr().out == (
        "cycle 1: 0 adder bits\n"
        "  P: mult_core width 8\n"
        "cycle 2: 8 adder bits\n"
        "  Q: Q[7:0] width 8\n"
    )


def test_artifacts_are_byte_deterministic(tmp_path):
    base = [SEC2, "--latency", "3", "--check-equiv", "--seed", "7"]
    outs = (tmp_path / "a", tmp_path / "b")
    for out in outs:
        assert main(_all_emissions(base + ["--out", str(out)])) == 0
    for suffix in _SUFFIX.values():
        first, second = (out / f"sec2{suffix}" for out in outs)
        assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize(
    "source", [(DESIGN_DIR / "sec2.dfg").read_text(), TIE_SOURCE], ids=["sec2", "tie"]
)
def test_artifacts_do_not_depend_on_the_hash_seed(tmp_path, source):
    # One process per seed, so set iteration order really differs; all
    # five artifacts go to stdout, one after another.
    src = tmp_path / "design.dfg"
    src.write_text(source)
    args = [str(src), "--latency", "3", "--check-equiv", "--seed", "7"]
    runs = under_hash_seeds(["-m", "bitfrag.cli", *_all_emissions(args)])
    assert [r.returncode for r in runs] == [0, 0], [r.stderr for r in runs]
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].stderr == runs[1].stderr == ""


def test_check_equiv_reports_random_strategy(capsys):
    assert main([SEC2, "--latency", "3", "--check-equiv"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["equiv"]["equivalent"] is True
    assert report["equiv"]["strategy"] == "random"
    assert report["equiv"]["checked"] > 0


def test_empty_design_proves_equivalent(tmp_path, capsys):
    src = tmp_path / "e.dfg"
    src.write_text("design e;\n")
    assert main([str(src), "--latency", "2", "--check-equiv"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["equiv"] == {"strategy": "exhaustive", "checked": 1, "equivalent": True}


def test_parse_error_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.dfg"
    bad.write_text("design broken\n")
    assert main([str(bad), "--latency", "2"]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_carry_from_an_input_exits_one_without_a_traceback(tmp_path, capsys):
    design = tmp_path / "carry.dfg"
    design.write_text("design d;\ninput x : u8;\nb: add u8 carry(x) = x + x;\noutput b;\n")
    assert main([str(design), "--latency", "3"]) == 1
    assert capsys.readouterr().err == "error: 3:1: b: carry source x is not an add\n"


def test_missing_file_exits_one(tmp_path, capsys):
    assert main([str(tmp_path / "absent.dfg"), "--latency", "2"]) == 1
    assert "error:" in capsys.readouterr().err


def test_non_utf8_input_exits_one(tmp_path, capsys):
    bad = tmp_path / "latin1.dfg"
    bad.write_bytes("design caf\xe9;\n".encode("latin-1"))
    assert main([str(bad), "--latency", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and "utf-8" in err


def test_uncreatable_out_dir_exits_one(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main([SEC2, "--latency", "3", "--out", str(blocker / "x")]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_unmeetable_budget_exits_one(capsys):
    assert main([SEC2, "--latency", "3", "--nbits", "1"]) == 1
    assert "error:" in capsys.readouterr().err


def test_latency_is_required():
    with pytest.raises(SystemExit) as exc:
        main([SEC2])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "option",
    [["--latency", "0"], ["--nbits", "0"], ["--nbits", "-3"]],
)
def test_out_of_range_option_is_a_usage_error(option, capsys):
    with pytest.raises(SystemExit) as exc:
        main([SEC2, "--latency", "3", *option])
    assert exc.value.code == 2
    assert "must be at least" in capsys.readouterr().err


def test_core_delay_is_not_an_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main([SEC2, "--latency", "3", "--core-delay", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_bucket_fill_is_not_an_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main([SEC2, "--latency", "3", "--bucket-fill"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --bucket-fill" in capsys.readouterr().err


def test_counterexample_exits_three(capsys, monkeypatch):
    broken = EquivResult(
        "random",
        12,
        False,
        counterexample={"A": 1},
        mismatch=("G", 0, 1),
    )
    monkeypatch.setattr("bitfrag.cli.check_equiv", lambda *a, **k: broken)
    assert main([SEC2, "--latency", "3", "--check-equiv"]) == 3
    captured = capsys.readouterr()
    assert "equivalence failed on output G" in captured.err
    report = json.loads(captured.out)
    assert report["equiv"]["equivalent"] is False
    assert report["equiv"]["mismatch"] == {"output": "G", "got": 0, "want": 1}


def test_a_schedule_that_fails_verification_exits_one(tmp_path, capsys, monkeypatch):
    """The CLI verifies the schedule before it emits anything."""
    real = cli.schedule

    def rushed(*args):  # every unit in cycle 1, out of its window
        sched = real(*args)
        return replace(sched, cycle_of=dict.fromkeys(sched.cycle_of, 1))

    monkeypatch.setattr(cli, "schedule", rushed)
    out = tmp_path / "out"
    assert main(_all_emissions([SEC2, "--latency", "3", "--out", str(out)])) == 1
    assert not out.exists()
    assert main([SEC2, "--latency", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: schedule fails verification: ")
    assert "C1: cycle 1 outside window [2, 2]" in captured.err


@pytest.mark.parametrize("name", ["sec2", "fig3", "elliptic", "diffeq"])
def test_the_pipeline_builds_no_slot_and_no_keyed_table(name, tmp_path, monkeypatch):
    """From parse to emit every pass table is a list by bit number, and
    no bit is named by ``(op, bit)``: with no ``--emit arrivals`` the run
    reaches neither ``bit_arrivals`` nor ``bit_deps``, the only builders
    of a dict by ``(op, bit)``, nor ``BitView.ref``."""
    def refuse(*args):
        raise AssertionError("a pass named a bit by (op, bit)")

    monkeypatch.setattr(cli, "bit_arrivals", refuse)
    monkeypatch.setattr(dfg, "bit_deps", refuse)
    monkeypatch.setattr(BitView, "ref", refuse)
    emissions = ["--emit", "report", "--emit", "transformed", "--emit", "schedule"]
    path = str(DESIGN_DIR / f"{name}.dfg")
    args = [path, "--latency", "3", "--check-equiv", "--out", str(tmp_path), *emissions]
    assert main(args) == 0
    report = json.loads((tmp_path / f"{name}.json").read_text())
    assert report["equiv"]["equivalent"] is True


@pytest.mark.parametrize("name", ["sec2", "fig3", "elliptic", "diffeq"])
def test_a_compile_to_costs_derives_no_keys(name, tmp_path):
    """After a compile to ``costs`` and the proof of the schedule, the
    kernel's view and the fragmented graph's hold their four fields and
    nothing else, so neither has cached any keys.  The tables by ``(op,
    bit)`` built afterwards list their keys in number order, and
    ``--emit arrivals`` writes the arrival table."""
    design = parse((DESIGN_DIR / f"{name}.dfg").read_text())
    kernel, _ = extract_kernel(design)
    critical_path(kernel)
    lam = 3
    n_bits = estimate_cycle(kernel, lam)
    fragments, transformed = fragment(kernel, analyze(kernel, n_bits, lam))
    sched = schedule(transformed, fragments, lam, n_bits)
    assert verify_schedule(sched) == []
    costs(sched)
    assert check_equiv(design, sched)
    for view in (kernel.bit_view, transformed.bit_view):
        assert not hasattr(view, "__dict__") and view._fields == (
            "base", "carried", "producers", "msb_reads"
        )

    slots, problems = realized_slots(transformed, n_bits, sched.cycle_of)
    assert problems == []
    assert list(slots) == list(eager_keys(transformed)[: len(slots)])
    arrivals = bit_arrivals(kernel)
    assert list(arrivals) == list(eager_keys(kernel)[: len(arrivals)])
    path = str(DESIGN_DIR / f"{name}.dfg")
    args = [path, "--latency", str(lam), "--emit", "arrivals", "--out", str(tmp_path)]
    assert main(args) == 0
    lines = (tmp_path / f"{name}{_SUFFIX['arrivals']}").read_text().splitlines()
    assert lines == [f"{op}[{bit}] = {t}" for (op, bit), t in sorted(arrivals.items())]


def _run_text(text: str, args: list[str]) -> tuple[int, str, str]:
    """``main`` on ``text`` written to a design file: the exit code,
    stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "design.dfg"
        path.write_text(text)
        with redirect_stdout(out), redirect_stderr(err):
            code = main([str(path), *args])
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([random_add_design, random_full_design]),
    st.integers(0, 10_000),
    st.integers(1, 5),
    st.none() | st.integers(1, 24),
)
def test_cli_never_raises_on_random_designs(make, seed, lam, nbits):
    """Exit 1 with a typed error, or exit 0 with a schedule that verifies
    clean and proves equivalent to the design."""
    text = emit(make(seed))
    args = ["--latency", str(lam), "--check-equiv"]
    if nbits is not None:
        args += ["--nbits", str(nbits)]
    code, out, err = _run_text(text, args)
    assert code in (0, 1), err
    if code == 1:
        assert err.startswith("error: ")
        return
    assert json.loads(out)["equiv"]["equivalent"] is True

    kernel, _ = extract_kernel(parse(text))
    if nbits is None:
        nbits = estimate_cycle(kernel, lam)
    fragments, transformed = fragment(kernel, analyze(kernel, nbits, lam))
    assert verify_schedule(schedule(transformed, fragments, lam, nbits)) == []


@st.composite
def _carry_design_text(draw) -> str:
    """A small design whose adds take each carry source from the inputs,
    the earlier adds, the earlier non-adds, the op itself or a later op,
    or take none."""
    inputs = [f"x{k}" for k in range(draw(st.integers(1, 3)))]
    kinds = draw(st.lists(st.sampled_from(["add", "add", "sub", "not"]), min_size=1, max_size=5))
    names = [f"o{k}" for k in range(len(kinds))]
    lines = ["design d;"] + [f"input {x} : u{draw(st.integers(1, 6))};" for x in inputs]
    for k, kind in enumerate(kinds):
        pool = st.sampled_from(inputs + names[:k])
        a, b = draw(pool), draw(pool)
        body = {"add": f"{a} + {b}", "sub": f"{a} - {b}", "not": a}[kind]
        carry = draw(st.sampled_from([None, *inputs, *names])) if kind == "add" else None
        clause = f" carry({carry})" if carry else ""
        lines.append(f"{names[k]}: {kind} u{draw(st.integers(1, 6))}{clause} = {body};")
    lines += [f"output {name};" for name in draw(st.sets(st.sampled_from(names), min_size=1))]
    return "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None)
@given(_carry_design_text(), st.integers(1, 3), st.none() | st.integers(1, 4))
def test_any_carry_source_parses_or_is_refused_and_the_cli_never_raises(text, lam, nbits):
    """Each text either parses or raises ParseError, and ``main`` exits 0,
    or 1 with an error line, never with a traceback."""
    try:
        parse(text)
    except ParseError:
        pass
    args = ["--latency", str(lam), "--check-equiv", *_all_emissions([])]
    if nbits is not None:
        args += ["--nbits", str(nbits)]
    code, _, err = _run_text(text, args)
    assert code in (0, 1), err
    assert code == 0 or err.startswith("error: ")
