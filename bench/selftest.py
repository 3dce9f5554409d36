"""Self-tests of the benchmark harness.

    python3 -m pytest -q bench/selftest.py

The file name keeps these out of the repository's own test run.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from bitfrag import parse  # noqa: E402
from bitfrag.dsl import emit  # noqa: E402

import pipeline  # noqa: E402
from designs import ladder, mixed_design  # noqa: E402
from workloads import CASE_SETS  # noqa: E402

DESIGN_DIR = ROOT / "src" / "bitfrag" / "designs"


def test_ladder_5x16_is_the_bundled_elliptic():
    bundled = parse((DESIGN_DIR / "elliptic.dfg").read_text())
    generated = parse(emit(ladder(5, 16)))
    assert dataclasses.replace(generated, name=bundled.name) == bundled


def test_generators_are_deterministic_per_seed():
    assert emit(ladder(4, 8, sub=(2,), mult=(3,))) == emit(ladder(4, 8, sub=(2,), mult=(3,)))
    assert all(emit(mixed_design(s)) == emit(mixed_design(s)) for s in range(20))
    assert len({emit(mixed_design(s)) for s in range(20)}) > 1
    for name, build in CASE_SETS.items():
        assert build(3, DESIGN_DIR) == build(3, DESIGN_DIR), name
        # The seed orders a fixed design set.
        assert build(3, DESIGN_DIR) != build(4, DESIGN_DIR), name
        assert {c.id: c for c in build(3, DESIGN_DIR)} == {c.id: c for c in build(4, DESIGN_DIR)}


def test_mixed_designs_cover_every_surface_kind():
    text = "".join(emit(mixed_design(s)) for s in range(60))
    for word in ("add", "sub", "mult s", "mult u", "lt", "max", "min", "not",
                 "select", "carry(t", "carry(0)", "carry(1)"):
        assert word in text, word


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "5",
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=300)


def test_traced_and_untraced_runs_agree():
    lines = {}
    for trace in (0, 1):
        proc = _run("ladder", trace)
        assert proc.returncode == 0
        out = proc.stdout.splitlines()
        assert json.loads(out[-1])["correct"] is True
        lines[trace] = [l for l in out if l.startswith(("digest ", "quality ", "outcomes "))]
    assert len(lines[0]) == 3
    assert lines[0] == lines[1]


def test_roadmap_core_case_is_a_typed_failure():
    text = """
    design roadmap;
    input a : s8; input b : s8; input c : u16;
    p: mult s16 = a * b;
    q: add u16 = p + c;
    output q;
    """
    out = pipeline.compile_case(pipeline.Case("roadmap", text, 3), pipeline.Untraced())
    assert out.cause == "InfeasibleError"


def test_any_other_exception_is_a_counted_crash():
    out = pipeline.compile_case(pipeline.Case("bad", "design ;", 3), pipeline.Tracer())
    assert out.cause == "crash"
    assert "ParseError" in out.detail


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("ladder", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
