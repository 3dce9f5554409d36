"""Frozen command line output: every byte the bundled runs print.

Each digest covers the exit code, stdout and stderr of one in-process
run of ``main`` with all five artifacts on stdout.  A refactor that
keeps behaviour must keep every digest.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from bitfrag.cli import EMISSIONS, main

from conftest import DESIGN_DIR

MODES = {
    "plain": [],
    "bucket": ["--bucket-fill"],
    "equiv": ["--check-equiv", "--seed", "7"],
}

# sha256 of [exit code, stdout, stderr] as JSON, first 16 hex digits.
GOLDEN = {
    "diffeq-l2-bucket": "aca2c84008f85f6c",
    "diffeq-l2-equiv": "cafe675f7994c862",
    "diffeq-l2-plain": "9c8d97ea09042e67",
    "diffeq-l3-bucket": "aca2c84008f85f6c",
    "diffeq-l3-equiv": "e51238dd0d27e1a9",
    "diffeq-l3-plain": "e9f0ff2e280d2e34",
    "diffeq-l4-bucket": "aca2c84008f85f6c",
    "diffeq-l4-equiv": "cad834e4f6079c76",
    "diffeq-l4-plain": "b20759ec014daae8",
    "diffeq-l5-bucket": "184aea81eda7caaa",
    "diffeq-l5-equiv": "813c46bce7c01a9d",
    "diffeq-l5-plain": "b523a517126e13e4",
    "diffeq-l6-bucket": "184aea81eda7caaa",
    "diffeq-l6-equiv": "6154922bf33c4c52",
    "diffeq-l6-plain": "54686dd72c75d2d1",
    "elliptic-l2-bucket": "92473085db5133bc",
    "elliptic-l2-equiv": "cb5529c59e1e7fce",
    "elliptic-l2-plain": "d6e2ec66e4419a2f",
    "elliptic-l3-bucket": "dd6c7970b3572c7f",
    "elliptic-l3-equiv": "4111b36539ac3462",
    "elliptic-l3-plain": "80deef008a98f4cf",
    "elliptic-l4-bucket": "74d3b72c3f42bdb0",
    "elliptic-l4-equiv": "30a00774e433642a",
    "elliptic-l4-plain": "b38f3b7acb35c4f1",
    "elliptic-l5-bucket": "dd6c7970b3572c7f",
    "elliptic-l5-equiv": "4a59a1fdf726d4f0",
    "elliptic-l5-plain": "c5809579a7a17edc",
    "elliptic-l6-bucket": "74d3b72c3f42bdb0",
    "elliptic-l6-equiv": "ff50bc69f04a7ac5",
    "elliptic-l6-plain": "b6ac2dfdc5e72a44",
    "fig3-l2-bucket": "961896572d1d1d2a",
    "fig3-l2-equiv": "0560f91d8cfb3953",
    "fig3-l2-plain": "d077f612e46cc492",
    "fig3-l3-bucket": "2124e6b3b36dba5e",
    "fig3-l3-equiv": "4e1e80f81a8a47c9",
    "fig3-l3-plain": "5255c9eb5c52205c",
    "fig3-l4-bucket": "5621d4c3cb558ee8",
    "fig3-l4-equiv": "541cfb2a5ffab22e",
    "fig3-l4-plain": "e911f53da2e15ad3",
    "fig3-l5-bucket": "3ebb0ba1cf4fa8ec",
    "fig3-l5-equiv": "f634c0bde682574b",
    "fig3-l5-plain": "f1f7d36cce16adb2",
    "fig3-l6-bucket": "3d51d9a5f56bc1bb",
    "fig3-l6-equiv": "a9be6797dd867f74",
    "fig3-l6-plain": "35b1e015834c0f53",
    "sec2-l2-bucket": "94525181a8ee7379",
    "sec2-l2-equiv": "2f9f21cefc87b367",
    "sec2-l2-plain": "441709a2a39d563c",
    "sec2-l3-bucket": "94525181a8ee7379",
    "sec2-l3-equiv": "c147882780482dbb",
    "sec2-l3-plain": "ddb18e8a287542b5",
    "sec2-l4-bucket": "94525181a8ee7379",
    "sec2-l4-equiv": "4e194f29103f4006",
    "sec2-l4-plain": "8d115f05bc6568c3",
    "sec2-l5-bucket": "608dd9264a84e5d4",
    "sec2-l5-equiv": "484746f7d94243b8",
    "sec2-l5-plain": "49eb2503f8ff2c5d",
    "sec2-l6-bucket": "94525181a8ee7379",
    "sec2-l6-equiv": "cc09dcffaecd87a3",
    "sec2-l6-plain": "45847c4e46e2ef29",
}

ZEXT_SOURCE = """
design zext;
input a : u16; input b : u4;
S: add u16 = a + b;
T: add u16 = S + {b, const(01)};
output T;
"""

# Fragments zero-extend past a narrower operand's top bit, and a concat
# operand is cut between fragments.
ZEXT_TRANSFORMED = """\
design zext;

input a : u16;
input b : u4;

S0: add u8 = a[7:0] + b;
S1: add u1 carry(S0) = a[8:8] + const(0);
S2: add u7 carry(S1) = a[15:9] + const(0000000);
T0: add u7 = S0[6:0] + {b, const(01)};
T1: add u1 carry(T0) = S0[7:7] + const(0);
T2: add u8 carry(T1) = {S2, S1} + const(00000000);
T: select u16 = const(1), {T2, T1, T0}, const(0);

output T;
"""

WHOLE_SOURCE = """
design whole;
input a : u8; input b : u4;
U: add u8 = a + const(0011);
V: add u8 = U + {const(01), b};
output V;
"""

# An op left whole keeps each operand at the operand's own width: a
# narrow constant is not widened to the op's width.
WHOLE_TRANSFORMED = """\
design whole;

input a : u8;
input b : u4;

U: add u8 = a + const(0011);
V: add u8 = U + {const(01), b};

output V;
"""


def _run(capsys, args: list[str]) -> str:
    for what in EMISSIONS:
        args += ["--emit", what]
    code = main(args)
    out, err = capsys.readouterr()
    blob = json.dumps([code, out, err]).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_bundled_run_is_byte_identical(case, capsys):
    design, lam, mode = case.split("-")
    args = [str(DESIGN_DIR / f"{design}.dfg"), "--latency", lam[1:], *MODES[mode]]
    assert _run(capsys, args) == GOLDEN[case]


def test_fragments_zero_extend_and_split_concats(tmp_path, capsys):
    src = tmp_path / "zext.dfg"
    src.write_text(ZEXT_SOURCE)
    args = [str(src), "--latency", "2", "--nbits", "9", "--emit", "transformed"]
    assert main(args) == 0
    assert capsys.readouterr().out == ZEXT_TRANSFORMED


def test_whole_ops_keep_operand_widths(tmp_path, capsys):
    src = tmp_path / "whole.dfg"
    src.write_text(WHOLE_SOURCE)
    args = [str(src), "--latency", "2", "--nbits", "16", "--emit", "transformed"]
    assert main(args) == 0
    assert capsys.readouterr().out == WHOLE_TRANSFORMED
