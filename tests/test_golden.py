"""Frozen command line output: every byte the bundled runs print.

Each digest covers the exit code, stdout and stderr of one in-process
run of ``main`` with all five artifacts on stdout.  A refactor that
keeps behaviour must keep every digest.

The bucket tiling is no longer a command line option, but the
benchmark's mixed workload still runs ``bucket_fragment``; its digests
are the bytes ``main`` prints with ``bucket_fragment`` in place of
``fragment``, as the removed ``--bucket-fill`` printed them.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from bitfrag import cli, extract_kernel
from bitfrag.cli import EMISSIONS, _arrivals_text, main
from bitfrag.fragmenter import InfeasibleError, bucket_fragment, bucket_runs, op_runs
from bitfrag.scheduler import ScheduleError
from bitfrag.timing import critical_path

from conftest import DESIGN_DIR, carried_full_design, random_full_design, run_pipeline

MODES = {
    "plain": [],
    "bucket": [],  # with ``bucket_fragment`` as the CLI's tiler
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
def test_bundled_run_is_byte_identical(case, capsys, monkeypatch):
    design, lam, mode = case.split("-")
    if mode == "bucket":
        monkeypatch.setattr(cli, "fragment", bucket_fragment)
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


# The bundled designs are all adds, and the benchmark's mixed digest
# hashes no critical path, no arrival table and no error text.  These
# digests freeze those outputs on generated designs full of NOT and
# SELECT glue: per design, the kernel's critical path (ops and time),
# its ``--emit arrivals`` text, and at latency 2, 3 and 4 under both
# tilings whether the pipeline at the estimated cycle schedules, or the
# message of the InfeasibleError or ScheduleError it raises.
GLUE_GOLDEN = {
    "carried-0": "8ef57e73e2f6ce23",
    "carried-1": "1889f51c9b9b042c",
    "carried-10": "91622d8f9198794c",
    "carried-11": "72ebc4fc489686f4",
    "carried-12": "a4481dd1224bac9d",
    "carried-13": "0a9eb1d3e04a897a",
    "carried-14": "9861e0c1944f5fe0",
    "carried-15": "af93bc3b849393e4",
    "carried-16": "bd291501cc4ec210",
    "carried-17": "b04c040f7748c495",
    "carried-18": "03429fc4e78b1832",
    "carried-19": "c059f3b9054bffef",
    "carried-2": "abccbf67dc3bdd1f",
    "carried-20": "8614ab246cf81efb",
    "carried-21": "e1f61baf47ca466b",
    "carried-22": "e655c10bd5b6da93",
    "carried-23": "15b6f503bd63bcaa",
    "carried-24": "12b9f3947e9920cc",
    "carried-25": "6feaf94dc10c6e67",
    "carried-26": "2e01e1f84cd2677f",
    "carried-27": "b07817fafda6a0d5",
    "carried-28": "1bad7a27ea410f2a",
    "carried-29": "6dcffe05bf6c8c30",
    "carried-3": "c2e03f2d1b882db1",
    "carried-30": "b3c425054dd3a797",
    "carried-31": "cbcd14bce4c419b6",
    "carried-32": "be3ec195c833ccfa",
    "carried-33": "4491ae4fdd76ce58",
    "carried-34": "e1b42fc364733909",
    "carried-35": "bbdc30a8088934ac",
    "carried-36": "a32c26b628779b14",
    "carried-37": "686ed846428d4471",
    "carried-38": "73e6942b5cb6205b",
    "carried-39": "ec69ea15a08941d8",
    "carried-4": "6ce758c04e8a0a15",
    "carried-5": "875acf31c11bf85d",
    "carried-6": "8082f2b29f9c8f88",
    "carried-7": "cd2d7b4cfcb1f5f0",
    "carried-8": "48741a6b4829370d",
    "carried-9": "22e1dd66af84b5f1",
    "full-0": "cb68a65d4fa926f9",
    "full-1": "aec8a4beb113ad19",
    "full-10": "71e4776337b5caf7",
    "full-11": "ff4d0ce89ff7e580",
    "full-12": "3a7f171beacb4373",
    "full-13": "0c36a29c84cbc7f5",
    "full-14": "f8d2912d554fe32f",
    "full-15": "2dca45958d0d74cc",
    "full-16": "0d8258f4e81dfb5c",
    "full-17": "29d2f2df4d2e591a",
    "full-18": "e7f28cb3a13b624c",
    "full-19": "c15ed90fdb87331b",
    "full-2": "2dbfcc5682cc6593",
    "full-20": "b0b8355e578bf8a4",
    "full-21": "e07eaab30dd5271d",
    "full-22": "7b6a0ef05cec6911",
    "full-23": "562b16b638bd3714",
    "full-24": "cf8b3c686e0fdd62",
    "full-25": "0ead82c96b6fa69c",
    "full-26": "bf69b533dabc660a",
    "full-27": "8967a10b9b181c2c",
    "full-28": "0b902ddbe7d0f6d2",
    "full-29": "0083b3b0ce1a4e38",
    "full-3": "b2feee28f4c0fa96",
    "full-30": "b321cdc762c7bff4",
    "full-31": "8534ff746925cc10",
    "full-32": "020221875b4c0edf",
    "full-33": "1abcc0916008132f",
    "full-34": "c1561c49d705db97",
    "full-35": "1d8d71353c6b8aa7",
    "full-36": "bc65dce8669f2f78",
    "full-37": "fe740565ea0690d5",
    "full-38": "ff31806d2f7875d4",
    "full-39": "1e16556ee7d82291",
    "full-4": "625236f87e60bd79",
    "full-5": "504e386efe4f33e6",
    "full-6": "ed442eee8adb1bae",
    "full-7": "b707744a9d7a8320",
    "full-8": "6ad699e817de7582",
    "full-9": "216ed147a46f0210",
}


def _glue_design_digest(graph) -> str:
    kernel, _ = extract_kernel(graph)
    crit = critical_path(kernel)
    parts = [list(crit.ops), crit.time, _arrivals_text(kernel)]
    for lam in (2, 3, 4):
        for runs in (op_runs, bucket_runs):
            try:
                run_pipeline(graph, lam, runs=runs)
                parts.append("ok")
            except (InfeasibleError, ScheduleError) as err:
                parts.append(f"{type(err).__name__}: {err}")
    blob = json.dumps(parts).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


@pytest.mark.parametrize("case", sorted(GLUE_GOLDEN))
def test_glue_design_outputs_are_frozen(case):
    maker, seed = case.rsplit("-", 1)
    graph = {"full": random_full_design, "carried": carried_full_design}[maker](int(seed))
    assert _glue_design_digest(graph) == GLUE_GOLDEN[case]
