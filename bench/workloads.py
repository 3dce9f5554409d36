"""The benchmark's workloads: which designs, at which latency, and why.

Every function here returns ``Case`` objects holding generated ``.dfg`` text.
Each workload's design set is fixed, so its output digest and quality
figures are the same for every seed; the seed orders the designs and
draws the vectors of every equivalence check.
"""

from __future__ import annotations

import random
from pathlib import Path

from bitfrag.dsl import emit

from designs import ladder, mixed_design
from pipeline import Case

# (sections, width) at latency = sections, from a few sections up to 10x16.
LADDERS = ((2, 8), (3, 12), (4, 16), (5, 8), (6, 12), (10, 16))
BUNDLED = ("sec2", "fig3", "elliptic", "diffeq")
EQUIV_LATENCY = 3
MIXED_DESIGNS = 480
MIXED_LATENCIES = (2, 3, 4)
# Generator seeds of the mixed designs refused (InfeasibleError or
# ScheduleError) when this benchmark was defined.  The quality sums leave
# them out, so they cover a fixed set of designs: a fix that makes one of
# these compile raises ok_ratio and leaves the sums alone.
MIXED_REFUSED = (
    0, 3, 4, 10, 12, 15, 19, 21, 22, 25, 26, 27, 33, 35, 36, 38, 40, 42, 48, 51, 52, 54,
    55, 57, 59, 62, 63, 64, 65, 66, 69, 70, 72, 76, 77, 82, 84, 85, 90, 92, 94, 96, 97,
    100, 102, 104, 105, 117, 119, 121, 123, 124, 126, 129, 133, 134, 138, 143, 144, 147,
    149, 162, 163, 165, 170, 171, 177, 180, 182, 184, 185, 186, 187, 190, 195, 198, 208,
    217, 218, 227, 228, 230, 232, 234, 237, 253, 258, 259, 262, 263, 266, 269, 273, 279,
    281, 283, 286, 291, 292, 294, 295, 298, 299, 302, 303, 305, 306, 307, 309, 312, 313,
    314, 324, 326, 327, 335, 338, 340, 342, 343, 344, 345, 352, 353, 358, 359, 366, 373,
    374, 376, 378, 380, 384, 387, 395, 396, 401, 402, 403, 409, 411, 417, 419, 423, 424,
    433, 434, 435, 436, 438, 439, 440, 441, 444, 446, 447, 451, 455, 459, 460, 466, 471,
    472, 474, 478, 479,
)
_REFUSED_IDS = frozenset(f"m{i}" for i in MIXED_REFUSED)


def ladder_cases(seed: int, design_dir: Path) -> list[Case]:
    cases = [
        Case(f"ladder{n}x{w}", emit(ladder(n, w)), n) for n, w in LADDERS
    ]
    random.Random(seed).shuffle(cases)
    return cases


def equiv_cases(seed: int, design_dir: Path) -> list[Case]:
    texts = {name: (design_dir / f"{name}.dfg").read_text() for name in BUNDLED}
    # Subtract lowering in the replay, and a narrow design (12 input
    # bits) so the exhaustive strategy runs next to the random one.
    texts["subladder3x8"] = emit(ladder(3, 8, sub=(3,), name="subladder3x8"))
    texts["narrow2x4"] = emit(ladder(2, 4, mult=(1,), name="narrow2x4"))
    cases = [Case(name, text, EQUIV_LATENCY) for name, text in texts.items()]
    random.Random(seed).shuffle(cases)
    return cases


def mixed_cases(seed: int, design_dir: Path) -> list[Case]:
    # Generator seeds 0..MIXED_DESIGNS-1, each latency and tiling on an
    # equal share; about a third hit the infeasible-estimate gap.
    cases = []
    for i in range(MIXED_DESIGNS):
        graph = mixed_design(i, name=f"m{i}")
        lam = MIXED_LATENCIES[i % len(MIXED_LATENCIES)]
        bucket = (i // len(MIXED_LATENCIES)) % 2 == 1
        cases.append(Case(graph.name, emit(graph), lam, bucket))
    random.Random(seed).shuffle(cases)
    return cases


def scored(case_id: str) -> bool:
    """Whether a design counts in the quality sums.

    Every design of ``ladder`` and ``equiv`` does, and every mixed
    design outside MIXED_REFUSED.  A scored design must compile clean.
    """
    return case_id not in _REFUSED_IDS


CASE_SETS = {"ladder": ladder_cases, "equiv": equiv_cases, "mixed": mixed_cases}
