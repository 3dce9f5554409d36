"""Run-to-run steadiness of the benchmark's end-to-end metrics.

    python3 bench/steady.py --workload mixed --seeds 10 --sets 2

Runs ``bench/run.py --trace 0`` once per seed (seeds 1..N) in each set,
one run at a time.  For every end-to-end metric it prints the median
and the spread (distance between the first and third quartile, as a
share of the median) next to the metric's bound, and, with two sets,
how much the second set's median is worse than the first's.  Every
seed must give the same output digest and quality sums in every set.
Exits non-zero when a spread exceeds its bound,
a second median is worse by more than its bound, or outputs differ.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUN = Path(__file__).resolve().parent / "run.py"
QUALITY = ("n_bits_sum", "peak_load_bits", "lane_bits", "stored_bits")


def run(workload: str, seed: int, seconds: int) -> tuple[str, dict]:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    digest = next(line.split()[1] for line in lines if line.startswith("digest "))
    return digest, result


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()

    sets = []
    for k in range(args.sets):
        runs = {}
        for seed in range(1, args.seeds + 1):
            runs[seed] = run(args.workload, seed, args.seconds)
            values = " ".join(
                f"{m}={v['value']:.5g}" for m, v in runs[seed][1]["metrics"].items()
                if m.endswith(("_s", "_p50", "_p90"))
            )
            print(f"set {k + 1} seed {seed}: digest {runs[seed][0]} {values}", flush=True)
        sets.append(runs)

    ok = True
    for seed in sets[0]:
        seen = {
            (d, tuple(r["metrics"][q]["value"] for q in QUALITY))
            for runs in sets for d, r in [runs[seed]]
        }
        if len(seen) != 1:
            print(f"seed {seed}: outputs differ between sets: {seen}")
            ok = False
    print(f"distinct digests over seeds: {len({d for d, _ in sets[0].values()})}")

    print(f"{'metric':16} {'median':>12} {'spread':>8} {'bound':>6}  second/first")
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        medians, spreads = [], []
        for runs in sets:
            values = [r["metrics"][name]["value"] for _, r in runs.values()]
            medians.append(statistics.median(values))
            spreads.append(spread(values))
        shift = ""
        if len(sets) > 1:
            sign = 1 if metric["better"] == "lower" else -1
            worse = sign * (medians[1] - medians[0]) / medians[0]
            shift = f"{worse:+.3f}"
            if worse > bound:
                ok = False
                shift += " WORSE"
        flag = ""
        if max(spreads) > bound:
            ok = False
            flag = " OVER"
        elif max(spreads) > bound / 3:
            flag = " >bound/3"
        print(f"{name:16} {medians[0]:12.5g} "
              f"{'/'.join(f'{s:.3f}' for s in spreads):>8} {bound:6.2f}  {shift}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
