"""bitfrag benchmark: compile time, proof time and quality of result.

    python3 bench/run.py --workload ladder --seed 1 --seconds 15 --trace 0
    python3 bench/run.py            # every workload, untraced then traced

Run from any directory of a source checkout; the program is imported
from ``src/``.  One workload run sets the workload up several times,
compiles its design set in whole passes until ``--seconds`` have passed
(at least one pass), checks every output, and prints metrics by name
with their unit.  The last line of standard output is one JSON object
with keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
``end_to_end`` metrics of BENCHMARK.json with ``--trace 0``, its
``per_layer`` metrics with ``--trace 1``.  The exit code is 0 only when
every output is correct.

Without ``--workload`` every workload runs in its own fresh process,
untraced and then traced, and the tracing overhead is printed.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import importlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
SPAN_DIR = ROOT / ".bench_out"
BENCH_MODULES = ("designs", "pipeline", "workloads")
SETUP_REPEATS = 25
REFERENCE_S = 0.0133  # reference_work() time on the machine times are scaled to
CALIBRATE_EVERY_S = 0.1
GATE_VECTORS = 10  # seeded vectors per design in the untimed equivalence gate
TIMED_EQUIV = ("equiv",)  # workloads whose compile includes check_equiv
LAYERS = ("scheduler", "simulator", "dsl", "kernel", "timing", "fragmenter", "cost")
LAYER_TIMES = {
    "scheduler.schedule_s": ("scheduler.schedule",),
    "scheduler.verify_s": ("scheduler.verify_schedule",),
    "simulator.check_equiv_s": ("simulator.check_equiv",),
    "dsl.parse_s": ("dsl.parse",),
    "dsl.emit_s": ("dsl.emit",),
    "kernel.extract_s": ("kernel.extract_kernel",),
    "timing.critical_path_s": ("timing.critical_path",),
    "timing.estimate_cycle_s": ("timing.estimate_cycle",),
    "fragmenter.analyze_s": ("fragmenter.analyze",),
    "fragmenter.fragment_s": ("fragmenter.fragment", "fragmenter.bucket_fragment"),
    "cost.costs_s": ("cost.costs",),
}
COUNTS = (
    "dsl.source_bytes", "kernel.ops_in", "kernel.ops_out", "kernel.cores",
    "timing.critical_time", "timing.result_bits", "fragmenter.fragments",
    "fragmenter.split_adds", "fragmenter.transformed_ops", "scheduler.units",
    "scheduler.pinned", "scheduler.window_cycles", "cost.registers", "cost.port_muxes",
)
CAUSE_METRICS = {
    "InfeasibleError": "fragmenter.infeasible",
    "ScheduleError": "scheduler.errors",
    "KernelError": "kernel.errors",
    "TimingError": "timing.errors",
    "mismatch": "simulator.mismatches",
    "crash": "design.crashes",
}


def set_up(workload: str, seed: int) -> list:
    """Import the program afresh and generate the workload's design texts."""
    for name in list(sys.modules):
        if name == "bitfrag" or name.startswith("bitfrag.") or name in BENCH_MODULES:
            del sys.modules[name]
    importlib.import_module("bitfrag")
    workloads = importlib.import_module("workloads")
    return workloads.CASE_SETS[workload](seed, SRC / "bitfrag" / "designs")


def reference_work() -> None:
    """Fixed pure-Python work of the program's kind: tuples, dicts, sets."""
    table: dict[tuple[int, int], int] = {}
    for i in range(20000):
        key = (i % 977, i & 15)
        table[key] = table.get(key, 0) + len(frozenset((i, i >> 1, i >> 2)))
    sorted(table.items())


class Clock:
    """Wall time scaled to a machine on which reference_work() takes REFERENCE_S.

    On a shared host the speed of a core drifts by up to 2x within one
    run, for the reference loop and the program alike.  While the clock
    is entered, a timer signal runs the loop every CALIBRATE_EVERY_S,
    also in the middle of a long call into the program.  Calibrated
    between designs only, each multi-second proof of ``equiv`` is
    scaled by two speeds taken seconds away from most of its time:
    over ten seeds that left equiv's spreads at 0.07-0.13, against
    0.03 with the timer.  An interval counts its wall time less the
    calibrations inside it, scaled by the mean speed of those
    calibrations and of the ones just before and just after it.
    """

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.factors: list[float] = []
        self.busy = False
        reference_work()  # warm-up, not recorded
        for _ in range(3):
            self.calibrate()

    def __enter__(self) -> Clock:
        signal.signal(signal.SIGALRM, lambda signum, frame: self.calibrate())
        signal.setitimer(signal.ITIMER_REAL, CALIBRATE_EVERY_S, CALIBRATE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.calibrate()

    def calibrate(self) -> None:
        if self.busy:  # a timer signal during a calibration
            return
        self.busy = True
        # With the collector off, the loop frees its objects without
        # collecting the program's young objects.
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        reference_work()
        end = time.perf_counter()
        if enabled:
            gc.enable()
        self.starts.append(start)
        self.ends.append(end)
        self.factors.append(REFERENCE_S / (end - start))
        self.busy = False

    def scaled(self, start: float, end: float) -> float:
        before = max(bisect.bisect_right(self.starts, start) - 1, 0)
        after = min(bisect.bisect_left(self.starts, end), len(self.starts) - 1)
        paused = sum(
            min(e, end) - s
            for s, e in zip(self.starts[before + 1:after], self.ends[before + 1:after])
        )
        return (end - start - paused) * statistics.fmean(self.factors[before:after + 1])


def percentiles(samples: list[float]) -> tuple[float, float]:
    p90 = statistics.quantiles(samples, n=10, method="inclusive")[8]
    return statistics.median(samples), p90


class Run:
    def __init__(self, workload: str, seed: int, seconds: int, trace: bool):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.problems: list[str] = []

    def execute(self) -> dict:
        clock = Clock()
        with clock:
            setups = []
            for _ in range(SETUP_REPEATS):
                gc.collect()
                start = time.perf_counter()
                cases = set_up(self.workload, self.seed)
                setups.append((start, time.perf_counter()))
            records, passes, ranges, tracer = self.measure(cases)

        recs = [records[c.id] for c in sorted(cases, key=lambda c: c.id)]
        run_digest = hashlib.sha256("".join(r.digest for r in recs).encode()).hexdigest()
        causes = Counter(r.cause or "clean" for r in recs)
        scored = sys.modules["workloads"].scored
        quality = Counter()
        for r in recs:
            if r.cause in ("verify", "mismatch", "crash"):
                self.problems.append(f"{r.id}: {r.cause}: {r.detail}")
            elif r.cause is not None and scored(r.id):
                self.problems.append(f"{r.id}: scored for quality, but {r.cause}: {r.detail}")
            elif scored(r.id):
                quality.update(r.quality)
        clean = [r for r in recs if r.cause is None]

        n = len(cases)
        print(
            f"workload {self.workload} seed {self.seed} trace {int(self.trace)}: "
            f"{n} designs per pass, {len(passes)} passes, {n * len(passes)} design samples"
        )
        print(f"digest {run_digest[:16]}")
        print("outcomes " + " ".join(f"{k}={v}" for k, v in sorted(causes.items())))
        for r in [r for r in recs if r.cause is not None][:5]:
            print(f"  e.g. {r.id} (latency {r.lam}): {r.cause}: {r.detail[:100]}")
        print("quality " + " ".join(f"{k}={quality[k]}" for k in sorted(quality)))
        raw = statistics.median(sum(b - a for a, b in times) for times in passes)
        print(
            f"times scaled by speed factors {min(clock.factors):.3f} to {max(clock.factors):.3f} "
            f"(median {statistics.median(clock.factors):.3f}) of {len(clock.factors)} "
            f"calibrations; raw pass wall time {raw:.4f} s"
        )
        if self.trace:
            metrics = self.layer_metrics(clock, tracer, passes, ranges, recs)
            self.write_spans(tracer)
        else:
            metrics = self.end_to_end(clock, setups, passes, len(clean) / n, quality)
        return {
            "attempted": n * len(passes),
            "failed": (n - len(clean)) * len(passes),
            "metrics": metrics,
        }

    def measure(self, cases):
        """Compile the design set in passes.

        Returns the records, each pass's design start and end times, each
        design's pass and span index range, and the tracer.

        Passes repeat until the compiles alone have taken ``seconds``.
        The first pass keeps a Record per design, checked by the gate;
        later passes must reproduce its digests.  Each design starts
        with no garbage and with every older object frozen out of the
        collector's reach, as in a fresh command line process, so its
        time does not depend on what ran before it.
        """
        pipeline = sys.modules["pipeline"]
        tracer = pipeline.Tracer() if self.trace else pipeline.Untraced()
        equiv_seed = self.seed if self.workload in TIMED_EQUIV else None
        records = {}
        passes: list[list[tuple[float, float]]] = []
        ranges: list[tuple[int, int, int]] = []
        measured = 0.0
        while not passes or measured < self.seconds:
            times = []
            for case in cases:
                gc.collect()
                gc.freeze()
                mark = len(tracer.spans)
                start = time.perf_counter()
                out = pipeline.compile_case(case, tracer, equiv_seed)
                times.append((start, time.perf_counter()))
                measured += times[-1][1] - start
                ranges.append((len(passes), mark, len(tracer.spans)))
                digest = pipeline.digest(out)
                if not passes:
                    pipeline.gate(out, tracer, GATE_VECTORS, self.seed)
                    records[case.id] = pipeline.record(out, digest, tracer, self.trace)
                elif digest != records[case.id].digest:
                    self.problems.append(f"{case.id}: pass {len(passes) + 1} differs")
            passes.append(times)
        return records, passes, ranges, tracer

    def end_to_end(self, clock, setups, passes, ok_ratio, quality) -> dict[str, float]:
        scaled = [[clock.scaled(a, b) for a, b in times] for times in passes]
        per_pass = [percentiles([s * 1e3 for s in times]) for times in scaled]
        n = len(scaled[0])
        beyond = sum(s * 1e3 > per_pass[0][1] for s in scaled[0])
        print(
            f"design_ms percentiles: within each pass of {n} designs "
            f"({beyond} beyond p90 in the first), median over {len(passes)} passes"
        )
        return {
            "setup_s": statistics.median(clock.scaled(a, b) for a, b in setups),
            "compile_s": statistics.median(sum(times) for times in scaled),
            "design_ms_p50": statistics.median(p for p, _ in per_pass),
            "design_ms_p90": statistics.median(p for _, p in per_pass),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_ratio": ok_ratio,
            "n_bits_sum": quality["n_bits_sum"],
            "peak_load_bits": quality["peak_load_bits"],
            "lane_bits": quality["lane_bits"],
            "stored_bits": quality["stored_bits"],
        }

    def layer_metrics(self, clock, tracer, passes, ranges, recs) -> dict[str, float]:
        spans = tracer.spans
        # Self time per span: its scaled time less its children's.
        own = [clock.scaled(s.start, s.end) for s in spans]
        for s, t in zip(spans, list(own)):
            if s.parent is not None:
                own[s.parent] -= t
        # Per name: in each pass, and outside the passes (the untimed
        # gate and bit_deps probes, each one design set's worth).
        in_pass = [Counter() for _ in passes]
        timed = set()
        for k, first, end in ranges:
            for i in range(first, end):
                in_pass[k][spans[i].name] += own[i]
            timed.update(range(first, end))
        outside = Counter()
        for i, s in enumerate(spans):
            if i not in timed:
                outside[s.name] += own[i]

        m: dict[str, float] = {}
        for metric, names in LAYER_TIMES.items():
            m[metric] = statistics.median(
                sum(p[n] for n in names) for p in in_pass
            ) + sum(outside[n] for n in names)
        m["dfg.bit_deps_s"] = outside["dfg.bit_deps"]
        totals = [sum(p.values()) for p in in_pass]
        m["trace.compile_s"] = statistics.median(
            sum(clock.scaled(a, b) for a, b in times) for times in passes
        )
        m["trace.self_s"] = statistics.median(totals)
        grand = sum(totals)
        for layer in LAYERS:
            layer_own = sum(
                v for p in in_pass for k, v in p.items() if k.startswith(layer + ".")
            )
            m[f"{layer}.self_share"] = layer_own / grand
        m["design.glue_share"] = sum(p["design"] for p in in_pass) / grand

        counts = Counter()
        for r in recs:
            counts.update(r.counts)
        for name in COUNTS:
            m[name] = counts[name]
        window_cycles = counts["scheduler.window_cycles"]
        m["scheduler.ms_per_window_cycle"] = (
            m["scheduler.schedule_s"] * 1e3 / window_cycles if window_cycles else 0.0
        )
        causes = Counter(r.cause for r in recs)
        for cause, name in CAUSE_METRICS.items():
            m[name] = causes[cause]
        m["scheduler.verify_problems"] = sum(r.verify_problems for r in recs)

        m["simulator.vectors"] = vectors = sum(r.vectors for r in recs)
        check_s = m["simulator.check_equiv_s"]
        m["simulator.vectors_per_s"] = vectors / check_s if check_s else 0.0
        batches = [r.replay for r in recs if r.replay is not None]
        replay = sum(clock.scaled(*r) for r, _ in batches)
        direct = sum(clock.scaled(*d) for _, d in batches)
        per_vector = 1e6 / (sys.modules["pipeline"].REPLAY_VECTORS * max(len(batches), 1))
        m["simulator.replay_us_per_vector"] = replay * per_vector
        m["simulator.direct_us_per_vector"] = direct * per_vector
        m["simulator.replay_over_direct"] = replay / direct if direct else 0.0

        print(
            f"bases: shares are of trace.self_s = {m['trace.self_s']:.4f} s per pass; "
            f"vectors_per_s is over simulator.check_equiv_s = {check_s:.4f} s; "
            f"replay_over_direct is over direct_us_per_vector = "
            f"{m['simulator.direct_us_per_vector']:.2f} us over {len(batches)} "
            f"designs' fixed vector batches; ms_per_window_cycle is over window_cycles = {window_cycles}"
        )
        return m

    def write_spans(self, tracer) -> None:
        SPAN_DIR.mkdir(exist_ok=True)
        path = SPAN_DIR / f"spans-{self.workload}-seed{self.seed}.jsonl"
        with path.open("w") as fh:
            for i, s in enumerate(tracer.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "parent": s.parent, "design": s.design,
                    "start": s.start, "end": s.end,
                }) + "\n")
        print(f"spans written to {path.relative_to(ROOT)} ({len(tracer.spans)} spans)")


def run_one(spec: dict, args) -> int:
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    result = run.execute()
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    if set(result["metrics"]) != set(units):
        missing = sorted(set(units) - set(result["metrics"]))
        extra = sorted(set(result["metrics"]) - set(units))
        print(f"error: metrics differ from BENCHMARK.json: missing {missing}, extra {extra}",
              file=sys.stderr)
        return 1
    metrics = {}
    for name in units:
        value = result["metrics"][name]
        metrics[name] = {"value": value, "unit": units[name]}
        print(f"{name} = {value:.6g} {units[name]}")
    for problem in run.problems:
        print(f"INCORRECT: {problem}", file=sys.stderr)
    correct = not run.problems
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


def run_all(spec: dict, args) -> int:
    """Each workload in a fresh process, untraced then traced."""
    status = 0
    for workload in (w["name"] for w in spec["workloads"]):
        compile_s = {}
        for trace in (0, 1):
            cmd = [
                sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(trace),
            ]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            sys.stdout.write(proc.stdout)
            if proc.returncode != 0:
                status = 1
                continue
            metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
            compile_s[trace] = metrics["trace.compile_s" if trace else "compile_s"]["value"]
        if len(compile_s) == 2:
            print(f"{workload}: trace.overhead_s = {compile_s[1] - compile_s[0]:.4f} s "
                  f"(traced {compile_s[1]:.4f} s - untraced {compile_s[0]:.4f} s)")
    return status


def main(argv: list[str] | None = None) -> int:
    if not (SRC / "bitfrag" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    sys.path.insert(0, str(SRC))
    # One core for the whole run, so calibrations and compiles share it.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.workload is None:
        return run_all(spec, args)
    return run_one(spec, args)


if __name__ == "__main__":
    sys.exit(main())
