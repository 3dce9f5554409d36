"""Command line driver.

Parses a design, lowers it to adds, cores, and glue, fragments the adds
so a latency-bound schedule meets the width-independent cycle estimate,
verifies that schedule, and reports timing, schedule, and datapath
costs.  A schedule that fails verification is an error, and nothing is
emitted.  All emissions are deterministic byte for byte for a given
input and options.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .cost import costs
from .dsl import emit, emit_dot, parse
from .fragmenter import analyze, bucket_fragment, fragment
from .kernel import extract_kernel
from .scheduler import schedule, verify_schedule
from .simulator import check_equiv
from .timing import bit_arrivals, critical_path, estimate_cycle

EMISSIONS = ("report", "transformed", "schedule", "dot", "arrivals")

_SUFFIX = {
    "report": ".json",
    "transformed": ".dfg",
    "schedule": ".schedule.txt",
    "dot": ".dot",
    "arrivals": ".arrivals.txt",
}


def _int_at_least(low: int):
    """argparse type for an integer option that must be ``low`` or more."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in its "invalid int value" error
    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bitfrag",
        description=(
            "Fragment the additive operations of a dataflow design at the "
            "bit level so a time-constrained schedule reaches a clock cycle "
            "independent of operation widths."
        ),
    )
    parser.add_argument("input", type=Path, help="design file to optimize")
    parser.add_argument(
        "--latency",
        type=_int_at_least(1),
        required=True,
        metavar="N",
        help="schedule length in cycles",
    )
    parser.add_argument(
        "--nbits",
        type=_int_at_least(1),
        metavar="K",
        help="bits of chaining per cycle (default: critical time / latency)",
    )
    parser.add_argument(
        "--emit",
        action="append",
        choices=EMISSIONS,
        metavar="WHAT",
        help=f"artifact to produce, repeatable; one of {', '.join(EMISSIONS)} "
        "(default: report)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="seed for random equivalence vectors"
    )
    parser.add_argument(
        "--check-equiv",
        action="store_true",
        help="prove the scheduled design equivalent to the input",
    )
    parser.add_argument(
        "--bucket-fill",
        action="store_true",
        help="tile adds with the per-cycle bucket heuristic instead of "
        "per-bit windows",
    )
    parser.add_argument(
        "--out",
        type=Path,
        metavar="DIR",
        help="write artifacts into DIR instead of stdout",
    )
    return parser


def _units_by_cycle(sched, order) -> dict[int, list[str]]:
    """The units of each cycle 1 .. lam, in one pass over ``order``,
    which they keep; ids with no cycle in range are left out."""
    out: dict[int, list[str]] = {c: [] for c in range(1, sched.lam + 1)}
    for uid in order:
        out.get(sched.cycle_of.get(uid), []).append(uid)
    return out


def _schedule_text(sched) -> str:
    lines = []
    frag_of = {f.id: f for parts in sched.fragments.values() for f in parts}
    loads = sched.loads()
    for cycle, units in _units_by_cycle(sched, sched.cycle_of).items():
        lines.append(f"cycle {cycle}: {loads[cycle]} adder bits")
        for uid in units:
            op = sched.graph.op(uid)
            frag = frag_of.get(uid)
            if frag is not None:
                lines.append(
                    f"  {uid}: {frag.parent}[{frag.hi}:{frag.lo}] "
                    f"width {op.width}"
                )
            else:
                lines.append(f"  {uid}: {op.kind.name.lower()} width {op.width}")
    return "\n".join(lines) + "\n"


def _arrivals_text(graph) -> str:
    table = bit_arrivals(graph)
    lines = [f"{op}[{bit}] = {t}" for (op, bit), t in sorted(table.items())]
    return "\n".join(lines) + "\n"


def _report(design, lam, n_bits, crit, sched, cost, equiv) -> dict:
    fragments = {
        parent: [
            {
                "id": f.id,
                "lo": f.lo,
                "hi": f.hi,
                "asap": f.asap_cycle,
                "alap": f.alap_cycle,
                "cycle": sched.cycle_of[f.id],
            }
            for f in parts
        ]
        for parent, parts in sched.fragments.items()
    }
    in_position = _units_by_cycle(sched, (op.id for op in sched.graph.ops))
    cycles = {str(c): units for c, units in in_position.items()}
    report = {
        "design": design.name,
        "lambda": lam,
        "n_bits": n_bits,
        "critical_path": {"ops": list(crit.ops), "time": crit.time},
        "fragments": fragments,
        "schedule": {
            "cycles": cycles,
            "loads": {str(c): n for c, n in sorted(cost.loads.items())},
        },
        "costs": {
            "lanes": [
                {
                    "parent": lane.parent,
                    "width": lane.width,
                    "fragments": list(lane.fragment_ids),
                }
                for lane in cost.lanes
            ],
            "cores": [{"id": cid, "width": w} for cid, w in cost.cores],
            "registers": {
                "per_boundary": {
                    str(b): n for b, n in sorted(cost.stored_per_boundary.items())
                },
                "max": cost.max_stored,
                "bindings": [
                    {
                        "kind": r.kind,
                        "width": r.width,
                        "signals": list(r.signals),
                        "fan_in": r.fan_in,
                    }
                    for r in cost.registers
                ],
            },
            "port_muxes": [
                {
                    "lane": m.lane,
                    "port": m.port,
                    "fan_in": m.fan_in,
                    "width": m.width,
                }
                for m in cost.port_muxes
            ],
            "carry_fan_in": dict(cost.carry_fan_in),
        },
    }
    if equiv is not None:
        entry = {
            "strategy": equiv.strategy,
            "checked": equiv.checked,
            "equivalent": equiv.equivalent,
        }
        if not equiv.equivalent:
            entry["counterexample"] = equiv.counterexample
            entry["mismatch"] = {
                "output": equiv.mismatch[0],
                "got": equiv.mismatch[1],
                "want": equiv.mismatch[2],
            }
        report["equiv"] = entry
    return report


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    emissions = dict.fromkeys(args.emit or ["report"])  # once each, first-seen order

    try:
        text = args.input.read_text(encoding="utf-8")
    except OSError as exc:  # its message names the file
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except UnicodeDecodeError as exc:
        print(f"error: {args.input}: {exc}", file=sys.stderr)
        return 1

    try:
        design = parse(text)
        kernel, _trace = extract_kernel(design)
        crit = critical_path(kernel)
        if args.nbits is not None:
            n_bits = args.nbits
        else:
            n_bits = estimate_cycle(kernel, args.latency)
        mobility = analyze(kernel, n_bits, args.latency)
        tile = bucket_fragment if args.bucket_fill else fragment
        fragments, transformed = tile(kernel, mobility)
        sched = schedule(transformed, fragments, args.latency, n_bits)
        problems = verify_schedule(sched)
        if problems:
            print(
                f"error: schedule fails verification: {'; '.join(problems)}",
                file=sys.stderr,
            )
            return 1
        cost = costs(sched)
        equiv = None
        if args.check_equiv:
            equiv = check_equiv(design, sched, seed=args.seed)
    except ValueError as exc:  # every typed error of the pipeline is one
        print(f"error: {exc}", file=sys.stderr)
        return 1

    artifacts: dict[str, str] = {}
    for what in emissions:
        if what == "report":
            payload = _report(
                design, args.latency, n_bits, crit, sched, cost, equiv
            )
            artifacts[what] = json.dumps(payload, indent=2) + "\n"
        elif what == "transformed":
            artifacts[what] = emit(transformed)
        elif what == "schedule":
            artifacts[what] = _schedule_text(sched)
        elif what == "dot":
            artifacts[what] = emit_dot(transformed)
        elif what == "arrivals":
            artifacts[what] = _arrivals_text(kernel)

    if args.out:
        try:
            args.out.mkdir(parents=True, exist_ok=True)
            for what, content in artifacts.items():
                path = args.out / f"{design.name}{_SUFFIX[what]}"
                path.write_text(content)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    else:
        for content in artifacts.values():
            sys.stdout.write(content)

    if equiv is not None and not equiv.equivalent:
        name, got, want = equiv.mismatch
        print(
            f"equivalence failed on output {name}: got {got}, expected {want} "
            f"for inputs {equiv.counterexample}",
            file=sys.stderr,
        )
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
