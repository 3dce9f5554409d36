"""One design through the public pipeline, from the benchmark's side.

Calls the public functions in ``cli.main``'s order, each as its own
call, so a traced run can time every layer from outside the
program.  Nothing here is instrumented inside ``src/``.
"""

from __future__ import annotations

import contextlib
import hashlib
import random
import time
from dataclasses import dataclass, field

from bitfrag import cost, dfg, dsl, fragmenter, kernel, scheduler, simulator, timing

REPLAY_VECTORS = 8

# Typed refusals the program documents; any other exception is a crash.
TYPED_ERRORS = (
    fragmenter.InfeasibleError,
    scheduler.ScheduleError,
    kernel.KernelError,
    timing.TimingError,
)


@dataclass(frozen=True)
class Case:
    """One design as the program receives it: source text and options."""

    id: str
    text: str
    lam: int
    bucket: bool = False


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    design: str | None


class Tracer:
    """In-memory spans named ``<layer>.<function>`` under ``design`` spans."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._design: str | None = None

    @contextlib.contextmanager
    def span(self, name: str, design: str | None = None):
        if design is not None:
            self._design = design
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(Span(name, 0.0, 0.0, parent, self._design))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            record = self.spans[index]
            record.start, record.end = start, end

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)


class Untraced:
    """Same interface as Tracer, recording nothing."""

    spans: tuple[Span, ...] = ()

    def span(self, name: str, design: str | None = None):
        return contextlib.nullcontext()

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)


@dataclass
class Outcome:
    case: Case
    cause: str | None = None  # None: clean verified (and equivalent) schedule
    detail: str = ""
    design: dfg.DataFlowGraph | None = None
    kernel: dfg.DataFlowGraph | None = None
    crit: timing.CriticalPath | None = None
    n_bits: int = 0
    fragments: dict = field(default_factory=dict)
    transformed: dfg.DataFlowGraph | None = None
    sched: scheduler.Schedule | None = None
    problems: list[str] = field(default_factory=list)
    report: cost.CostReport | None = None
    emitted: str = ""
    equiv: simulator.EquivResult | None = None  # checked inside the compile
    gated: simulator.EquivResult | None = None  # checked by gate()


def compile_case(case: Case, tracer, equiv_seed: int | None = None) -> Outcome:
    """Run ``case`` through the pipeline; never raises.

    ``equiv_seed`` set means the equivalence check is part of the
    compile, as with ``--check-equiv``.  Typed refusals and crashes are
    recorded in ``Outcome.cause``.
    """
    out = Outcome(case)
    call = tracer.call
    with tracer.span("design", design=case.id):
        try:
            out.design = call("dsl.parse", dsl.parse, case.text)
            out.kernel, _ = call("kernel.extract_kernel", kernel.extract_kernel, out.design)
            out.crit = call("timing.critical_path", timing.critical_path, out.kernel)
            out.n_bits = call(
                "timing.estimate_cycle", timing.estimate_cycle, out.kernel, case.lam
            )
            mobility = call(
                "fragmenter.analyze", fragmenter.analyze, out.kernel, out.n_bits, case.lam
            )
            if case.bucket:
                tiled = call(
                    "fragmenter.bucket_fragment",
                    fragmenter.bucket_fragment, out.kernel, mobility,
                )
            else:
                tiled = call("fragmenter.fragment", fragmenter.fragment, out.kernel, mobility)
            out.fragments, out.transformed = tiled
            out.sched = call(
                "scheduler.schedule", scheduler.schedule,
                out.transformed, out.fragments, case.lam, out.n_bits,
            )
            out.problems = call(
                "scheduler.verify_schedule", scheduler.verify_schedule, out.sched
            )
            out.report = call("cost.costs", cost.costs, out.sched)
            out.emitted = call("dsl.emit", dsl.emit, out.transformed)
            if equiv_seed is not None:
                out.equiv = call(
                    "simulator.check_equiv", simulator.check_equiv,
                    out.design, out.sched, seed=equiv_seed,
                )
        except TYPED_ERRORS as exc:
            out.cause, out.detail = type(exc).__name__, str(exc)
        except Exception as exc:  # a crash is counted, never fatal to the run
            out.cause, out.detail = "crash", f"{type(exc).__name__}: {exc}"
    if out.cause is None:
        if out.problems:
            out.cause, out.detail = "verify", "; ".join(out.problems)
        elif out.equiv is not None and not out.equiv.equivalent:
            out.cause, out.detail = "mismatch", repr(out.equiv.mismatch)
    return out


def gate(out: Outcome, tracer, samples: int, seed: int) -> None:
    """Equivalence against the ``eval_dfg`` oracle over seeded vectors.

    Runs outside the timed region, on designs whose compile did not
    check equivalence itself.
    """
    if out.cause is not None or out.equiv is not None or out.gated is not None:
        return
    with tracer.span("gate", design=out.case.id):
        try:
            result = tracer.call(
                "simulator.check_equiv", simulator.check_equiv,
                out.design, out.sched, samples=samples, seed=seed,
            )
        except Exception as exc:
            out.cause, out.detail = "crash", f"{type(exc).__name__}: {exc}"
            return
    if not result.equivalent:
        out.cause, out.detail = "mismatch", repr(result.mismatch)
    out.gated = result


def _cost_summary(report: cost.CostReport) -> tuple:
    return (
        report.lanes,
        report.cores,
        sorted(report.stored_per_boundary.items()),
        sorted((b, tuple(sorted(s))) for b, s in report.stored_sets.items()),
        report.max_stored,
        report.registers,
        report.port_muxes,
        sorted(report.carry_fan_in.items()),
        sorted(report.loads.items()),
    )


def digest(out: Outcome) -> str:
    """Hash of what the program produced for one design.

    The emitted transformed design, the cycle of every unit, the cost
    summary, and the timed equivalence verdict; a refused design hashes
    its error type.  Vectors drawn by the gate are not included, so
    the hash of a fixed design does not depend on the workload seed.
    """
    if out.cause is not None and out.sched is None:
        body = (out.case.id, out.cause)
    else:
        timed_equiv = None
        if out.equiv is not None:
            timed_equiv = (out.equiv.strategy, out.equiv.checked, out.equiv.equivalent)
        body = (
            out.case.id,
            out.cause,
            out.n_bits,
            out.emitted,
            sorted(out.sched.cycle_of.items()),
            _cost_summary(out.report) if out.report is not None else None,
            timed_equiv,
        )
    return hashlib.sha256(repr(body).encode()).hexdigest()


def quality(out: Outcome) -> dict[str, int]:
    """Quality-of-result figures of one clean design."""
    report = out.report
    return {
        "n_bits_sum": out.n_bits,
        "peak_load_bits": max(report.loads.values(), default=0),
        "lane_bits": sum(lane.width for lane in report.lanes),
        "stored_bits": report.max_stored,
    }


def counters(out: Outcome) -> dict[str, int]:
    """Deterministic work counts of one design, taken outside any span."""
    c: dict[str, int] = {"dsl.source_bytes": len(out.case.text.encode())}
    if out.design is None:
        return c
    c["kernel.ops_in"] = len(out.design.ops)
    if out.kernel is None:
        return c
    c["kernel.ops_out"] = len(out.kernel.ops)
    c["kernel.cores"] = sum(op.kind is dfg.OpKind.MULT_CORE for op in out.kernel.ops)
    c["timing.result_bits"] = sum(op.width for op in out.kernel.ops)
    if out.crit is not None:
        c["timing.critical_time"] = out.crit.time
    if out.transformed is None:
        return c
    c["fragmenter.fragments"] = sum(len(p) for p in out.fragments.values())
    c["fragmenter.split_adds"] = sum(len(p) > 1 for p in out.fragments.values())
    c["fragmenter.transformed_ops"] = len(out.transformed.ops)
    if out.sched is None:
        return c
    mobility = fragmenter.analyze(out.transformed, out.n_bits, out.case.lam)
    windows = scheduler.unit_windows(out.transformed, mobility, out.fragments)
    c["scheduler.units"] = len(windows)
    c["scheduler.pinned"] = sum(
        early == late and out.transformed.op(uid).kind is dfg.OpKind.ADD
        for uid, (early, late) in windows.items()
    )
    c["scheduler.window_cycles"] = sum(
        late - early + 1
        for uid, (early, late) in windows.items()
        if not (early == late and out.transformed.op(uid).kind is dfg.OpKind.ADD)
    )
    if out.report is not None:
        c["cost.registers"] = len(out.report.registers)
        c["cost.port_muxes"] = len(out.report.port_muxes)
    return c


@dataclass
class Record:
    """What the harness keeps of a design after its first compile."""

    id: str
    lam: int
    cause: str | None
    detail: str
    digest: str
    quality: dict[str, int]
    vectors: int  # equivalence vectors checked, in the compile or the gate
    verify_problems: int
    counts: dict[str, int] = field(default_factory=dict)  # traced runs only
    replay: tuple[tuple[float, float], ...] | None = None  # traced runs only


def record(out: Outcome, digest_: str, tracer, traced: bool) -> Record:
    checked = out.equiv if out.equiv is not None else out.gated
    rec = Record(
        out.case.id,
        out.case.lam,
        out.cause,
        out.detail,
        digest_,
        quality(out) if out.cause is None else {},
        checked.checked if checked is not None else 0,
        len(out.problems),
    )
    if traced:
        rec.counts = counters(out)
        if out.cause is None:
            rec.replay = replay_vs_direct(out)
        if out.kernel is not None:
            time_bit_deps(out, tracer)
    return rec


def replay_vs_direct(out: Outcome) -> tuple[tuple[float, float], ...]:
    """Start and end times of ``eval_schedule`` and of ``eval_dfg``.

    Both evaluate the scheduled graph on the same fixed batch of
    REPLAY_VECTORS input vectors.
    """
    graph = out.sched.graph
    rng = random.Random(0)
    batch = [
        {p.name: rng.randrange(1 << p.width) for p in graph.inputs}
        for _ in range(REPLAY_VECTORS)
    ]
    start = time.perf_counter()
    for inputs in batch:
        simulator.eval_schedule(out.sched, inputs)
    middle = time.perf_counter()
    for inputs in batch:
        simulator.eval_dfg(graph, inputs)
    return (start, middle), (middle, time.perf_counter())


def time_bit_deps(out: Outcome, tracer) -> None:
    """One standalone build of the bit view of the kernel graph."""
    with tracer.span("probe", design=out.case.id):
        tracer.call("dfg.bit_deps", dfg.bit_deps, out.kernel)
