"""Bit-level fragmentation of additive dataflow designs.

Splits wide ripple adds into fragments a time-constrained schedule can
chain within a clock cycle chosen independently of operation widths,
then reports the timing, schedule, and datapath costs and proves the
transformed design equivalent to the original.
"""

from .dfg import (
    DataFlowGraph,
    Diagnostic,
    InputPort,
    OpKind,
    Operand,
    Operation,
    ValidationError,
    check,
    validate,
)
from .dsl import ParseError, emit, emit_dot, parse
from .fragmenter import (
    Fragment,
    InfeasibleError,
    Mobility,
    analyze,
    fragment,
)
from .kernel import KernelError, extract_kernel
from .scheduler import Schedule, ScheduleError, schedule, schedule_kernel, verify_schedule
from .cost import CostReport, costs
from .simulator import (
    EquivResult,
    SimulationError,
    check_equiv,
    eval_dfg,
    eval_schedule,
)
from .timing import (
    CriticalPath,
    TimingError,
    bit_arrivals,
    critical_path,
    estimate_cycle,
)

__version__ = "0.1.0"

__all__ = [
    "CostReport",
    "CriticalPath",
    "DataFlowGraph",
    "Diagnostic",
    "EquivResult",
    "Fragment",
    "InfeasibleError",
    "InputPort",
    "KernelError",
    "Mobility",
    "OpKind",
    "Operand",
    "Operation",
    "ParseError",
    "Schedule",
    "ScheduleError",
    "SimulationError",
    "TimingError",
    "ValidationError",
    "analyze",
    "bit_arrivals",
    "check",
    "check_equiv",
    "costs",
    "critical_path",
    "emit",
    "emit_dot",
    "estimate_cycle",
    "eval_dfg",
    "eval_schedule",
    "extract_kernel",
    "fragment",
    "parse",
    "schedule",
    "schedule_kernel",
    "validate",
    "verify_schedule",
]
