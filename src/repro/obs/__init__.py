"""``repro.obs`` — streaming simulation instrumentation.

The instruction-set simulator emits a stream of events — run start,
per-instruction retire, fine-grained cache/fetch/interlock events, run
finish — to any number of registered :class:`SimObserver` subscribers.
Aggregate statistics and trace materialization are the two bundled
observers; everything else — the reference RTL estimator's online
switching-activity accumulator, the energy timeline, hot-spot and
cache-event profilers, future metrics exporters — plugs into the same
seam.

:func:`run_session` is the entry point that consolidates every
simulation call site: observers and instruction budgets are configured
in one place (and fault harnesses wrap exactly this signature).
"""

from typing import Any

from .bundled import StatsObserver, TraceObserver, apply_event, gpr_accessing_mnemonics
from .events import RetireEvent
from .profilers import (
    CacheEventObserver,
    CacheEventReport,
    EnergyTimelineObserver,
    HotSpotObserver,
    HotSpotReport,
    ObserverStateError,
    TimelineInterval,
    TimelineReport,
)
from .protocol import SimObserver
from .records import ExecutionStats, TraceRecord, class_mix
from .session import DEFAULT_MAX_INSTRUCTIONS, SessionFn, run_session
from .tally import RunTallyObserver

def __getattr__(name: str) -> Any:
    # Lazy: the observer lives with its consumers in repro.discover, whose
    # package import is far heavier than this one.
    if name == "DataflowTraceObserver":
        from ..discover.trace import DataflowTraceObserver

        return DataflowTraceObserver
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CacheEventObserver",
    "CacheEventReport",
    "DEFAULT_MAX_INSTRUCTIONS",
    "DataflowTraceObserver",
    "EnergyTimelineObserver",
    "ExecutionStats",
    "HotSpotObserver",
    "HotSpotReport",
    "ObserverStateError",
    "RetireEvent",
    "RunTallyObserver",
    "SessionFn",
    "SimObserver",
    "StatsObserver",
    "TimelineInterval",
    "TimelineReport",
    "TraceObserver",
    "TraceRecord",
    "apply_event",
    "class_mix",
    "gpr_accessing_mnemonics",
    "run_session",
]
