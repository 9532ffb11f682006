"""In-memory spans around calls into each layer, recorded from outside.

The traced run wraps public functions of the program where its own
modules look them up (``module.attr`` or ``module.Class.method``).  Each
call becomes a span ``(name, start, end, parent, op)`` kept in memory
and written out when the run ends.  A wrap target that no longer exists
is listed as a missing layer and its metrics read 0; the run goes on.

The RTL observer's retire hook fires once per simulated instruction, so
it is timed by an accumulator instead of spans: each span records how
much hook time fell inside it.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from typing import Any, Callable, Optional

#: (module, attribute path, span name).  The span name says which layer
#: the call enters; one function bound in several modules gets a span
#: at each binding the workloads reach.
SPAN_TARGETS = (
    ("repro.core.characterize", "run_session", "xtcore.session"),
    ("repro.core.model", "run_session", "xtcore.session"),
    ("repro.rtl.estimator", "run_session", "xtcore.session"),
    ("repro.core.characterize", "extract_variables", "core.extract"),
    ("repro.core.model", "extract_variables", "core.extract"),
    ("repro.core.characterize", "generate_netlist", "rtl.netlist"),
    ("repro.core.estimator", "generate_netlist", "rtl.netlist"),
    ("repro.core.characterize", "RtlEnergyEstimator", "rtl.netlist"),
    ("repro.core.estimator", "RtlEnergyEstimator", "rtl.netlist"),
    ("repro.dse.evaluate", "generate_netlist", "dse.area"),
    ("repro.dse.evaluate", "run_batch", "xtcore.batch"),
    ("repro.dse.space", "SearchSpace.build", "dse.build"),
    ("repro.xtcore.compiled", "compile_program", "xtcore.compile"),
    ("repro.xtcore.compiled", "compile_superops", "xtcore.lower"),
)
#: Per-instruction hook timed by accumulation.
HOOK_TARGET = ("repro.rtl.estimator", "RtlEnergyObserver.on_retire", "rtl.observer")


class Tracer:
    """Collects spans for the ops of one traced pass."""

    def __init__(self) -> None:
        #: [name, start, end, parent index, op id, hook seconds, count] where
        #: count is the instructions a session retired or the configs a
        #: batch ran
        self.spans: list[list] = []
        self.ops: dict[int, tuple[float, float]] = {}
        self.missing: list[str] = []
        self.op: Optional[int] = None
        self.hook_seconds = 0.0
        self._stack: list[int] = []
        self._restore: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span.  Re-entry into the same layer is one span."""
        if self._stack and self.spans[self._stack[-1]][0] == name:
            return fn(*args, **kwargs)
        if name == "xtcore.session" and kwargs.get("observers"):
            name = "xtcore.session_observed"
        index = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.op, 0.0, 0]
        self.spans.append(span)
        self._stack.append(index)
        hook_before = self.hook_seconds
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            span[5] = self.hook_seconds - hook_before
            self._stack.pop()
        if isinstance(result, list):
            span[6] = len(result)
        elif hasattr(result, "stats"):
            span[6] = int(result.stats.total_instructions)
        return result

    # -- wrapping ------------------------------------------------------------

    def _resolve(self, module: str, path: str):
        owner = importlib.import_module(module)
        parts = path.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part)
        return owner, parts[-1], getattr(owner, parts[-1])

    def install(self) -> None:
        """Wrap every target; list the ones that no longer exist."""
        for module, path, name in SPAN_TARGETS:
            try:
                owner, attr, original = self._resolve(module, path)
            except (ImportError, AttributeError):
                self.missing.append(f"{module}.{path}")
                continue

            def wrapper(*args, _fn=original, _name=name, **kwargs):
                return self.call(_name, _fn, *args, **kwargs)

            functools.update_wrapper(wrapper, original)
            self._patch(owner, attr, original, wrapper)
        module, path, _ = HOOK_TARGET
        try:
            owner, attr, original = self._resolve(module, path)
        except (ImportError, AttributeError):
            self.missing.append(f"{module}.{path}")
            return
        clock = time.perf_counter

        def hook(observer, event, _fn=original):
            start = clock()
            try:
                return _fn(observer, event)
            finally:
                self.hook_seconds += clock() - start

        self._patch(owner, attr, original, hook)

    def _patch(self, owner, attr: str, original, replacement) -> None:
        self._restore.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- output ----------------------------------------------------------------

    def write(self, path: str) -> None:
        names = ("name", "start", "end", "parent", "op", "hook_s", "count")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "missing_layers": self.missing,
                    "ops": {str(k): v for k, v in self.ops.items()},
                    "spans": [dict(zip(names, span)) for span in self.spans],
                },
                handle,
            )


class LayerTotals:
    """Self times, counts and coverage folded from a tracer's spans."""

    def __init__(self, tracer: Tracer) -> None:
        spans = tracer.spans
        child_time = [0.0] * len(spans)
        for span in spans:
            if span[3] is not None:
                child_time[span[3]] += span[2] - span[1]
        self.self_seconds: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self.hook_seconds = 0.0
        root_seconds = 0.0
        for index, (name, start, end, parent, op, hook, count) in enumerate(spans):
            own = end - start - child_time[index]
            if name == "xtcore.session_observed":
                own -= hook
                self.hook_seconds += hook
            self.self_seconds[name] = self.self_seconds.get(name, 0.0) + own
            self.calls[name] = self.calls.get(name, 0) + 1
            self.counts[name] = self.counts.get(name, 0) + count
            if parent is None and op is not None:
                root_seconds += end - start
        self.op_count = len(tracer.ops)
        self.op_seconds = sum(end - start for start, end in tracer.ops.values())
        self.coverage_pct = 100.0 * root_seconds / self.op_seconds if self.op_seconds else 0.0

    def ms_per_op(self, name: str) -> float:
        if name == "rtl.observer":
            total = self.hook_seconds
        else:
            total = self.self_seconds.get(name, 0.0)
        return 1e3 * total / self.op_count if self.op_count else 0.0

    def ms_per_call(self, name: str) -> float:
        calls = self.calls.get(name, 0)
        return 1e3 * self.self_seconds.get(name, 0.0) / calls if calls else 0.0
