"""Cross-run aggregation: one observer, many simulations.

Every bundled observer so far profiles a *single* run.  Long-lived
consumers — the estimation service, a DSE sweep, a soak test — instead
want cheap aggregate totals across *every* run that flows through them:
how many simulations, how many instructions and cycles, how much
wall-clock time inside the simulator.  :class:`RunTallyObserver` is that
accumulator.  It opts out of the per-retire stream entirely
(``wants_retire = False``), so registering it costs two callbacks per
run, independent of run length, and it folds the run's
:class:`~repro.obs.records.ExecutionStats` at ``on_run_finish`` instead
of re-counting events.

Tallies are plain dict snapshots and merge associatively, which is how
forked worker processes report back: each worker tallies locally, ships
``snapshot()`` with its results, and the parent ``merge()``\\ s them into
one service-wide view.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

from .protocol import SimObserver

if TYPE_CHECKING:  # pragma: no cover
    from ..asm import Program
    from ..xtcore import ProcessorConfig, SimulationResult


class RunTallyObserver(SimObserver):
    """Aggregate run/instruction/cycle totals across many simulations."""

    wants_retire = False
    wants_events = False
    needs_result = False

    def __init__(self) -> None:
        self.runs_started = 0
        self.runs_finished = 0
        self.instructions = 0
        self.cycles = 0
        self.icache_misses = 0
        self.dcache_misses = 0
        self.sim_seconds = 0.0
        #: superop regions fused, and seconds spent generating them, by
        #: whoever fills these in (the serve worker, per batch)
        self.regions_fused = 0
        self.fuse_seconds = 0.0
        #: wall seconds the serve worker spent on its batches
        self.batch_seconds = 0.0
        self._run_began: float | None = None

    # -- protocol ----------------------------------------------------------

    def on_run_start(self, config: "ProcessorConfig", program: "Program") -> None:
        self.runs_started += 1
        self._run_began = time.perf_counter()

    def on_run_finish(self, result: "SimulationResult") -> None:
        if self._run_began is not None:
            self.sim_seconds += time.perf_counter() - self._run_began
            self._run_began = None
        stats = result.stats
        self.runs_finished += 1
        self.instructions += stats.total_instructions
        self.cycles += stats.total_cycles
        self.icache_misses += stats.icache_misses
        self.dcache_misses += stats.dcache_misses

    # -- aggregation -------------------------------------------------------

    def snapshot(self) -> dict:
        """A merge-able plain-dict copy of the current totals."""
        return {
            "runs_started": self.runs_started,
            "runs_finished": self.runs_finished,
            "instructions": self.instructions,
            "cycles": self.cycles,
            "icache_misses": self.icache_misses,
            "dcache_misses": self.dcache_misses,
            "sim_seconds": self.sim_seconds,
            "regions_fused": self.regions_fused,
            "fuse_seconds": self.fuse_seconds,
            "batch_seconds": self.batch_seconds,
        }

    def merge(self, snapshot: dict) -> None:
        """Fold another tally's :meth:`snapshot` into this one."""
        self.runs_started += int(snapshot.get("runs_started", 0))
        self.runs_finished += int(snapshot.get("runs_finished", 0))
        self.instructions += int(snapshot.get("instructions", 0))
        self.cycles += int(snapshot.get("cycles", 0))
        self.icache_misses += int(snapshot.get("icache_misses", 0))
        self.dcache_misses += int(snapshot.get("dcache_misses", 0))
        self.sim_seconds += float(snapshot.get("sim_seconds", 0.0))
        self.regions_fused += int(snapshot.get("regions_fused", 0))
        self.fuse_seconds += float(snapshot.get("fuse_seconds", 0.0))
        self.batch_seconds += float(snapshot.get("batch_seconds", 0.0))

    def clear(self) -> None:
        self.__init__()

    def __repr__(self) -> str:
        return (
            f"RunTallyObserver({self.runs_finished} runs, "
            f"{self.instructions} instructions, {self.cycles} cycles)"
        )
