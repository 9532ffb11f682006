"""The service's persistent worker pool and its worker-side evaluators.

Estimation requests are CPU-bound (one untraced instruction-set
simulation each), so the service dispatches them to a pool of **forked**
worker processes.  Fork matters twice:

* the parent **pre-warms** the process-wide
  :class:`~repro.xtcore.compiled.CompilationCache` before the first fork,
  so every child inherits the lowered benchmark programs copy-on-write
  and never pays first-request compilation latency;
* the model is inherited, and built configs and assembled inline
  programs live in the compilation cache's bounded ``build`` tier, so
  they are built once per worker, never per request.

Where fork is unavailable (or ``workers=0`` is requested) the pool is
an in-process thread executor instead — same interface, same worker
functions, no pickling — which is also what the unit tests run.  That is
a deployment choice made at start-up, never a fallback: a fork pool that
crashes is respawned by :meth:`WorkerPool.restart`, and the frontend
process never scores a batch itself.

Worker functions receive *batches*: a list of small picklable item
dicts, one per queued job, whatever their processor configurations.  A
batch is scored by one call to the estimation kernel,
:meth:`~repro.core.model.EnergyMacroModel.estimate_many`, so items that
share a trajectory (one program, one semantic partition, one budget)
share one simulation pass.  Each batch result carries a
:class:`~repro.obs.RunTallyObserver` snapshot so the frontend's metrics
see worker-side simulation totals.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import multiprocessing
import os
import signal
import threading
from typing import Optional, Sequence

from ..core.model import EnergyMacroModel, MacroEstimate
from ..core.runner import SampleFailure
from ..dse.evaluate import score_payload
from ..obs import RunTallyObserver
from ..programs import characterization_suite
from ..xtcore import ProcessorConfig, build_processor, compilation_cache
from .supervise import (
    CHAOS_KEY,
    DEADLINE_KEY,
    deadline_expired,
    execute_chaos_directive,
)

#: Worker-process globals, installed by :func:`_worker_init`.
_WORKER: dict = {}


def _fork_context() -> Optional[multiprocessing.context.BaseContext]:
    """The fork start method, or None where only spawn exists."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return None


def benchmark_cases() -> dict:
    """Name → bundled :class:`~repro.programs.BenchmarkCase` (per process)."""
    cases = _WORKER.get("benchmark_cases")
    if cases is None:
        cases = {case.name: case for case in characterization_suite(include_variants=False)}
        _WORKER["benchmark_cases"] = cases
    return cases


def _worker_init(model: EnergyMacroModel, fork: bool = False) -> None:
    """Install per-process state (runs in each worker, and inline mode)."""
    _WORKER["model"] = model
    _WORKER["fork"] = fork
    if fork:
        # simulations are batch work: where busy processes outnumber free
        # cores, the frontend (memo hits, parsing, coalescing) gets the
        # CPU first, so cached answers do not queue behind a simulation
        os.nice(10)


#: Signals the server's asyncio loop handles; a forked child must not.
_LOOP_SIGNALS = {signal.SIGINT, signal.SIGTERM}
_fork_mask = threading.local()


def _block_loop_signals() -> None:
    _fork_mask.saved = signal.pthread_sigmask(signal.SIG_BLOCK, _LOOP_SIGNALS)


def _restore_mask() -> None:
    signal.pthread_sigmask(signal.SIG_SETMASK, _fork_mask.saved)


def _disarm_child() -> None:
    """Drop the parent's signal plumbing in a freshly forked child.

    A child inherits the parent's C-level handlers AND its signal wakeup
    fd (the event loop's self-pipe).  A signal the child receives before
    it disarms — e.g. ``ProcessPoolExecutor`` terminating the siblings
    of a dead worker, possibly before they ran any pool initializer —
    would write into that shared pipe, and the PARENT's loop would
    dispatch it as if the server itself had been signalled (spontaneous
    drain).  The signals stay blocked from before the fork until both
    are disarmed, so none can slip into that window; one already
    pending then acts with its default disposition.
    """
    try:
        signal.set_wakeup_fd(-1)
        for signum in _LOOP_SIGNALS:
            signal.signal(signum, signal.SIG_DFL)
    except (OSError, ValueError):  # non-main thread / exotic platform
        pass
    _restore_mask()


if hasattr(os, "register_at_fork") and hasattr(signal, "pthread_sigmask"):
    os.register_at_fork(
        before=_block_loop_signals,
        after_in_parent=_restore_mask,
        after_in_child=_disarm_child,
    )


def _build_config(extensions: tuple[str, ...]) -> ProcessorConfig:
    from ..programs.extensions import ALL_SPEC_FACTORIES

    specs = []
    for mnemonic in extensions:
        factory = ALL_SPEC_FACTORIES.get(mnemonic)
        if factory is None:
            raise ValueError(
                f"unknown extension {mnemonic!r}; available: "
                + ", ".join(sorted(ALL_SPEC_FACTORIES))
            )
        specs.append(factory())
    return build_processor("serve", specs)


def resolve_workload(item: dict):
    """Build (config, program) for one request item.

    Items are the picklable wire shape: either ``{"benchmark": name}`` or
    ``{"name", "source", "extensions"}``.  Inline configs and programs are
    memoized in the compilation cache's bounded ``build`` tier under
    content keys (the extension tuple; the source's sha256 and the
    extensions), so a program's name never splits an entry.
    """
    benchmark = item.get("benchmark")
    if benchmark is not None:
        case = benchmark_cases().get(benchmark)
        if case is None:
            raise ValueError(
                f"unknown benchmark {benchmark!r}; available: "
                + ", ".join(sorted(benchmark_cases()))
            )
        return case.build()
    from ..asm import assemble

    builds = compilation_cache()
    extensions = tuple(item.get("extensions", ()))
    config = builds.get_or_build(
        ("serve.config", extensions), lambda: _build_config(extensions)
    )
    source = item["source"]
    program = builds.get_or_build(
        ("serve.program", extensions, hashlib.sha256(source.encode("utf-8")).hexdigest()),
        lambda: assemble(source, item.get("name", "request"), isa=config.isa),
    )
    return config, program


def _payload(outcome, config: Optional[ProcessorConfig] = None) -> dict:
    """The wire payload of one kernel outcome (see :func:`score_payload`)."""
    payload = score_payload(outcome, config)
    if isinstance(outcome, MacroEstimate):
        payload["instructions"] = int(outcome.stats.total_instructions)
        if outcome.seconds is not None:
            payload["seconds"] = outcome.seconds
        # always shipped: a coalesced waiter may want the breakdown even
        # when the request that triggered the simulation did not
        payload["variables"] = outcome.variables
    return payload


def _estimate_items(items: Sequence[dict], tally: RunTallyObserver) -> list[dict]:
    """Score items through one kernel call; never raises (except by chaos).

    Two supervision hooks run per item before the kernel: a
    parent-stamped chaos directive (worker crash/hang — deliberately not
    contained, that is the point) and the item's propagated deadline,
    shedding expired requests before they pay for simulation.  A
    workload that does not build fails at stage ``build``.
    """
    outcomes: list = [None] * len(items)
    configs: list = [None] * len(items)
    jobs = []
    for index, item in enumerate(items):
        directive = item.get(CHAOS_KEY)
        if directive is not None:
            execute_chaos_directive(directive, fork=bool(_WORKER.get("fork")))
        name = item.get("benchmark") or item.get("name", "request")
        if deadline_expired(item.get(DEADLINE_KEY)):
            outcomes[index] = SampleFailure(
                name=name,
                processor_name="",
                stage="deadline",
                error_type="DeadlineExceeded",
                message="deadline expired before simulation started",
                attempts=1,
            )
            continue
        try:
            config, program = resolve_workload(item)
        except Exception as exc:  # noqa: BLE001 — per-item isolation is the point
            outcomes[index] = SampleFailure.from_exception(name, "", "build", exc)
            continue
        configs[index] = config
        # the operating point rescales the model only: the kernel shares
        # one simulation across items that differ just in the point
        jobs.append(
            (config, program, item.get("operating_point"), int(item["max_instructions"]))
        )
    estimated = iter(_WORKER["model"].estimate_many(jobs, observers=(tally,)))
    return [
        _payload(next(estimated) if outcome is None else outcome, config)
        for outcome, config in zip(outcomes, configs)
    ]


def run_estimate_batch(items: Sequence[dict]) -> dict:
    """Score one batch of estimate items; never raises (except by chaos).

    Per-item failures become ``{"ok": False, ...}`` payloads carrying a
    :class:`~repro.core.runner.SampleFailure`.  One
    :class:`~repro.obs.RunTallyObserver` sees every simulated item of the
    batch and its snapshot rides back with the results, with the superop
    regions the batch fused in this process and the time that took.
    Chaos-carrying batches score item by item — the directives crash or
    wedge the worker at a specific position on purpose.
    """
    tally = RunTallyObserver()
    cache = compilation_cache()
    fused, fuse_seconds = cache.regions_fused, cache.fuse_seconds
    if any(item.get(CHAOS_KEY) is not None for item in items):
        results = [_estimate_items([item], tally)[0] for item in items]
    else:
        results = _estimate_items(items, tally)
    tally.regions_fused = cache.regions_fused - fused
    tally.fuse_seconds = cache.fuse_seconds - fuse_seconds
    return {"results": results, "tally": tally.snapshot()}


def run_explore(item: dict) -> dict:
    """Run one exploration request inside a worker; never raises."""
    import json

    from ..dse import ResultCache, explore, get_space, make_strategy

    model: EnergyMacroModel = _WORKER["model"]
    try:
        model = model.at(item.get("operating_point"))
        space = get_space(item["space"])
        strategy = make_strategy(
            item["strategy"],
            budget=item.get("budget"),
            seed=int(item.get("seed", 0)),
            objective=item.get("objective", "edp"),
        )
        cache_root = item.get("cache_root")
        cache = ResultCache(cache_root) if cache_root else None
        report = explore(
            model,
            space,
            strategy,
            cache=cache,
            objective=item.get("objective", "edp"),
            max_instructions=int(item["max_instructions"]),
        )
        # ranking happens during serialization, so objective errors
        # (e.g. a time objective with no clock) must stay inside the try
        payload = json.loads(report.to_json())
    except Exception as exc:  # noqa: BLE001 — per-request isolation is the point
        return {
            "ok": False,
            "stage": "explore",
            "error_type": type(exc).__name__,
            "message": str(exc),
        }
    top_k = item.get("top_k")
    if top_k is not None:
        payload["scores"] = payload["scores"][: int(top_k)]
    return {"ok": True, "report": payload}


def _kill_children(executor: concurrent.futures.Executor) -> None:
    """SIGKILL every child process a process-pool executor still has."""
    processes = getattr(executor, "_processes", None)
    for process in list((processes or {}).values()):
        try:
            # SIGKILL, not SIGTERM: a wedged worker may never service a
            # catchable signal, and an uncatchable one also cannot echo
            # into any signal plumbing the child inherited across fork
            process.kill()
        except Exception:  # noqa: BLE001 — already-dead children are fine
            pass


class WorkerPool:
    """Persistent, *supervised* executor of estimate batches and explore jobs.

    ``workers >= 1`` with fork available → a
    :class:`concurrent.futures.ProcessPoolExecutor` over forked children.
    ``workers == 0`` (or no fork) → a single-thread in-process executor
    with identical semantics, used by tests and tiny deployments.

    A dead or wedged pool is recoverable: :meth:`restart` kills any
    surviving children, replaces the executor and bumps ``generation``
    so concurrent crash handlers can tell "already respawned" from
    "respawn needed".  Because prewarming happened in the parent before
    the *first* fork, respawned children re-inherit the warm
    :func:`~repro.xtcore.compilation_cache` copy-on-write for free.
    """

    def __init__(
        self,
        model: EnergyMacroModel,
        workers: int = 0,
        prewarm: Sequence[str] = (),
    ) -> None:
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        self.model = model
        self.prewarmed = self._prewarm(prewarm)
        self.mode = "fork" if workers >= 1 and _fork_context() is not None else "inline"
        self.workers = workers if self.mode == "fork" else max(1, workers)
        #: bumped on every restart; crash handlers use it to deduplicate
        self.generation = 0
        #: pool respawns performed over the service lifetime
        self.restarts = 0
        self._executor = self._make_executor()

    def _make_executor(self) -> concurrent.futures.Executor:
        if self.mode == "fork":
            return concurrent.futures.ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=_fork_context(),
                initializer=_worker_init,
                initargs=(self.model, True),
            )
        _worker_init(self.model)
        return concurrent.futures.ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-serve"
        )

    def _prewarm(self, prewarm: Sequence[str]) -> int:
        """Lower bundled benchmarks into the compilation cache pre-fork.

        Runs in the parent, *before* the executor exists: forked children
        inherit the populated :func:`~repro.xtcore.compilation_cache`
        copy-on-write, so no worker ever compiles a prewarmed program.
        """
        names = list(prewarm)
        if names == ["suite"]:
            names = sorted(benchmark_cases())
        warmed = 0
        for name in names:
            case = benchmark_cases().get(name)
            if case is None:
                raise ValueError(f"cannot prewarm unknown benchmark {name!r}")
            config, program = case.build()
            compilation_cache().get_or_compile(config, program)
            warmed += 1
        return warmed

    def restart(self) -> int:
        """Replace a dead/wedged executor; returns the new generation.

        Fork mode first terminates surviving children (a hung worker
        never finishes its batch on its own), then abandons the broken
        executor without waiting and builds a fresh one.  Inline mode
        cannot kill threads; it just swaps executors and lets stragglers
        drain into cancelled futures.
        """
        old = self._executor
        _kill_children(old)
        try:
            old.shutdown(wait=False, cancel_futures=True)
        except Exception:  # noqa: BLE001 — a broken executor may refuse politely
            pass
        self._executor = self._make_executor()
        self.generation += 1
        self.restarts += 1
        return self.generation

    def submit_estimate_batch(
        self, items: Sequence[dict]
    ) -> "concurrent.futures.Future[dict]":
        return self._executor.submit(run_estimate_batch, list(items))

    def submit_explore(self, item: dict) -> "concurrent.futures.Future[dict]":
        return self._executor.submit(run_explore, dict(item))

    def shutdown(self) -> None:
        """Stop the executor without blocking on stragglers.

        Fork mode kills the children (a timed-out job may still be
        running) and then joins the executor, so no manager thread or
        child outlives the pool: the interpreter's exit hook would
        otherwise write to the executor's already closed wakeup pipe.
        Inline mode cannot kill its thread and does not wait for it.
        """
        executor = self._executor
        if self.mode == "fork":
            _kill_children(executor)
        executor.shutdown(wait=self.mode == "fork", cancel_futures=True)
