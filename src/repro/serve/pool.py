"""The service's persistent worker pool and its worker-side evaluators.

Estimation requests are CPU-bound (one untraced instruction-set
simulation each), so the service dispatches them to **forked** worker
processes.  Fork matters twice:

* the parent **pre-warms** the process-wide
  :class:`~repro.xtcore.compiled.CompilationCache` before the first fork,
  so every child inherits the lowered benchmark programs copy-on-write
  and never pays first-request compilation latency;
* the model is inherited, and built configs live in the compilation
  cache's bounded ``build`` tier, so they are built once per worker,
  never per request.  Inline programs arrive assembled: the frontend
  assembles each one to compute its request key, and the item carries
  that :class:`~repro.asm.Program` to the worker.

Each child has one socketpair to the frontend, and the frontend's event
loop drives it itself: a call is one length-prefixed pickle written to
the child and one read back, watched with ``add_reader``, so the pool
runs no helper thread and a free child takes the next call first in
first out.  The pool's methods are coroutines.

There is no in-process pool: it always forks (``workers >= 1``;
a platform without ``os.fork`` is refused at construction).  Only a
separate process can be killed when it hangs, and only a separate
process contains a worker's death; a child that dies or is abandoned is
replaced, and the frontend process never scores a batch itself.

Worker functions receive *batches*: a list of small picklable item
dicts, one per queued job, whatever their processor configurations.  A
batch is scored by one call to the estimation kernel,
:meth:`~repro.core.model.EnergyMacroModel.estimate_many`, so items that
share a trajectory (one program, one semantic partition, one budget)
share one simulation pass.  Each batch result carries a
:class:`~repro.obs.RunTallyObserver` snapshot so the frontend's metrics
see worker-side simulation totals and the worker's own batch time.
"""

from __future__ import annotations

import asyncio
import hashlib
import os
import pickle
import signal
import socket
import struct
import threading
import time
from typing import Callable, Optional, Sequence

from ..core.model import EnergyMacroModel
from ..core.runner import SampleFailure
from ..obs import RunTallyObserver
from ..programs import characterization_suite
from ..programs.extensions import extension_specs
from ..rtl import generate_netlist
from ..xtcore import ProcessorConfig, build_processor, compilation_cache
from .supervise import (
    CHAOS_KEY,
    DEADLINE_KEY,
    WorkerCrashed,
    deadline_expired,
    execute_chaos_directive,
)

#: Worker-process globals; :func:`_child_main` installs the model.
_WORKER: dict = {}


def benchmark_cases() -> dict:
    """Name → bundled :class:`~repro.programs.BenchmarkCase` (per process)."""
    cases = _WORKER.get("benchmark_cases")
    if cases is None:
        cases = {case.name: case for case in characterization_suite(include_variants=False)}
        _WORKER["benchmark_cases"] = cases
    return cases


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
    it disarms — e.g. a SIGTERM sent to the whole process group just
    after a fork — would write into that shared pipe, and the PARENT's
    loop would dispatch it as if the server itself had been signalled
    (spontaneous drain).  The signals stay blocked from before the fork until both
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


def resolve_workload(item: dict):
    """Build (config, program) for one request item.

    Items are the picklable wire shape: either ``{"benchmark": name}`` or
    ``{"name", "extensions"}`` with the assembled ``"program"`` or its
    ``"source"``.  The frontend assembles each source to compute the
    request key and dispatches the item with that program, so a worker
    never assembles.  Inline configs and the frontend's programs are
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
        ("serve.config", extensions),
        lambda: build_processor("serve", extension_specs(extensions)),
    )
    program = item.get("program")
    if program is None:
        source = item["source"]
        program = builds.get_or_build(
            ("serve.program", extensions, hashlib.sha256(source.encode("utf-8")).hexdigest()),
            lambda: assemble(source, item.get("name", "request"), isa=config.isa),
        )
    return config, program


def _payload(outcome, config: Optional[ProcessorConfig] = None) -> dict:
    """The wire payload of one kernel outcome: only what the frontend reads.

    The frontend prices each request at its own operating point from the
    ``variables`` (a waiter may also want the breakdown), so an estimate
    ships no energy of its own.
    """
    if isinstance(outcome, SampleFailure):
        return {"ok": False, **outcome.to_payload()}
    return {
        "ok": True,
        "processor": outcome.processor_name,
        "cycles": int(outcome.cycles),
        "area": float(generate_netlist(config).custom_area),
        "variables": outcome.variables,
    }


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
            execute_chaos_directive(directive)
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
        jobs.append((config, program, None, int(item["max_instructions"])))
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
    batch and its snapshot rides back with the results, with what the
    batch did to this process's compilation cache (lowering hits and
    misses, superop regions fused and the time that took) and the
    batch's own wall time (``batch_seconds``: the frontend subtracts it
    from the round trip to time the pool transport).  Chaos-carrying
    batches score item by item — the directives crash or wedge the
    worker at a specific position on purpose.
    """
    began = time.perf_counter()
    tally = RunTallyObserver()
    cache = compilation_cache()
    hits, misses = cache.hits, cache.misses
    fused, fuse_seconds = cache.regions_fused, cache.fuse_seconds
    if any(item.get(CHAOS_KEY) is not None for item in items):
        results = [_estimate_items([item], tally)[0] for item in items]
    else:
        results = _estimate_items(items, tally)
    tally.lowering_hits = cache.hits - hits
    tally.lowering_misses = cache.misses - misses
    tally.regions_fused = cache.regions_fused - fused
    tally.fuse_seconds = cache.fuse_seconds - fuse_seconds
    tally.batch_seconds = time.perf_counter() - began
    return {"results": results, "tally": tally.snapshot()}


def run_explore(item: dict) -> dict:
    """Run one exploration request inside a worker; never raises."""
    import json

    from ..dse import explore, get_space, make_strategy

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
        report = explore(
            model,
            space,
            strategy,
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


# -- the forked workers and their pipes ---------------------------------------

#: Frame header: the byte length of the pickle that follows.
_FRAME = struct.Struct("!Q")


def _frame(message: object) -> bytes:
    data = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
    return _FRAME.pack(len(data)) + data


def _child_main(
    sock: socket.socket, model: EnergyMacroModel, inherited: Sequence[socket.socket]
) -> None:
    """Serve the frontend's calls in a forked child; never returns.

    The child first closes ``inherited``, every other end of the
    frontend's pipes it got across fork: a copy held here would hide
    that pipe's EOF — its child's death — from the frontend.  A call is
    ``(function, argument)``; the reply is ``(True, result)`` or
    ``(False, exception)``.  The child leaves when its own pipe reaches
    EOF: the frontend closed it, or died.
    """
    code = 0
    try:
        for end in inherited:
            end.close()
        _WORKER["model"] = model
        # simulations are batch work: where busy processes outnumber free
        # cores, the frontend (memo hits, parsing, coalescing) gets the
        # CPU first, so cached answers do not queue behind a simulation
        os.nice(10)
        stream = sock.makefile("rb")
        while True:
            header = stream.read(_FRAME.size)
            if len(header) < _FRAME.size:
                break
            call = stream.read(_FRAME.unpack(header)[0])
            try:
                function, argument = pickle.loads(call)
                reply = (True, function(argument))
            except Exception as exc:  # noqa: BLE001 — relayed to the caller
                reply = (False, exc)
            sock.sendall(_frame(reply))
    except BaseException:  # noqa: BLE001 — a broken pipe, a signal: leave
        code = 1
    finally:
        os._exit(code)


class _Child:
    """One forked worker, seen from the frontend's end of its pipe.

    At most one call is outstanding.  The event loop writes the request
    (``add_writer`` only if the pipe buffer fills) and reads the reply
    with ``add_reader``; EOF or a reset resolves an outstanding call with
    :class:`~repro.serve.supervise.WorkerCrashed`.
    """

    def __init__(
        self,
        pid: int,
        sock: socket.socket,
        loop: asyncio.AbstractEventLoop,
        on_lost: Callable[["_Child"], None],
    ) -> None:
        self.pid = pid
        self.sock = sock
        self.alive = True
        self._fd = sock.fileno()
        self._loop = loop
        self._on_lost = on_lost
        self._reply: Optional[asyncio.Future] = None
        #: the reply being read: its frame header, then a buffer of the
        #: length it announces, filled in place
        self._header = bytearray(_FRAME.size)
        self._inbox: Optional[bytearray] = None
        self._received = 0
        self._outbox = memoryview(b"")
        sock.setblocking(False)
        loop.add_reader(self._fd, self._readable)

    def call(self, function: Callable, argument: object) -> "asyncio.Future":
        reply = self._reply = self._loop.create_future()
        self._outbox = memoryview(_frame((function, argument)))
        self._writable()
        return reply

    def _writable(self) -> None:
        try:
            sent = self.sock.send(self._outbox)
        except (BlockingIOError, InterruptedError):
            sent = 0
        except OSError:
            self._on_lost(self)
            return
        self._outbox = self._outbox[sent:]
        if self._outbox:
            self._loop.add_writer(self._fd, self._writable)
        else:
            self._loop.remove_writer(self._fd)

    def _readable(self) -> None:
        """Read what the pipe holds of the reply, up to the frame's end.

        The header is read first; the body then lands in one buffer of
        exactly the announced length, however many reads it takes.
        """
        while True:
            target = self._header if self._inbox is None else self._inbox
            try:
                count = self.sock.recv_into(memoryview(target)[self._received:])
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                count = 0
            if not count:
                self._on_lost(self)
                return
            self._received += count
            if self._received < len(target):
                return
            self._received = 0
            if self._inbox is None:
                self._inbox = bytearray(_FRAME.unpack(self._header)[0])
                continue
            self._inbox = None
            break
        # one call outstanding, so this frame is its reply
        reply, self._reply = self._reply, None
        if reply is None or reply.done():
            return
        try:
            ok, value = pickle.loads(target)
        except Exception as exc:  # noqa: BLE001 — relayed to the caller
            ok, value = False, exc
        if ok:
            reply.set_result(value)
        else:
            reply.set_exception(value)

    def kill(self) -> None:
        """Close the pipe, SIGKILL the child and reap it.

        An outstanding call fails with
        :class:`~repro.serve.supervise.WorkerCrashed`.
        """
        if not self.alive:
            return
        self.alive = False
        reply, self._reply = self._reply, None
        if reply is not None and not reply.done():
            reply.set_exception(
                WorkerCrashed(f"worker {self.pid} died with a call outstanding")
            )
        if not self._loop.is_closed():
            self._loop.remove_reader(self._fd)
            self._loop.remove_writer(self._fd)
        self.sock.close()
        try:
            # SIGKILL, not SIGTERM: a wedged worker may never service a
            # catchable signal, and an uncatchable one also cannot echo
            # into any signal plumbing the child inherited across fork
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass


class WorkerPool:
    """Persistent, *supervised* executor of estimate batches and explore jobs.

    ``workers`` (at least 1) forked children, each driven over its own
    socketpair by the event loop (see the module docstring); a call
    waits first in first out for a free child.

    Children are forked lazily, by the first call, so prewarming in the
    parent reaches them copy-on-write.  A child whose pipe reaches EOF
    (it died) or whose call was abandoned (a timeout: it may be wedged)
    is killed, reaped and replaced at once, and counted in
    :attr:`restarts`; the other children keep their calls.  Because
    prewarming happened before the *first* fork, replacements
    re-inherit the warm :func:`~repro.xtcore.compilation_cache`
    copy-on-write for free.
    """

    def __init__(
        self,
        model: EnergyMacroModel,
        workers: int = 1,
        prewarm: Sequence[str] = (),
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if not hasattr(os, "fork"):
            raise ValueError("the worker pool forks its workers; os.fork is unavailable")
        self.model = model
        self.prewarmed = self._prewarm(prewarm)
        self.workers = workers
        #: children replaced after dying or being abandoned
        self.restarts = 0
        self._children: list[_Child] = []
        #: free children, handed out first in first out
        self._idle: "asyncio.Queue[_Child]" = asyncio.Queue()
        self._closed = False

    def _prewarm(self, prewarm: Sequence[str]) -> int:
        """Lower bundled benchmarks into the compilation cache pre-fork.

        Runs in the parent, *before* any child exists: forked children
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

    @property
    def pids(self) -> list[int]:
        """Process ids of the live forked children."""
        return [child.pid for child in self._children]

    def _spawn(self) -> _Child:
        ours, theirs = socket.socketpair()
        pid = os.fork()
        if pid == 0:
            _child_main(theirs, self.model, [ours, *(c.sock for c in self._children)])
        theirs.close()
        child = _Child(pid, ours, asyncio.get_running_loop(), self._discard)
        self._children.append(child)
        return child

    def _fill(self) -> None:
        while not self._closed and len(self._children) < self.workers:
            self._idle.put_nowait(self._spawn())

    def _discard(self, child: _Child) -> None:
        """Kill and reap one child, and fork its replacement."""
        if child not in self._children:
            return
        self._children.remove(child)
        child.kill()
        if not self._closed:
            self.restarts += 1
            self._fill()

    async def _call(self, function: Callable, argument: object):
        if self._closed:
            raise RuntimeError("the worker pool is shut down")
        self._fill()
        child = await self._idle.get()
        while not child.alive:  # died while idle; its replacement is queued
            child = await self._idle.get()
        try:
            return await child.call(function, argument)
        except asyncio.CancelledError:
            # an abandoned call (a timeout, a shutdown) leaves a child that
            # may be wedged and whose late reply nobody reads
            self._discard(child)
            raise
        finally:
            if child.alive:
                self._idle.put_nowait(child)

    async def estimate_batch(self, items: Sequence[dict]) -> dict:
        """Score one batch of estimate items on a worker."""
        return await self._call(run_estimate_batch, list(items))

    async def explore(self, item: dict) -> dict:
        """Run one exploration on a worker."""
        return await self._call(run_explore, dict(item))

    def close(self) -> None:
        """Take no more calls and fork no more children.

        A child lost from now on is killed and reaped but not replaced,
        so the service closes the pool before it cancels the calls still
        in flight: an abandoned call's child is not swapped for a fresh
        one only for :meth:`shutdown` to kill it.
        """
        self._closed = True

    def shutdown(self) -> None:
        """Stop the pool without blocking on stragglers.

        Closes every pipe, SIGKILLs every child (a timed-out job may
        still be running) and reaps it, so no child outlives the pool.
        """
        self.close()
        for child in list(self._children):
            self._discard(child)
