"""The four workloads: seeded op sequences, set-up, and how each op runs.

Every workload runs a fixed, seeded sequence of ops in fixed-size
chunks.  ``run_chunk`` returns the per-op latencies and the chunk's busy
time; the caller calibrates between chunks (see ``calib``).  Ops record
their outputs, and ``check`` compares them with the committed golden
digests after timing, so a wrong answer counts the op as failed.

* ``paper``    — characterize the 56-program suite in seeded order, fit,
  and compare the 10 Table II applications against the RTL reference.
  One op is one program; one chunk is one pass.
* ``estimate`` — cold one-shot estimates, as one ``repro estimate``
  process does them: TIE build, assembly, compilation, simulation.
* ``explore``  — one ``dse.explore`` call per op over the Reed-Solomon
  space crossed with three DVFS points.
* ``serve``    — a closed loop of two keep-alive connections against a
  ``repro serve --workers 1`` subprocess.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import pathlib
import random
import signal
import socket
import statistics
import subprocess
import sys
import time
import urllib.request
from collections import deque
from typing import Callable, Optional

HERE = pathlib.Path(__file__).resolve().parent
DATA = HERE / "data"
FIXTURE = DATA / "model_fixture.json"
GOLDEN = DATA / "golden.json"

#: Operating points drawn by ``estimate`` and ``serve``; None is the
#: model's own fit point.
POINTS = (None, "130nm@1.5V@400MHz", "90nm@1.2V@600MHz", "65nm@1.1V@800MHz")
EXPLORE_SPACE = "reed_solomon_tuned"
EXPLORE_BUDGET = 48
#: Explore ops draw their strategy seed from this pool, so every possible
#: op has a committed golden digest.
EXPLORE_SEEDS = 256
#: Request classes of every block of ten serve requests (70% hits, 20%
#: misses, 10% variants), and the window of recent requests they reuse.
SERVE_BLOCK = ("hit",) * 7 + ("miss",) * 2 + ("variant",)
SERVE_RECENT = 16
SERVE_WARMUP = 60
PAPER_WARMUP_PASSES = 1
MIN_OPS = 100


def digest(value) -> str:
    """Short content digest of a JSON-able value (floats given as hex)."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def direct(_name: str, fn: Callable, *args, **kwargs):
    """The untraced stand-in for :meth:`spans.Tracer.call`."""
    return fn(*args, **kwargs)


def load_golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)


def _rng(workload: str, seed: int) -> random.Random:
    # str seeds hash with sha512, independent of PYTHONHASHSEED
    return random.Random(f"perfbench:{workload}:{seed}")


# ---------------------------------------------------------------------------
# op sequences (pure functions of the seed)
# ---------------------------------------------------------------------------


def paper_ops(seed: int, passes: int, programs: int = 56, apps: int = 10) -> list:
    """Per pass: every suite program in seeded order, then every application."""
    rng = _rng("paper", seed)
    ops = []
    for _ in range(passes):
        order = list(range(programs))
        rng.shuffle(order)
        ops += [("char", index) for index in order]
        ops += [("cmp", index) for index in range(apps)]
    return ops


def estimate_ops(seed: int, count: int, jobs: int = 66) -> list:
    """Every (job, point) pair once per round, each round in seeded order."""
    rng = _rng("estimate", seed)
    pairs = [(job, point) for job in range(jobs) for point in range(len(POINTS))]
    ops: list = []
    while len(ops) < count:
        rng.shuffle(pairs)
        ops += pairs
    return ops[:count]


def explore_ops(seed: int, count: int) -> list:
    rng = _rng("explore", seed)
    return [rng.randrange(EXPLORE_SEEDS) for _ in range(count)]


def serve_ops(seed: int, count: int) -> list:
    """``count`` requests as ``(class, source seed, point index)``.

    A hit repeats a recent request exactly; a miss is a fresh generated
    program; a variant is a recent program at another operating point.
    Every block of ten holds the classes of ``SERVE_BLOCK`` in seeded
    order, so any ten consecutive requests have the same class mix.
    """
    rng = _rng("serve", seed)
    recent: deque = deque(maxlen=SERVE_RECENT)
    ops: list = []
    classes: list = []
    while len(ops) < count:
        if not classes:
            classes = list(SERVE_BLOCK)
            rng.shuffle(classes)
        kind = classes.pop()
        if kind == "hit" and recent:
            op = ("hit",) + rng.choice(recent)[1:]
        elif kind == "miss" or not recent:
            op = ("miss", rng.randrange(2**31), rng.randrange(len(POINTS)))
        else:
            _, source, point = rng.choice(recent)
            other = [i for i in range(len(POINTS)) if i != point]
            op = ("variant", source, rng.choice(other))
        ops.append(op)
        recent.append(op)
    return ops


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Workload:
    """One workload: nominal op rate and chunk size, set-up, ops, checks."""

    name = ""
    #: ops per second on the reference host (sets the op count per run)
    rate = 1.0
    #: ops per chunk (about two seconds on the reference host)
    chunk = 1
    #: whether timings are scaled by the host-speed calibration
    calibrated = True
    warmup_ops = 0

    def __init__(self) -> None:
        self.call: Callable = direct
        self.tracer = None
        #: set while measuring; sampled between ops (see ``calib``)
        self.calibrator = None
        self.failed_ops = 0
        self.notes: list[str] = []

    def op_count(self, seconds: float) -> int:
        """Ops for ``seconds`` at the nominal rate, in whole chunks.

        At least ``MIN_OPS``, so the 90th latency percentile has ten ops
        beyond it, and at least two chunks.
        """
        chunks = max(2, -(-MIN_OPS // self.chunk), round(seconds * self.rate / self.chunk))
        return chunks * self.chunk

    def setup(self) -> None:
        from repro.core import EnergyMacroModel

        self.model = EnergyMacroModel.load(str(FIXTURE))

    def inputs(self, seed: int, count: int) -> list:
        raise NotImplementedError

    def warmup(self, seed: int) -> None:
        """Untimed ops before timing (default: none)."""

    def start_second_pass(self, seed: int) -> None:
        """Prepare to run the same ops again (the traced pass)."""

    def set_tracer(self, tracer) -> None:
        self.tracer = tracer
        self.call = tracer.call if tracer is not None else direct

    def run_op(self, op_id: int, op) -> None:
        raise NotImplementedError

    def timed_op(self, op_id: int, op) -> float:
        """Run one op; returns its latency (and tags its spans when traced)."""
        tracer = self.tracer
        if tracer is not None:
            tracer.op = op_id
        start = time.perf_counter()
        self.run_op(op_id, op)
        end = time.perf_counter()
        if tracer is not None:
            tracer.ops[op_id] = (start, end)
            tracer.op = None
        if self.calibrator is not None:
            self.calibrator.ops.append((start, end))
            self.calibrator.tick()
        return end - start

    def run_chunk(self, ops: list, first_id: int) -> tuple[list[float], float]:
        start = time.perf_counter()
        latencies = [self.timed_op(first_id + offset, op) for offset, op in enumerate(ops)]
        return latencies, time.perf_counter() - start

    def check(self) -> int:
        """Compare recorded outputs with the golden file; returns failed ops."""
        return self.failed_ops

    def layer_values(self) -> dict:
        """Workload-specific per-layer values (others read 0)."""
        return {}

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb()

    def close(self) -> None:
        pass


class PaperWorkload(Workload):
    name = "paper"
    rate = 31.0
    chunk = 66

    def setup(self) -> None:
        super().setup()
        from repro.programs import application_suite, characterization_suite

        self.suite = characterization_suite()
        self.apps = application_suite()
        for case in self.suite + self.apps:
            case.build()
        self.golden = load_golden()["paper"]
        self.outputs: dict[int, tuple] = {}
        self.rows: list = []

    def inputs(self, seed: int, count: int) -> list:
        return paper_ops(seed, count // self.chunk, len(self.suite), len(self.apps))

    def warmup(self, seed: int) -> None:
        ops = paper_ops(seed + 1_000_003, PAPER_WARMUP_PASSES, len(self.suite), len(self.apps))
        for start in range(0, len(ops), self.chunk):
            self.run_chunk(ops[start:start + self.chunk], start - len(ops))
        self.warmup_ops = len(ops)

    def run_chunk(self, ops: list, first_id: int) -> tuple[list[float], float]:
        """One pass.  The fit between its halves is busy time, not an op."""
        from repro.core import Characterizer

        self._characterizer = Characterizer()
        self._study = None
        start = time.perf_counter()
        latencies = []
        for offset, op in enumerate(ops):
            if op[0] == "cmp" and self._study is None:
                self._fit(ops, first_id)
            latencies.append(self.timed_op(first_id + offset, op))
        return latencies, time.perf_counter() - start

    def _fit(self, ops: list, first_id: int) -> None:
        from repro.core import EstimationStudy

        result = self.call("core.fit", self._characterizer.fit)
        fixture = self.model.coefficients
        scale = max(abs(float(c)) for c in fixture)
        # the fit varies in its last bits with sample order
        if any(abs(float(a) - float(b)) > 1e-9 * scale for a, b in zip(result.model.coefficients, fixture)):
            if first_id >= 0:  # every comparison of the pass rests on this fit
                self.failed_ops += sum(1 for op in ops if op[0] == "cmp")
            self.notes.append("fresh characterization does not reproduce the fixture")
        self._study = EstimationStudy(result.model)

    def run_op(self, op_id: int, op) -> None:
        kind, index = op
        if kind == "char":
            case = self.suite[index]
            sample = self._characterizer.add_program(
                case.config, case.program, max_instructions=case.max_instructions
            )
            self.outputs[op_id] = (case.name, sample.energy, sample.cycles)
            return
        case = self.apps[index]
        row = self._study.compare(case.config, case.program, max_instructions=case.max_instructions)
        if op_id >= 0:
            self.rows.append(row)
        self.outputs[op_id] = (case.name, row.macro_energy, row.reference_energy, row.cycles)

    def check(self) -> int:
        for op_id, output in self.outputs.items():
            if not paper_matches(output, self.golden.get(output[0])):
                if op_id >= 0:
                    self.failed_ops += 1
                self.notes.append(f"paper output mismatch: {output[0]}")
        return self.failed_ops

    def layer_values(self) -> dict:
        macro = sum(row.macro_seconds for row in self.rows)
        reference = sum(row.reference_seconds for row in self.rows)
        errors = [abs(row.percent_error) for row in self.rows]
        return {
            "paper.speedup_x": reference / macro if macro else 0.0,
            "paper.model_error_pct": statistics.fmean(errors) if errors else 0.0,
        }


def paper_record(output: tuple) -> dict:
    """The golden record of one paper op output."""
    if len(output) == 3:
        return {"energy": output[1].hex(), "cycles": output[2]}
    return {"macro": output[1].hex(), "reference": output[2].hex(), "cycles": output[3]}


def paper_matches(output: tuple, expected: Optional[dict]) -> bool:
    if expected is None:
        return False
    if len(output) == 3:
        return paper_record(output) == expected
    macro = float.fromhex(expected["macro"])
    return (
        output[2].hex() == expected["reference"]
        and output[3] == expected["cycles"]
        and abs(output[1] - macro) <= 1e-9 * abs(macro)
    )


def bundled_jobs() -> list[tuple[str, str, tuple[str, ...], int]]:
    """The 66 bundled cases as ``(name, source, extensions, budget)`` jobs."""
    from repro.programs import application_suite, characterization_suite

    jobs = []
    for case in characterization_suite() + application_suite():
        mnemonics = tuple(impl.spec.mnemonic for impl in case.config.extensions)
        jobs.append((case.name, case.source, mnemonics, case.max_instructions))
    return jobs


def build_config(mnemonics: tuple[str, ...]):
    """Build the processor for an extension list, as the CLI does."""
    from repro.programs.extensions import ALL_SPEC_FACTORIES
    from repro.xtcore import build_processor

    config = build_processor("bench", [ALL_SPEC_FACTORIES[m]() for m in mnemonics])
    config.isa  # the instruction set is part of building the processor
    return config


def estimate_one(model, jobs: list, op: tuple, call: Callable = direct) -> str:
    """One cold estimate; returns the digest of (energy, cycles)."""
    from repro.asm import assemble
    from repro.xtcore import compilation_cache

    job, point = op
    name, source, mnemonics, budget = jobs[job]
    compilation_cache().clear()
    config = call("tie.build", build_config, mnemonics)
    program = call("asm.assemble", assemble, source, name, isa=config.isa)
    estimate = model.at(POINTS[point]).estimate(config, program, max_instructions=budget)
    return digest([estimate.energy.hex(), estimate.cycles])


def estimate_key(jobs: list, op: tuple) -> str:
    return f"{jobs[op[0]][0]}@{POINTS[op[1]]}"


class EstimateWorkload(Workload):
    name = "estimate"
    rate = 190.0
    #: one round of every (job, point) pair, so chunks compare like for like
    chunk = 264

    def setup(self) -> None:
        super().setup()
        self.jobs = bundled_jobs()
        self.golden = load_golden()["estimate"]
        self.outputs: list[tuple[int, tuple, str]] = []

    def inputs(self, seed: int, count: int) -> list:
        return estimate_ops(seed, count, len(self.jobs))

    def run_op(self, op_id: int, op) -> None:
        self.outputs.append((op_id, op, estimate_one(self.model, self.jobs, op, self.call)))

    def check(self) -> int:
        for op_id, op, output in self.outputs:
            if self.golden.get(estimate_key(self.jobs, op)) != output:
                self.failed_ops += 1
                self.notes.append(f"estimate mismatch: {estimate_key(self.jobs, op)}")
        return self.failed_ops


def explore_space():
    from repro.dse import get_space, with_operating_points

    return with_operating_points(get_space(EXPLORE_SPACE), POINTS[1:])


def explore_one(model, space, strategy_seed: int) -> tuple[str, int]:
    """One exploration from a cold compilation cache; returns (digest, candidates)."""
    from repro.dse import RandomStrategy, explore
    from repro.xtcore import compilation_cache

    compilation_cache().clear()
    report = explore(model, space, RandomStrategy(EXPLORE_BUDGET, seed=strategy_seed), jobs=1)
    ranked = [[s.key, s.energy.hex(), s.cycles, s.area.hex()] for s in report.ranked()]
    if report.failures:
        ranked.append(["failures", len(report.failures)])
    return digest(ranked), len(report.scores) + len(report.failures)


class ExploreWorkload(Workload):
    name = "explore"
    rate = 6.5
    chunk = 13

    def setup(self) -> None:
        super().setup()
        self.space = explore_space()
        self.golden = load_golden()["explore"]
        self.outputs: list[tuple[int, int, str]] = []
        self.candidates = 0

    def inputs(self, seed: int, count: int) -> list:
        return explore_ops(seed, count)

    def run_op(self, op_id: int, op) -> None:
        output, candidates = explore_one(self.model, self.space, op)
        if self.tracer is not None:
            self.candidates += candidates
        self.outputs.append((op_id, op, output))

    def check(self) -> int:
        for op_id, strategy_seed, output in self.outputs:
            if self.golden.get(str(strategy_seed)) != output:
                self.failed_ops += 1
                self.notes.append(f"explore mismatch: seed {strategy_seed}")
        return self.failed_ops


class ServeWorkload(Workload):
    """Closed loop: two keep-alive connections, one request in flight each."""

    name = "serve"
    rate = 450.0
    chunk = 450
    connections = 2
    # Most of a miss is the service's fixed batch window, and the kernel
    # sampled in this client process after traffic does not track the
    # server processes' speed, so serve timings are reported unscaled.
    calibrated = False

    def __init__(self, scratch: str) -> None:
        super().__init__()
        self.scratch = scratch
        self.server: Optional[subprocess.Popen] = None
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self.streams: list = []
        self.boots = 0
        #: (class, op id, latency, status, payload, source seed, point)
        self.records: list[tuple] = []

    def setup(self) -> None:
        super().setup()
        self.start_server()

    def start_server(self) -> None:
        self.boots += 1
        port_file = os.path.join(self.scratch, f"port-{self.boots}")
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", str(FIXTURE), "--workers", "1",
             "--port", "0", "--port-file", port_file],
            stdout=subprocess.DEVNULL,
        )
        deadline = time.monotonic() + 60
        while True:
            if self.server.poll() is not None:
                raise RuntimeError(f"server exited with {self.server.returncode}")
            if time.monotonic() > deadline:
                raise RuntimeError("server did not answer /healthz within 60 s")
            try:
                with open(port_file, encoding="utf-8") as handle:
                    self.port = int(handle.read())
                with urllib.request.urlopen(f"http://127.0.0.1:{self.port}/healthz", timeout=5):
                    break
            except (OSError, ValueError):
                time.sleep(0.005)
        self.loop = asyncio.new_event_loop()
        self.streams = [self.loop.run_until_complete(self._connect()) for _ in range(self.connections)]

    async def _connect(self):
        # a connected socket keeps asyncio from resolving the host in a
        # thread pool (a live thread would trip the calibration guard)
        sock = socket.create_connection(("127.0.0.1", self.port))
        return await asyncio.open_connection(sock=sock)

    def stop_server(self) -> None:
        for _, writer in self.streams:
            writer.close()
            # a connection still open at SIGTERM is cancelled noisily
            self.loop.run_until_complete(writer.wait_closed())
        self.streams = []
        if self.loop is not None:
            self.loop.close()
            self.loop = None
        if self.server is not None:
            if self.server.poll() is None:
                self.server.send_signal(signal.SIGTERM)
                try:
                    self.server.wait(timeout=20)
                except subprocess.TimeoutExpired:
                    self.server.kill()
                    self.server.wait()
            self.server = None

    def start_second_pass(self, seed: int) -> None:
        # a fresh server, so the traced pass starts from an empty memo too
        self.stop_server()
        self.start_server()
        self.warmup(seed)

    def inputs(self, seed: int, count: int) -> list:
        from repro.testing.progen import generate_source

        ops = serve_ops(seed, SERVE_WARMUP + count)
        self.sources = {op[1]: generate_source(op[1]) for op in ops}
        requests = []
        for kind, source_seed, point in ops:
            body = {"program": {"source": self.sources[source_seed], "name": f"g{source_seed}"}}
            if POINTS[point] is not None:
                body["operating_point"] = POINTS[point]
            requests.append((kind, source_seed, point, json.dumps(body).encode("utf-8")))
        self._warmup = requests[:SERVE_WARMUP]
        return requests[SERVE_WARMUP:]

    def warmup(self, seed: int) -> None:
        self.run_chunk(self._warmup, -len(self._warmup))
        self.warmup_ops = len(self._warmup)

    def run_chunk(self, ops: list, first_id: int) -> tuple[list[float], float]:
        latencies = [0.0] * len(ops)
        start = time.perf_counter()
        self.loop.run_until_complete(self._drive(ops, first_id, latencies))
        return latencies, time.perf_counter() - start

    async def _drive(self, ops: list, first_id: int, latencies: list[float]) -> None:
        cursor = iter(range(len(ops)))
        tracer = self.tracer

        async def connection(reader, writer) -> None:
            clock = time.perf_counter
            for index in cursor:
                kind, source_seed, point, body = ops[index]
                start = clock()
                writer.write(
                    b"POST /estimate HTTP/1.1\r\nHost: bench\r\n"
                    b"Content-Type: application/json\r\nContent-Length: %d\r\n\r\n%s"
                    % (len(body), body)
                )
                status, payload = await _read_response(reader)
                end = clock()
                latencies[index] = end - start
                op_id = first_id + index
                self.records.append((kind, op_id, end - start, status, payload, source_seed, point))
                if tracer is not None:
                    # the client sees one span per request: the HTTP round trip
                    tracer.ops[op_id] = (start, end)
                    tracer.spans.append(["serve.http", start, end, None, op_id, 0.0, 0])

        await asyncio.gather(*(connection(r, w) for r, w in self.streams))

    def check(self) -> int:
        """Every response is 200 and bitwise equal to the library estimate."""
        from repro.asm import assemble
        from repro.xtcore import build_processor

        config = build_processor("bench")
        expected: dict[tuple[int, int], tuple[float, int]] = {}
        for kind, op_id, _, status, payload, source_seed, point in self.records:
            key = (source_seed, point)
            if key not in expected:
                program = assemble(self.sources[source_seed], f"g{source_seed}", isa=config.isa)
                estimate = self.model.at(POINTS[point]).estimate(config, program)
                expected[key] = (estimate.energy, estimate.cycles)
            if status != 200 or expected[key] != (payload["energy"], payload["cycles"]):
                if op_id >= 0:
                    self.failed_ops += 1
                self.notes.append(f"serve mismatch on request {op_id}: status {status}")
        return self.failed_ops

    def layer_values(self) -> dict:
        """Client-side class latencies and the server's own counters."""
        with urllib.request.urlopen(f"http://127.0.0.1:{self.port}/metrics", timeout=10) as r:
            metrics = json.loads(r.read())
        timed = [r for r in self.records if r[1] >= 0]

        def p50(kind: str) -> float:
            values = [r[2] for r in timed if r[0] == kind]
            return 1e3 * statistics.median(values) if values else 0.0

        counters = metrics.get("counters", {})
        requests = counters.get("estimate_requests", 0)
        server_p50 = metrics.get("latency", {}).get("estimate", {}).get("p50_ms", 0.0)
        sims = metrics.get("simulation", {}).get("runs_finished", 0)
        batches = counters.get("batches_dispatched", 0)
        return {
            "serve.hit_ms": p50("hit"),
            "serve.miss_ms": p50("miss"),
            "serve.server_p50_ms": server_p50,
            "serve.transport_ms": p50("hit") - server_p50,
            "serve.dedup_frac": counters.get("duplicates_merged", 0) / requests if requests else 0.0,
            "serve.sims_per_request": sims / requests if requests else 0.0,
            "serve.batch_mean": counters.get("batched_requests", 0) / batches if batches else 0.0,
        }

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the server and its worker processes."""
        pid = self.server.pid
        pids = [pid]
        try:
            with open(f"/proc/{pid}/task/{pid}/children", encoding="ascii") as handle:
                pids += [int(child) for child in handle.read().split()]
        except OSError:
            pass
        return sum(vm_hwm_mb(p) for p in pids)

    def close(self) -> None:
        self.stop_server()


async def _read_response(reader) -> tuple[int, Optional[dict]]:
    status = int((await reader.readline()).split()[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b""):
            break
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value)
    body = await reader.readexactly(length)
    return status, (json.loads(body) if status == 200 else None)


def vm_hwm_mb(pid: object = "self") -> float:
    """Peak resident set (VmHWM) of a process in MiB; 0 if unreadable."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def make(workload: str, scratch: str) -> Workload:
    if workload == "serve":
        return ServeWorkload(scratch)
    return {"paper": PaperWorkload, "estimate": EstimateWorkload, "explore": ExploreWorkload}[workload]()
