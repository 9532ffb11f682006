"""Candidate scoring: the macro-model fast path, parallel and cached.

A candidate is scored on the paper's macro-model path (untraced
instruction-set simulation, then a dot product; no RTL) plus a netlist
generation for the custom-area proxy.  Candidates rarely pay a
simulation each:

* **shared builds** — the design point's extensions and program come
  from the compilation cache's ``build`` tier, built once per distinct
  ``(workload, impl)`` (see :mod:`repro.dse.space`);
* **batched execution** — on the serial path, every pending candidate
  goes to the estimation kernel
  (:meth:`~repro.core.model.EnergyMacroModel.estimate_many`) in one
  call, which runs candidates sharing one program and one semantic
  partition through a single :func:`repro.xtcore.run_batch` pass.

On top of that the engine layers three accelerations:

* a per-run **memo** — strategies that revisit design points (greedy
  walks) pay for each point once;
* the content-addressed **on-disk cache** (:mod:`repro.dse.cache`) —
  repeated or resumed explorations skip already-scored points entirely;
* a ``multiprocessing`` **parallel executor** (``jobs > 1``) — uncached
  candidates are scored by a pool of worker processes that rebuild the
  design point from its picklable knob assignment.

Failures are isolated per candidate into the same
:class:`~repro.core.runner.SampleFailure` records the characterization
runner uses, with the same ``max_failures`` →
:class:`~repro.core.runner.TooManyFailures` degradation rule.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from typing import Callable, Optional, Sequence

from ..core.model import EnergyMacroModel, MacroEstimate
from ..core.runner import SampleFailure, TooManyFailures
from ..rtl import generate_netlist
from ..xtcore import DEFAULT_MAX_INSTRUCTIONS, ProcessorConfig, compilation_cache
from .cache import ResultCache, candidate_cache_key
from .space import OPERATING_POINT_KNOB, Candidate, SearchSpace, assignment_key


@dataclasses.dataclass
class CandidateScore:
    """One scored design point (all objectives are minimized).

    ``operating_point`` / ``frequency_mhz`` are set when the design point
    carries an operating-point knob (or the model itself is bound to a
    point); they unlock the real-time objectives ``time`` (seconds) and
    ``edp_seconds`` on top of the cycle-based ones.
    """

    key: str  # canonical assignment key within the space
    assignment: dict
    program_name: str
    processor_name: str
    energy: float
    cycles: int
    area: float
    from_cache: bool = False
    operating_point: Optional[str] = None
    frequency_mhz: Optional[float] = None

    @property
    def edp(self) -> float:
        """Energy-delay product, the default exploration objective."""
        return self.energy * self.cycles

    @property
    def seconds(self) -> Optional[float]:
        """Wall-clock runtime; needs an operating point to pin the clock."""
        if self.frequency_mhz is None:
            return None
        return self.cycles / (self.frequency_mhz * 1e6)

    @property
    def edp_seconds(self) -> Optional[float]:
        """Energy-delay product with delay in real seconds."""
        seconds = self.seconds
        if seconds is None:
            return None
        return self.energy * seconds

    def objective(self, name: str) -> float:
        """Look up one scalar objective by name."""
        if name == "edp":
            return self.edp
        if name in ("energy", "cycles", "area"):
            return float(getattr(self, name))
        if name in ("time", "edp_seconds"):
            value = self.seconds if name == "time" else self.edp_seconds
            if value is None:
                raise ValueError(
                    f"objective {name!r} needs an operating point (a clock "
                    "frequency) — explore an operating-point space or pass "
                    "--operating-point"
                )
            return float(value)
        raise ValueError(
            f"unknown objective {name!r} "
            f"(use {', '.join(OBJECTIVES[:-1])} or {OBJECTIVES[-1]})"
        )

    def to_payload(self) -> dict:
        payload = {
            "key": self.key,
            "assignment": dict(self.assignment),
            "program": self.program_name,
            "processor": self.processor_name,
            "energy": float(self.energy),
            "cycles": int(self.cycles),
            "edp": float(self.edp),
            "area": float(self.area),
            "operating_point": self.operating_point,
            "frequency_mhz": self.frequency_mhz,
        }
        if self.frequency_mhz is not None:
            payload["seconds"] = self.seconds
            payload["edp_seconds"] = self.edp_seconds
        return payload

    @classmethod
    def from_payload(cls, payload: dict, from_cache: bool = False) -> "CandidateScore":
        frequency = payload.get("frequency_mhz")
        return cls(
            key=payload["key"],
            assignment=dict(payload["assignment"]),
            program_name=payload["program"],
            processor_name=payload["processor"],
            energy=float(payload["energy"]),
            cycles=int(payload["cycles"]),
            area=float(payload["area"]),
            from_cache=from_cache,
            operating_point=payload.get("operating_point"),
            frequency_mhz=float(frequency) if frequency is not None else None,
        )


OBJECTIVES = ("energy", "cycles", "edp", "area", "time", "edp_seconds")


def score_payload(
    outcome: "MacroEstimate | SampleFailure", config: Optional[ProcessorConfig] = None
) -> dict:
    """The record of one estimation-kernel outcome, shared by DSE and serve.

    An estimate becomes the :class:`~repro.dse.cache.ResultCache` entry
    shape, with the custom-area proxy of ``config`` (the processor it
    was estimated on); a failure keeps its own fields under
    ``ok: False``.
    """
    if isinstance(outcome, SampleFailure):
        return {"ok": False, **outcome.to_payload()}
    point = outcome.operating_point
    return {
        "ok": True,
        "program": outcome.program_name,
        "processor": outcome.processor_name,
        "energy": float(outcome.energy),
        "cycles": int(outcome.cycles),
        "area": float(generate_netlist(config).custom_area),
        "operating_point": point.key if point is not None else None,
        "frequency_mhz": point.frequency_mhz if point is not None else None,
    }


# -- worker-process plumbing -------------------------------------------------
#
# Workers receive the heavy shared state (model, space) once through the
# pool initializer and per-candidate work as a small picklable assignment
# dict.  Under the "fork" start method the initializer arguments are
# inherited rather than pickled, so spaces with closure builders work.

_WORKER_STATE: dict = {}


def _worker_init(model: EnergyMacroModel, space: SearchSpace, max_instructions: int) -> None:
    _WORKER_STATE["model"] = model
    _WORKER_STATE["space"] = space
    _WORKER_STATE["max_instructions"] = max_instructions


def _score_points(
    model: EnergyMacroModel,
    space: SearchSpace,
    points: Sequence[tuple[dict, Optional[tuple]]],
    max_instructions: int,
) -> tuple[list[dict], list[int]]:
    """Score ``(assignment, built)`` design points in one kernel call.

    ``built`` is the point's ``(config, program)`` when already in hand,
    else None.  An operating-point knob rescales the model, never the
    hardware, so it travels as the job's point.  Never raises: failures
    become records.  Also returns the kernel's simulation pass sizes.
    """
    outcomes: list = [None] * len(points)
    configs: list = [None] * len(points)
    jobs = []
    for index, (assignment, built) in enumerate(points):
        try:
            config, program = built if built is not None else space.build(assignment)
        except Exception as exc:  # noqa: BLE001 — per-candidate isolation is the point
            outcomes[index] = SampleFailure.from_exception(
                assignment_key(assignment), "", "build", exc
            )
            continue
        configs[index] = config
        jobs.append((config, program, assignment.get(OPERATING_POINT_KNOB), max_instructions))
    estimates = model.estimate_many(jobs)
    estimated = iter(estimates)
    outcomes = [next(estimated) if o is None else o for o in outcomes]
    records = [
        {
            **score_payload(outcome, config),
            "key": assignment_key(assignment),
            "assignment": dict(assignment),
        }
        for outcome, config, (assignment, _) in zip(outcomes, configs, points)
    ]
    return records, estimates.passes


def _score_point(
    model: EnergyMacroModel,
    space: SearchSpace,
    assignment: dict,
    max_instructions: int,
    built: Optional[tuple] = None,
) -> dict:
    """Score one design point; never raises (failures become records)."""
    return _score_points(model, space, [(assignment, built)], max_instructions)[0][0]


def _worker_evaluate(assignment: dict) -> dict:
    return _score_point(
        _WORKER_STATE["model"],
        _WORKER_STATE["space"],
        assignment,
        _WORKER_STATE["max_instructions"],
    )


def _fork_context() -> Optional[multiprocessing.context.BaseContext]:
    """The fork start method, or None where only spawn exists.

    Spawned workers would have to pickle the space (whose builder is
    typically a closure), so on fork-less platforms the engine degrades
    to serial evaluation instead of failing.
    """
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return None


class EvaluationEngine:
    """Scores candidates of one space against one macro-model."""

    def __init__(
        self,
        model: EnergyMacroModel,
        space: SearchSpace,
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
        max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
        max_failures: Optional[int] = None,
        progress: Optional[Callable[[str], None]] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if max_failures is not None and max_failures < 0:
            raise ValueError(f"max_failures must be >= 0, got {max_failures}")
        self.model = model
        self.space = space
        self.jobs = jobs
        self.cache = cache
        self.max_instructions = max_instructions
        self.max_failures = max_failures
        self.progress = progress
        self.failures: list[SampleFailure] = []
        self.evaluated = 0  # candidates actually simulated this run
        self.memo_hits = 0
        #: worker-pool breakages survived this run (each one degrades the
        #: remaining candidates of the run to serial in-parent scoring)
        self.pool_restarts = 0
        #: batched-execution accounting: groups of semantically compatible
        #: candidates scored through one run_batch pass, and how many
        #: member candidates those passes covered
        self.batch_groups = 0
        self.batch_members = 0
        self._memo: dict[str, CandidateScore] = {}

    def _model_digest(self, candidate: Candidate) -> str:
        """The model digest at the candidate's operating point.

        Distinct digests make cache keys disjoint across points.  Raises
        (CalibrationError) on a bad point — callers score inside their
        per-candidate isolation, or pre-validate via the space.
        """
        return self.model.at(candidate.assignment_dict.get(OPERATING_POINT_KNOB)).digest()

    # -- cache bookkeeping -------------------------------------------------

    @property
    def cache_hits(self) -> int:
        return self.cache.hits if self.cache is not None else 0

    @property
    def cache_misses(self) -> int:
        return self.cache.misses if self.cache is not None else 0

    # -- evaluation --------------------------------------------------------

    def evaluate(self, candidates: Sequence[Candidate]) -> list[CandidateScore]:
        """Score a batch; returns successes in input order.

        Failures are recorded on ``self.failures`` (and checked against
        ``max_failures``) instead of aborting the batch.
        """
        slots: list[Optional[CandidateScore]] = [None] * len(candidates)
        pending: list[tuple[int, Candidate, Optional[tuple]]] = []

        for position, candidate in enumerate(candidates):
            memo = self._memo.get(candidate.key)
            if memo is not None:
                self.memo_hits += 1
                slots[position] = memo
                continue
            built = None
            if self.cache is not None:
                outcome = self._try_cache(candidate)
                if isinstance(outcome, CandidateScore):
                    slots[position] = outcome
                    self._memo[candidate.key] = outcome
                    continue
                built = outcome  # (config, program) or None when build failed
                if built is None:
                    continue  # build failure already recorded
            pending.append((position, candidate, built))

        for (position, candidate, built), raw in zip(pending, self._run_pending(pending)):
            if raw["ok"]:
                score = CandidateScore.from_payload(
                    {**raw, "key": candidate.key}, from_cache=False
                )
                self.evaluated += 1
                slots[position] = score
                self._memo[candidate.key] = score
                self._store(candidate, raw, built)
                self._emit(f"scored {candidate.key}: edp {score.edp:.3g}")
            else:
                self._record_failure(SampleFailure.from_payload({**raw, "name": candidate.key}))
        return [score for score in slots if score is not None]

    # -- internals ---------------------------------------------------------

    def _run_pending(self, pending: list) -> list[dict]:
        """Score the uncached candidates, in parallel when asked to."""
        if not pending:
            return []
        context = _fork_context() if self.jobs > 1 and len(pending) > 1 else None
        if context is None:
            return self._run_serial(pending)
        # Build and lower every pending design point in the parent before
        # forking: workers inherit the populated compilation cache (build
        # tier and lowerings) copy-on-write, so each distinct impl builds
        # and each (program, config-content) pair compiles exactly once
        # per exploration instead of once per worker.
        for _, candidate, built in pending:
            try:
                config, program = built if built is not None else candidate.build()
                compilation_cache().get_or_compile(config, program)
            except Exception:  # noqa: BLE001 — the worker records the real failure
                continue
        return self._run_forked(context, pending)

    def _run_serial(self, pending: list) -> list[dict]:
        """In-parent scoring: every pending candidate in one kernel call.

        The kernel batches candidates that share a trajectory; the
        batched-execution counters tally the passes it reports.
        """
        records, passes = _score_points(
            self.model,
            self.space,
            [(candidate.assignment_dict, built) for _, candidate, built in pending],
            self.max_instructions,
        )
        batched = [size for size in passes if size > 1]
        self.batch_groups += len(batched)
        self.batch_members += sum(batched)
        return records

    def _run_forked(self, context, pending: list) -> list[dict]:
        """Parallel scoring that survives worker death.

        Candidates go to a :class:`ProcessPoolExecutor` in bounded waves
        (``jobs * 4``).  If a worker dies (``BrokenProcessPool`` — a
        segfaulting candidate, an OOM kill), only the in-flight wave is
        affected: its unfinished candidates become ``stage="pool"``
        failures (the crasher cannot be told apart from innocents that
        were in flight beside it), and every not-yet-submitted candidate
        goes through :meth:`_run_serial` in the parent, so one bad design
        point cannot sink an exploration.
        """
        assignments = [candidate.assignment_dict for _, candidate, _ in pending]
        results: list[Optional[dict]] = [None] * len(pending)
        wave_size = max(1, self.jobs * 4)
        executor = ProcessPoolExecutor(
            max_workers=min(self.jobs, len(pending)),
            mp_context=context,
            initializer=_worker_init,
            initargs=(self.model, self.space, self.max_instructions),
        )
        try:
            for start in range(0, len(pending), wave_size):
                wave = range(start, min(start + wave_size, len(pending)))
                crash: Optional[BaseException] = None
                futures = []
                for i in wave:
                    try:
                        futures.append(executor.submit(_worker_evaluate, assignments[i]))
                    except BrokenExecutor as exc:
                        # A worker died while the wave was still being
                        # submitted: the rest of it is scored serially.
                        crash = exc
                        break
                for offset, future in zip(wave, futures):
                    try:
                        results[offset] = future.result()
                    except BrokenExecutor as exc:
                        crash = exc
                        results[offset] = score_payload(
                            SampleFailure(
                                name=pending[offset][1].key,
                                processor_name="",
                                stage="pool",
                                error_type=type(exc).__name__,
                                message=(
                                    "worker pool died while this candidate was "
                                    f"in flight: {exc}"
                                ),
                                attempts=1,
                            )
                        )
                if crash is not None:
                    self.pool_restarts += 1
                    self._emit(
                        "worker pool died; scoring the remaining "
                        f"{results.count(None)} candidate(s) serially"
                    )
                    break
        finally:
            executor.shutdown(wait=False)
        remaining = [index for index, raw in enumerate(results) if raw is None]
        scored = self._run_serial([pending[index] for index in remaining])
        for index, raw in zip(remaining, scored):
            results[index] = raw
        return results

    def _try_cache(self, candidate: Candidate):
        """A cached score, a built (config, program) pair, or None."""
        try:
            digest = self._model_digest(candidate)
            config, program = candidate.build()
        except Exception as exc:  # noqa: BLE001
            self._record_failure(
                SampleFailure.from_exception(candidate.key, "", "build", exc)
            )
            return None
        key = candidate_cache_key(digest, config, program, self.max_instructions)
        payload = self.cache.get(key)
        if payload is not None:
            score = CandidateScore.from_payload(
                {**payload, "key": candidate.key, "assignment": candidate.assignment_dict},
                from_cache=True,
            )
            self._emit(f"cache hit {candidate.key}")
            return score
        return (config, program)

    def _store(self, candidate: Candidate, raw: dict, built: Optional[tuple]) -> None:
        if self.cache is None:
            return
        config, program = built if built is not None else candidate.build()
        key = candidate_cache_key(
            self._model_digest(candidate), config, program, self.max_instructions
        )
        payload = dict(raw)
        payload.pop("ok", None)
        self.cache.put(key, payload)

    def _record_failure(self, failure: SampleFailure) -> None:
        self.failures.append(failure)
        self._emit(f"FAILED {failure.describe()}")
        if self.max_failures is not None and len(self.failures) > self.max_failures:
            raise TooManyFailures(
                f"aborting exploration: {len(self.failures)} candidate failure(s) "
                f"exceed max_failures={self.max_failures}\n"
                + "\n".join(f.describe() for f in self.failures),
                failures=list(self.failures),
            )

    def _emit(self, message: str) -> None:
        if self.progress is not None:
            self.progress(message)
