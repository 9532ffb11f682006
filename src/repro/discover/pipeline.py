"""The closed loop: profile → mine → legalize → rewrite → estimate.

:func:`discover_case` drives one benchmark through the whole discovery
flow with one simulation per candidate.  A profiled run feeds the block
miner and the call-site unroller, and its statistics also score the
unmodified program.  The merged candidate pool is ranked by saved
dynamic instructions, legalized against the TIE compiler's budgets, and
the top candidates are *proven* one after another — each one's
rewritten program must round-trip through the assembler and finish in a
bitwise-identical architectural state (modulo the candidate's declared
clobbers).  The macro-model then scores that same verifying run from
its statistics (:meth:`EnergyMacroModel.estimate_from_stats`); no
candidate is simulated twice.  The result ranks every surviving
candidate by energy-delay product against the unmodified program.

The :class:`DiscoveryManifest` serializes the survivors (graphs +
sites) so a later process — notably ``repro explore --discovered`` —
can rebuild the rewritten design points without re-profiling.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Callable, Optional

from ..asm import Program
from ..core.model import EnergyMacroModel
from ..obs.session import run_session
from ..programs.fir import fir_software
from ..programs.reed_solomon import rs_software
from ..programs.registry import BenchmarkCase
from ..rtl import generate_netlist
from ..xtcore import DEFAULT_MAX_INSTRUCTIONS, ProcessorConfig, build_processor
from .legalize import (
    LegalizedCandidate,
    LegalizeOptions,
    RejectedCandidate,
    legalize_candidates,
    legalize_one,
)
from .miner import MinedCandidate, MinerOptions, Site, mine_report
from .rewrite import rewrite_program, states_equivalent, verify_roundtrip
from .trace import DataflowTraceObserver
from .unroll import mine_call_sites

ProgressFn = Callable[[str], None]

#: the bundled workloads discovery knows how to profile, each mapped to
#: the factory of its software baseline (the program the miner sees)
SOFTWARE_CASES: dict[str, Callable[[], BenchmarkCase]] = {
    "fir": fir_software,
    "reed_solomon": rs_software,
}


class DiscoveryError(Exception):
    """The discovery flow cannot proceed (no candidates, bad workload)."""


@dataclasses.dataclass(frozen=True)
class DiscoveryOptions:
    """End-to-end knobs; everything downstream of profiling is pure."""

    #: candidates carried past legalization into rewrite + estimation
    top_k: int = 8
    max_nodes: int = 6
    max_ports: int = 2
    min_coverage: float = 0.0
    legalize: LegalizeOptions = LegalizeOptions()
    max_instructions: int = DEFAULT_MAX_INSTRUCTIONS

    def miner_options(self) -> MinerOptions:
        return MinerOptions(
            max_nodes=self.max_nodes,
            max_ports=self.max_ports,
            min_coverage=self.min_coverage,
        )


@dataclasses.dataclass
class EvaluatedCandidate:
    """A verified candidate with its macro-model score."""

    mnemonic: str
    hash: str
    sites: int
    static_saving: int
    latency: int
    bus_taps: int
    syncs: int
    energy: float
    cycles: int
    area: float
    instructions: int

    @property
    def edp(self) -> float:
        return self.energy * self.cycles

    def to_payload(self) -> dict:
        payload = dataclasses.asdict(self)
        payload["edp"] = self.edp
        return payload


@dataclasses.dataclass
class CandidateFailure:
    """A legalized candidate that failed rewrite, verification or scoring."""

    mnemonic: str
    stage: str  # rewrite | verify | estimate
    message: str

    def describe(self) -> str:
        return f"{self.mnemonic} [{self.stage}] {self.message}"


@dataclasses.dataclass
class DiscoveryReport:
    """Everything one discovery run learned, ranked best-EDP-first."""

    workload: str
    case_name: str
    mined: int
    legal: list[LegalizedCandidate]
    rejected: list[RejectedCandidate]
    evaluated: list[EvaluatedCandidate]
    failures: list[CandidateFailure]
    baseline_energy: float
    baseline_cycles: int
    baseline_instructions: int

    @property
    def baseline_edp(self) -> float:
        return self.baseline_energy * self.baseline_cycles

    @property
    def best(self) -> Optional[EvaluatedCandidate]:
        return self.evaluated[0] if self.evaluated else None

    def table(self, top_k: Optional[int] = None) -> str:
        header = (
            f"{'candidate':<10}{'sites':>6}{'saved':>9}{'lat':>5}{'taps':>6}"
            f"{'cycles':>10}{'energy':>12}{'EDP':>13}{'vs base':>9}"
        )
        lines = [
            f"discovered instructions for {self.workload} ({self.case_name}): "
            f"{self.mined} mined, {len(self.legal)} legalized, "
            f"{len(self.evaluated)} verified+scored",
            header,
            "-" * len(header),
            f"{'(baseline)':<10}{'':>6}{'':>9}{'':>5}{'':>6}"
            f"{self.baseline_cycles:>10}{self.baseline_energy:>12.1f}"
            f"{self.baseline_edp:>13.4g}{'':>9}",
        ]
        rows = self.evaluated if top_k is None else self.evaluated[:top_k]
        for cand in rows:
            ratio = cand.edp / self.baseline_edp if self.baseline_edp else float("inf")
            lines.append(
                f"{cand.mnemonic:<10}{cand.sites:>6}{cand.static_saving:>9}"
                f"{cand.latency:>5}{cand.bus_taps:>6}{cand.cycles:>10}"
                f"{cand.energy:>12.1f}{cand.edp:>13.4g}{ratio:>8.2f}x"
            )
        if self.rejected:
            lines.append("")
            lines.append(f"rejected during legalization ({len(self.rejected)}):")
            for reject in self.rejected[:8]:
                lines.append(f"  [{reject.category}] {reject.reason}")
            if len(self.rejected) > 8:
                lines.append(f"  ... and {len(self.rejected) - 8} more")
        if self.failures:
            lines.append("")
            lines.append(f"failed after legalization ({len(self.failures)}):")
            for failure in self.failures:
                lines.append(f"  {failure.describe()}")
        return "\n".join(lines)

    def to_json(self) -> str:
        payload = {
            "workload": self.workload,
            "case": self.case_name,
            "mined": self.mined,
            "legalized": len(self.legal),
            "baseline": {
                "energy": self.baseline_energy,
                "cycles": self.baseline_cycles,
                "edp": self.baseline_edp,
                "instructions": self.baseline_instructions,
            },
            "candidates": [cand.to_payload() for cand in self.evaluated],
            "rejected": [
                {"category": r.category, "reason": r.reason, "node": r.node}
                for r in self.rejected
            ],
            "failures": [dataclasses.asdict(f) for f in self.failures],
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    def manifest(self) -> "DiscoveryManifest":
        """Serializable survivors for cross-process space registration."""
        verified = {cand.mnemonic for cand in self.evaluated}
        entries = [
            ManifestEntry(
                mnemonic=legalized.mnemonic,
                graph=legalized.candidate.graph.to_payload(),
                sites=[_site_payload(site) for site in legalized.candidate.sites],
            )
            for legalized in self.legal
            if legalized.mnemonic in verified
        ]
        return DiscoveryManifest(workload=self.workload, entries=entries)


# ---------------------------------------------------------------------------
# manifest (the cross-process form of a discovery result)
# ---------------------------------------------------------------------------


def _site_payload(site: Site) -> dict:
    return {
        "block_start": site.block_start,
        "members": list(site.members),
        "port_regs": list(site.port_regs),
        "output_reg": site.output_reg,
        "clobbers": sorted(site.clobbers),
        "count": site.count,
        "replaced_per_exec": site.replaced_per_exec,
    }


def _site_from_payload(payload: dict) -> Site:
    return Site(
        block_start=int(payload["block_start"]),
        members=tuple(payload["members"]),
        port_regs=tuple(payload["port_regs"]),
        output_reg=int(payload["output_reg"]),
        clobbers=frozenset(payload["clobbers"]),
        count=int(payload["count"]),
        replaced_per_exec=int(payload["replaced_per_exec"]),
    )


@dataclasses.dataclass(frozen=True)
class ManifestEntry:
    mnemonic: str
    graph: dict
    sites: list[dict]

    def to_candidate(self) -> MinedCandidate:
        from .graph import CandidateGraph

        graph = CandidateGraph.from_payload(self.graph)
        return MinedCandidate(
            graph=graph,
            hash=graph.canonical_hash(),
            sites=[_site_from_payload(site) for site in self.sites],
        )

    def legalize(self) -> LegalizedCandidate:
        """Recompile the candidate's hardware from its stored graph."""
        outcome = legalize_one(self.to_candidate(), self.mnemonic)
        if not isinstance(outcome, LegalizedCandidate):
            raise DiscoveryError(
                f"manifest candidate {self.mnemonic!r} no longer legalizes: "
                f"{outcome.reason}"
            )
        return outcome


@dataclasses.dataclass(frozen=True)
class DiscoveryManifest:
    """Verified candidates of one workload, in a JSON-stable form."""

    workload: str
    entries: list[ManifestEntry]

    def to_json(self) -> str:
        return json.dumps(
            {
                "format": "repro-discovery-manifest/1",
                "workload": self.workload,
                "candidates": [dataclasses.asdict(entry) for entry in self.entries],
            },
            indent=2,
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "DiscoveryManifest":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DiscoveryError(f"malformed manifest JSON: {exc}") from exc
        if payload.get("format") != "repro-discovery-manifest/1":
            raise DiscoveryError(
                f"not a discovery manifest (format={payload.get('format')!r})"
            )
        return cls(
            workload=payload["workload"],
            entries=[
                ManifestEntry(
                    mnemonic=entry["mnemonic"],
                    graph=entry["graph"],
                    sites=entry["sites"],
                )
                for entry in payload["candidates"]
            ],
        )

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path: str) -> "DiscoveryManifest":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())


# ---------------------------------------------------------------------------
# the flow
# ---------------------------------------------------------------------------


def software_case(workload: str) -> BenchmarkCase:
    """The pure-software baseline the miner profiles for ``workload``."""
    if workload not in SOFTWARE_CASES:
        raise DiscoveryError(
            f"unknown workload {workload!r}; available: "
            + ", ".join(sorted(SOFTWARE_CASES))
        )
    return SOFTWARE_CASES[workload]()


def discover_workload(
    workload: str,
    model: EnergyMacroModel,
    options: DiscoveryOptions = DiscoveryOptions(),
    progress: Optional[ProgressFn] = None,
) -> DiscoveryReport:
    """Run the whole discovery flow on a bundled workload's software case."""
    return discover_case(
        software_case(workload), model, options, progress=progress, workload=workload
    )


def discover_case(
    case: BenchmarkCase,
    model: EnergyMacroModel,
    options: DiscoveryOptions = DiscoveryOptions(),
    progress: Optional[ProgressFn] = None,
    workload: Optional[str] = None,
) -> DiscoveryReport:
    """Profile ``case``, mine+legalize candidates, verify and score them."""

    def emit(message: str) -> None:
        if progress is not None:
            progress(message)

    config, program = case.build()
    observer = DataflowTraceObserver()
    base = run_session(
        config, program, observers=[observer], max_instructions=options.max_instructions
    )
    trace_report = observer.report
    emit(
        f"profiled {case.name}: {base.instructions} instructions, "
        f"{len(trace_report.blocks)} blocks"
    )

    candidates = mine_call_sites(trace_report, max_ports=options.max_ports)
    candidates += mine_report(trace_report, options.miner_options())
    candidates.sort(key=lambda c: (-c.static_saving, -c.dynamic_coverage, c.hash))
    emit(f"mined {len(candidates)} structurally-distinct candidates")
    if not candidates:
        raise DiscoveryError(f"{case.name}: no liftable candidates found")

    legal, rejected = legalize_candidates(candidates, options.legalize)
    emit(f"legalized {len(legal)}, rejected {len(rejected)}")

    baseline_energy = model.estimate_from_stats(base.stats, config)
    outcomes: list["EvaluatedCandidate | CandidateFailure"] = []
    for legalized in legal[: options.top_k]:
        outcome = _prove_one(legalized, config, program, base.state, model, options)
        if isinstance(outcome, EvaluatedCandidate):
            emit(f"verified {outcome.mnemonic}: edp {outcome.edp:.3g}")
        else:
            emit(f"FAILED {outcome.describe()}")
        outcomes.append(outcome)
    evaluated = [o for o in outcomes if isinstance(o, EvaluatedCandidate)]
    failures = [o for o in outcomes if isinstance(o, CandidateFailure)]
    evaluated.sort(key=lambda c: (c.edp, c.mnemonic))

    return DiscoveryReport(
        workload=workload or case.name,
        case_name=case.name,
        mined=len(candidates),
        legal=legal,
        rejected=rejected,
        evaluated=evaluated,
        failures=failures,
        baseline_energy=baseline_energy,
        baseline_cycles=base.stats.total_cycles,
        baseline_instructions=base.instructions,
    )


def _prove_one(
    legalized: LegalizedCandidate,
    config: ProcessorConfig,
    program: Program,
    base_state,
    model: EnergyMacroModel,
    options: DiscoveryOptions,
) -> "EvaluatedCandidate | CandidateFailure":
    """Rewrite, differential-verify and score one legalized candidate;
    the run that verifies the rewritten program is the run scored."""
    stage = "rewrite"
    try:
        extended = build_processor(
            f"{config.name}+{legalized.mnemonic}", legalized.lifted.specs, base=config
        )
        result = rewrite_program(program, extended.isa, legalized)
        verify_roundtrip(result.program, extended.isa)
        stage = "verify"
        rerun = run_session(
            extended, result.program, max_instructions=options.max_instructions
        )
        ok, why = states_equivalent(base_state, rerun.state, result.clobbers)
        if not ok:
            return CandidateFailure(legalized.mnemonic, "verify", why)
        stage = "estimate"
        energy = model.estimate_from_stats(rerun.stats, extended)
        area = generate_netlist(extended).custom_area
    except Exception as exc:  # noqa: BLE001 — per-candidate isolation
        return CandidateFailure(legalized.mnemonic, stage, str(exc))
    return EvaluatedCandidate(
        mnemonic=legalized.mnemonic,
        hash=legalized.candidate.hash,
        sites=len(result.applied),
        static_saving=legalized.candidate.static_saving,
        latency=legalized.latency,
        bus_taps=legalized.bus_taps,
        syncs=result.syncs_inserted,
        energy=energy,
        cycles=rerun.stats.total_cycles,
        area=float(area),
        instructions=rerun.instructions,
    )

