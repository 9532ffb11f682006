"""Reference RTL-level energy estimator (WattWatcher substitute).

This is the paper's *ground truth*: a slow, detailed, structural energy
simulation of the generated processor running one program.  It consumes
the dynamic execution stream and charges every hardware block — base-core
blocks, custom-hardware instances and auto-generated control logic —
per-cycle energies that depend on

* **switching activity**: Hamming distance between consecutive data
  values seen at each block's inputs (the standard CMOS dynamic-power
  proxy),
* **per-instance variation**: a deterministic synthesis/process factor
  per hardware instance,
* **events**: cache misses, uncached fetches and interlocks carry their
  own energy,
* **idle/clock energy**: every instantiated block burns idle energy each
  cycle.

Because the charge is per-instruction and data-dependent while the
macro-model sees only class-level aggregates, the macro-model's fit has
an irreducible error of a few percent — reproducing the paper's Fig. 3 /
Table II error profile rather than a degenerate exact fit.

The estimator consumes the stream online: :class:`RtlEnergyObserver`
(from :meth:`RtlEnergyEstimator.observer`, or run for you by
:meth:`~RtlEnergyEstimator.estimate_program`) subscribes to the
simulator's retire events and integrates data-dependent switching
activity as they arrive — one pass, no trace, memory independent of
instruction count.

The observer runs on every retire, so it is table-driven: a 32-bit
toggle factor is one lookup by Hamming distance,
``toggle[((previous ^ current) & 0xFFFFFFFF).bit_count()]``, per-mnemonic
constants are planned once per estimator, and each charge is added inline
to its block and group in a fixed order.  Sums run left to right, so a
report is the same to the bit on every Python version.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Optional

from ..isa import InstructionClass
from ..obs.protocol import SimObserver
from ..obs.session import run_session
from ..tech import OperatingPoint, TechCalibration, default_calibration
from ..xtcore import DEFAULT_MAX_INSTRUCTIONS, ProcessorConfig, SimulationResult
from ..asm import Program
from .blocks import (
    BLOCKS_BY_NAME,
    EVENT_ENERGY,
    MULTIPLIER_MNEMONICS,
    SHIFTER_MNEMONICS,
    SPURIOUS_INPUT_STAGE_WEIGHT,
    stable_unit_variation,
)
from .netlist import ProcessorNetlist, generate_netlist

if TYPE_CHECKING:  # pragma: no cover
    from ..obs.events import RetireEvent

#: Floor of the switching-activity factor: even a quiet block precharges
#: lines, clocks registers and drives control nets when accessed, so the
#: data-dependent part of a block's active energy is a minority share
#: (toggle in [0.55, 1.0] — a realistic ±20%-ish data swing).
_TOGGLE_FLOOR = 0.55

#: The report's energy groups, in ``by_group`` order.
_GROUPS = ("base_core", "custom_hw", "events", "control", "idle")
_BASE_CORE, _CUSTOM_HW, _EVENTS, _CONTROL, _IDLE = range(len(_GROUPS))

# Instruction classes on_retire() tests on every retire, bound once.
_ARITH = InstructionClass.ARITH
_CUSTOM = InstructionClass.CUSTOM
_UNTAKEN = InstructionClass.BRANCH_UNTAKEN
#: classes that write a register even when the result reads back as 0
_PORT_CLASSES = (InstructionClass.ARITH, InstructionClass.LOAD, InstructionClass.CUSTOM)
_MEMORY = (InstructionClass.LOAD, InstructionClass.STORE)
_CONTROL_FLOW = (
    InstructionClass.JUMP,
    InstructionClass.BRANCH_TAKEN,
    InstructionClass.BRANCH_UNTAKEN,
)


def _serial_sum(values) -> float:
    """Left-to-right float sum, the same on every Python version.

    ``sum()`` compensates rounding from Python 3.12 on, which would move
    the reference energies' last bits between interpreter versions.
    """
    total = 0.0
    for value in values:
        total += value
    return total


@dataclasses.dataclass
class EnergyReport:
    """Output of one reference estimation run."""

    program_name: str
    processor_name: str
    total: float
    by_block: dict[str, float]
    by_group: dict[str, float]
    cycles: int
    instructions: int

    @property
    def per_cycle(self) -> float:
        return self.total / self.cycles if self.cycles else 0.0

    def summary(self) -> str:
        lines = [
            f"RTL energy estimate: {self.program_name} on {self.processor_name}",
            f"  total {self.total:.1f} units over {self.cycles} cycles "
            f"({self.per_cycle:.1f}/cycle, {self.instructions} instructions)",
        ]
        for group, value in sorted(self.by_group.items(), key=lambda kv: -kv[1]):
            share = 100.0 * value / self.total if self.total else 0.0
            lines.append(f"  {group:<12} {value:12.1f}  ({share:4.1f}%)")
        return "\n".join(lines)


class RtlEnergyObserver(SimObserver):
    """Online switching-activity integration over one run's retire stream.

    Register one on a :func:`repro.obs.run_session` run and read
    :attr:`report` after it — the reference path: one pass, memory
    independent of instruction count.  It never keeps a reference to an
    event past the :meth:`on_retire` call.

    Every unit of energy is charged as ``e = amount * scale`` and added to
    its block, then to its group, so one factor rescales the whole report
    to the estimator's operating point — exactly linear, matching
    :meth:`EnergyMacroModel.at`.  Amounts that depend on the record keep
    the association ``(E * toggle * cycles) * scale``; the estimator
    scales the constant ones once.
    """

    wants_retire = True
    #: operand-result values feed the register-file port model
    needs_result = True

    def __init__(self, estimator: "RtlEnergyEstimator") -> None:
        self._est = estimator
        self._report: Optional[EnergyReport] = None

    def on_run_start(self, config: ProcessorConfig, program: Program) -> None:
        """Check the run's config, then zero every charge and the history."""
        est = self._est
        est._check_config(config)
        self._report = None
        self.by_block: dict[str, float] = {name: 0.0 for name in est._active}
        for instance in est.netlist.custom_instances:
            self.by_block[instance.name] = 0.0
        self.by_block["tie_control"] = 0.0
        #: running sum per group, in ``_GROUPS`` order
        self.groups = [0.0] * len(_GROUPS)
        # Activity history (per consumer context).
        self._prev_pc = 0
        self._prev_unit = {"alu": (0, 0), "base_multiplier": (0, 0), "base_shifter": (0, 0)}
        self._prev_mem = 0
        self._prev_bus = (0, 0)
        self._prev_custom: dict[str, tuple[int, ...]] = {}

    def on_retire(self, record: "RetireEvent") -> None:
        """Charge every block touched by one retired instruction."""
        est = self._est
        by_block = self.by_block
        groups = self.groups
        active = est._active
        toggle = est._toggle
        scale = est.energy_scale
        mnemonic = record.mnemonic
        iclass = record.iclass
        operands = record.operands
        decode, decode_e, unit, latency, custom = (
            est._plans.get(mnemonic) or est._plan(mnemonic, iclass)
        )

        # ---- fetch + decode (every instruction) ----------------------
        addr = record.addr
        fetch_toggle = toggle[((self._prev_pc ^ addr) & 0xFFFFFFFF).bit_count()]
        self._prev_pc = addr
        e = active["fetch_unit"] * fetch_toggle * scale
        by_block["fetch_unit"] += e
        groups[_BASE_CORE] += e
        by_block["instruction_decoder"] += decode_e
        groups[_BASE_CORE] += decode_e
        if not record.uncached_fetch:
            e = active["icache"] * fetch_toggle * scale
            by_block["icache"] += e
            groups[_BASE_CORE] += e
        e = est._tie_decode
        if e is not None:
            # The generated TIE decoder examines every fetched opcode.
            by_block["tie_control"] += e
            groups[_CONTROL] += e

        # ---- register file -------------------------------------------
        port_uses = len(operands) + (1 if record.result or iclass in _PORT_CLASSES else 0)
        if port_uses:
            # Decode, word-line precharge etc. dominate; the marginal
            # cost of extra ports is sub-linear.
            register_file = est._register_file[port_uses if port_uses < 3 else 3]
            e = register_file * scale
            by_block["register_file"] += e
            groups[_BASE_CORE] += e

        # ---- execution units ------------------------------------------
        if iclass is _ARITH:
            a = operands[0] if operands else 0
            b = operands[1] if len(operands) > 1 else record.result
            prev_a, prev_b = self._prev_unit[unit]
            self._prev_unit[unit] = (a, b)
            if latency is None:  # the shifter sees only its data input
                e = active[unit] * toggle[((prev_a ^ a) & 0xFFFFFFFF).bit_count()] * scale
            else:
                # Iterative units (multiply, divide/remainder) stay busy
                # for every issue cycle.
                unit_toggle = (
                    toggle[((prev_a ^ a) & 0xFFFFFFFF).bit_count()]
                    + toggle[((prev_b ^ b) & 0xFFFFFFFF).bit_count()]
                ) / 2.0
                e = active[unit] * unit_toggle * latency * scale
            by_block[unit] += e
            groups[_BASE_CORE] += e
        elif iclass in _MEMORY:
            mem_addr = record.mem_addr or 0
            mem_toggle = toggle[((self._prev_mem ^ mem_addr) & 0xFFFFFFFF).bit_count()]
            self._prev_mem = mem_addr
            e = active["load_store_unit"] * mem_toggle * scale
            by_block["load_store_unit"] += e
            groups[_BASE_CORE] += e
            e = active["dcache"] * mem_toggle * scale
            by_block["dcache"] += e
            groups[_BASE_CORE] += e
        elif iclass in _CONTROL_FLOW:
            # Compare/target logic rides on the ALU; taken control flow
            # additionally re-steers the fetch unit.
            e = est._compare_e
            by_block["alu"] += e
            groups[_BASE_CORE] += e
            if iclass is not _UNTAKEN:
                e = est._resteer_e
                by_block["fetch_unit"] += e
                groups[_BASE_CORE] += e

        # ---- custom instruction execution ------------------------------
        if iclass is _CUSTOM:
            instances, extra_cycles, bypass_e, widths = custom
            previous = self._prev_custom.get(mnemonic)
            custom_toggle = _TOGGLE_FLOOR + (1.0 - _TOGGLE_FLOOR) * 0.5
            if est.data_dependent and previous is not None and operands:
                densities = [
                    ((p ^ c) & ((1 << width) - 1)).bit_count() / width
                    for p, c, width in zip(
                        previous, operands, widths or (32,) * len(operands)
                    )
                ]
                mean_density = _serial_sum(densities) / len(densities)
                custom_toggle = _TOGGLE_FLOOR + (1.0 - _TOGGLE_FLOOR) * mean_density
            self._prev_custom[mnemonic] = operands
            for name, energy, active_cycles in instances:
                e = energy * custom_toggle * active_cycles * scale
                by_block[name] += e
                groups[_CUSTOM_HW] += e
            # A multi-cycle custom instruction stalls issue but keeps
            # the decode latches, register-file ports and bypass logic
            # engaged every cycle it occupies the pipeline.
            if extra_cycles:
                e = decode * extra_cycles * scale
                by_block["instruction_decoder"] += e
                groups[_BASE_CORE] += e
                if port_uses:
                    e = register_file * extra_cycles * scale
                    by_block["register_file"] += e
                    groups[_BASE_CORE] += e
            if bypass_e is not None:
                by_block["tie_control"] += bypass_e
                groups[_CONTROL] += bypass_e

        # ---- spurious operand-bus activation ----------------------------
        elif operands and est._taps:
            a = operands[0]
            b = operands[1] if len(operands) > 1 else 0
            prev_a, prev_b = self._prev_bus
            bus_toggle = (
                toggle[((prev_a ^ a) & 0xFFFFFFFF).bit_count()]
                + toggle[((prev_b ^ b) & 0xFFFFFFFF).bit_count()]
            ) / 2.0
            self._prev_bus = (a, b)
            for name, weighted in est._taps:
                e = weighted * bus_toggle * scale
                by_block[name] += e
                groups[_CUSTOM_HW] += e

        # ---- events ------------------------------------------------------
        if record.icache_miss:
            e = est._event_e["icache_miss"]
            by_block["bus_interface"] += e
            groups[_EVENTS] += e
        if record.dcache_miss:
            e = est._event_e["dcache_miss"]
            by_block["bus_interface"] += e
            groups[_EVENTS] += e
        if record.uncached_fetch:
            e = est._event_e["uncached_fetch"]
            by_block["bus_interface"] += e
            groups[_EVENTS] += e
        if record.interlock:
            e = est._event_e["interlock"]
            by_block["pipeline_control"] += e
            groups[_EVENTS] += e

        # ---- per-cycle clock / pipeline / idle ----------------------------
        cycles = record.cycles
        e = active["pipeline_control"] * cycles * scale
        by_block["pipeline_control"] += e
        groups[_BASE_CORE] += e
        e = active["clock_tree"] * cycles * scale
        by_block["clock_tree"] += e
        groups[_BASE_CORE] += e
        e = est._idle_per_cycle * cycles * scale
        by_block["clock_tree"] += e
        groups[_IDLE] += e

    def on_run_finish(self, result: SimulationResult) -> None:
        """Package the accumulated charges into an :class:`EnergyReport`."""
        self._report = EnergyReport(
            program_name=result.program.name,
            processor_name=self._est.config.name,
            total=_serial_sum(self.groups),
            by_block=self.by_block,
            by_group=dict(zip(_GROUPS, self.groups)),
            cycles=result.stats.total_cycles,
            instructions=result.stats.total_instructions,
        )

    @property
    def report(self) -> EnergyReport:
        if self._report is None:
            raise ValueError(
                "no energy report yet; the observer must complete a "
                "run_session() run before its report is read"
            )
        return self._report


class RtlEnergyEstimator:
    """Structural (slow, accurate) energy estimator over a netlist.

    ``data_dependent=False`` freezes every switching-activity factor at
    its distribution mean — an ablation mode that removes the information
    the macro-model cannot see.  With it the macro-model fit collapses to
    ~0% error, demonstrating that the estimation error measured in the
    main experiments comes from the class-level abstraction, not from the
    regression machinery.

    ``operating_point`` rescales every charged energy by the calibration
    table's first-order CMOS factor relative to the reference point —
    the same factor :meth:`EnergyMacroModel.at` applies to fitted
    coefficients, so macro-vs-reference comparisons stay apples-to-apples
    at any point.  ``None`` means the calibration reference (scale 1.0).
    """

    def __init__(
        self,
        netlist: ProcessorNetlist,
        data_dependent: bool = True,
        operating_point: "OperatingPoint | str | None" = None,
        calibration: Optional[TechCalibration] = None,
    ) -> None:
        self.netlist = netlist
        self.config = netlist.config
        self.data_dependent = data_dependent
        if operating_point is not None:
            cal = calibration or default_calibration()
            self.operating_point: Optional[OperatingPoint] = cal.validate(
                operating_point
            )
            self.energy_scale = cal.energy_scale(self.operating_point)
        else:
            self.operating_point = None
            self.energy_scale = 1.0
        # Pre-resolve per-instance nominal energies (variation applied).
        self._instance_energy: dict[str, float] = {}
        custom_idle = 0.0
        for instance in netlist.custom_instances:
            variation = (
                netlist.instance_variation(instance.name) if data_dependent else 1.0
            )
            self._instance_energy[instance.name] = instance.unit_energy * variation
            custom_idle += instance.unit_energy * instance.info.idle_fraction * variation
        base_idle = _serial_sum(b.idle_energy for b in netlist.base_blocks)
        self._idle_per_cycle = base_idle + custom_idle
        # Bus-tapped instances and their spurious input-stage energies.
        self._taps = [
            (name, self._instance_energy[name] * SPURIOUS_INPUT_STAGE_WEIGHT)
            for impl in self.config.extensions
            for name in impl.bus_tapped
        ]
        # Switching activity depends on the Hamming distance alone, so a
        # 32-bit toggle factor is one lookup by distance.
        if data_dependent:
            self._toggle = tuple(
                _TOGGLE_FLOOR + (1.0 - _TOGGLE_FLOOR) * (hd / 32) for hd in range(33)
            )
        else:
            self._toggle = ((_TOGGLE_FLOOR + 1.0) / 2.0,) * 33
        self._active = {name: block.active_energy for name, block in BLOCKS_BY_NAME.items()}
        #: register-file energy by port uses (clamped at 3)
        self._register_file = tuple(
            self._active["register_file"] * (0.55 + 0.15 * uses) for uses in range(4)
        )
        # Charges that do not depend on the record, scaled once.
        scale = self.energy_scale
        self._tie_decode = (
            netlist.control.decode_energy * scale if self.config.extension_index else None
        )
        self._compare_e = self._active["alu"] * 0.6 * scale
        self._resteer_e = self._active["fetch_unit"] * 0.8 * scale
        self._event_e = {event: energy * scale for event, energy in EVENT_ENERGY.items()}
        #: issue-cycle latency per mnemonic (multi-cycle units stay active
        #: for every issue cycle)
        self._latency = {d.mnemonic: d.latency for d in self.config.isa}
        #: per-mnemonic charge constants, see :meth:`_plan`
        self._plans: dict[str, tuple] = {}

    def _plan(self, mnemonic: str, iclass: InstructionClass) -> tuple:
        """``(decode, decode scaled, unit, latency, custom)`` of a mnemonic.

        Built on its first retire and kept: a mnemonic's class is fixed
        by the ISA (a branch only resolves taken or untaken).  ``unit`` and
        ``latency`` are an ARITH mnemonic's execution block and issue
        cycles (no latency for the shifter); ``custom`` is a custom
        mnemonic's active instances, extra cycles, scaled bypass charge
        and operand widths.
        """
        # Decode variation: the within-class spread the macro-model
        # cannot observe.
        if self.data_dependent:
            variation = stable_unit_variation("decode/" + mnemonic, spread=0.06)
        else:
            variation = 1.0
        decode = self._active["instruction_decoder"] * variation
        unit = latency = custom = None
        if iclass is InstructionClass.ARITH:
            if mnemonic in MULTIPLIER_MNEMONICS:
                unit = "base_multiplier"
            elif mnemonic in SHIFTER_MNEMONICS:
                unit = "base_shifter"
            else:
                unit = "alu"
            if unit != "base_shifter":
                latency = self._latency[mnemonic]
        elif iclass is InstructionClass.CUSTOM:
            impl = self.config.extension_index[mnemonic]
            instances = []
            for instance in impl.instances:
                active = len(impl.active_cycles[instance.name])
                if active:
                    instances.append((instance.name, self._instance_energy[instance.name], active))
            bypass = None
            if impl.accesses_gpr:
                bypass = self.netlist.control.bypass_energy * impl.latency * self.energy_scale
            # Toggle densities are relative to the declared width of the
            # datapath wired to each GPR source, in operand order.
            widths = {node.payload: node.width for node in impl.spec.nodes if node.kind == "gpr_in"}
            ordered = tuple(widths[field] for field in ("rs", "rt") if field in widths)
            custom = (tuple(instances), impl.latency - 1, bypass, ordered)
        plan = (decode, decode * self.energy_scale, unit, latency, custom)
        self._plans[mnemonic] = plan
        return plan

    # -- public API -----------------------------------------------------------

    def _check_config(self, other: ProcessorConfig) -> None:
        """Reject runs on a content-different config.

        Names can collide across content-different configs, so the error
        reports content fingerprints of both sides.
        """
        if other is self.config or other.fingerprint() == self.config.fingerprint():
            return
        raise ValueError(
            f"simulation run was produced on {other.name!r} "
            f"(fingerprint {other.fingerprint()[:12]}), but this estimator "
            f"models {self.config.name!r} "
            f"(fingerprint {self.config.fingerprint()[:12]})"
        )

    def observer(self) -> RtlEnergyObserver:
        """A fresh streaming observer bound to this estimator's netlist."""
        return RtlEnergyObserver(self)

    def estimate_program(
        self, program: Program, max_instructions: int = DEFAULT_MAX_INSTRUCTIONS
    ) -> tuple[EnergyReport, SimulationResult]:
        """Full reference path: simulation with *online* energy accumulation.

        Streams the run through :class:`RtlEnergyObserver` — no trace is
        materialized, so peak memory is independent of instruction count.
        """
        observer = self.observer()
        result = run_session(
            self.config,
            program,
            observers=(observer,),
            max_instructions=max_instructions,
        )
        return observer.report, result


def reference_energy(
    config: ProcessorConfig,
    program: Program,
    max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
    operating_point: "OperatingPoint | str | None" = None,
) -> tuple[EnergyReport, SimulationResult]:
    """One-shot: generate the netlist and run the reference estimator."""
    estimator = RtlEnergyEstimator(
        generate_netlist(config), operating_point=operating_point
    )
    return estimator.estimate_program(program, max_instructions=max_instructions)
