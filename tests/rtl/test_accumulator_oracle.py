"""Differential oracle for the reference estimator's activity accumulation.

The production observer reads switching activity from a Hamming
distance table and charges each block from per-mnemonic constants.  The
oracle below is the plain per-charge form it replaced, written out
literally: every charge goes through one ``charge()`` helper and every
toggle through ``hamming_distance``; only its float sums are spelled
out left to right, as ``sum()`` rounds differently from Python 3.12 on.
Both must produce bitwise-equal totals, per-block and per-group energies
(compared as ``float.hex``) and the same key order, for every bundled
case, with and without an operating point and with data-dependent
activity on and off.  The oracle reads the run's records from a
:class:`~repro.obs.TraceObserver`; the product streams them.

A change in any one charge's association (``(E * t * n) * s`` versus
``E * t * (n * s)``) or in the order of additions to a block or group
moves the last bits of some case and fails here.
"""

from __future__ import annotations

import pytest

from repro.isa import InstructionClass, hamming_distance
from repro.obs import TraceObserver, run_session
from repro.programs import application_suite, characterization_suite
from repro.rtl import RtlEnergyEstimator, generate_netlist
from repro.rtl.blocks import (
    BLOCKS_BY_NAME,
    EVENT_ENERGY,
    MULTIPLIER_MNEMONICS,
    SHIFTER_MNEMONICS,
    SPURIOUS_INPUT_STAGE_WEIGHT,
    stable_unit_variation,
)
from repro.rtl.estimator import _TOGGLE_FLOOR

POINTS = (None, "90nm@1.2V@600MHz")
DATA_DEPENDENT = (True, False)
CASES = {case.name: case for case in characterization_suite() + application_suite()}


def _left_to_right(values) -> float:
    # sum() compensates rounding from Python 3.12 on; the reference
    # pins plain left-to-right addition on every version
    total = 0.0
    for value in values:
        total += value
    return total


def _toggle_factor(previous: int, current: int, width: int = 32) -> float:
    if width <= 0:
        return _TOGGLE_FLOOR
    density = hamming_distance(previous, current, width) / width
    return _TOGGLE_FLOOR + (1.0 - _TOGGLE_FLOOR) * density


class OracleAccumulator:
    """The per-charge accumulator, with its own copy of every constant."""

    def __init__(self, est: RtlEnergyEstimator) -> None:
        netlist = est.netlist
        config = est.config
        self.data_dependent = est.data_dependent
        self.scale = est.energy_scale
        self.extensions = config.extension_index
        self.control = netlist.control
        self.instance_energy = {}
        instance_idle = {}
        for instance in netlist.custom_instances:
            variation = (
                netlist.instance_variation(instance.name) if est.data_dependent else 1.0
            )
            self.instance_energy[instance.name] = instance.unit_energy * variation
            instance_idle[instance.name] = (
                instance.unit_energy * instance.info.idle_fraction * variation
            )
        self.decode_variation = {}
        self.taps = []
        for impl in config.extensions:
            for name in impl.bus_tapped:
                instance = impl.instance_by_name(name)
                self.taps.append((instance, self.instance_energy[name]))
        self.base_idle_per_cycle = _left_to_right(b.idle_energy for b in netlist.base_blocks)
        self.custom_idle_per_cycle = _left_to_right(instance_idle.values())
        self.latency = {d.mnemonic: d.latency for d in config.isa}
        self.custom_widths = {}
        for impl in config.extensions:
            widths = {
                node.payload: node.width for node in impl.spec.nodes if node.kind == "gpr_in"
            }
            ordered = tuple(widths[field] for field in ("rs", "rt") if field in widths)
            self.custom_widths[impl.mnemonic] = ordered

        self.by_block = {name: 0.0 for name in BLOCKS_BY_NAME}
        for instance in netlist.custom_instances:
            self.by_block[instance.name] = 0.0
        self.by_block["tie_control"] = 0.0
        self.groups = {
            "base_core": 0.0,
            "custom_hw": 0.0,
            "events": 0.0,
            "control": 0.0,
            "idle": 0.0,
        }
        mean_toggle = (_TOGGLE_FLOOR + 1.0) / 2.0
        if est.data_dependent:
            self.toggle_of = _toggle_factor
        else:
            def toggle_of(previous: int, current: int, width: int = 32) -> float:
                return mean_toggle

            self.toggle_of = toggle_of
        self.prev_pc = 0
        self.prev_alu = (0, 0)
        self.prev_mul = (0, 0)
        self.prev_shift = (0, 0)
        self.prev_mem = 0
        self.prev_bus = (0, 0)
        self.prev_custom = {}

    def feed(self, record) -> None:
        by_block = self.by_block
        groups = self.groups
        blocks = BLOCKS_BY_NAME
        extensions = self.extensions
        control = self.control
        toggle_of = self.toggle_of
        scale = self.scale

        def charge(block: str, amount: float, group: str) -> None:
            by_block[block] += amount * scale
            groups[group] += amount * scale

        operands = record.operands
        cycles = record.cycles

        # fetch + decode
        fetch_toggle = toggle_of(self.prev_pc, record.addr)
        charge("fetch_unit", blocks["fetch_unit"].active_energy * fetch_toggle, "base_core")
        self.prev_pc = record.addr
        decode_var = self.decode_variation.get(record.mnemonic)
        if decode_var is None:
            if self.data_dependent:
                decode_var = stable_unit_variation("decode/" + record.mnemonic, spread=0.06)
            else:
                decode_var = 1.0
            self.decode_variation[record.mnemonic] = decode_var
        charge(
            "instruction_decoder",
            blocks["instruction_decoder"].active_energy * decode_var,
            "base_core",
        )
        if not record.uncached_fetch:
            charge("icache", blocks["icache"].active_energy * fetch_toggle, "base_core")
        if extensions:
            charge("tie_control", control.decode_energy, "control")

        # register file
        port_uses = len(operands) + (1 if record.result or record.iclass in (
            InstructionClass.ARITH, InstructionClass.LOAD, InstructionClass.CUSTOM
        ) else 0)
        if port_uses:
            port_factor = 0.55 + 0.15 * min(port_uses, 3)
            charge(
                "register_file",
                blocks["register_file"].active_energy * port_factor,
                "base_core",
            )

        # execution units
        iclass = record.iclass
        if iclass is InstructionClass.ARITH:
            a = operands[0] if operands else 0
            b = operands[1] if len(operands) > 1 else record.result
            if record.mnemonic in MULTIPLIER_MNEMONICS:
                toggle = (
                    toggle_of(self.prev_mul[0], a) + toggle_of(self.prev_mul[1], b)
                ) / 2.0
                self.prev_mul = (a, b)
                active_cycles = self.latency[record.mnemonic]
                charge(
                    "base_multiplier",
                    blocks["base_multiplier"].active_energy * toggle * active_cycles,
                    "base_core",
                )
            elif record.mnemonic in SHIFTER_MNEMONICS:
                toggle = toggle_of(self.prev_shift[0], a)
                self.prev_shift = (a, b)
                charge("base_shifter", blocks["base_shifter"].active_energy * toggle, "base_core")
            else:
                toggle = (
                    toggle_of(self.prev_alu[0], a) + toggle_of(self.prev_alu[1], b)
                ) / 2.0
                self.prev_alu = (a, b)
                active_cycles = self.latency[record.mnemonic]
                charge("alu", blocks["alu"].active_energy * toggle * active_cycles, "base_core")
        elif iclass in (InstructionClass.LOAD, InstructionClass.STORE):
            addr = record.mem_addr or 0
            toggle = toggle_of(self.prev_mem, addr)
            self.prev_mem = addr
            charge("load_store_unit", blocks["load_store_unit"].active_energy * toggle, "base_core")
            charge("dcache", blocks["dcache"].active_energy * toggle, "base_core")
        elif iclass in (
            InstructionClass.JUMP,
            InstructionClass.BRANCH_TAKEN,
            InstructionClass.BRANCH_UNTAKEN,
        ):
            charge("alu", blocks["alu"].active_energy * 0.6, "base_core")
            if iclass is not InstructionClass.BRANCH_UNTAKEN:
                charge("fetch_unit", blocks["fetch_unit"].active_energy * 0.8, "base_core")

        # custom instruction execution
        if iclass is InstructionClass.CUSTOM:
            impl = extensions[record.mnemonic]
            previous = self.prev_custom.get(record.mnemonic)
            toggle = _TOGGLE_FLOOR + (1.0 - _TOGGLE_FLOOR) * 0.5
            if self.data_dependent and previous is not None and operands:
                widths = self.custom_widths.get(record.mnemonic, ())
                densities = [
                    hamming_distance(p, c, width) / width
                    for p, c, width in zip(previous, operands, widths or (32,) * len(operands))
                ]
                mean_density = _left_to_right(densities) / len(densities)
                toggle = _TOGGLE_FLOOR + (1.0 - _TOGGLE_FLOOR) * mean_density
            self.prev_custom[record.mnemonic] = operands
            for instance in impl.instances:
                active = len(impl.active_cycles[instance.name])
                if not active:
                    continue
                energy = self.instance_energy[instance.name] * toggle * active
                charge(instance.name, energy, "custom_hw")
            extra_cycles = impl.latency - 1
            if extra_cycles:
                charge(
                    "instruction_decoder",
                    blocks["instruction_decoder"].active_energy * decode_var * extra_cycles,
                    "base_core",
                )
                if port_uses:
                    charge(
                        "register_file",
                        blocks["register_file"].active_energy * port_factor * extra_cycles,
                        "base_core",
                    )
            if impl.accesses_gpr:
                charge("tie_control", control.bypass_energy * impl.latency, "control")

        # spurious operand-bus activation
        elif operands and self.taps:
            a = operands[0]
            b = operands[1] if len(operands) > 1 else 0
            bus_toggle = (
                toggle_of(self.prev_bus[0], a) + toggle_of(self.prev_bus[1], b)
            ) / 2.0
            self.prev_bus = (a, b)
            for instance, nominal in self.taps:
                charge(instance.name, nominal * SPURIOUS_INPUT_STAGE_WEIGHT * bus_toggle, "custom_hw")

        # events
        if record.icache_miss:
            charge("bus_interface", EVENT_ENERGY["icache_miss"], "events")
        if record.dcache_miss:
            charge("bus_interface", EVENT_ENERGY["dcache_miss"], "events")
        if record.uncached_fetch:
            charge("bus_interface", EVENT_ENERGY["uncached_fetch"], "events")
        if record.interlock:
            charge("pipeline_control", EVENT_ENERGY["interlock"], "events")

        # per-cycle clock / pipeline / idle
        charge("pipeline_control", blocks["pipeline_control"].active_energy * cycles, "base_core")
        charge("clock_tree", blocks["clock_tree"].active_energy * cycles, "base_core")
        idle = (self.base_idle_per_cycle + self.custom_idle_per_cycle) * cycles
        charge("clock_tree", idle, "idle")


def _hex_items(values: dict) -> list:
    return [(key, value.hex()) for key, value in values.items()]


def _assert_bitwise(report, oracle: OracleAccumulator, label: str) -> None:
    assert report.total.hex() == _left_to_right(oracle.groups.values()).hex(), label
    assert _hex_items(report.by_block) == _hex_items(oracle.by_block), label
    assert _hex_items(report.by_group) == _hex_items(oracle.groups), label


@pytest.mark.parametrize("name", sorted(CASES))
def test_accumulator_matches_the_per_charge_oracle(name):
    case = CASES[name]
    netlist = generate_netlist(case.config)
    tracer = TraceObserver()
    run_session(
        case.config,
        case.program,
        observers=(tracer,),
        max_instructions=case.max_instructions,
    )
    assert tracer.records
    for point in POINTS:
        for data_dependent in DATA_DEPENDENT:
            estimator = RtlEnergyEstimator(
                netlist, data_dependent=data_dependent, operating_point=point
            )
            label = f"{name} point={point} data_dependent={data_dependent}"
            oracle = OracleAccumulator(estimator)
            for record in tracer.records:
                oracle.feed(record)
            streamed, _ = estimator.estimate_program(
                case.program, max_instructions=case.max_instructions
            )
            _assert_bitwise(streamed, oracle, label + " streaming")
