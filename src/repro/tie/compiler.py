"""The TIE-substitute compiler: specs → executable, schedulable hardware.

Mirrors the role of the Tensilica TIE compiler in the paper's flow: from a
custom-instruction specification it derives

* the **schedule** — each operator node is placed in a pipeline cycle
  (``LEVELS_PER_CYCLE`` chained library operators per cycle), giving the
  instruction's issue latency;
* the **hardware instances** — one library component per operator node
  plus one custom register per state (shared across instructions by
  name), which the processor generator later drops into the netlist;
* the **activation profile** — which component is active in which cycle
  of an execution, the raw material of the structural macro-model
  variables;
* the **operand-bus taps** — components fed directly (through wiring
  only) by GPR operands.  These are spuriously activated by *base*
  instructions that drive the shared operand buses (paper Example 1);
* the executable :class:`~repro.isa.instructions.InstructionDef` used by
  the assembler and the instruction-set simulator, whose semantics are
  generated only when something first executes them
  (:class:`LazySemantics`).
"""

from __future__ import annotations

import dataclasses
from typing import Mapping

from ..hwlib import ComponentCategory, ComponentInstance
from ..isa.bits import mask
from ..isa.classes import InstructionClass
from ..isa.instructions import ExecContext, Instruction, InstructionDef
from .nodes import (
    KIND_CONST,
    KIND_GPR,
    KIND_IMM,
    KIND_STATE,
    Node,
    TieState,
    evaluate_node,
)
from .spec import TieSpec, TieSpecError

#: How many chained library operators fit in one pipeline cycle.  Six
#: levels per cycle makes typical TIE datapaths single-cycle — matching
#: real TIE practice, where most custom instructions fit the processor's
#: execute stage — while genuinely deep graphs (e.g. chained table-lookup
#: pipelines) still schedule over multiple cycles.
LEVELS_PER_CYCLE = 6


@dataclasses.dataclass(frozen=True)
class TieImplementation:
    """Everything the rest of the system needs to know about one custom
    instruction: its timing, hardware, activation profile and semantics."""

    spec: TieSpec
    latency: int
    instances: tuple[ComponentInstance, ...]
    #: instance name -> cycles (within one execution) in which it is active
    active_cycles: Mapping[str, tuple[int, ...]]
    #: category -> sum over instances of complexity x active-cycle count,
    #: per execution.  This is the structural-variable increment that one
    #: dynamic execution of the instruction contributes.
    per_exec_activity: Mapping[ComponentCategory, float]
    #: category -> raw instance-cycle count per execution (no complexity
    #: weighting) — used by the bit-width-law ablation study.
    per_exec_counts: Mapping[ComponentCategory, int]
    #: instance names whose inputs tap the shared GPR operand buses
    bus_tapped: tuple[str, ...]
    #: category -> summed complexity of bus-tapped instances (for the
    #: spurious-activation term of the structural variables)
    bus_tap_complexity: Mapping[ComponentCategory, float]
    #: category -> bus-tapped instance count (unweighted, for the ablation)
    bus_tap_counts: Mapping[ComponentCategory, int]
    instruction: InstructionDef

    @property
    def mnemonic(self) -> str:
        return self.spec.mnemonic

    @property
    def accesses_gpr(self) -> bool:
        return self.spec.accesses_gpr

    def instance_by_name(self, name: str) -> ComponentInstance:
        for instance in self.instances:
            if instance.name == name:
                return instance
        raise KeyError(f"{self.mnemonic}: no hardware instance named {name!r}")


def _node_levels(spec: TieSpec) -> dict[int, int]:
    """Logic level per node: leaves 0, wires transparent, ops +1."""
    levels: dict[int, int] = {}
    for node in spec.nodes:
        if node.kind in (KIND_GPR, KIND_IMM, KIND_STATE, KIND_CONST):
            levels[node.nid] = 0
        else:
            input_level = max((levels[i.nid] for i in node.inputs), default=0)
            levels[node.nid] = input_level if not node.is_hardware else input_level + 1
    return levels


def _bus_tapped_nodes(spec: TieSpec) -> set[int]:
    """Hardware nodes whose inputs reach a GPR leaf through wiring only."""
    sees_bus: dict[int, bool] = {}
    tapped: set[int] = set()
    for node in spec.nodes:
        if node.kind == KIND_GPR:
            sees_bus[node.nid] = True
        elif node.kind in (KIND_IMM, KIND_STATE, KIND_CONST):
            sees_bus[node.nid] = False
        elif node.is_hardware:
            if any(sees_bus[i.nid] for i in node.inputs):
                tapped.add(node.nid)
            sees_bus[node.nid] = False  # the component's output is behind logic
        else:  # wiring: transparent to the bus
            sees_bus[node.nid] = any(sees_bus[i.nid] for i in node.inputs)
    return tapped


def _instance_name(spec: TieSpec, node: Node) -> str:
    return f"{spec.mnemonic}/{node.op}{node.nid}"


def _state_instance_name(state: TieState) -> str:
    # State registers are shared across instructions by name, so their
    # instance name must not embed the owning spec.
    return f"state/{state.name}"


def _codegen_node(node: Node, v) -> "str | None":
    """Python expression for one operator node, or None when not handled.

    Mirrors :func:`repro.tie.nodes.evaluate_node` exactly — same masking,
    same signedness windows, same shift-amount modulus — with every width
    constant folded into the source.
    """

    def signed(expr: str, width: int) -> str:
        # inputs are already masked to their widths, so to_signed's
        # truncation is the identity here
        return f"({expr} - {1 << width} if {expr} & {1 << (width - 1)} else {expr})"

    m = mask(node.width)
    op = node.op
    ins = node.inputs
    a = v[ins[0].nid] if ins else ""
    b = v[ins[1].nid] if len(ins) > 1 else ""
    if op == "add":
        return f"({a} + {b}) & {m}"
    if op == "sub":
        return f"({a} - {b}) & {m}"
    if op in ("and", "or", "xor"):
        sym = {"and": "&", "or": "|", "xor": "^"}[op]
        return f"({a} {sym} {b}) & {m}"
    if op == "not":
        return f"(~{a}) & {m}"
    if op == "mux":
        sel, x, y = (v[i.nid] for i in ins)
        return f"(({x} if {sel} else {y})) & {m}"
    if op in ("eq", "ne", "lt_s", "lt_u", "ge_s", "ge_u"):
        if op.endswith("_s"):
            a = signed(a, ins[0].width)
            b = signed(b, ins[1].width)
        sym = {"eq": "==", "ne": "!=", "lt": "<", "ge": ">="}[op[:2]]
        return f"(1 if {a} {sym} {b} else 0)"
    if op in ("min_s", "min_u", "max_s", "max_u"):
        fn = op[:3]
        if op.endswith("_s"):
            a = signed(a, ins[0].width)
            b = signed(b, ins[1].width)
        return f"{fn}({a}, {b}) & {m}"
    if op in ("red_or", "red_and", "red_xor"):
        if op == "red_or":
            return f"(1 if {a} else 0)"
        if op == "red_and":
            return f"(1 if {a} == {mask(ins[0].width)} else 0)"
        return f"({a}).bit_count() & 1"
    if op in ("shl", "shr", "sar"):
        amount = f"({b} % {node.width})"
        if op == "shl":
            return f"({a} << {amount}) & {m}"
        if op == "shr":
            return f"({a} >> {amount}) & {m}"
        return f"({signed(a, ins[0].width)} >> {amount}) & {m}"
    if op in ("mul", "tie_mult"):
        return f"({a} * {b}) & {m}"
    if op == "tie_mac":
        return f"({a} * {b} + {v[ins[2].nid]}) & {m}"
    if op == "tie_add":
        return f"({' + '.join(v[i.nid] for i in ins)}) & {m}"
    if op == "csa_sum":
        c = v[ins[2].nid]
        return f"({a} ^ {b} ^ {c}) & {m}"
    if op == "csa_carry":
        c = v[ins[2].nid]
        return f"((({a} & {b}) | ({b} & {c}) | ({a} & {c})) << 1) & {m}"
    if op == "table":
        return f"_table_{node.nid}[{a} & {len(node.payload) - 1}] & {m}"
    if op == "concat":
        return f"(({a} << {ins[1].width}) | {b}) & {m}"
    if op == "slice":
        return f"({a} >> {node.payload}) & {m}"
    if op == "sext":
        return f"{signed(a, ins[0].width)} & {m}"
    if op == "zext":
        return f"{a} & {m}"
    return None


def _codegen_semantics(spec: TieSpec, state_inits: Mapping[str, int]):
    """Compile the dataflow graph to one flat Python closure, or None.

    The node-walking interpreter in :func:`_make_semantics` pays a kind
    dispatch, an input-list build and an evaluator call per node per
    retire; for the DSE/serving hot path that interpretive overhead
    dominates custom-heavy programs.  Nodes arrive in topological order
    (builders only reference already-added nodes), so the graph unrolls
    into straight-line assignments with all width masks pre-folded.
    """
    v = {node.nid: f"v{node.nid}" for node in spec.nodes}
    lines = ["def semantics(ctx, ins):", "    tie_state = ctx.tie_state"]
    namespace: dict = {"min": min, "max": max}
    for node in spec.nodes:
        if node.kind == KIND_GPR:
            field = "rs" if node.payload == "rs" else "rt"
            expr = f"ctx.get(ins.{field}) & {mask(node.width)}"
        elif node.kind == KIND_IMM:
            expr = f"(ins.imm or 0) & {mask(node.width)}"
        elif node.kind == KIND_STATE:
            expr = f"tie_state.get({node.payload!r}, {state_inits[node.payload]})"
        elif node.kind == KIND_CONST:
            expr = repr(node.payload & mask(node.width))
        else:
            expr = _codegen_node(node, v)
            if expr is None:
                return None
            if node.op == "table":
                namespace[f"_table_{node.nid}"] = tuple(node.payload)
        lines.append(f"    {v[node.nid]} = {expr}")
    # All reads above observe pre-instruction state; the write-back below
    # only uses the computed v-locals, so commits are effectively atomic.
    for state, node in spec.state_writes:
        lines.append(
            f"    tie_state[{state.name!r}] = {v[node.nid]} & {mask(spec.states[state.name].width)}"
        )
    if spec.result_node is not None:
        lines.append(f"    ctx.set(ins.rd, {v[spec.result_node.nid]} & 0xFFFFFFFF)")
    source = "\n".join(lines)
    exec(compile(source, f"<tie:{spec.mnemonic}>", "exec"), namespace)
    return namespace["semantics"]


def _make_semantics(spec: TieSpec, state_inits: Mapping[str, int]):
    """Build the executable semantics closure for a compiled spec.

    Prefers the flat generated form (:func:`_codegen_semantics`); the
    node-walking interpreter below remains the reference fallback for any
    graph the generator cannot express.
    """
    generated = _codegen_semantics(spec, state_inits)
    if generated is not None:
        generated.tie_straightline = True
        return generated
    nodes = tuple(spec.nodes)
    writes = tuple((state.name, node.nid) for state, node in spec.state_writes)
    result_nid = spec.result_node.nid if spec.result_node is not None else None

    def semantics(ctx: ExecContext, ins: Instruction) -> None:
        values: list[int] = [0] * len(nodes)
        tie_state = ctx.tie_state  # type: ignore[attr-defined]
        for node in nodes:
            if node.kind == KIND_GPR:
                reg = ins.rs if node.payload == "rs" else ins.rt
                values[node.nid] = ctx.get(reg) & mask(node.width)
            elif node.kind == KIND_IMM:
                values[node.nid] = (ins.imm or 0) & mask(node.width)
            elif node.kind == KIND_STATE:
                values[node.nid] = tie_state.get(node.payload, state_inits[node.payload])
            elif node.kind == KIND_CONST:
                values[node.nid] = node.payload
            else:
                values[node.nid] = evaluate_node(
                    node, [values[i.nid] for i in node.inputs]
                )
        # All reads observe pre-instruction state; writes commit together.
        pending = {name: values[nid] & mask(spec.states[name].width) for name, nid in writes}
        tie_state.update(pending)
        if result_nid is not None:
            ctx.set(ins.rd, values[result_nid] & 0xFFFFFFFF)

    # Straight-line contract marker: this closure never reads ``ctx.pc``,
    # never redirects control and never halts, so the superop compiler
    # (repro.xtcore.compiled) may fuse it into a block interior.  Hand
    # built custom semantics lack the marker and stay on the per-op path.
    semantics.tie_straightline = True
    return semantics


class LazySemantics:
    """A custom instruction's semantics, generated on first use.

    Generating the closure costs a ``compile()``, and a program usually
    runs a few of its extension's instructions.  :meth:`resolve` builds
    the closure once; :func:`~repro.xtcore.compiled.compile_program`
    stores the resolved closure in its op table, so the dispatch loops
    never call through here (the reference interpreter and discovery's
    unroller do).  Threads racing to resolve build equivalent closures
    and either is kept.
    """

    __slots__ = ("_spec", "_state_inits", "_resolved")

    #: Both forms :func:`_make_semantics` builds are straight-line, so the
    #: superop compiler knows it without generating anything.
    tie_straightline = True

    def __init__(self, spec: TieSpec, state_inits: Mapping[str, int]) -> None:
        self._spec = spec
        self._state_inits = state_inits
        self._resolved = None

    def resolve(self):
        """The executable closure, generated on the first call."""
        resolved = self._resolved
        if resolved is None:
            resolved = self._resolved = _make_semantics(self._spec, self._state_inits)
        return resolved

    def __call__(self, ctx: ExecContext, ins: Instruction) -> None:
        return self.resolve()(ctx, ins)


def compile_spec(spec: TieSpec) -> TieImplementation:
    """Compile a validated spec into a :class:`TieImplementation`."""
    spec.validate()
    levels = _node_levels(spec)
    max_level = max(levels.values(), default=0)
    latency = max(1, -(-max_level // LEVELS_PER_CYCLE))  # ceil division

    instances: list[ComponentInstance] = []
    active_cycles: dict[str, tuple[int, ...]] = {}

    for node in spec.nodes:
        if not node.is_hardware:
            continue
        name = _instance_name(spec, node)
        entries = len(node.payload) if node.op == "table" else 0
        instances.append(
            ComponentInstance(name=name, category=node.category, width=node.width, entries=entries)
        )
        cycle = (levels[node.nid] - 1) // LEVELS_PER_CYCLE
        active_cycles[name] = (cycle,)

    for state in spec.states.values():
        name = _state_instance_name(state)
        instances.append(
            ComponentInstance(name=name, category=ComponentCategory.CUSTOM_REG, width=state.width)
        )
        cycles: set[int] = set()
        if any(n.kind == KIND_STATE and n.payload == state.name for n in spec.nodes):
            cycles.add(0)  # read in the first execute cycle
        if any(s.name == state.name for s, _ in spec.state_writes):
            cycles.add(latency - 1)  # written in the last cycle
        active_cycles[name] = tuple(sorted(cycles))

    per_exec: dict[ComponentCategory, float] = {}
    per_exec_counts: dict[ComponentCategory, int] = {}
    for instance in instances:
        n_active = len(active_cycles[instance.name])
        weight = instance.complexity * n_active
        per_exec[instance.category] = per_exec.get(instance.category, 0.0) + weight
        per_exec_counts[instance.category] = per_exec_counts.get(instance.category, 0) + n_active

    tapped_nids = _bus_tapped_nodes(spec)
    tapped_names = tuple(
        _instance_name(spec, node) for node in spec.nodes if node.nid in tapped_nids
    )
    bus_tap: dict[ComponentCategory, float] = {}
    bus_tap_counts: dict[ComponentCategory, int] = {}
    by_name = {inst.name: inst for inst in instances}
    for name in tapped_names:
        instance = by_name[name]
        bus_tap[instance.category] = bus_tap.get(instance.category, 0.0) + instance.complexity
        bus_tap_counts[instance.category] = bus_tap_counts.get(instance.category, 0) + 1

    state_inits = {name: state.init for name, state in spec.states.items()}
    instruction = InstructionDef(
        mnemonic=spec.mnemonic,
        fmt=spec.fmt,
        iclass=InstructionClass.CUSTOM,
        semantics=LazySemantics(spec, state_inits),
        latency=latency,
        description=spec.description or f"custom instruction {spec.mnemonic}",
    )

    return TieImplementation(
        spec=spec,
        latency=latency,
        instances=tuple(instances),
        active_cycles=active_cycles,
        per_exec_activity=per_exec,
        per_exec_counts=per_exec_counts,
        bus_tapped=tapped_names,
        bus_tap_complexity=bus_tap,
        bus_tap_counts=bus_tap_counts,
        instruction=instruction,
    )


def compile_extension(specs: list[TieSpec]) -> list[TieImplementation]:
    """Compile a whole extension; checks cross-spec consistency.

    Shared state registers must be declared identically everywhere; custom
    mnemonics must be unique.
    """
    seen_mnemonics: set[str] = set()
    seen_states: dict[str, TieState] = {}
    implementations: list[TieImplementation] = []
    for spec in specs:
        if spec.mnemonic in seen_mnemonics:
            raise TieSpecError(
                f"duplicate custom mnemonic {spec.mnemonic!r} in extension", category="mnemonic"
            )
        seen_mnemonics.add(spec.mnemonic)
        for name, state in spec.states.items():
            existing = seen_states.get(name)
            if existing is not None and existing != state:
                raise TieSpecError(
                    f"state register {name!r} declared inconsistently across the extension",
                    category="state",
                )
            seen_states[name] = state
        implementations.append(compile_spec(spec))
    return implementations
