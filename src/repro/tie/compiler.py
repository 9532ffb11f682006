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
import threading
import time
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


def _atom(expr: str) -> str:
    """``expr`` ready to be an operand: parenthesized unless a name or literal."""
    return expr if expr.isidentifier() or expr.isdigit() else f"({expr})"


def _fits(bits: "int | None", width: int) -> bool:
    """True when a value known to be below ``2**bits`` is below ``2**width``."""
    return bits is not None and bits <= width


def _signed(expr: str, bits: "int | None", width: int) -> str:
    """Two's-complement value of ``expr`` read as a ``width``-bit word
    (:func:`~repro.isa.bits.to_signed`, which truncates first)."""
    sign = 1 << (width - 1)
    if not _fits(bits, width):
        expr = f"({expr} & {mask(width)})"
    return f"(({expr} ^ {sign}) - {sign})"


def _codegen_node(node: Node, inputs: list) -> "tuple[str, int | None] | None":
    """Python expression for one operator node before its width mask, and
    a bound on its value, or None when the op is not handled.

    ``inputs`` holds each input's ``(operand expression, bits)``, where a
    value is known to be below ``2**bits`` (``None``: non-negative, no
    bound).  The result's bound is ``None`` too when the expression may
    be negative; :func:`_codegen_semantics` masks whatever may exceed the
    node width, so the node's value is exactly
    :func:`repro.tie.nodes.evaluate_node`'s.
    """
    op = node.op
    width = node.width
    a, abits = inputs[0] if inputs else ("", None)
    b, bbits = inputs[1] if len(inputs) > 1 else ("", None)
    widest: "int | None" = 0  # the widest input bound; None if any is unbounded
    for _, bits in inputs:
        if bits is None:
            widest = None
            break
        if bits > widest:
            widest = bits
    known = widest is not None
    if op == "add":
        return f"{a} + {b}", widest + 1 if known else None
    if op == "sub":
        return f"{a} - {b}", None
    if op == "and":
        bounds = [bits for _, bits in inputs if bits is not None]
        return f"{a} & {b}", min(bounds) if bounds else None
    if op in ("or", "xor"):
        return f"{a} {'|' if op == 'or' else '^'} {b}", widest
    if op == "not":
        if _fits(abits, width):
            return f"{a} ^ {mask(width)}", width
        return f"~{a}", None
    if op == "mux":
        sel, (x, xbits), (y, ybits) = a, inputs[1], inputs[2]
        both = xbits is not None and ybits is not None
        return f"{x} if {sel} else {y}", max(xbits, ybits) if both else None
    if op in ("eq", "ne", "lt_s", "lt_u", "ge_s", "ge_u"):
        if op.endswith("_s"):
            a = _signed(a, abits, node.inputs[0].width)
            b = _signed(b, bbits, node.inputs[1].width)
        sym = {"eq": "==", "ne": "!=", "lt": "<", "ge": ">="}[op[:2]]
        return f"1 if {a} {sym} {b} else 0", 1
    if op in ("min_s", "min_u", "max_s", "max_u"):
        if op.endswith("_s"):
            a = _signed(a, abits, node.inputs[0].width)
            b = _signed(b, bbits, node.inputs[1].width)
            return f"{op[:3]}({a}, {b})", None
        return f"{op[:3]}({a}, {b})", widest
    if op == "red_or":
        return f"1 if {a} else 0", 1
    if op == "red_and":
        return f"1 if {a} == {mask(node.inputs[0].width)} else 0", 1
    if op == "red_xor":
        return f"{a}.bit_count() & 1", 1
    if op in ("shl", "shr", "sar"):
        amount, most = f"({b} % {width})", width - 1
        if b.isdigit():  # a constant amount
            most = int(b) % width
            amount = str(most)
        if op == "shl":
            return f"{a} << {amount}", abits + most if abits is not None else None
        if op == "shr":
            return f"{a} >> {amount}", abits
        return f"{_signed(a, abits, node.inputs[0].width)} >> {amount}", None
    if op in ("mul", "tie_mult"):
        return f"{a} * {b}", abits + bbits if known else None
    if op == "tie_mac":
        c, cbits = inputs[2]
        bound = max(abits + bbits, cbits) + 1 if known else None
        return f"{a} * {b} + {c}", bound
    if op == "tie_add":
        bound = widest + (len(inputs) - 1).bit_length() if known else None
        return " + ".join(expr for expr, _ in inputs), bound
    if op == "csa_sum":
        return f"{a} ^ {b} ^ {inputs[2][0]}", widest
    if op == "csa_carry":
        c = inputs[2][0]
        return f"(({a} & {b}) | ({b} & {c}) | ({a} & {c})) << 1", widest + 1 if known else None
    if op == "table":
        entries = len(node.payload)
        index = a if _fits(abits, entries.bit_length() - 1) else f"{a} & {entries - 1}"
        return f"_table_{node.nid}[{index}]", width  # entries fit: spec-validated
    if op == "concat":
        low = node.inputs[1].width
        bound = max(abits + low, bbits) if known else None
        return f"({a} << {low}) | {b}", bound
    if op == "slice":
        if not node.payload:
            return a, abits
        return f"{a} >> {node.payload}", abits
    if op == "sext":
        source = node.inputs[0].width
        if width == source and _fits(abits, source):
            return a, abits
        return _signed(a, abits, source), None
    if op == "zext":
        return a, abits
    return None


class CodegenTally:
    """Custom-instruction closures :func:`_codegen_semantics` made in this
    process, their generated lines and the seconds that took; reported
    and reset with the compilation cache's counters
    (:func:`repro.xtcore.compilation_cache`)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.closures = 0
        self.statements = 0
        self.seconds = 0.0

    def count(self, statements: int, seconds: float) -> None:
        with self._lock:
            self.closures += 1
            self.statements += statements
            self.seconds += seconds

    def clear(self) -> None:
        with self._lock:
            self.closures = 0
            self.statements = 0
            self.seconds = 0.0


CODEGEN_TALLY = CodegenTally()


def _codegen_semantics(spec: TieSpec, state_inits: Mapping[str, int]):
    """Compile the dataflow graph to one flat Python closure, or None.

    The node-walking interpreter in :func:`_make_semantics` pays a kind
    dispatch, an input-list build and an evaluator call per node per
    retire; for the DSE/serving hot path that interpretive overhead
    dominates custom-heavy programs.  Nodes arrive in topological order
    (builders only reference already-added nodes), so the graph folds
    into a few statements: constant subgraphs are evaluated here, a node
    used once is written into its user's expression, a node used more
    than once gets a local, and a width mask is emitted only where the
    value may exceed the width.  Every GPR operand is read up front, in
    node order, so an out-of-range register faults as the interpreter
    does; a result needs no mask, as ``ctx.set`` truncates.
    """
    began = time.perf_counter()
    # One analysis walk: use counts, the GPR operands and the state accesses.
    uses: dict[int, int] = {}
    gprs = []
    state_ops = len(spec.state_writes)
    for node in spec.nodes:
        uses[node.nid] = 0
        if node.kind == KIND_GPR:
            gprs.append(node)
        elif node.kind == KIND_STATE:
            state_ops += 1
        step = 2 if node.op == "csa_carry" else 1
        for i in node.inputs:
            uses[i.nid] += step
    sinks = [(state.name, node) for state, node in spec.state_writes]
    if spec.result_node is not None:
        sinks.append((None, spec.result_node))
    for _, node in sinks:
        uses[node.nid] += 1
    # A state read feeding a later sink must not see an earlier sink's
    # write: with several sinks and any write, every state read gets a local.
    pin_state = len(sinks) > 1 and bool(spec.state_writes)
    tie_state = "tie_state" if state_ops > 1 else "ctx.tie_state"

    namespace: dict = {"min": min, "max": max}
    constants: dict[int, int] = {}  # nid -> value, for constant subgraphs
    operands: dict[int, tuple] = {}  # nid -> (operand expression, bits)
    unmasked: dict[int, tuple] = {}  # nid -> (operand, bits) before the width mask, if inlined
    lines = ["def semantics(ctx, ins):"]
    if gprs:
        reads = []
        for node in gprs:
            read = f"ctx.get(ins.{'rs' if node.payload == 'rs' else 'rt'})"
            reads.append(read if node.width >= 32 else f"{read} & {mask(node.width)}")
            operands[node.nid] = (f"v{node.nid}", min(node.width, 32))
        names = ", ".join(f"v{node.nid}" for node in gprs)
        lines.append(f"    {names} = {', '.join(reads)}")
    if tie_state == "tie_state":
        lines.append("    tie_state = ctx.tie_state")
    for node in spec.nodes:
        kind, nid = node.kind, node.nid
        if kind == KIND_GPR:
            continue
        if kind == KIND_IMM:
            raw, bits = "ins.imm or 0", None
        elif kind == KIND_STATE:
            raw, bits = f"{tie_state}.get({node.payload!r}, {state_inits[node.payload]})", None
        else:
            folded = bool(node.inputs) or kind == KIND_CONST
            for i in node.inputs:
                if i.nid not in constants:
                    folded = False
                    break
            if folded:
                value = node.payload if kind == KIND_CONST else evaluate_node(
                    node, [constants[i.nid] for i in node.inputs]
                )
                constants[nid] = value
                operands[nid] = (str(value), value.bit_length())
                continue
            generated = _codegen_node(node, [operands[i.nid] for i in node.inputs])
            if generated is None:
                return None
            raw, bits = generated
            if node.op == "table":
                namespace[f"_table_{nid}"] = tuple(node.payload)
        if kind == KIND_STATE or _fits(bits, node.width):  # state: read as stored
            expr, masked = raw, bits
        else:
            expr, masked = f"{_atom(raw)} & {mask(node.width)}", node.width
        if uses[nid] > 1 or (pin_state and kind == KIND_STATE):
            lines.append(f"    v{nid} = {expr}")
            operands[nid] = (f"v{nid}", masked)
        else:
            atom = _atom(raw)
            operands[nid] = (atom if expr is raw else f"({expr})", masked)
            unmasked[nid] = (atom, bits)
    # All reads above observe pre-instruction state, and no state read
    # is left in a sink after the first write, so commits are atomic.
    for name, node in sinks:
        expr, bits = operands[node.nid]
        width = 32 if name is None else spec.states[name].width
        if node.nid in unmasked and node.width >= width:
            expr, bits = unmasked[node.nid]  # the sink's mask subsumes the node's
        if name is None:
            lines.append(f"    ctx.set(ins.rd, {expr})")
        elif _fits(bits, width):
            lines.append(f"    {tie_state}[{name!r}] = {expr}")
        else:
            lines.append(f"    {tie_state}[{name!r}] = {expr} & {mask(width)}")
    source = "\n".join(lines)
    exec(compile(source, f"<tie:{spec.mnemonic}>", "exec"), namespace)
    CODEGEN_TALLY.count(len(lines), time.perf_counter() - began)
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
