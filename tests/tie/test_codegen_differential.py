"""The generated custom-instruction closure against the node evaluator.

Hypothesis builds random datapaths over every node kind — operands,
immediates, constants, state reads and writes, and every operator and
wiring op — and checks that the closure :func:`_codegen_semantics`
generates leaves exactly the GPR result and state a walk of
:func:`repro.tie.nodes.evaluate_node` over the same graph leaves.  The
walk is the reference the generator's folding, inlining and mask
elision must match.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa import Instruction, MachineState
from repro.isa.bits import mask
from repro.tie import TieSpec, evaluate_node
from repro.tie import compiler as tie_compiler
from repro.tie.nodes import KIND_CONST, KIND_GPR, KIND_IMM, KIND_STATE

WORDS = st.integers(min_value=0, max_value=0xFFFFFFFF)

#: operators drawn for each new node; each entry builds one node (or,
#: for ``csa``, two) from nodes already in the pool
OPS = (
    "add", "sub", "and", "or", "xor", "not", "mux", "eq", "ne", "lt_s",
    "lt_u", "ge_s", "ge_u", "min_s", "min_u", "max_s", "max_u", "red_or",
    "red_and", "red_xor", "shl", "shr", "sar", "mul", "tie_mult",
    "tie_mac", "tie_add", "csa", "table", "concat", "slice", "sext",
    "zext", "const",
)


def _narrow(spec, node, width=24):
    """``node`` itself, or its low ``width`` bits when it is wider."""
    return node if node.width <= width else spec.slice(node, 0, width)


@st.composite
def random_spec(draw):
    fmt = draw(st.sampled_from(["R3", "I"]))
    spec = TieSpec("rnd", fmt=fmt)
    pool = [spec.source("rs", width=draw(st.integers(1, 32)))]
    if fmt == "R3":
        pool.append(spec.source("rt", width=draw(st.integers(1, 32))))
    else:
        pool.append(spec.immediate(width=draw(st.integers(1, 12))))
    state = None
    if draw(st.booleans()):
        width = draw(st.integers(1, 48))
        state = spec.state("acc", width, init=draw(st.integers(0, mask(width))))
        pool.append(spec.read_state(state))
    pick = lambda: pool[draw(st.integers(0, len(pool) - 1))]  # noqa: E731
    for _ in range(draw(st.integers(1, 10))):
        op = draw(st.sampled_from(OPS))
        # mostly chained onto the newest node, so most ops reach the result
        x = pool[-1] if draw(st.integers(0, 3)) else pick()
        y, z = pick(), pick()
        if op == "const":
            width = draw(st.integers(1, 40))
            node = spec.const(draw(st.integers(0, mask(width))), width)
        elif op in ("add", "sub"):
            node = getattr(spec, op)(x, y)
        elif op in ("and", "or", "xor"):
            node = getattr(spec, f"bit_{op}")(x, y)
        elif op == "not":
            node = spec.bit_not(x)
        elif op == "mux":
            node = spec.mux(x, y, z)
        elif op in ("eq", "ne", "lt_s", "lt_u", "ge_s", "ge_u"):
            node = spec.compare(op, x, y)
        elif op.startswith(("min", "max")):
            build = spec.minimum if op.startswith("min") else spec.maximum
            node = build(x, y, signed=op.endswith("_s"))
        elif op.startswith("red_"):
            node = getattr(spec, {"red_or": "reduce_or", "red_and": "reduce_and",
                                  "red_xor": "reduce_xor"}[op])(x)
        elif op in ("shl", "shr", "sar"):
            build = {"shl": spec.shift_left, "shr": spec.shift_right,
                     "sar": spec.shift_right_arith}[op]
            node = build(_narrow(spec, x, 40), y)
        elif op in ("mul", "tie_mult"):
            node = getattr(spec, op)(_narrow(spec, x), _narrow(spec, y))
        elif op == "tie_mac":
            node = spec.tie_mac(_narrow(spec, x), _narrow(spec, y), _narrow(spec, z, 40))
        elif op == "tie_add":
            node = spec.tie_add(x, y, *([z] if draw(st.booleans()) else []))
        elif op == "csa":
            total, carry = spec.csa(x, y, z)
            pool.append(total)
            node = carry
        elif op == "table":
            bits = draw(st.integers(0, 4))
            width = draw(st.integers(1, 36))
            data = draw(st.lists(st.integers(0, mask(width)), min_size=1 << bits,
                                 max_size=1 << bits))
            node = spec.table("t", data, x, width)
        elif op == "concat":
            node = spec.concat(_narrow(spec, x, 30), _narrow(spec, y, 30))
        elif op == "slice":
            low = draw(st.integers(0, x.width - 1))
            node = spec.slice(x, low, draw(st.integers(1, x.width - low)))
        else:  # sext / zext
            build = spec.sign_extend if op == "sext" else spec.zero_extend
            node = build(x, draw(st.integers(x.width, x.width + 20)))
        pool.append(node)
    spec.result(pool[-1] if draw(st.booleans()) else pick())
    if state is not None and draw(st.booleans()):
        spec.write_state(state, pick())
    spec.validate()
    return spec


def reference(spec, state, ins):
    """The GPR and state writes of a walk of ``evaluate_node``."""
    inits = {name: s.init for name, s in spec.states.items()}
    values = {}
    for node in spec.nodes:
        if node.kind == KIND_GPR:
            reg = ins.rs if node.payload == "rs" else ins.rt
            values[node.nid] = state.get(reg) & mask(node.width)
        elif node.kind == KIND_IMM:
            values[node.nid] = (ins.imm or 0) & mask(node.width)
        elif node.kind == KIND_STATE:
            values[node.nid] = state.tie_state.get(node.payload, inits[node.payload])
        elif node.kind == KIND_CONST:
            values[node.nid] = node.payload
        else:
            values[node.nid] = evaluate_node(node, [values[i.nid] for i in node.inputs])
    writes = {
        s.name: values[node.nid] & mask(spec.states[s.name].width)
        for s, node in spec.state_writes
    }
    result = values[spec.result_node.nid] & 0xFFFFFFFF
    return result, writes


#: ``(rs, rt, imm, stored state)`` every spec also runs on, besides the
#: drawn ones: all ones carries out of every width (and, against zeros,
#: shifts by nothing), and the sign bits split the signed and unsigned
#: orders, so a mask elided where a value can exceed its width shows up
#: even when the drawn operands are small.
CORNERS = (
    (0xFFFFFFFF, 0xFFFFFFFF, -1, (1 << 48) - 1),
    (0xFFFFFFFF, 0, 0, (1 << 48) - 1),
    (0x80000000, 0x7FFFFFFF, -2048, 1 << 47),
)


@settings(max_examples=300, deadline=None)
@given(
    random_spec(),
    WORDS,
    WORDS,
    st.integers(-2048, 4095),
    st.integers(0, (1 << 48) - 1),
)
def test_generated_closure_matches_the_node_walk(spec, a, b, imm, stored):
    inits = {name: s.init for name, s in spec.states.items()}
    semantics = tie_compiler._codegen_semantics(spec, inits)
    assert semantics is not None  # every node op has a generated form
    for a, b, imm, stored in ((a, b, imm, stored), *CORNERS):
        ins = Instruction("rnd", rd=4, rs=2, rt=3 if spec.fmt == "R3" else None, imm=imm)
        before = {name: stored & mask(s.width) for name, s in spec.states.items()}
        for state_values in ({}, before):  # the init value, then a stored one
            state = MachineState()
            state.set(2, a)
            state.set(3, b)
            state.tie_state.update(state_values)
            expected = reference(spec, state, ins)
            semantics(state, ins)
            written = {name: state.tie_state[name] for name in expected[1]}
            assert (state.get(4), written) == expected
