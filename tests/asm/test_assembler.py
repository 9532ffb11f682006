"""Assembler tests: directives, labels, expressions, pseudo-instructions,
error reporting, and section/uncached-region handling."""

import pytest

from repro.asm import (
    AsmError,
    DATA_ORIGIN,
    TEXT_ORIGIN,
    UTEXT_ORIGIN,
    assemble,
)
from repro.isa import BASE_ISA, MachineState


def functional_run(program, max_steps=100_000):
    """Minimal functional executor for assembled programs (no timing)."""
    state = MachineState()
    for addr, blob in program.data:
        state.memory.write_bytes(addr, blob)
    state.pc = program.entry
    steps = 0
    while not state.halted and steps < max_steps:
        ins = program.instruction_at(state.pc)
        next_pc = BASE_ISA.lookup(ins.mnemonic).semantics(state, ins)
        state.pc = next_pc if next_pc is not None else state.pc + 4
        steps += 1
    assert state.halted, "program did not halt"
    return state


class TestBasics:
    def test_empty_text_rejected(self):
        with pytest.raises(AsmError, match="no instructions"):
            assemble("    .data\nx: .word 1\n")

    def test_simple_program(self):
        program = assemble("main:\n    movi a2, 42\n    halt\n")
        assert len(program) == 2
        assert program.entry == TEXT_ORIGIN
        ins = program.instruction_at(TEXT_ORIGIN)
        assert ins.mnemonic == "movi" and ins.rd == 2 and ins.imm == 42

    def test_comment_styles(self):
        program = assemble(
            "main: ; semicolon\n"
            "    movi a2, 1 # hash\n"
            "    movi a3, 2 // slashes\n"
            "    halt\n"
        )
        assert len(program) == 3

    def test_register_aliases(self):
        program = assemble("main:\n    mov sp, ra\n    halt\n")
        ins = program.instruction_at(TEXT_ORIGIN)
        assert ins.rd == 1 and ins.rs == 0

    def test_label_on_own_line(self):
        program = assemble("main:\nlater:\n    j later\n    halt\n")
        assert program.symbol("later") == program.symbol("main")

    def test_duplicate_label_rejected(self):
        with pytest.raises(AsmError, match="already defined"):
            assemble("x:\n    nop\nx:\n    halt\n")

    def test_unknown_instruction(self):
        with pytest.raises(AsmError, match="unknown instruction"):
            assemble("main:\n    frobnicate a1, a2\n    halt\n")

    def test_wrong_operand_count(self):
        with pytest.raises(AsmError, match="expected 3 operand"):
            assemble("main:\n    add a1, a2\n    halt\n")

    def test_bad_register(self):
        with pytest.raises(AsmError, match="bad register"):
            assemble("main:\n    mov a1, a64\n    halt\n")

    def test_line_numbers_in_errors(self):
        with pytest.raises(AsmError, match=":3:"):
            assemble("main:\n    nop\n    bogus\n    halt\n")


class TestSectionsAndData:
    def test_default_origins(self):
        program = assemble(
            "    .data\nvalue: .word 7\n    .text\nmain:\n    halt\n"
        )
        assert program.symbol("value") == DATA_ORIGIN
        assert program.entry == TEXT_ORIGIN

    def test_explicit_section_origin(self):
        program = assemble("    .text 0x2000\nmain:\n    halt\n")
        assert program.entry == 0x2000

    def test_org_directive(self):
        program = assemble("main:\n    nop\n    .org 0x100\nthere:\n    halt\n")
        assert program.symbol("there") == 0x100

    def test_align(self):
        program = assemble(
            "    .data\na: .byte 1\n    .align 4\nb: .word 2\n    .text\nmain:\n    halt\n"
        )
        assert program.symbol("b") % 4 == 0
        assert program.symbol("b") == DATA_ORIGIN + 4

    def test_word_half_byte(self):
        program = assemble(
            "    .data\n"
            "w: .word 0x11223344, -1\n"
            "h: .half 0xBEEF\n"
            "b: .byte 1, 2, 3\n"
            "    .text\nmain:\n    halt\n"
        )
        data = dict(program.data)
        assert data[program.symbol("w")] == b"\x44\x33\x22\x11\xff\xff\xff\xff"
        assert data[program.symbol("h")] == b"\xef\xbe"
        assert data[program.symbol("b")] == b"\x01\x02\x03"

    def test_space_with_fill(self):
        program = assemble(
            "    .data\nbuf: .space 4, 0xAB\n    .text\nmain:\n    halt\n"
        )
        assert dict(program.data)[program.symbol("buf")] == b"\xab" * 4

    def test_ascii_and_asciiz(self):
        program = assemble(
            '    .data\ns1: .ascii "hi"\ns2: .asciiz "yo"\n    .text\nmain:\n    halt\n'
        )
        data = dict(program.data)
        assert data[program.symbol("s1")] == b"hi"
        assert data[program.symbol("s2")] == b"yo\x00"

    def test_word_with_label_reference(self):
        program = assemble(
            "    .data\nptr: .word target+4\n    .text\nmain:\ntarget:\n    halt\n"
        )
        stored = int.from_bytes(dict(program.data)[program.symbol("ptr")], "little")
        assert stored == program.symbol("target") + 4

    def test_undefined_symbol(self):
        with pytest.raises(AsmError, match="undefined symbol"):
            assemble("main:\n    j nowhere\n    halt\n")

    def test_instructions_rejected_in_data(self):
        with pytest.raises(AsmError, match="not allowed in the data section"):
            assemble("    .data\n    nop\n")

    def test_unknown_directive(self):
        with pytest.raises(AsmError, match="unknown directive"):
            assemble("    .bogus 3\nmain:\n    halt\n")


class TestUncachedRegions:
    def test_utext_marks_range(self):
        program = assemble(
            "main:\n    j there\n    .utext\nthere:\n    nop\n    j back\n    .text\nback:\n    halt\n"
        )
        assert program.is_uncached(UTEXT_ORIGIN)
        assert not program.is_uncached(TEXT_ORIGIN)
        ranges = program.uncached_ranges
        assert len(ranges) == 1
        assert ranges[0].size == 8  # two instructions

    def test_adjacent_spans_coalesce(self):
        program = assemble(
            "main:\n    j u\n    .utext\nu:\n    nop\n    nop\n    nop\n    j b\n    .text\nb:\n    halt\n"
        )
        assert len(program.uncached_ranges) == 1


class TestEntryPoint:
    def test_main_symbol_default(self):
        program = assemble("start:\n    nop\nmain:\n    halt\n")
        assert program.entry == program.symbol("main")

    def test_entry_directive(self):
        program = assemble("    .entry go\nfirst:\n    nop\ngo:\n    halt\n")
        assert program.entry == program.symbol("go")

    def test_lowest_address_fallback(self):
        program = assemble("first:\n    halt\n")
        assert program.entry == program.symbol("first")

    def test_undefined_entry(self):
        with pytest.raises(AsmError, match="undefined"):
            assemble("    .entry nowhere\nmain:\n    halt\n")


class TestPseudoInstructions:
    def test_la_two_instructions(self):
        program = assemble(
            "    .data 0x12345\nsym: .word 0\n    .text\nmain:\n    la a2, sym\n    halt\n"
        )
        assert len(program) == 3  # movhi + ori + halt
        state = functional_run(program)
        assert state.get(2) == 0x12345

    def test_la_with_offset(self):
        program = assemble(
            "    .data\narr: .word 0, 0, 0\n    .text\nmain:\n    la a2, arr+8\n    halt\n"
        )
        state = functional_run(program)
        assert state.get(2) == program.symbol("arr") + 8

    def test_li_small_uses_movi(self):
        program = assemble("main:\n    li a2, -7\n    halt\n")
        assert len(program) == 2
        assert functional_run(program).get(2) == 0xFFFFFFF9

    def test_li_large(self):
        program = assemble("main:\n    li a2, 0x12345678\n    halt\n")
        assert len(program) == 3
        assert functional_run(program).get(2) == 0x12345678

    def test_li_out_of_range(self):
        with pytest.raises(AsmError, match="30-bit"):
            assemble("main:\n    li a2, 0x7FFFFFFF\n    halt\n")

    def test_li_rejects_labels(self):
        with pytest.raises(AsmError, match="constant"):
            assemble("main:\n    li a2, main\n    halt\n")

    def test_mv_alias(self):
        program = assemble("main:\n    mv a2, a3\n    halt\n")
        assert program.instruction_at(program.entry).mnemonic == "mov"

    @pytest.mark.parametrize(
        "pseudo,real", [("bgt", "blt"), ("ble", "bge"), ("bgtu", "bltu"), ("bleu", "bgeu")]
    )
    def test_swapped_branches(self, pseudo, real):
        program = assemble(f"main:\n    {pseudo} a2, a3, main\n    halt\n")
        ins = program.instruction_at(program.entry)
        assert ins.mnemonic == real
        assert (ins.rs, ins.rt) == (3, 2)  # operands swapped


class TestExpressions:
    def test_hex_binary_char(self):
        program = assemble(
            "main:\n    movi a2, 0x10\n    movi a3, 0b101\n    movi a4, 'A'\n    halt\n"
        )
        state = functional_run(program)
        assert state.get(2) == 16
        assert state.get(3) == 5
        assert state.get(4) == 65

    def test_label_arithmetic(self):
        program = assemble(
            "main:\n    movi a2, stop-main\nstop:\n    halt\n"
        )
        assert functional_run(program).get(2) == 4

    def test_branch_range_check(self):
        lines = ["main:"] + ["    nop"] * 3000 + ["    beq a1, a2, main", "    halt"]
        with pytest.raises(AsmError, match="exceeds 12-bit range"):
            assemble("\n".join(lines))


class TestProgramIntrospection:
    def test_text_ranges_and_histogram(self):
        program = assemble("main:\n    nop\n    nop\n    .org 0x100\n    halt\n")
        ranges = program.text_ranges()
        assert [(r.start, r.end) for r in ranges] == [(0, 8), (0x100, 0x104)]
        assert program.static_mnemonic_histogram() == {"nop": 2, "halt": 1}

    def test_misaligned_instruction_rejected(self):
        from repro.asm import Program
        from repro.isa import Instruction

        with pytest.raises(ValueError, match="misaligned"):
            Program("bad", {2: Instruction("nop", addr=2)}, [], {}, entry=2)


class TestEquDirective:
    def test_constant_usable_in_immediates(self):
        program = assemble(
            "    .equ COUNT, 12\nmain:\n    movi a2, COUNT\n    movi a3, COUNT+3\n    halt\n"
        )
        state = functional_run(program)
        assert state.get(2) == 12
        assert state.get(3) == 15

    def test_constant_in_data(self):
        program = assemble(
            "    .equ SIZE, 8\n    .data\nbuf: .space SIZE*1\n    .text\nmain:\n    halt\n"
        ) if False else assemble(
            "    .equ MAGIC, 0x2A\n    .data\nv: .word MAGIC\n    .text\nmain:\n    halt\n"
        )
        assert dict(program.data)[program.symbol("v")][0] == 0x2A

    def test_constant_from_constant(self):
        program = assemble(
            "    .equ BASE, 100\n    .equ LIMIT, BASE+28\nmain:\n    movi a2, LIMIT\n    halt\n"
        )
        assert functional_run(program).get(2) == 128

    def test_redefinition_rejected(self):
        with pytest.raises(AsmError, match="already defined"):
            assemble("    .equ X, 1\n    .equ X, 2\nmain:\n    halt\n")

    def test_label_conflict_rejected(self):
        with pytest.raises(AsmError, match="already defined"):
            assemble("main:\n    halt\n    .equ main, 5\n")

    def test_forward_reference_rejected(self):
        with pytest.raises(AsmError, match="undefined symbol"):
            assemble("    .equ X, LATER\nmain:\nLATER:\n    halt\n")

    def test_bad_arity(self):
        with pytest.raises(AsmError, match="requires"):
            assemble("    .equ ONLYNAME\nmain:\n    halt\n")
