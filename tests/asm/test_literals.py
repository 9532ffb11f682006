"""Data-item literal fast path and quoted text in assembly.

``.word/.half/.byte`` items that are plain integer literals skip the
expression parser; the fast path must agree with ``_parse_expr`` on
every token, value or error.  Quoted text (character constants and
strings) may hold comment delimiters, commas and spaces.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asm import AsmError, DATA_ORIGIN, assemble
from repro.asm.assembler import Assembler, _PassState, _split_operands, _strip_comment

LINE = 7


def outcome(parse, token):
    """``("ok", expr)`` or ``("error", message, line)`` for one parse."""
    state = _PassState("literals")
    try:
        return ("ok", parse(token, LINE, state))
    except AsmError as exc:
        return ("error", str(exc), exc.line_no)


def assert_same(token):
    assembler = Assembler()
    fast = outcome(assembler._parse_data_item, token)
    slow = outcome(assembler._parse_expr, token)
    assert fast == slow
    if fast[0] == "error":
        assert fast[2] == LINE
    return fast


class TestLiteralFastPath:
    @pytest.mark.parametrize(
        "token,value",
        [
            ("0", 0),
            ("42", 42),
            ("-7", -7),
            ("+7", 7),
            ("- 5", -5),
            ("0x1F", 31),
            ("-0x1f", -31),
            ("0X1F", 31),
            ("0b101", 5),
            ("-0b1", -1),
            ("0o17", 15),
            ("1_000", 1000),
            ("0x_ff", 255),
            ("99999999999", 99999999999),
            ("'a'", 97),
            ("'\\n'", 10),
            ("' '", 32),
            ("','", 44),
            ("'a'+1", 98),
            ("4-1", 3),
        ],
    )
    def test_constant_tokens_agree(self, token, value):
        result = assert_same(token)
        assert result[0] == "ok"
        assert result[1].is_constant
        assert result[1].constant == value

    @pytest.mark.parametrize(
        "token", ["label", "label+4", "4+label", "%lo:label", "%hi:0x12345", "1５"]
    )
    def test_other_accepted_tokens_agree(self, token):
        # labels and relocations need the parser; so does "1５", where the
        # parser reads the "1" and skips what its term pattern does not match
        assert assert_same(token)[0] == "ok"

    @pytest.mark.parametrize(
        "token", ["５", "017", "1__0", "0x", "'ab'", "'a'b", "", "?"]
    )
    def test_rejected_tokens_agree(self, token):
        # int() reads "５" as 5; the assembler never accepted it
        assert assert_same(token)[0] == "error"

    @settings(max_examples=400, deadline=None)
    @given(st.text(alphabet="0123456789abxoBXO_+-' \\n５lq%:", max_size=8))
    def test_any_token_agrees(self, token):
        assert_same(token)

    def test_data_words_assemble_from_literals_and_labels(self):
        program = assemble(
            "    .data\n"
            "tab: .word 1, -2, 0x10, 1_000, tab+4, 'A'\n"
            "    .half 0xFFFF, -1\n"
            "    .byte 0b11, 0o7, '\\n'\n"
            "    .text\nmain: halt\n"
        )
        (addr, blob), (_, half), (_, byte) = program.data
        assert addr == DATA_ORIGIN
        words = [int.from_bytes(blob[i : i + 4], "little") for i in range(0, 24, 4)]
        assert words == [1, 0xFFFFFFFE, 16, 1000, DATA_ORIGIN + 4, 65]
        assert half == b"\xff\xff\xff\xff"
        assert byte == b"\x03\x07\n"

    def test_bad_item_reports_its_line(self):
        with pytest.raises(AsmError, match=r":2: empty or malformed operand expression '５'"):
            assemble("    .data\n    .word 1, ５\n    .text\nmain: halt\n")


class TestQuotedText:
    @pytest.mark.parametrize(
        "line,data",
        [
            (".byte ','", b","),
            (".byte ';'", b";"),
            (".byte '#'", b"#"),
            (".byte ' '", b" "),
            (".byte ',', ';' ; two items, then a comment", b",;"),
            (".byte '/', '/' // slashes", b"//"),
            ('.asciiz "a;b"', b"a;b\x00"),
            ('.asciiz "http://x"', b"http://x\x00"),
            ('.ascii "a,b#c" # comment', b"a,b#c"),
            (".byte '\\''", b"'"),
        ],
    )
    def test_data(self, line, data):
        program = assemble(f"    .data\nx:  {line}\n    .text\nmain: halt\n")
        assert program.data == [(DATA_ORIGIN, data)]

    @pytest.mark.parametrize("char", [";", "#", ",", " "])
    def test_character_immediate(self, char):
        program = assemble(f"main:\n    movi a2, '{char}' ; load it\n    halt\n")
        assert program.instruction_at(program.entry).imm == ord(char)

    def test_comment_and_split_helpers(self):
        assert _strip_comment("movi a2, 5 ; don't") == "movi a2, 5 "
        assert _strip_comment("movi a2, ';' # c") == "movi a2, ';' "
        assert _strip_comment('.ascii "a//b" // c') == '.ascii "a//b" '
        assert _split_operands("a2, ','") == ["a2", "','"]
        assert _split_operands("a2, a3, 4") == ["a2", "a3", "4"]
        assert _split_operands("  ") == []
