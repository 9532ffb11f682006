"""Two-pass assembler for the ``xtcore`` ISA.

The paper's characterization flow uses "arbitrary test programs" — one of
the selling points of regression macro-modeling is that no carefully
constructed isolated-instruction loops are needed.  Our benchmark and
characterization programs are written in a small assembly dialect that
this module translates into :class:`repro.asm.program.Program` objects.

Dialect summary::

    ; comment        # comment        // comment
    .text [org]      switch to (cached) code section
    .utext [org]     switch to UNCACHED code section (fetches bypass I$)
    .data [org]      switch to data section
    .org  ADDR       set location counter
    .align N         align location counter to N bytes
    .equ NAME, EXPR  bind a named constant (usable in any later expression)
    .entry LABEL     set the program entry point (default: `main`, else
                     the lowest text address)
    .word/.half/.byte E[, E...]   emit initialized data (E may ref labels)
    .space N[, FILL] emit N fill bytes
    .ascii "s"  /  .asciiz "s"    emit string data
    label:           bind `label` to the current location
    mnemonic ops     any base-ISA or custom-extension instruction

Pseudo-instructions: ``la rd, sym[+off]`` (movhi+ori), ``li rd, imm``
(movi, or movhi+ori when out of 12-bit range), ``mv``, and the swapped
branches ``bgt/ble/bgtu/bleu``.

Expressions are ``term (+|- term)*`` where a term is an integer literal
(decimal, hex, binary or a character constant) or a label.
"""

from __future__ import annotations

import dataclasses
import re
from typing import Callable, Optional

from ..isa import (
    BASE_ISA,
    INSTRUCTION_BYTES,
    EncodingError,
    Instruction,
    InstructionSet,
    encode,
)
from ..isa.instructions import FORMAT_FIELDS
from .program import AddressRange, Program

#: Default section origins (byte addresses).
TEXT_ORIGIN = 0x0000_0000
DATA_ORIGIN = 0x0001_0000
UTEXT_ORIGIN = 0x0008_0000

_REGISTER_ALIASES = {"ra": 0, "sp": 1}
_LABEL_RE = re.compile(r"^[A-Za-z_.$][A-Za-z0-9_.$]*$")
_LABEL_DEF_RE = re.compile(r"^([A-Za-z_.$][A-Za-z0-9_.$]*)\s*:\s*")
_COMMENT_RE = re.compile(r";.*$|#.*$|//.*$")
#: One signed expression term: a character constant standing alone
#: (it may hold a space or a delimiter, e.g. ``' '`` or ``','``), or a run
#: of literal/label characters.
_TERM_RE = re.compile(
    r"([+-]?)\s*('(?:[^'\\]|\\.)+'(?![A-Za-z0-9_.$'\\])|[A-Za-z0-9_.$'\\]+)"
)


class AsmError(ValueError):
    """An assembly-time error, annotated with program name and line number."""

    def __init__(self, program: str, line_no: int, message: str) -> None:
        super().__init__(f"{program}:{line_no}: {message}")
        self.program = program
        self.line_no = line_no


@dataclasses.dataclass
class _Expr:
    """A deferred integer expression: constant + sum of signed label refs."""

    constant: int = 0
    labels: tuple[tuple[str, int], ...] = ()

    def resolve(self, symbols: dict[str, int], err: Callable[[str], AsmError]) -> int:
        value = self.constant
        for name, sign in self.labels:
            if name not in symbols:
                raise err(f"undefined symbol {name!r}")
            value += sign * symbols[name]
        return value

    @property
    def is_constant(self) -> bool:
        return not self.labels


@dataclasses.dataclass
class _InsSlot:
    """A reserved instruction slot awaiting pass-2 operand resolution."""

    line_no: int
    addr: int
    mnemonic: str
    operands: list[object]  # int (register), _Expr (immediate/target)


@dataclasses.dataclass
class _DataSlot:
    """A reserved data slot awaiting pass-2 expression resolution."""

    line_no: int
    addr: int
    size_per_item: int
    exprs: list[_Expr]
    raw: bytes = b""


def _parse_int_literal(token: str) -> Optional[int]:
    token = token.strip()
    if len(token) >= 3 and token.startswith("'") and token.endswith("'"):
        body = token[1:-1]
        try:
            unescaped = body.encode().decode("unicode_escape")
        except UnicodeDecodeError:  # e.g. a lone backslash: not a constant
            return None
        if len(unescaped) != 1:
            return None
        return ord(unescaped)
    try:
        return int(token, 0)
    except ValueError:
        return None


class Assembler:
    """Two-pass assembler over a fixed instruction set.

    The instruction set may include custom-extension definitions; the
    assembler is entirely table-driven off each definition's format, so
    TIE-substitute instructions assemble with no extra support code.
    """

    def __init__(self, isa: InstructionSet | None = None) -> None:
        self.isa = isa if isa is not None else BASE_ISA

    # -- public API ---------------------------------------------------------

    def assemble(self, source: str, name: str = "program") -> Program:
        """Assemble ``source`` text into a :class:`Program`."""
        state = _PassState(name)
        self._pass_one(source, state)
        return self._pass_two(source, state)

    # -- pass 1: layout -----------------------------------------------------

    def _pass_one(self, source: str, st: "_PassState") -> None:
        for line_no, raw_line in enumerate(source.splitlines(), start=1):
            line = _strip_comment(raw_line).strip()
            if not line:
                continue
            # Labels (possibly several) at the start of the line.
            while True:
                match = _LABEL_DEF_RE.match(line)
                if not match:
                    break
                st.bind_label(match.group(1), line_no)
                line = line[match.end():]
            if not line:
                continue
            if line.startswith("."):
                self._directive(line, line_no, st)
            else:
                self._instruction_pass_one(line, line_no, st)

    def _directive(self, line: str, line_no: int, st: "_PassState") -> None:
        parts = line.split(None, 1)
        name = parts[0].lower()
        rest = parts[1] if len(parts) > 1 else ""
        err = st.error_factory(line_no)

        if name in (".text", ".data", ".utext"):
            origin = None
            if rest:
                origin = _parse_int_literal(rest)
                if origin is None:
                    raise err(f"bad section origin {rest!r}")
            st.switch_section(name[1:], origin)
        elif name == ".org":
            value = _parse_int_literal(rest)
            if value is None:
                raise err(f".org requires a constant address, got {rest!r}")
            st.set_location(value, err)
        elif name == ".align":
            value = _parse_int_literal(rest)
            if value is None or value <= 0 or value & (value - 1):
                raise err(f".align requires a positive power of two, got {rest!r}")
            st.align(value)
        elif name == ".equ":
            parts = _split_operands(rest)
            if len(parts) != 2:
                raise err(".equ requires `name, expression`")
            symbol = parts[0]
            if not _LABEL_RE.match(symbol):
                raise err(f"bad .equ name {symbol!r}")
            # resolved immediately: terms may reference constants and
            # labels defined *above* this line
            expr = self._parse_expr(parts[1], line_no, st)
            st.bind_constant(symbol, expr.resolve(st.symbols, err), line_no)
        elif name == ".entry":
            st.entry_label = rest.strip()
            if not _LABEL_RE.match(st.entry_label):
                raise err(f"bad entry label {rest!r}")
        elif name == ".global":
            pass  # accepted for compatibility; all labels are global
        elif name in (".word", ".half", ".byte"):
            size = {".word": 4, ".half": 2, ".byte": 1}[name]
            exprs = [self._parse_data_item(tok, line_no, st) for tok in _split_operands(rest)]
            if not exprs:
                raise err(f"{name} requires at least one value")
            st.add_data(_DataSlot(line_no, st.location, size, exprs), size * len(exprs))
        elif name == ".space":
            args = _split_operands(rest)
            if not args:
                raise err(".space requires a size")
            count = _parse_int_literal(args[0])
            fill = _parse_int_literal(args[1]) if len(args) > 1 else 0
            if count is None or count < 0 or fill is None:
                raise err(f"bad .space arguments {rest!r}")
            st.add_data(
                _DataSlot(line_no, st.location, 1, [], raw=bytes([fill & 0xFF]) * count),
                count,
            )
        elif name in (".ascii", ".asciiz"):
            text = rest.strip()
            if len(text) < 2 or text[0] != '"' or text[-1] != '"':
                raise err(f"{name} requires a double-quoted string")
            try:
                data = text[1:-1].encode().decode("unicode_escape").encode("latin-1")
            except UnicodeError as exc:
                raise err(f"bad escape in {name} string {text}: {exc.reason}") from None
            if name == ".asciiz":
                data += b"\x00"
            st.add_data(_DataSlot(line_no, st.location, 1, [], raw=data), len(data))
        else:
            raise err(f"unknown directive {name!r}")

    def _instruction_pass_one(self, line: str, line_no: int, st: "_PassState") -> None:
        err = st.error_factory(line_no)
        if st.section == "data":
            raise err("instructions are not allowed in the data section")
        parts = line.split(None, 1)
        mnemonic = parts[0].lower()
        operand_text = parts[1] if len(parts) > 1 else ""
        tokens = _split_operands(operand_text)

        for expanded in self._expand_pseudo(mnemonic, tokens, line_no, st):
            exp_mnemonic, exp_tokens = expanded
            definition = self._lookup(exp_mnemonic, err)
            fields = FORMAT_FIELDS[definition.fmt]
            if len(exp_tokens) != len(fields):
                raise err(
                    f"{exp_mnemonic}: expected {len(fields)} operand(s) "
                    f"({', '.join(fields)}), got {len(exp_tokens)}"
                )
            operands: list[object] = []
            for field, token in zip(fields, exp_tokens):
                if field in ("rd", "rs", "rt"):
                    operands.append(self._parse_register(token, err))
                else:  # imm / imm2
                    operands.append(self._parse_expr(token, line_no, st))
            st.add_instruction(_InsSlot(line_no, st.location, exp_mnemonic, operands))

    def _expand_pseudo(
        self,
        mnemonic: str,
        tokens: list[str],
        line_no: int,
        st: "_PassState",
    ) -> list[tuple[str, list[str]]]:
        """Expand pseudo-instructions into real ones (size known in pass 1)."""
        err = st.error_factory(line_no)
        if mnemonic == "mv":
            return [("mov", tokens)]
        if mnemonic in ("bgt", "ble", "bgtu", "bleu"):
            if len(tokens) != 3:
                raise err(f"{mnemonic}: expected 3 operands")
            real = {"bgt": "blt", "ble": "bge", "bgtu": "bltu", "bleu": "bgeu"}[mnemonic]
            return [(real, [tokens[1], tokens[0], tokens[2]])]
        if mnemonic == "la":
            if len(tokens) != 2:
                raise err("la: expected `la rd, symbol[+offset]`")
            rd = tokens[0]
            # Always two instructions so pass-1 sizing is label-independent.
            return [
                ("movhi", [rd, f"%hi:{tokens[1]}"]),
                ("ori", [rd, rd, f"%lo:{tokens[1]}"]),
            ]
        if mnemonic == "li":
            if len(tokens) != 2:
                raise err("li: expected `li rd, constant`")
            value = _parse_int_literal(tokens[1])
            if value is None:
                raise err(f"li: operand {tokens[1]!r} must be a constant (use `la` for labels)")
            if -2048 <= value <= 2047:
                return [("movi", tokens)]
            if not 0 <= value <= 0x3FFF_FFFF:
                raise err(f"li: constant {value:#x} outside composable 30-bit range")
            rd = tokens[0]
            return [
                ("movhi", [rd, str(value >> 12)]),
                ("ori", [rd, rd, str(value & 0xFFF)]),
            ]
        return [(mnemonic, tokens)]

    # -- pass 2: resolution ---------------------------------------------------

    def _pass_two(self, source: str, st: "_PassState") -> Program:
        instructions: dict[int, Instruction] = {}
        for slot in st.instruction_slots:
            err = st.error_factory(slot.line_no)
            definition = self._lookup(slot.mnemonic, err)
            fields = FORMAT_FIELDS[definition.fmt]
            values: dict[str, int] = {}
            for field, operand in zip(fields, slot.operands):
                if isinstance(operand, _Expr):
                    values[field] = operand.resolve(st.symbols, err)
                else:
                    values[field] = operand
            ins = Instruction(
                mnemonic=slot.mnemonic,
                rd=values.get("rd"),
                rs=values.get("rs"),
                rt=values.get("imm2", values.get("rt")),
                imm=values.get("imm"),
                addr=slot.addr,
            )
            try:
                encode(definition, ins, self.isa)  # range validation
            except EncodingError as exc:
                raise err(str(exc)) from exc
            instructions[slot.addr] = ins

        data: list[tuple[int, bytes]] = []
        for dslot in st.data_slots:
            err = st.error_factory(dslot.line_no)
            if dslot.raw:
                data.append((dslot.addr, dslot.raw))
                continue
            blob = bytearray()
            for expr in dslot.exprs:
                value = expr.resolve(st.symbols, err) & ((1 << (8 * dslot.size_per_item)) - 1)
                blob += value.to_bytes(dslot.size_per_item, "little")
            data.append((dslot.addr, bytes(blob)))

        entry = self._resolve_entry(st, instructions)
        return Program(
            name=st.name,
            instructions=instructions,
            data=data,
            symbols=dict(st.symbols),
            entry=entry,
            uncached_ranges=st.uncached_ranges(),
            source=source,
        )

    def _resolve_entry(self, st: "_PassState", instructions: dict[int, Instruction]) -> int:
        if st.entry_label:
            if st.entry_label not in st.symbols:
                raise AsmError(st.name, 0, f"entry label {st.entry_label!r} undefined")
            return st.symbols[st.entry_label]
        if "main" in st.symbols:
            return st.symbols["main"]
        if not instructions:
            raise AsmError(st.name, 0, "program has no instructions")
        return min(instructions)

    # -- operand parsing ------------------------------------------------------

    def _lookup(self, mnemonic: str, err: Callable[[str], AsmError]):
        try:
            return self.isa.lookup(mnemonic)
        except KeyError:
            raise err(f"unknown instruction {mnemonic!r}") from None

    def _parse_register(self, token: str, err: Callable[[str], AsmError]) -> int:
        token = token.strip().lower()
        if token in _REGISTER_ALIASES:
            return _REGISTER_ALIASES[token]
        if token.startswith("a") and token[1:].isdigit():
            index = int(token[1:])
            if 0 <= index < 64:
                return index
        raise err(f"bad register {token!r} (expected a0..a63, sp or ra)")

    def _parse_data_item(self, token: str, line_no: int, st: "_PassState") -> _Expr:
        """One ``.word/.half/.byte`` item: plain integer literals skip the parser.

        Data tables are almost all literals.  An ASCII token that ``int``
        reads is exactly a signed literal ``_parse_expr`` would fold to
        the same value (``int`` also takes non-ASCII digits, which
        ``_parse_expr`` rejects); anything else goes to ``_parse_expr``.
        """
        if token.isascii():
            try:
                return _Expr(int(token, 0))
            except ValueError:
                pass
        return self._parse_expr(token, line_no, st)

    def _parse_expr(self, token: str, line_no: int, st: "_PassState") -> _Expr:
        err = st.error_factory(line_no)
        token = token.strip()
        transform = None
        if token.startswith("%hi:"):
            transform, token = "hi", token[4:]
        elif token.startswith("%lo:"):
            transform, token = "lo", token[4:]

        constant = 0
        labels: list[tuple[str, int]] = []
        terms = _TERM_RE.findall(token)
        if not terms:
            raise err(f"empty or malformed operand expression {token!r}")
        for sign_str, term in terms:
            sign = -1 if sign_str == "-" else 1
            literal = _parse_int_literal(term)
            if literal is not None:
                constant += sign * literal
            elif _LABEL_RE.match(term):
                labels.append((term, sign))
            else:
                raise err(f"bad expression term {term!r}")
        expr = _Expr(constant=constant, labels=tuple(labels))
        if transform is None:
            return expr
        return _TransformedExpr(expr, transform)

    # ------------------------------------------------------------------------


class _TransformedExpr(_Expr):
    """An expression wrapped in a %hi/%lo relocation transform."""

    def __init__(self, inner: _Expr, kind: str) -> None:
        super().__init__(constant=inner.constant, labels=inner.labels)
        self.kind = kind

    def resolve(self, symbols: dict[str, int], err: Callable[[str], AsmError]) -> int:
        value = super().resolve(symbols, err)
        if not 0 <= value <= 0x3FFF_FFFF:
            raise err(f"%{self.kind} operand {value:#x} outside 30-bit range")
        if self.kind == "hi":
            return value >> 12
        return value & 0xFFF


class _PassState:
    """Mutable assembler state shared between the two passes."""

    _ORIGINS = {"text": TEXT_ORIGIN, "data": DATA_ORIGIN, "utext": UTEXT_ORIGIN}

    def __init__(self, name: str) -> None:
        self.name = name
        self.symbols: dict[str, int] = {}
        self.instruction_slots: list[_InsSlot] = []
        self.data_slots: list[_DataSlot] = []
        self.entry_label: str = ""
        self.section = "text"
        self._counters = dict(self._ORIGINS)
        self._utext_spans: list[tuple[int, int]] = []
        self._label_lines: dict[str, int] = {}

    # location management

    @property
    def location(self) -> int:
        return self._counters[self.section]

    def error_factory(self, line_no: int) -> Callable[[str], AsmError]:
        return lambda message: AsmError(self.name, line_no, message)

    def switch_section(self, section: str, origin: Optional[int]) -> None:
        self.section = section
        if origin is not None:
            self._counters[section] = origin

    def set_location(self, value: int, err: Callable[[str], AsmError]) -> None:
        if value < 0:
            raise err(f"negative .org address {value}")
        self._counters[self.section] = value

    def align(self, boundary: int) -> None:
        loc = self._counters[self.section]
        self._counters[self.section] = (loc + boundary - 1) & ~(boundary - 1)

    def bind_label(self, label: str, line_no: int) -> None:
        if label in self.symbols:
            raise AsmError(
                self.name,
                line_no,
                f"label {label!r} already defined at line {self._label_lines[label]}",
            )
        self.symbols[label] = self.location
        self._label_lines[label] = line_no

    def bind_constant(self, name: str, value: int, line_no: int) -> None:
        """Bind an ``.equ`` constant (same namespace as labels)."""
        if name in self.symbols:
            raise AsmError(
                self.name,
                line_no,
                f"symbol {name!r} already defined at line {self._label_lines[name]}",
            )
        self.symbols[name] = value
        self._label_lines[name] = line_no

    def add_instruction(self, slot: _InsSlot) -> None:
        self.instruction_slots.append(slot)
        if self.section == "utext":
            self._utext_spans.append((slot.addr, slot.addr + INSTRUCTION_BYTES))
        self._counters[self.section] += INSTRUCTION_BYTES

    def add_data(self, slot: _DataSlot, size: int) -> None:
        self.data_slots.append(slot)
        self._counters[self.section] += size

    def uncached_ranges(self) -> list[AddressRange]:
        """Coalesce uncached-text spans into address ranges."""
        ranges: list[AddressRange] = []
        for start, end in sorted(self._utext_spans):
            if ranges and ranges[-1].end == start:
                ranges[-1] = AddressRange(ranges[-1].start, end)
            else:
                ranges.append(AddressRange(start, end))
        return ranges


def _unquoted(text: str):
    """Yield ``(index, char)`` for each character of ``text`` outside quotes.

    Quotes are ``'`` and ``"``; a backslash inside quotes escapes the next
    character.  An unterminated quote runs to the end of the text.
    """
    quote = ""
    escaped = False
    for index, char in enumerate(text):
        if quote:
            if escaped:
                escaped = False
            elif char == "\\":
                escaped = True
            elif char == quote:
                quote = ""
        elif char == "'" or char == '"':
            quote = char
        else:
            yield index, char


def _strip_comment(line: str) -> str:
    """``line`` without its ``;``, ``#`` or ``//`` comment; quoted text is kept."""
    if "'" not in line and '"' not in line:
        return _COMMENT_RE.sub("", line)
    for index, char in _unquoted(line):
        if char == ";" or char == "#" or (char == "/" and line.startswith("//", index)):
            return line[:index]
    return line


def _split_operands(text: str) -> list[str]:
    """Split an operand list on commas, respecting quoted strings."""
    text = text.strip()
    if not text:
        return []
    if "'" not in text and '"' not in text:
        return [part.strip() for part in text.split(",")]
    parts = []
    start = 0
    for index, char in _unquoted(text):
        if char == ",":
            parts.append(text[start:index].strip())
            start = index + 1
    parts.append(text[start:].strip())
    return parts


def assemble(source: str, name: str = "program", isa: InstructionSet | None = None) -> Program:
    """Convenience wrapper: assemble ``source`` with ``isa`` (default base)."""
    return Assembler(isa).assemble(source, name)
