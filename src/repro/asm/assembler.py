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

Fast paths.  Most lines are plain: a ``.word`` table of integer
literals, or an instruction whose immediates are integers.  Both skip
the expression parser and produce exactly what it would:

* an all-literal ``.word/.half/.byte`` line becomes its bytes in pass
  one; any other data line keeps one deferred expression per item;
* an operand that ``int(token, 0)`` reads (ASCII only) is that integer,
  and a register name is read from one precomputed table;
* each mnemonic's definition and operand layout are looked up once per
  :class:`Assembler` and carried in the instruction's slot, so pass two
  only resolves labels, builds the :class:`Instruction` and validates
  its encoding ranges with :func:`~repro.isa.encode`;
* an :class:`AsmError` is built only when one is raised.

Every other token takes the general path, with the same value or error
text and line number.
"""

from __future__ import annotations

import dataclasses
import re
from typing import Optional, Union

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
#: Canonical (lower-case) register names -> index; other spellings that
#: :meth:`Assembler._parse_register` accepts (``A3``, ``a07``) take its
#: slow path.
_REGISTERS = {**{f"a{index}": index for index in range(64)}, **_REGISTER_ALIASES}
_DATA_SIZES = {".word": 4, ".half": 2, ".byte": 1}
#: Operand fields -> position in ``Instruction(mnemonic, rd, rs, rt, imm)``;
#: the ``BI`` format's bit/compare immediate ``imm2`` rides in ``rt``.
_FIELD_SLOTS = {"rd": 0, "rs": 1, "rt": 2, "imm2": 2, "imm": 3}
_PSEUDO_BRANCHES = {"bgt": "blt", "ble": "bge", "bgtu": "bltu", "bleu": "bgeu"}
_PSEUDO = frozenset({"mv", "la", "li", *_PSEUDO_BRANCHES})
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

    def resolve(self, st: "_PassState", line_no: int) -> int:
        value = self.constant
        symbols = st.symbols
        for name, sign in self.labels:
            if name not in symbols:
                raise st.error(line_no, f"undefined symbol {name!r}")
            value += sign * symbols[name]
        return value

    @property
    def is_constant(self) -> bool:
        return not self.labels


#: An operand after pass one: a register index or constant, or a deferred
#: expression that names labels.
_Operand = Union[int, _Expr]


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
        #: mnemonic -> (definition, operand fields, Instruction slot per
        #: field, whether each field is a register)
        self._shapes: dict[str, tuple] = {}

    # -- public API ---------------------------------------------------------

    def assemble(self, source: str, name: str = "program") -> Program:
        """Assemble ``source`` text into a :class:`Program`."""
        state = _PassState(name)
        self._pass_one(source, state)
        return self._pass_two(source, state)

    # -- pass 1: layout -----------------------------------------------------

    def _pass_one(self, source: str, st: "_PassState") -> None:
        label_def = _LABEL_DEF_RE.match
        for line_no, line in enumerate(source.splitlines(), start=1):
            if ";" in line or "#" in line or "/" in line:  # else there is no comment
                line = _strip_comment(line)
            line = line.strip()
            if not line:
                continue
            # Labels (possibly several) at the start of the line.
            while ":" in line:
                match = label_def(line)
                if not match:
                    break
                st.bind_label(match.group(1), line_no)
                line = line[match.end():]
            if not line:
                continue
            if line[0] == ".":
                self._directive(line, line_no, st)
            else:
                self._instruction_pass_one(line, line_no, st)

    def _directive(self, line: str, line_no: int, st: "_PassState") -> None:
        parts = line.split(None, 1)
        name = parts[0].lower()
        rest = parts[1] if len(parts) > 1 else ""

        if name in _DATA_SIZES:
            size = _DATA_SIZES[name]
            raw = _literal_data(rest, size)
            if raw is not None:
                st.add_data(_DataSlot(line_no, st.location, size, (), raw), len(raw))
                return
            exprs = [self._parse_data_item(tok, line_no, st) for tok in _split_operands(rest)]
            if not exprs:
                raise st.error(line_no, f"{name} requires at least one value")
            st.add_data(_DataSlot(line_no, st.location, size, exprs), size * len(exprs))
        elif name in (".text", ".data", ".utext"):
            origin = None
            if rest:
                origin = _parse_int_literal(rest)
                if origin is None:
                    raise st.error(line_no, f"bad section origin {rest!r}")
            st.switch_section(name[1:], origin)
        elif name == ".org":
            value = _parse_int_literal(rest)
            if value is None:
                raise st.error(line_no, f".org requires a constant address, got {rest!r}")
            st.set_location(value, line_no)
        elif name == ".align":
            value = _parse_int_literal(rest)
            if value is None or value <= 0 or value & (value - 1):
                raise st.error(
                    line_no, f".align requires a positive power of two, got {rest!r}"
                )
            st.align(value)
        elif name == ".equ":
            parts = _split_operands(rest)
            if len(parts) != 2:
                raise st.error(line_no, ".equ requires `name, expression`")
            symbol = parts[0]
            if not _LABEL_RE.match(symbol):
                raise st.error(line_no, f"bad .equ name {symbol!r}")
            # resolved immediately: terms may reference constants and
            # labels defined *above* this line
            expr = self._parse_expr(parts[1], line_no, st)
            st.bind_constant(symbol, expr.resolve(st, line_no), line_no)
        elif name == ".entry":
            st.entry_label = rest.strip()
            if not _LABEL_RE.match(st.entry_label):
                raise st.error(line_no, f"bad entry label {rest!r}")
        elif name == ".global":
            pass  # accepted for compatibility; all labels are global
        elif name == ".space":
            args = _split_operands(rest)
            if not args:
                raise st.error(line_no, ".space requires a size")
            count = _parse_int_literal(args[0])
            fill = _parse_int_literal(args[1]) if len(args) > 1 else 0
            if count is None or count < 0 or fill is None:
                raise st.error(line_no, f"bad .space arguments {rest!r}")
            st.add_data(
                _DataSlot(line_no, st.location, 1, [], raw=bytes([fill & 0xFF]) * count),
                count,
            )
        elif name in (".ascii", ".asciiz"):
            text = rest.strip()
            if len(text) < 2 or text[0] != '"' or text[-1] != '"':
                raise st.error(line_no, f"{name} requires a double-quoted string")
            try:
                data = text[1:-1].encode().decode("unicode_escape").encode("latin-1")
            except UnicodeError as exc:
                raise st.error(
                    line_no, f"bad escape in {name} string {text}: {exc.reason}"
                ) from None
            if name == ".asciiz":
                data += b"\x00"
            st.add_data(_DataSlot(line_no, st.location, 1, [], raw=data), len(data))
        else:
            raise st.error(line_no, f"unknown directive {name!r}")

    def _instruction_pass_one(self, line: str, line_no: int, st: "_PassState") -> None:
        if st.section == "data":
            raise st.error(line_no, "instructions are not allowed in the data section")
        parts = line.split(None, 1)
        mnemonic = parts[0].lower()
        tokens = _split_operands(parts[1]) if len(parts) > 1 else []
        if mnemonic in _PSEUDO:
            expansions = self._expand_pseudo(mnemonic, tokens, line_no, st)
        else:
            expansions = ((mnemonic, tokens),)

        for exp_mnemonic, exp_tokens in expansions:
            shape = self._shapes.get(exp_mnemonic) or self._shape(exp_mnemonic, line_no, st)
            _, fields, _, registers = shape
            if len(exp_tokens) != len(fields):
                raise st.error(
                    line_no,
                    f"{exp_mnemonic}: expected {len(fields)} operand(s) "
                    f"({', '.join(fields)}), got {len(exp_tokens)}",
                )
            operands: list[_Operand] = []
            for is_register, token in zip(registers, exp_tokens):
                if is_register:
                    reg = _REGISTERS.get(token)
                    operands.append(
                        reg if reg is not None else self._parse_register(token, line_no, st)
                    )
                else:
                    operands.append(self._parse_operand(token, line_no, st))
            st.add_instruction((line_no, st.location, exp_mnemonic, shape, operands))

    def _shape(self, mnemonic: str, line_no: int, st: "_PassState") -> tuple:
        """Look up ``mnemonic`` once per assembler: definition and operand layout."""
        try:
            definition = self.isa.lookup(mnemonic)
        except KeyError:
            raise st.error(line_no, f"unknown instruction {mnemonic!r}") from None
        fields = FORMAT_FIELDS[definition.fmt]
        shape = (
            definition,
            fields,
            tuple(_FIELD_SLOTS[field] for field in fields),
            tuple(field in ("rd", "rs", "rt") for field in fields),
        )
        self._shapes[mnemonic] = shape
        return shape

    def _expand_pseudo(
        self,
        mnemonic: str,
        tokens: list[str],
        line_no: int,
        st: "_PassState",
    ) -> list[tuple[str, list[str]]]:
        """Expand pseudo-instructions into real ones (size known in pass 1)."""
        if mnemonic == "mv":
            return [("mov", tokens)]
        if mnemonic in _PSEUDO_BRANCHES:
            if len(tokens) != 3:
                raise st.error(line_no, f"{mnemonic}: expected 3 operands")
            return [(_PSEUDO_BRANCHES[mnemonic], [tokens[1], tokens[0], tokens[2]])]
        if mnemonic == "la":
            if len(tokens) != 2:
                raise st.error(line_no, "la: expected `la rd, symbol[+offset]`")
            rd = tokens[0]
            # Always two instructions so pass-1 sizing is label-independent.
            return [
                ("movhi", [rd, f"%hi:{tokens[1]}"]),
                ("ori", [rd, rd, f"%lo:{tokens[1]}"]),
            ]
        # li
        if len(tokens) != 2:
            raise st.error(line_no, "li: expected `li rd, constant`")
        value = _parse_int_literal(tokens[1])
        if value is None:
            raise st.error(
                line_no, f"li: operand {tokens[1]!r} must be a constant (use `la` for labels)"
            )
        if -2048 <= value <= 2047:
            return [("movi", tokens)]
        if not 0 <= value <= 0x3FFF_FFFF:
            raise st.error(line_no, f"li: constant {value:#x} outside composable 30-bit range")
        rd = tokens[0]
        return [
            ("movhi", [rd, str(value >> 12)]),
            ("ori", [rd, rd, str(value & 0xFFF)]),
        ]

    # -- pass 2: resolution ---------------------------------------------------

    def _pass_two(self, source: str, st: "_PassState") -> Program:
        instructions: dict[int, Instruction] = {}
        isa = self.isa
        for line_no, addr, mnemonic, (definition, _, slots, _), operands in st.instruction_slots:
            values: list[Optional[int]] = [None, None, None, None]
            for slot, operand in zip(slots, operands):
                values[slot] = (
                    operand if operand.__class__ is int else operand.resolve(st, line_no)
                )
            ins = Instruction(mnemonic, values[0], values[1], values[2], values[3], addr)
            try:
                encode(definition, ins, isa)  # range validation
            except EncodingError as exc:
                raise st.error(line_no, str(exc)) from exc
            instructions[addr] = ins

        data: list[tuple[int, bytes]] = []
        for dslot in st.data_slots:
            if dslot.raw:
                data.append((dslot.addr, dslot.raw))
                continue
            blob = bytearray()
            mask = (1 << (8 * dslot.size_per_item)) - 1
            for expr in dslot.exprs:
                value = expr.resolve(st, dslot.line_no) & mask
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

    def _parse_register(self, token: str, line_no: int, st: "_PassState") -> int:
        token = token.strip().lower()
        if token in _REGISTER_ALIASES:
            return _REGISTER_ALIASES[token]
        if token.startswith("a") and token[1:].isdigit():
            index = int(token[1:])
            if 0 <= index < 64:
                return index
        raise st.error(line_no, f"bad register {token!r} (expected a0..a63, sp or ra)")

    def _parse_operand(self, token: str, line_no: int, st: "_PassState") -> _Operand:
        """An immediate or target operand: its value when constant."""
        if token.isascii():
            if _LABEL_RE.match(token):  # never an integer literal
                return _Expr(0, ((token, 1),))
            try:
                return int(token, 0)
            except ValueError:
                pass
        expr = self._parse_expr(token, line_no, st)
        return expr.constant if expr.__class__ is _Expr and not expr.labels else expr

    def _parse_data_item(self, token: str, line_no: int, st: "_PassState") -> _Expr:
        """One ``.word/.half/.byte`` item: plain integer literals skip the parser.

        An ASCII token that ``int`` reads is exactly a signed literal
        ``_parse_expr`` would fold to the same value (``int`` also takes
        non-ASCII digits, which ``_parse_expr`` rejects); anything else
        goes to ``_parse_expr``.
        """
        if token.isascii():
            try:
                return _Expr(int(token, 0))
            except ValueError:
                pass
        return self._parse_expr(token, line_no, st)

    def _parse_expr(self, token: str, line_no: int, st: "_PassState") -> _Expr:
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
            raise st.error(line_no, f"empty or malformed operand expression {token!r}")
        for sign_str, term in terms:
            sign = -1 if sign_str == "-" else 1
            literal = _parse_int_literal(term)
            if literal is not None:
                constant += sign * literal
            elif _LABEL_RE.match(term):
                labels.append((term, sign))
            else:
                raise st.error(line_no, f"bad expression term {term!r}")
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

    def resolve(self, st: "_PassState", line_no: int) -> int:
        value = super().resolve(st, line_no)
        if not 0 <= value <= 0x3FFF_FFFF:
            raise st.error(line_no, f"%{self.kind} operand {value:#x} outside 30-bit range")
        if self.kind == "hi":
            return value >> 12
        return value & 0xFFF


class _PassState:
    """Mutable assembler state shared between the two passes."""

    _ORIGINS = {"text": TEXT_ORIGIN, "data": DATA_ORIGIN, "utext": UTEXT_ORIGIN}

    def __init__(self, name: str) -> None:
        self.name = name
        self.symbols: dict[str, int] = {}
        #: ``(line_no, addr, mnemonic, shape, operands)`` per instruction
        self.instruction_slots: list[tuple] = []
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

    def error(self, line_no: int, message: str) -> AsmError:
        return AsmError(self.name, line_no, message)

    def switch_section(self, section: str, origin: Optional[int]) -> None:
        self.section = section
        if origin is not None:
            self._counters[section] = origin

    def set_location(self, value: int, line_no: int) -> None:
        if value < 0:
            raise self.error(line_no, f"negative .org address {value}")
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

    def add_instruction(self, slot: tuple) -> None:
        self.instruction_slots.append(slot)
        addr = self._counters[self.section]
        if self.section == "utext":
            self._utext_spans.append((addr, addr + INSTRUCTION_BYTES))
        self._counters[self.section] = addr + INSTRUCTION_BYTES

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


def _literal_data(text: str, size: int) -> Optional[bytes]:
    """The bytes of a data line whose items are all integer literals, else None.

    ``text`` is the line's operand text.  An item that ``int`` reads from
    ASCII text is the value ``_parse_expr`` would give (see
    ``_parse_data_item``; ``int`` also skips the whitespace around it);
    any other item, an empty one included, sends the whole line to the
    expression path.
    """
    if not text.isascii():
        return None
    mask = (1 << (8 * size)) - 1
    try:
        values = [int(token, 0) & mask for token in text.split(",")]
    except ValueError:
        return None
    return b"".join([value.to_bytes(size, "little") for value in values])


def assemble(source: str, name: str = "program", isa: InstructionSet | None = None) -> Program:
    """Convenience wrapper: assemble ``source`` with ``isa`` (default base)."""
    return Assembler(isa).assemble(source, name)
