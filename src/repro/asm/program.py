"""Assembled program representation.

A :class:`Program` is what the assembler produces and what the
instruction-set simulator, the reference RTL energy estimator and the
macro-model estimation flow all consume.  It carries:

* the instruction stream, keyed by byte address;
* initialized data blobs;
* the symbol table and entry point;
* uncached instruction-address ranges (for the ``N_uf`` uncached-fetch
  macro-model variable).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Iterator

from ..isa import INSTRUCTION_BYTES, Instruction


@dataclasses.dataclass(frozen=True)
class AddressRange:
    """A half-open byte-address interval ``[start, end)``."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(f"invalid address range [{self.start:#x}, {self.end:#x})")

    def __contains__(self, addr: int) -> bool:
        return self.start <= addr < self.end

    @property
    def size(self) -> int:
        return self.end - self.start


@dataclasses.dataclass
class Program:
    """A fully assembled program ready for simulation."""

    name: str
    instructions: dict[int, Instruction]
    data: list[tuple[int, bytes]]
    symbols: dict[str, int]
    entry: int
    uncached_ranges: list[AddressRange] = dataclasses.field(default_factory=list)
    source: str = ""

    def __post_init__(self) -> None:
        for addr in self.instructions:
            if addr % INSTRUCTION_BYTES:
                raise ValueError(f"misaligned instruction address {addr:#x}")

    def __len__(self) -> int:
        return len(self.instructions)

    def instruction_at(self, addr: int) -> Instruction:
        """Return the instruction at ``addr`` (KeyError if none)."""
        try:
            return self.instructions[addr]
        except KeyError:
            raise KeyError(
                f"{self.name}: no instruction at address {addr:#010x}"
            ) from None

    def is_uncached(self, addr: int) -> bool:
        """True if instruction fetches from ``addr`` bypass the I-cache."""
        return any(addr in r for r in self.uncached_ranges)

    def digest(self) -> str:
        """Stable content hash of everything that affects execution.

        Covers the instruction stream, data image, entry point, symbol
        table and uncached ranges — but not the cosmetic ``name`` or the
        original ``source`` text, so re-assembling identical source under
        a different program name digests identically.  Pairs with
        :meth:`repro.xtcore.ProcessorConfig.fingerprint` to key the
        cross-run compilation cache.
        """
        memo = self.__dict__.get("_digest_memo")
        if memo is not None:
            return memo
        payload = {
            "format": "repro-program-digest/1",
            "entry": self.entry,
            "instructions": [
                [addr, ins.mnemonic, ins.rd, ins.rs, ins.rt, ins.imm]
                for addr, ins in sorted(self.instructions.items())
            ],
            "data": [[addr, blob.hex()] for addr, blob in sorted(self.data)],
            "symbols": sorted(self.symbols.items()),
            "uncached": [[r.start, r.end] for r in self.uncached_ranges],
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        memo = hashlib.sha256(blob.encode("utf-8")).hexdigest()
        self.__dict__["_digest_memo"] = memo
        return memo

    def symbol(self, name: str) -> int:
        """Return the address bound to label ``name``."""
        try:
            return self.symbols[name]
        except KeyError:
            raise KeyError(f"{self.name}: unknown symbol {name!r}") from None

    def iter_instructions(self) -> Iterator[Instruction]:
        """Instructions in ascending address order."""
        for addr in sorted(self.instructions):
            yield self.instructions[addr]

    def text_ranges(self) -> list[AddressRange]:
        """Contiguous instruction-address ranges, ascending."""
        ranges: list[AddressRange] = []
        for addr in sorted(self.instructions):
            if ranges and ranges[-1].end == addr:
                ranges[-1] = AddressRange(ranges[-1].start, addr + INSTRUCTION_BYTES)
            else:
                ranges.append(AddressRange(addr, addr + INSTRUCTION_BYTES))
        return ranges

    def static_mnemonic_histogram(self) -> dict[str, int]:
        """Static occurrence count per mnemonic (useful for suite coverage)."""
        histogram: dict[str, int] = {}
        for ins in self.instructions.values():
            histogram[ins.mnemonic] = histogram.get(ins.mnemonic, 0) + 1
        return histogram
