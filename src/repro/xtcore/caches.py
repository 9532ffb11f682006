"""Set-associative cache model with true-LRU replacement.

Only hit/miss behaviour matters to the energy flow (the macro-model
variables ``N_cm``/``N_dm`` count misses; the reference RTL estimator
charges per-access and per-miss energies), so the model tracks tags and
recency but not line contents.
"""

from __future__ import annotations

from typing import Iterable

from .config import CacheConfig


class SetAssociativeCache:
    """A tag-only set-associative cache with per-set LRU ordering."""

    def __init__(self, config: CacheConfig, name: str = "cache") -> None:
        self.config = config
        self.name = name
        self._offset_bits = config.line_bytes.bit_length() - 1
        self._index_mask = config.num_sets - 1
        self._index_bits = self._index_mask.bit_length()
        self._num_ways = config.ways
        # Per set: list of tags in LRU order (front = most recent).
        self._sets: list[list[int]] = [[] for _ in range(config.num_sets)]
        self.hits = 0
        self.misses = 0

    @property
    def offset_bits(self) -> int:
        """Byte-offset width of one line (``addr >> offset_bits`` = line)."""
        return self._offset_bits

    def _locate(self, addr: int) -> tuple[int, int]:
        line = addr >> self._offset_bits
        return line & self._index_mask, line >> self._index_bits

    def access(self, addr: int) -> bool:
        """Access the line containing ``addr``; returns True on a hit.

        Misses allocate the line (write-allocate for the D-cache; fills
        for the I-cache), evicting the LRU way when the set is full.
        """
        line = addr >> self._offset_bits
        tag = line >> self._index_bits
        ways = self._sets[line & self._index_mask]
        if ways:
            if ways[0] == tag:  # MRU hit: no reordering needed
                self.hits += 1
                return True
            if tag in ways:
                ways.remove(tag)
                ways.insert(0, tag)
                self.hits += 1
                return True
        self.misses += 1
        ways.insert(0, tag)
        if len(ways) > self._num_ways:
            ways.pop()
        return False

    def replay(self, stream: Iterable[int]) -> int:
        """Push ``stream`` through the cache; returns the misses it caused.

        Applies the dispatch loops' same-line memo: an address on the
        same line as the previous one is skipped (it could only be an MRU
        hit that changes nothing).  Every surviving address follows
        exactly :meth:`access`'s LRU rule, inlined over locals, and
        ``hits``/``misses`` end where an ``access()`` loop over the
        survivors would leave them.
        """
        shift = self._offset_bits
        index_mask = self._index_mask
        index_bits = self._index_bits
        num_ways = self._num_ways
        sets = self._sets
        last = -1
        hits = misses = 0
        for addr in stream:
            line = addr >> shift
            if line == last:
                continue
            last = line
            tag = line >> index_bits
            ways = sets[line & index_mask]
            if ways:
                if ways[0] == tag:
                    hits += 1
                    continue
                if tag in ways:
                    ways.remove(tag)
                    ways.insert(0, tag)
                    hits += 1
                    continue
            misses += 1
            ways.insert(0, tag)
            if len(ways) > num_ways:
                ways.pop()
        self.hits += hits
        self.misses += misses
        return misses

    def contains(self, addr: int) -> bool:
        """Non-destructive lookup (no LRU update, no fill)."""
        index, tag = self._locate(addr)
        return tag in self._sets[index]

    def flush(self) -> None:
        """Invalidate all lines and reset statistics."""
        for ways in self._sets:
            ways.clear()
        self.hits = 0
        self.misses = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def occupancy(self) -> int:
        """Number of valid lines currently resident."""
        return sum(len(ways) for ways in self._sets)

    def __repr__(self) -> str:
        cfg = self.config
        return (
            f"SetAssociativeCache({self.name}: {cfg.size_bytes}B, {cfg.ways}-way, "
            f"{cfg.line_bytes}B lines, {self.hits} hits / {self.misses} misses)"
        )
