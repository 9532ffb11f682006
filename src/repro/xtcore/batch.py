"""Batched multi-config simulation: one program, N processors, one pass.

The dominant DSE/serving workload evaluates the *same* program across
many :class:`~repro.xtcore.config.ProcessorConfig` variants that differ
only in cache geometry, pipeline penalties, clock or energy-relevant
hardware — never in what the instructions *do*.  Within such a
**semantic partition** (equal :func:`semantic_fingerprint`) the dynamic
execution trajectory is config-independent: the same ops retire in the
same order with the same branch outcomes, memory addresses and
load-use interlocks, because register/memory contents only depend on
instruction semantics, the register-file size and custom-state init
values.  Timing and energy differ purely through the passive cache
models and the per-class cycle attribution.

:func:`run_batch` exploits that split:

1. **Record** — execute the program once (the shared
   :func:`repro.xtcore.iss.dispatch` loop, per-op, with recorders in
   place of cache models), capturing the per-op retire/taken counters, the
   interlock count, and the I-fetch / D-access address streams deduped
   at the *finest* line granularity present in the batch.  A coarser
   line cannot change where its own same-line transitions fall: equal
   fine lines imply equal coarse lines, so every coarse-grain transition
   is preserved in the fine-grain stream.
2. **Replay** — per distinct cache geometry ``(size_bytes, ways,
   line_bytes)``, push the recorded stream once through a fresh
   :class:`~repro.xtcore.caches.SetAssociativeCache` via
   :meth:`~repro.xtcore.caches.SetAssociativeCache.replay` (the same
   same-line memo the dispatch loops use) to obtain its miss count.
   Misses depend on nothing else — ``miss_penalty`` only prices them —
   so batch members with equal geometry share one replay.
3. **Aggregate** — fold the shared counters plus the per-config miss
   counts through :func:`repro.xtcore.iss._aggregate_stats` against each
   config's own compiled lowering (issue latencies and branch penalties
   are per-config), yielding stats bitwise identical to running that
   config alone.

The returned results share one final :class:`~repro.isa.MachineState`
(the trajectory is shared, so the architectural outcome is too).
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Sequence

from .caches import SetAssociativeCache
from .compiled import compilation_cache
from .config import (
    DEFAULT_MAX_INSTRUCTIONS,
    CacheConfig,
    ProcessorConfig,
    canonical_json_with_extensions,
    extension_json,
)
from .errors import SimulationError
from .iss import SimulationResult, Simulator, _aggregate_stats, dispatch

if TYPE_CHECKING:  # pragma: no cover
    from ..asm import Program

__all__ = ["run_batch", "semantic_fingerprint"]


def semantic_fingerprint(config: ProcessorConfig) -> str:
    """Content hash of everything that shapes the execution *trajectory*.

    Two configs with equal semantic fingerprints run any program through
    the identical instruction sequence — same retires, branch outcomes,
    memory addresses, interlocks and final machine state — no matter how
    their caches, pipeline penalties, clock or custom-hardware costs
    differ.  That is the compatibility contract of :func:`run_batch`.
    """
    blob = canonical_json_with_extensions(
        {"format": "repro-semantic-fingerprint/1", "num_registers": config.num_registers},
        [extension_json(impl, semantic=True) for impl in config.extensions],
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _record_trajectory(
    simulator: Simulator,
    min_ishift: int,
    min_dshift: int,
    entry: int | None,
):
    """One per-op execution with address-stream capture, no cache models.

    Returns ``(state, counts, taken_counts, interlocks, ifetch, daccess)``
    where the streams hold the first address of every same-line transition
    at the ``min_*shift`` granularity — the exact access sequence any
    batch member's cache model would see (coarser grains are subsequences
    recovered by the replay memo).
    """
    state = simulator._reset()
    if entry is not None:
        state.pc = entry
    ifetch: list[int] = []
    daccess: list[int] = []
    # No blocks: fused closures replay at one config's line size, the
    # recorder needs the batch's finest.  ``append`` returns None, so
    # every recorded access counts as a "miss" — those counts are unused.
    counts, taken_counts, _, _, interlocks = dispatch(
        simulator.executable,
        state,
        simulator.max_instructions,
        None,
        min_ishift,
        min_dshift,
        ifetch.append,
        daccess.append,
    )
    return state, counts, taken_counts, interlocks, ifetch, daccess


def _geometry_misses(
    memo: dict[tuple[int, int, int], int],
    stream: list[int],
    config: CacheConfig,
    name: str,
) -> int:
    """Misses of ``stream`` on ``config``'s geometry, replayed once per ``memo``."""
    key = (config.size_bytes, config.ways, config.line_bytes)
    misses = memo.get(key)
    if misses is None:
        misses = memo[key] = SetAssociativeCache(config, name).replay(stream)
    return misses


def run_batch(
    configs: Sequence[ProcessorConfig],
    program: "Program",
    *,
    max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
    entry: int | None = None,
) -> list[SimulationResult]:
    """Run ``program`` across ``configs`` in one execution pass.

    All configs must belong to one semantic partition (equal
    :func:`semantic_fingerprint`), or :class:`SimulationError` is raised
    before anything executes.  Results are ordered like ``configs`` and
    bitwise identical — stats and final state — to running each config
    individually; the final
    :class:`~repro.isa.MachineState` object is shared across all results.
    Execution faults (wild jumps, budget expiry, semantics errors) are
    trajectory properties, so they raise once for the whole batch.
    """
    if not configs:
        return []
    partitions = {semantic_fingerprint(config) for config in configs}
    if len(partitions) != 1:
        raise SimulationError(
            f"batch of {len(configs)} configs spans {len(partitions)} semantic "
            f"partitions; run_batch requires one (group by semantic_fingerprint)"
        )
    cache = compilation_cache()
    lead = Simulator(configs[0], program, max_instructions=max_instructions)
    min_ishift = min(
        config.icache.line_bytes.bit_length() - 1 for config in configs
    )
    min_dshift = min(
        config.dcache.line_bytes.bit_length() - 1 for config in configs
    )
    state, counts, taken_counts, interlocks, ifetch, daccess = _record_trajectory(
        lead, min_ishift, min_dshift, entry
    )

    imisses: dict[tuple[int, int, int], int] = {}
    dmisses: dict[tuple[int, int, int], int] = {}
    results: list[SimulationResult] = []
    for config in configs:
        executable = cache.get_or_compile(config, program)
        icache_misses = _geometry_misses(imisses, ifetch, config.icache, "icache")
        dcache_misses = _geometry_misses(dmisses, daccess, config.dcache, "dcache")
        stats = _aggregate_stats(
            config,
            executable,
            counts,
            taken_counts,
            icache_misses,
            dcache_misses,
            interlocks,
        )
        results.append(
            SimulationResult(
                program=program,
                config=config,
                stats=stats,
                state=state,
                engine="batch",
            )
        )
    return results
