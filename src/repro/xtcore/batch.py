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
   :func:`repro.xtcore.iss.dispatch` loop, through the fused regions —
   straight segments and whole inner loops — lowered at the batch's
   finest line sizes, with recorders in place of cache models),
   capturing the per-op retire/taken counters, the interlock count, and
   the I-fetch / D-access address streams deduped at the *finest* line
   granularity present in the batch.  A fused loop calls the recorder
   at exactly the line transitions a per-op pass would.  A coarser
   line cannot change where its own same-line transitions fall: equal
   fine lines imply equal coarse lines, so every coarse-grain transition
   is preserved in the fine-grain stream.
2. **Misses: closed form, or replay when a set overflows** — per
   distinct cache geometry ``(size_bytes, ways, line_bytes)``, map the
   stream's distinct addresses (one ``set(stream)`` per stream per
   batch) to lines at the geometry's line size and count distinct lines
   per set.  When no set receives more distinct lines than ``ways``,
   true LRU starting empty never evicts, so every line misses exactly
   once: the miss count is the number of distinct lines.  Exact because
   the stream holds every line the run touches at the finest line size
   (step 1), hence at every coarser one.  Otherwise push the recorded
   stream once through a fresh
   :class:`~repro.xtcore.caches.SetAssociativeCache` via
   :meth:`~repro.xtcore.caches.SetAssociativeCache.replay` (the same
   same-line memo the dispatch loops use).  Misses depend on nothing
   else — ``miss_penalty`` only prices them — so batch members with
   equal geometry share one count.
3. **Fold once per lowering, price per member** — sum the shared
   counters through :func:`repro.xtcore.iss._fold` once per compiled
   lowering (issue latencies fold in the branch penalty and custom
   latencies), then price that fold for each member with
   :func:`repro.xtcore.iss._price` (its miss counts, miss penalties and
   timing), yielding stats bitwise identical to running that config
   alone.  Lowerings are keyed by
   :attr:`~repro.xtcore.config.ProcessorConfig.lowering_key`, which
   leaves out caches and clock, so a batch normally folds once.

The returned results share one final :class:`~repro.isa.MachineState`
(the trajectory is shared, so the architectural outcome is too).
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Sequence

from .caches import SetAssociativeCache
from .compiled import compilation_cache
from .config import DEFAULT_MAX_INSTRUCTIONS, CacheConfig, ProcessorConfig
from .errors import SimulationError
from .iss import SimulationResult, Simulator, _fold, _price, dispatch

if TYPE_CHECKING:  # pragma: no cover
    from ..asm import Program

__all__ = ["run_batch", "semantic_fingerprint"]


def semantic_fingerprint(config: ProcessorConfig) -> str:
    """The partition key of :func:`run_batch`.

    Reads :attr:`~repro.xtcore.config.ProcessorConfig.semantic_fingerprint`,
    which each config hashes once.
    """
    return config.semantic_fingerprint


def _record_trajectory(
    simulator: Simulator,
    min_ishift: int,
    min_dshift: int,
    entry: int | None,
):
    """One execution with address-stream capture, no cache models.

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
    # Fused regions and the per-op path share one same-line memo, so the
    # region lowering at the finest line sizes records the same streams a
    # per-op run would.  ``append`` returns None, so every recorded
    # access counts as a "miss" — those counts are unused.
    counts, taken_counts, _, _, interlocks = dispatch(
        simulator.executable,
        state,
        simulator.max_instructions,
        min_ishift,
        min_dshift,
        ifetch.append,
        daccess.append,
    )
    return state, counts, taken_counts, interlocks, ifetch, daccess


def _geometry_misses(
    memo: dict[tuple[int, int, int], int],
    stream: list[int],
    addresses: set[int],
    config: CacheConfig,
    name: str,
) -> int:
    """Misses of ``stream`` on ``config``'s geometry, counted once per ``memo``.

    ``addresses`` is ``set(stream)``.  If no set of the geometry receives
    more distinct lines than it has ways, nothing is ever evicted and the
    misses are the distinct lines; otherwise the stream is replayed.
    """
    key = (config.size_bytes, config.ways, config.line_bytes)
    misses = memo.get(key)
    if misses is None:
        shift = config.line_bytes.bit_length() - 1
        lines = {addr >> shift for addr in addresses}
        ways = config.ways
        set_mask = config.num_sets - 1
        if len(lines) > ways and max(Counter(map(set_mask.__and__, lines)).values()) > ways:
            misses = SetAssociativeCache(config, name).replay(stream)
        else:
            misses = len(lines)
        memo[key] = misses
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

    folds = {
        lead.executable.lowering_key: _fold(lead.executable, counts, taken_counts, interlocks)
    }
    iaddresses = set(ifetch)
    daddresses = set(daccess)
    imisses: dict[tuple[int, int, int], int] = {}
    dmisses: dict[tuple[int, int, int], int] = {}
    results: list[SimulationResult] = []
    for config in configs:
        fold = folds.get(config.lowering_key)
        if fold is None:
            fold = folds[config.lowering_key] = _fold(
                cache.get_or_compile(config, program), counts, taken_counts, interlocks
            )
        stats = _price(
            config,
            fold,
            _geometry_misses(imisses, ifetch, iaddresses, config.icache, "icache"),
            _geometry_misses(dmisses, daccess, daddresses, config.dcache, "dcache"),
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
