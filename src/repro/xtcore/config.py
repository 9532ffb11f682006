"""Processor configuration: base core options + custom-instruction extensions.

Mirrors the paper's target configuration: a T1040-class base core at
187 MHz with a 32-bit multiply option, 4-way 16 KB instruction and data
caches, a 32-bit system bus and a 64x32-bit generic register file —
extended per application with compiled TIE-substitute instructions.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import marshal
from functools import cached_property
from typing import Iterable, Mapping, Optional, Sequence

from ..hwlib import ComponentInstance
from ..isa import BASE_ISA, InstructionSet
from ..tie import TieImplementation, TieSpec, compile_extension

#: Default per-run instruction budget shared by the simulator, ``simulate``,
#: ``run_session`` and every CLI subcommand.  Defined here (the leaf config
#: module) so both ``repro.xtcore`` and ``repro.obs`` can import it without
#: creating an import cycle.
DEFAULT_MAX_INSTRUCTIONS = 5_000_000


@dataclasses.dataclass(frozen=True)
class CacheConfig:
    """Geometry and timing of one cache (I or D)."""

    size_bytes: int = 16 * 1024
    ways: int = 4
    line_bytes: int = 32
    miss_penalty: int = 12

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.ways <= 0 or self.line_bytes <= 0:
            raise ValueError("cache geometry values must be positive")
        if self.line_bytes & (self.line_bytes - 1):
            raise ValueError(f"line size {self.line_bytes} must be a power of two")
        if self.size_bytes % (self.ways * self.line_bytes):
            raise ValueError("cache size must be a multiple of ways x line size")
        sets = self.size_bytes // (self.ways * self.line_bytes)
        if sets & (sets - 1):
            raise ValueError(f"number of sets ({sets}) must be a power of two")
        if self.miss_penalty < 0:
            raise ValueError("miss penalty must be non-negative")

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.ways * self.line_bytes)


@dataclasses.dataclass(frozen=True)
class TimingConfig:
    """Pipeline penalty/stall cycle counts of the five-stage base core."""

    branch_taken_penalty: int = 2
    interlock_stall: int = 1
    uncached_fetch_penalty: int = 10

    def __post_init__(self) -> None:
        if min(self.branch_taken_penalty, self.interlock_stall, self.uncached_fetch_penalty) < 0:
            raise ValueError("timing penalties must be non-negative")


@dataclasses.dataclass(frozen=True)
class ProcessorConfig:
    """One extensible-processor instance: base options + extensions.

    ``extensions`` holds *compiled* custom instructions; use
    :meth:`with_extensions` / :func:`build_processor` to go from raw
    :class:`~repro.tie.TieSpec` objects.
    """

    name: str = "xt1040"
    clock_mhz: float = 187.0
    num_registers: int = 64
    icache: CacheConfig = dataclasses.field(default_factory=CacheConfig)
    dcache: CacheConfig = dataclasses.field(default_factory=CacheConfig)
    timing: TimingConfig = dataclasses.field(default_factory=TimingConfig)
    extensions: tuple[TieImplementation, ...] = ()

    def __post_init__(self) -> None:
        if not 1 <= self.num_registers <= 64:
            raise ValueError("register file size must be 1..64")
        if self.clock_mhz <= 0:
            raise ValueError("clock must be positive")
        mnemonics = [impl.mnemonic for impl in self.extensions]
        if len(set(mnemonics)) != len(mnemonics):
            raise ValueError(f"duplicate custom mnemonics in {self.name}: {mnemonics}")

    @cached_property
    def isa(self) -> InstructionSet:
        """The full instruction set: base ISA + custom definitions."""
        if not self.extensions:
            return BASE_ISA
        return BASE_ISA.extend(
            f"{BASE_ISA.name}+{self.name}",
            [impl.instruction for impl in self.extensions],
        )

    @cached_property
    def extension_index(self) -> Mapping[str, TieImplementation]:
        """Custom-instruction implementations keyed by mnemonic."""
        return {impl.mnemonic: impl for impl in self.extensions}

    def extension_for(self, mnemonic: str) -> Optional[TieImplementation]:
        return self.extension_index.get(mnemonic)

    @cached_property
    def custom_instances(self) -> tuple[ComponentInstance, ...]:
        """All custom-hardware instances, de-duplicated by name.

        State registers shared between instructions appear once; the TIE
        compiler guarantees equal-named instances are identical.
        """
        seen: dict[str, ComponentInstance] = {}
        for impl in self.extensions:
            for instance in impl.instances:
                existing = seen.get(instance.name)
                if existing is not None and existing != instance:
                    raise ValueError(
                        f"{self.name}: conflicting hardware instances named {instance.name!r}"
                    )
                seen[instance.name] = instance
        return tuple(seen.values())

    @cached_property
    def state_inits(self) -> Mapping[str, int]:
        """Initial values of all custom state registers."""
        inits: dict[str, int] = {}
        for impl in self.extensions:
            for name, state in impl.spec.states.items():
                inits[name] = state.init
        return inits

    def with_extensions(self, name: str, specs: Sequence[TieSpec]) -> "ProcessorConfig":
        """Return a new processor extended with compiled ``specs``."""
        return dataclasses.replace(
            self, name=name, extensions=tuple(compile_extension(list(specs)))
        )

    def with_caches(self, icache: CacheConfig, dcache: CacheConfig) -> "ProcessorConfig":
        """This processor with another cache geometry.

        The variant shares this config's derived values that no cache
        setting enters (:data:`_CACHE_INDEPENDENT`), so many geometries of
        one template derive each of them once.  :meth:`fingerprint` covers
        the caches and is derived per variant.
        """
        variant = dataclasses.replace(self, icache=icache, dcache=dcache)
        variant.__dict__.update(self._cache_independent)
        return variant

    @cached_property
    def _cache_independent(self) -> Mapping[str, object]:
        """The :data:`_CACHE_INDEPENDENT` values :meth:`with_caches` hands over.

        A value whose derivation raises is left out: each variant then
        derives it itself and raises where it is read, as it would alone.
        """
        values = {}
        for name in _CACHE_INDEPENDENT:
            try:
                values[name] = getattr(self, name)
            except Exception:  # noqa: BLE001 — re-raised by the variant that reads it
                continue
        return values

    def fingerprint(self) -> str:
        """Stable content hash of everything that affects simulation + energy.

        Two configs with equal content — base-core options, cache/timing
        geometry and the full compiled-extension content (dataflow graphs,
        hardware instances, schedules, state registers) — fingerprint
        identically regardless of their ``name`` or object identity, in
        the same process or across processes and runs.  Use it to key
        caches of per-config derived artifacts (netlists, RTL estimators,
        design-space exploration scores).
        """
        return self._fingerprint

    @cached_property
    def _fingerprint(self) -> str:
        """sha256 of the canonical JSON of the config's energy-relevant content."""

        def cache_payload(cache: CacheConfig) -> list:
            return [cache.size_bytes, cache.ways, cache.line_bytes, cache.miss_penalty]

        blob = canonical_json_with_extensions(
            {
                "format": "repro-config-fingerprint/1",
                "clock_mhz": self.clock_mhz,
                "num_registers": self.num_registers,
                "icache": cache_payload(self.icache),
                "dcache": cache_payload(self.dcache),
                "timing": [
                    self.timing.branch_taken_penalty,
                    self.timing.interlock_stall,
                    self.timing.uncached_fetch_penalty,
                ],
            },
            [extension_json(impl) for impl in self.extensions],
        )
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    @cached_property
    def lowering_key(self) -> str:
        """Content hash of exactly what :func:`~repro.xtcore.compiled.compile_program` reads.

        That is the register-file size, the taken-branch penalty (folded
        into issue latencies) and, per custom instruction, its format,
        issue latency, GPR access and dataflow graph (nodes, state
        registers, state writes and result), which fix its semantics.
        Caches, clock, interlock stall, uncached-fetch penalty and the
        compiled hardware only price a run, so configs differing in those
        alone share one lowering.

        The key is never persisted, so instead of the canonical JSON that
        :meth:`fingerprint` builds it hashes plain tuples of ints and
        strings in ``marshal`` format 2: that format writes no
        back-references and no interning flags, so equal content gives
        equal bytes however the objects are shared.
        """
        content = [
            "repro-lowering-key/2",
            self.num_registers,
            self.timing.branch_taken_penalty,
        ]
        for impl in self.extensions:
            spec = impl.spec
            content.append(
                (
                    spec.mnemonic,
                    spec.fmt,
                    impl.instruction.latency,
                    spec.accesses_gpr,
                    # a node's category follows from its op, so the op stands for it
                    [
                        (node.nid, node.kind, node.width, node.op, node.payload,
                         [source.nid for source in node.inputs])
                        for node in spec.nodes
                    ],
                    sorted((state.name, state.width, state.init) for state in spec.states.values()),
                    [(state.name, node.nid) for state, node in spec.state_writes],
                    spec.result_node.nid if spec.result_node is not None else None,
                )
            )
        return hashlib.sha256(marshal.dumps(content, 2)).hexdigest()

    @cached_property
    def semantic_fingerprint(self) -> str:
        """Content hash of everything that shapes the execution *trajectory*.

        Two configs with equal semantic fingerprints run any program through
        the identical instruction sequence — same retires, branch outcomes,
        memory addresses, interlocks and final machine state — no matter how
        their caches, pipeline penalties, clock or custom-hardware costs
        differ.  That is the compatibility contract of
        :func:`~repro.xtcore.batch.run_batch`.
        """
        blob = canonical_json_with_extensions(
            {"format": "repro-semantic-fingerprint/1", "num_registers": self.num_registers},
            [extension_json(impl, semantic=True) for impl in self.extensions],
        )
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def describe(self) -> str:
        """One-paragraph human-readable summary."""
        lines = [
            f"processor {self.name}: {self.clock_mhz:g} MHz, "
            f"{self.num_registers}x32 GPR, "
            f"I$ {self.icache.size_bytes // 1024}KB/{self.icache.ways}-way, "
            f"D$ {self.dcache.size_bytes // 1024}KB/{self.dcache.ways}-way",
        ]
        for impl in self.extensions:
            lines.append(
                f"  custom {impl.mnemonic} ({impl.spec.fmt}, {impl.latency} cycle(s)): "
                f"{impl.spec.description or 'no description'}"
            )
        return "\n".join(lines)


#: Derived :class:`ProcessorConfig` values that read no cache setting;
#: :meth:`ProcessorConfig.with_caches` hands them to each geometry variant.
_CACHE_INDEPENDENT = (
    "isa",
    "extension_index",
    "custom_instances",
    "state_inits",
    "lowering_key",
    "semantic_fingerprint",
)


#: Extension-payload keys that shape energy/timing but not execution:
#: a custom instruction's latency, hardware instances, schedule and bus
#: taps change what a retire *costs*, never what it *computes*.
_NON_SEMANTIC_EXTENSION_KEYS = ("latency", "instances", "active_cycles", "bus_tapped")


#: ``json.dumps(value, sort_keys=True, separators=(",", ":"))``, with the
#: encoder built once instead of per call.
_canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def canonical_json_with_extensions(fields: Mapping[str, object], extensions: Sequence[str]) -> str:
    """``_canonical_json({**fields, "extensions": [...]})``, byte for byte,
    with the extension list given as already-serialised fragments."""
    # A quote inside an encoded string is always escaped, so the marker
    # can only match the key itself.
    return _canonical_json({**fields, "extensions": None}).replace(
        '"extensions":null', '"extensions":[' + ",".join(extensions) + "]", 1
    )


def extension_json(impl: TieImplementation, semantic: bool = False) -> str:
    """Canonical JSON of one compiled instruction's content.

    The full form feeds :meth:`ProcessorConfig.fingerprint`; the
    ``semantic`` form drops
    :data:`_NON_SEMANTIC_EXTENSION_KEYS` and feeds
    :attr:`ProcessorConfig.semantic_fingerprint`.  Each is memoized on
    the (immutable) implementation, so configs sharing an extension tuple
    serialise each instruction's dataflow graph once.
    """
    memo = impl.__dict__.setdefault("_json_memo", {})
    text = memo.get(semantic)
    if text is None:
        payload = _extension_payload(impl)
        if semantic:
            for key in _NON_SEMANTIC_EXTENSION_KEYS:
                del payload[key]
        text = memo[semantic] = _canonical_json(payload)
    return text


def _extension_payload(impl: TieImplementation) -> dict:
    """JSON-able content of one compiled custom instruction.

    The spec's dataflow graph fully determines the instruction's semantics
    and the compiled hardware/schedule determines its energy behavior, so
    both go into the fingerprint; cosmetic fields (descriptions) do not.
    """
    spec = impl.spec
    nodes = []
    for node in spec.nodes:
        payload = node.payload
        if isinstance(payload, tuple):
            payload = list(payload)
        nodes.append(
            [
                node.nid,
                node.kind,
                node.width,
                node.op,
                node.category.name if node.category is not None else None,
                [inp.nid for inp in node.inputs],
                payload,
            ]
        )
    return {
        "mnemonic": spec.mnemonic,
        "fmt": spec.fmt,
        "nodes": nodes,
        "states": sorted(
            [state.name, state.width, state.init] for state in spec.states.values()
        ),
        "state_writes": [
            [state.name, node.nid] for state, node in spec.state_writes
        ],
        "result": spec.result_node.nid if spec.result_node is not None else None,
        "latency": impl.latency,
        "instances": sorted(
            [inst.name, inst.category.name, inst.width, inst.entries]
            for inst in impl.instances
        ),
        "active_cycles": sorted(
            [name, list(cycles)] for name, cycles in impl.active_cycles.items()
        ),
        "bus_tapped": sorted(impl.bus_tapped),
    }


def build_processor(
    name: str = "xt1040",
    specs: Iterable[TieSpec] = (),
    base: Optional[ProcessorConfig] = None,
) -> ProcessorConfig:
    """Create a processor config, compiling ``specs`` as its extension."""
    base_config = base if base is not None else ProcessorConfig()
    specs = list(specs)
    if not specs:
        return dataclasses.replace(base_config, name=name)
    return base_config.with_extensions(name, specs)
