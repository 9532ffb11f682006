"""Discovered-instruction search spaces for ``repro explore``.

:func:`discovered_space` turns a :class:`~repro.discover.pipeline.
DiscoveryManifest` into a :class:`~repro.dse.SearchSpace` named
``discovered:<workload>``: one ``impl`` knob whose values are the
software baseline plus every verified discovered instruction, crossed
with the same cache-geometry knobs as the bundled ``*_tuned`` spaces.
Each discovered design point rebuilds deterministically from the
manifest — re-lift the stored graph, recompile its TIE extension,
rewrite the software program — so exploration workers never need the
profiling run that produced it.
"""

from __future__ import annotations

import hashlib
from typing import Optional, Sequence, Tuple

from ..asm import Program, assemble
from ..dse.space import (
    Knob,
    SearchSpace,
    register_space,
    with_cache_knobs,
    with_operating_points,
)
from ..xtcore import ProcessorConfig, build_processor, compilation_cache
from .pipeline import DiscoveryManifest, software_case
from .rewrite import rewrite_program


def _build_discovered_impl(
    manifest: DiscoveryManifest, impl: str
) -> Tuple[ProcessorConfig, Program]:
    """The default-geometry config and the (rewritten) program of one impl."""
    case = software_case(manifest.workload)
    if impl == "sw":
        config = build_processor(f"xt-{case.name}")
        return config, assemble(case.source, case.name, isa=config.isa)
    entry = next(e for e in manifest.entries if e.mnemonic == impl)
    legalized = entry.legalize()
    config = build_processor(f"xt-{case.name}+{impl}", legalized.lifted.specs)
    program = assemble(case.source, case.name, isa=config.isa)
    return config, rewrite_program(program, config.isa, legalized).program


def _build_discovered_point(
    manifest: DiscoveryManifest, manifest_digest: str, assignment: dict
) -> Tuple[ProcessorConfig, Program]:
    """One discovered design point; legalize, build, assemble and rewrite
    run once per ``(manifest content, impl)`` through the compilation
    cache's ``build`` tier, as for the bundled spaces."""
    impl = assignment["impl"]
    template, program = compilation_cache().get_or_build(
        ("discover.impl", manifest_digest, impl),
        lambda: _build_discovered_impl(manifest, impl),
    )
    return with_cache_knobs(template, assignment), program


def discovered_space(
    manifest: DiscoveryManifest,
    operating_points: Optional[Sequence[str]] = None,
) -> SearchSpace:
    """The ``discovered:<workload>`` space for one manifest.

    ``operating_points`` optionally crosses the space with a technology
    operating-point axis (see :func:`repro.dse.with_operating_points`);
    the space keeps its canonical name either way so by-name lookup and
    manifests stay stable.
    """
    impls = ("sw",) + tuple(entry.mnemonic for entry in manifest.entries)
    manifest_digest = hashlib.sha256(manifest.to_json().encode("utf-8")).hexdigest()
    space = SearchSpace(
        name=f"discovered:{manifest.workload}",
        description=(
            f"software {manifest.workload} vs {len(manifest.entries)} discovered "
            "instruction(s), crossed with cache-geometry knobs"
        ),
        knobs=(
            Knob("impl", impls),
            Knob("icache_kb", (4, 8, 16)),
            Knob("dcache_kb", (4, 8, 16)),
            Knob("dcache_ways", (1, 2, 4)),
        ),
        builder=lambda a: _build_discovered_point(manifest, manifest_digest, a),
    )
    if operating_points:
        space = with_operating_points(space, operating_points, name=space.name)
    return space


def register_discovered(
    manifest: DiscoveryManifest,
    operating_points: Optional[Sequence[str]] = None,
) -> str:
    """Register the manifest's space for by-name lookup; returns its name."""
    space = discovered_space(manifest, operating_points)
    register_space(space.name, lambda: discovered_space(manifest, operating_points))
    return space.name
