"""Discovered spaces share per-impl builds through the compilation cache."""

from repro.asm import assemble
from repro.discover.pipeline import software_case
from repro.discover.rewrite import rewrite_program
from repro.discover.space import discovered_space
from repro.dse import RandomStrategy, SearchSpace, explore
from repro.xtcore import (
    CacheConfig,
    ProcessorConfig,
    build_processor,
    compilation_cache,
    semantic_fingerprint,
)


def _reference_point(manifest, assignment):
    """Per-candidate legalize, build, assemble and rewrite; no sharing."""
    case = software_case(manifest.workload)
    base = ProcessorConfig(
        icache=CacheConfig(size_bytes=int(assignment["icache_kb"]) * 1024),
        dcache=CacheConfig(
            size_bytes=int(assignment["dcache_kb"]) * 1024,
            ways=int(assignment["dcache_ways"]),
        ),
    )
    impl = assignment["impl"]
    if impl == "sw":
        config = build_processor(f"xt-{case.name}", base=base)
        return config, assemble(case.source, case.name, isa=config.isa)
    entry = next(e for e in manifest.entries if e.mnemonic == impl)
    legalized = entry.legalize()
    config = build_processor(f"xt-{case.name}+{impl}", legalized.lifted.specs, base=base)
    program = assemble(case.source, case.name, isa=config.isa)
    return config, rewrite_program(program, config.isa, legalized).program


def _bits(report):
    return [(s.key, s.energy.hex(), s.cycles, s.area.hex()) for s in report.scores]


def test_discovered_scores_unchanged_by_shared_builds(fir_discovery, smoke_model):
    manifest = fir_discovery.manifest()
    space = discovered_space(manifest)
    reference = SearchSpace(
        name=space.name,
        description=space.description,
        knobs=space.knobs,
        builder=lambda assignment: _reference_point(manifest, assignment),
    )
    for candidate in list(space.candidates())[::9]:
        config, program = candidate.build()
        want_config, want_program = reference.build(candidate.assignment_dict)
        assert (config.name, config.icache, config.dcache) == (
            want_config.name,
            want_config.icache,
            want_config.dcache,
        )
        assert config.fingerprint() == want_config.fingerprint()
        assert semantic_fingerprint(config) == semantic_fingerprint(want_config)
        assert program.digest() == want_program.digest()

    compilation_cache().clear()
    shared = explore(smoke_model, space, RandomStrategy(20, seed=2))
    tier = compilation_cache().info()["tiers"]["build"]
    impls = {score.assignment["impl"] for score in shared.scores}
    assert tier["misses"] == tier["entries"] == len(impls)
    assert tier["hits"] == len(shared.scores) - len(impls)

    compilation_cache().clear()
    cold = explore(smoke_model, reference, RandomStrategy(20, seed=2))
    assert not shared.failures and not cold.failures
    assert _bits(shared) == _bits(cold)
