"""Cache-geometry variants of one impl template (``ProcessorConfig.with_caches``).

A bundled design point is its impl's template with the candidate's cache
geometry swapped in.  The variant shares the template's derived values
that no cache setting enters, so each is derived once per impl; these
tests pin that every shared value equals what a fresh copy derives, that
scores equal solo estimates, and that failures keep their stage and
message.
"""

import dataclasses

import pytest

from repro.dse import RandomStrategy, explore, get_space
from repro.dse import space as space_module
from repro.dse.space import _build_impl, _case_factories, with_cache_knobs
from repro.rtl import generate_netlist
from repro.xtcore import CacheConfig, compilation_cache
from repro.xtcore.config import _CACHE_INDEPENDENT

BUNDLED_IMPLS = [
    (workload, impl) for workload in ("reed_solomon", "fir") for impl in _case_factories(workload)
]

SMALL = {"icache_kb": 4, "dcache_kb": 8, "dcache_ways": 2}


def _fresh_variant(template, assignment):
    """The geometry variant as a plain copy that derives everything itself."""
    shared = with_cache_knobs(template, assignment)
    return dataclasses.replace(template, icache=shared.icache, dcache=shared.dcache)


def _comparable(name, value):
    if name == "isa":  # no __eq__: compare its name and definitions
        return value.name, list(value)
    return value


@pytest.mark.parametrize("workload, impl", BUNDLED_IMPLS)
def test_handed_over_values_equal_a_fresh_copy(workload, impl):
    template, _ = _build_impl(workload, impl)
    variant = with_cache_knobs(template, SMALL)
    fresh = _fresh_variant(template, SMALL)
    assert variant == fresh
    for name in _CACHE_INDEPENDENT:
        # handed over, not derived again: the template's own object
        assert variant.__dict__[name] is getattr(template, name)
        assert _comparable(name, variant.__dict__[name]) == _comparable(
            name, getattr(fresh, name)
        ), name


@pytest.mark.parametrize("workload, impl", BUNDLED_IMPLS)
def test_fingerprint_is_per_geometry(workload, impl):
    template, _ = _build_impl(workload, impl)
    small = with_cache_knobs(template, SMALL)
    other = with_cache_knobs(template, {**SMALL, "dcache_ways": 4})
    assert small.fingerprint() == _fresh_variant(template, SMALL).fingerprint()
    assert small.fingerprint() != other.fingerprint()
    assert small.fingerprint() != template.fingerprint()
    assert small.lowering_key == other.lowering_key == template.lowering_key


def test_a_value_that_fails_to_derive_fails_on_the_variant():
    template, _ = _build_impl("reed_solomon", "gfmac")
    first, second, *rest = template.extensions
    # a second instruction claims the first one's instance name at another width
    clash = dataclasses.replace(first.instances[0], width=first.instances[0].width + 1)
    broken = dataclasses.replace(
        template, extensions=(first, dataclasses.replace(second, instances=(clash,)), *rest)
    )
    with pytest.raises(ValueError) as alone:
        dataclasses.replace(broken, icache=CacheConfig(4096)).custom_instances
    variant = broken.with_caches(CacheConfig(4096), CacheConfig())
    assert "custom_instances" not in variant.__dict__
    with pytest.raises(ValueError) as shared:
        variant.custom_instances
    assert str(shared.value) == str(alone.value)


def _solo(model, space_name, assignment):
    """Energy, cycles and area of one candidate from a cold, unshared build."""
    workload = space_name.removesuffix("_tuned")
    template, program = _build_impl(workload, assignment["impl"])
    config = _fresh_variant(template, assignment)
    estimate = model.estimate(config, program)
    area = float(generate_netlist(config).custom_area)
    return estimate.energy.hex(), estimate.cycles, area.hex()


@pytest.mark.parametrize("space_name, seed", [("reed_solomon_tuned", 4), ("fir_tuned", 9)])
def test_explore_scores_equal_solo_estimates(synthetic_model, space_name, seed):
    compilation_cache().clear()
    report = explore(synthetic_model, get_space(space_name), RandomStrategy(16, seed=seed))
    assert not report.failures
    assert len({score.assignment["impl"] for score in report.scores}) > 1
    for score in report.scores:
        assert (score.energy.hex(), score.cycles, score.area.hex()) == _solo(
            synthetic_model, space_name, score.assignment
        ), score.key


def test_estimate_failure_keeps_its_stage_and_message(synthetic_model):
    compilation_cache().clear()
    report = explore(
        synthetic_model, get_space("fir_tuned"), RandomStrategy(6, seed=2), max_instructions=50
    )
    assert not report.scores and len(report.failures) == 6
    for failure in report.failures:
        assignment = dict(pair.split("=") for pair in failure.name.split(","))
        template, program = _build_impl("fir", assignment["impl"])
        with pytest.raises(Exception) as alone:
            synthetic_model.estimate(
                _fresh_variant(template, assignment), program, max_instructions=50
            )
        assert (failure.stage, failure.error_type, failure.message) == (
            "estimate",
            type(alone.value).__name__,
            str(alone.value),
        )


def test_build_failure_keeps_its_stage_and_message(synthetic_model, monkeypatch):
    def broken_build(workload, impl):
        raise RuntimeError(f"{impl} extension does not build")

    monkeypatch.setattr(space_module, "_build_impl", broken_build)
    compilation_cache().clear()
    report = explore(synthetic_model, get_space("fir_tuned"), RandomStrategy(4, seed=1))
    assert len(report.failures) == 4
    for failure in report.failures:
        impl = dict(pair.split("=") for pair in failure.name.split(","))["impl"]
        assert (failure.stage, failure.error_type, failure.message) == (
            "build",
            "RuntimeError",
            f"{impl} extension does not build",
        )
