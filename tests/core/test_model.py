"""EnergyMacroModel tests: estimation arithmetic, reports, serialization."""

import numpy as np
import pytest

import repro.core.model as model_module
from repro.asm import assemble
from repro.core import (
    EnergyMacroModel,
    default_template,
    extract_variables,
    instruction_level_template,
)
from repro.obs import RunTallyObserver, run_session
from repro.xtcore import SimulationLimitExceeded

POINTS = (None, "130nm@1.5V@400MHz", "65nm@1.1V@800MHz")


@pytest.fixture()
def model():
    template = default_template()
    coefficients = np.arange(1.0, len(template) + 1.0)
    return EnergyMacroModel(template, coefficients, processor_family="test-fam")


@pytest.fixture
def batch_passes(monkeypatch):
    """Counts run_batch passes made by the estimation kernel."""
    passes = []
    real = model_module.run_batch

    def counting(configs, program, **kwargs):
        passes.append(len(configs))
        return real(configs, program, **kwargs)

    monkeypatch.setattr(model_module, "run_batch", counting)
    return passes


class TestConstruction:
    def test_shape_checked(self):
        with pytest.raises(ValueError, match="does not match"):
            EnergyMacroModel(default_template(), np.ones(5))

    def test_coefficient_lookup(self, model):
        assert model.coefficient("N_a") == 1.0
        assert model.coefficient("N_sd") == 11.0
        with pytest.raises(KeyError):
            model.coefficient("bogus")

    def test_coefficients_by_key(self, model):
        mapping = model.coefficients_by_key()
        assert len(mapping) == 21
        assert mapping["N_ld"] == 2.0


class TestEstimation:
    def test_estimate_is_dot_product(self, model, tiny_loop_program, base_config):
        result = run_session(base_config, tiny_loop_program)
        variables = extract_variables(result.stats, base_config, model.template)
        expected = float(variables @ model.coefficients)
        assert model.estimate_from_stats(result.stats, base_config) == pytest.approx(expected)

    def test_estimate_runs_iss(self, model, tiny_loop_program, base_config):
        estimate = model.estimate(base_config, tiny_loop_program)
        assert estimate.energy > 0
        assert estimate.cycles == run_session(base_config, tiny_loop_program).cycles
        assert estimate.program_name == tiny_loop_program.name
        assert set(estimate.variables) == set(model.template.keys())
        assert "tiny_loop" in estimate.summary()

    def test_linear_in_workload(self, model, base_config):
        def looped(n):
            return assemble(
                f"main:\n    movi a2, {n}\nl:\n    add a3, a3, a2\n    addi a2, a2, -1\n    bnez a2, l\n    halt\n",
                f"loop{n}",
            )

        small = model.estimate(base_config, looped(10)).energy
        large = model.estimate(base_config, looped(100)).energy
        assert large > small

    def test_estimate_many_isolates_failures(self, model, tiny_loop_program, base_config):
        good = (base_config, tiny_loop_program, None, 10_000)
        starved = (base_config, tiny_loop_program, None, 3)
        outcomes = model.estimate_many([good, starved, starved, good])
        assert outcomes[0].energy == outcomes[3].energy == (
            model.estimate(base_config, tiny_loop_program).energy
        )
        assert outcomes.passes == [2, 2]
        # the starved pair shares one run_batch pass, whose fault fails both
        for failure in outcomes[1:3]:
            assert (failure.stage, failure.error_type) == (
                "estimate",
                "SimulationLimitExceeded",
            )
            assert failure.name == tiny_loop_program.name
        with pytest.raises(SimulationLimitExceeded):
            model.estimate(base_config, tiny_loop_program, max_instructions=3)

    def test_estimate_many_reports_partly_failed_passes(
        self, model, tiny_loop_program, base_config
    ):
        good = (base_config, tiny_loop_program, None, 10_000)
        bad_point = (base_config, tiny_loop_program, "65nm@9V@800MHz", 10_000)
        outcomes = model.estimate_many([good, bad_point])
        # one pass fed both jobs; only the second failed, while scoring
        assert outcomes.passes == [2]
        assert outcomes[0].energy == model.estimate(base_config, tiny_loop_program).energy
        assert (outcomes[1].stage, outcomes[1].error_type) == ("estimate", "CalibrationError")
        assert model.estimate_many([good]).passes == [1]
        assert model.estimate_many([]).passes == []


    @pytest.mark.parametrize("point", POINTS)
    def test_energy_of_prices_a_vector_as_the_kernel_does(
        self, model, tiny_loop_program, base_config, point
    ):
        at_point = model.at(point)
        estimate = at_point.estimate(base_config, tiny_loop_program)
        vector = [estimate.variables[key] for key in model.template.keys()]
        assert at_point.energy_of(vector).hex() == estimate.energy.hex()
        stats = run_session(base_config, tiny_loop_program).stats
        assert at_point.estimate_from_stats(stats, base_config) == estimate.energy


class TestEstimateManyAcrossPoints:
    """Jobs that differ only in the operating point share one simulation."""

    def test_one_program_at_three_points_is_one_batch_pass(
        self, model, tiny_loop_program, base_config, batch_passes
    ):
        tally = RunTallyObserver()
        jobs = [(base_config, tiny_loop_program, point, 10_000) for point in POINTS]
        outcomes = model.estimate_many(jobs, observers=(tally,))
        assert batch_passes == [len(POINTS)]
        assert tally.snapshot()["runs_finished"] == len(POINTS)
        for point, estimate in zip(POINTS, outcomes):
            solo = model.at(point).estimate(
                base_config, tiny_loop_program, max_instructions=10_000
            )
            assert (estimate.energy, estimate.cycles) == (solo.energy, solo.cycles)
            assert estimate.operating_point == solo.operating_point

    def test_mixed_jobs_keep_input_order(
        self, model, tiny_loop_program, base_config, batch_passes
    ):
        other = assemble("main:\n    movi a2, 3\n    halt\n", "other")
        jobs = [
            (base_config, tiny_loop_program, None, 10_000),
            (base_config, tiny_loop_program, None, 3),
            (base_config, other, POINTS[2], 10_000),
            (base_config, tiny_loop_program, POINTS[1], 10_000),
        ]
        outcomes = model.estimate_many(jobs)
        assert batch_passes == [2]
        assert outcomes.passes == [2, 1, 1]
        assert (outcomes[1].stage, outcomes[1].error_type) == (
            "estimate",
            "SimulationLimitExceeded",
        )
        for index in (0, 2, 3):
            config, program, point, budget = jobs[index]
            solo = model.at(point).estimate(config, program, max_instructions=budget)
            assert outcomes[index].program_name == program.name
            assert (outcomes[index].energy, outcomes[index].cycles) == (
                solo.energy,
                solo.cycles,
            )


class TestEstimateManySharedAnalysis:
    """One pass shares a resource-usage analysis only where it is equal."""

    def test_members_with_other_custom_hardware_keep_their_own_usage(
        self, model, batch_passes
    ):
        import dataclasses

        from repro.programs.reed_solomon import rs_gfmac
        from repro.xtcore import CacheConfig

        config, program = rs_gfmac().build()
        first, *rest = config.extensions
        # same semantics and lowering, twice the per-execution activity
        heavier = dataclasses.replace(
            first,
            per_exec_activity={c: 2 * a for c, a in first.per_exec_activity.items()},
        )
        configs = [
            config,
            dataclasses.replace(config, extensions=(heavier, *rest)),
            config.with_caches(CacheConfig(4096), CacheConfig(8192, ways=2)),
        ]
        outcomes = model.estimate_many([(c, program, None, 10**6) for c in configs])
        assert batch_passes == [3]
        solos = [model.estimate(c, program, max_instructions=10**6) for c in configs]
        assert [o.energy.hex() for o in outcomes] == [s.energy.hex() for s in solos]
        assert outcomes[0].variables != outcomes[1].variables


class TestReports:
    def test_coefficient_table(self, model):
        table = model.coefficient_table()
        assert "N_a" in table
        assert "S_table" in table
        assert "test-fam" in table


class TestSerialization:
    def test_json_roundtrip(self, model, tiny_loop_program, base_config):
        restored = EnergyMacroModel.from_json(model.to_json())
        assert restored.processor_family == model.processor_family
        assert np.allclose(restored.coefficients, model.coefficients)
        original = model.estimate(base_config, tiny_loop_program).energy
        reloaded = restored.estimate(base_config, tiny_loop_program).energy
        assert reloaded == pytest.approx(original)

    def test_file_roundtrip(self, model, tmp_path):
        path = tmp_path / "model.json"
        model.save(str(path))
        restored = EnergyMacroModel.load(str(path))
        assert np.allclose(restored.coefficients, model.coefficients)

    def test_template_variants_roundtrip(self):
        template = instruction_level_template()
        model = EnergyMacroModel(template, np.ones(len(template)))
        restored = EnergyMacroModel.from_json(model.to_json())
        assert restored.template.name == template.name

    def test_bad_format_rejected(self):
        with pytest.raises(ValueError, match="unrecognized"):
            EnergyMacroModel.from_json('{"format": "something-else"}')

    def test_missing_coefficient_rejected(self, model):
        import json

        payload = json.loads(model.to_json())
        del payload["coefficients"]["N_a"]
        with pytest.raises(ValueError, match="missing"):
            EnergyMacroModel.from_json(json.dumps(payload))

    def test_unknown_template_rejected(self, model):
        import json

        payload = json.loads(model.to_json())
        payload["template"] = "mystery-template"
        with pytest.raises(ValueError, match="unknown template"):
            EnergyMacroModel.from_json(json.dumps(payload))

    def test_fit_info_preserved(self):
        template = default_template()
        model = EnergyMacroModel(
            template, np.ones(21), fit_info={"samples": 50, "method": "nnls"}
        )
        restored = EnergyMacroModel.from_json(model.to_json())
        assert restored.fit_info["samples"] == 50


class TestOperatingPointSchema:
    """Versioned model files: the one format, digests, at() scaling."""

    def test_legacy_v1_is_unloadable(self, model):
        import json

        payload = json.loads(model.to_json())
        payload["format"] = "repro-energy-macro-model/1"
        del payload["operating_point"]
        with pytest.raises(ValueError, match="unrecognized model format"):
            EnergyMacroModel.from_json(json.dumps(payload))

    def test_unknown_extra_fields_tolerated(self, model):
        import json

        payload = json.loads(model.to_json())
        payload["future_field"] = {"nested": True}
        restored = EnergyMacroModel.from_json(json.dumps(payload))
        assert np.allclose(restored.coefficients, model.coefficients)

    def test_operating_point_round_trips(self, model):
        derived = model.at("65nm@1.1V@800MHz")
        restored = EnergyMacroModel.from_json(derived.to_json())
        assert restored.operating_point == derived.operating_point
        assert np.allclose(restored.coefficients, derived.coefficients)

    def test_bad_operating_point_rejected(self, model):
        import json

        payload = json.loads(model.to_json())
        payload["operating_point"] = {"node_nm": 65}
        with pytest.raises(ValueError, match="bad operating point"):
            EnergyMacroModel.from_json(json.dumps(payload))

    def test_digest_stable_across_save_load(self, model, tmp_path):
        derived = model.at("90nm@1.2V@600MHz")
        path = tmp_path / "derived.json"
        derived.save(str(path))
        assert EnergyMacroModel.load(str(path)).digest() == derived.digest()
        # the operating point is part of the digest: base and derived differ
        assert model.digest() != derived.digest()

    def test_at_scales_by_hand_computed_factor(self, model):
        # C(65)/C(180) * (1.1/1.8)^2 over the committed table
        expected = (0.68 / 2.4) * (1.1 / 1.8) ** 2
        derived = model.at("65nm@1.1V@800MHz")
        assert np.allclose(derived.coefficients, model.coefficients * expected)
        assert derived.fit_info["energy_scale"] == pytest.approx(expected)
        assert derived.operating_point.key == "65nm@1.1V@800MHz"

    def test_at_relative_to_own_fit_point(self, model):
        low = model.at("90nm@1V@100MHz")
        high = low.at("90nm@1.2V@100MHz")
        assert np.allclose(
            high.coefficients, low.coefficients * (1.2 / 1.0) ** 2
        )

    def test_at_none_is_self_and_memoized(self, model):
        assert model.at(None) is model
        assert model.at("65nm@1.1V@800MHz") is model.at("65 nm @ 1.1 V @ 800 MHz")

    def test_at_finds_a_canonical_key_without_parsing_it(self, model, monkeypatch):
        from repro.tech import CalibrationError, OperatingPoint

        derived = model.at("65 nm @ 1.1 V @ 800 MHz")
        parsed = []
        parse = OperatingPoint.parse

        def counting_parse(raw):
            parsed.append(raw)
            return parse(raw)

        monkeypatch.setattr(OperatingPoint, "parse", staticmethod(counting_parse))
        assert model.at("65nm@1.1V@800MHz") is derived
        assert parsed == []
        # anything else still parses (and validates) on its way to the memo
        assert model.at("65nm @ 1.1V @ 800MHz") is derived
        assert parsed == ["65nm @ 1.1V @ 800MHz"]
        with pytest.raises(CalibrationError):
            model.at("65nm@9V@800MHz")

    def test_pickle_round_trip_keeps_point(self, model):
        import pickle

        derived = model.at("65nm@1.1V@800MHz")
        clone = pickle.loads(pickle.dumps(derived))
        assert clone.operating_point == derived.operating_point
        assert np.allclose(clone.coefficients, derived.coefficients)
        # the derived-model memo never travels through the pickle
        assert clone._derived_cache == {}
