"""Operating-point threading through the DSE layer.

The acceptance scenario of the calibration work lives here: exploring
one space at several operating points must yield per-point rankings,
bitwise-identical execution statistics (the point never perturbs the
simulation) and a distinct model digest per point.
"""

import pytest

import repro.core.model as model_module
from repro.dse import (
    OPERATING_POINT_KNOB,
    EvaluationEngine,
    ExhaustiveStrategy,
    SpaceError,
    explore,
    get_space,
    with_operating_points,
)
from repro.tech import default_calibration

from .conftest import make_toy_space

POINTS = ("130nm@1.5V@400MHz", "90nm@1.2V@600MHz", "65nm@1.1V@800MHz")


class TestWithOperatingPoints:
    def test_adds_one_knob(self):
        space = with_operating_points(make_toy_space(), POINTS)
        assert space.size == 9 * len(POINTS)
        assert space.name == "toy@dvfs"
        names = [knob.name for knob in space.knobs]
        assert names.count(OPERATING_POINT_KNOB) == 1

    def test_knob_is_stripped_before_build(self):
        space = with_operating_points(make_toy_space(), POINTS)
        assignment = dict(space.candidates().__iter__().__next__().assignment_dict)
        config, program = space.build(assignment)
        assert program.name.startswith("toy_")

    def test_canonicalizes_and_validates(self):
        space = with_operating_points(make_toy_space(), ("65 nm @ 1.1 V @ 800 MHz",))
        op_knob = next(k for k in space.knobs if k.name == OPERATING_POINT_KNOB)
        assert op_knob.values == ("65nm@1.1V@800MHz",)
        with pytest.raises(SpaceError):
            with_operating_points(make_toy_space(), ("65nm@9V@800MHz",))
        with pytest.raises(SpaceError):
            with_operating_points(make_toy_space(), ())

    def test_rejects_duplicates_and_double_wrap(self):
        with pytest.raises(SpaceError):
            with_operating_points(
                make_toy_space(), ("65nm@1.1V@800MHz", "65 nm@1.1V@800 MHz")
            )
        wrapped = with_operating_points(make_toy_space(), POINTS)
        with pytest.raises(SpaceError):
            with_operating_points(wrapped, POINTS)

    def test_bundled_dvfs_spaces(self):
        assert get_space("reed_solomon_dvfs").size == 4 * 3
        assert get_space("fir_dvfs").size == 3 * 3


class TestScoring:
    def test_energy_scales_exactly_per_point(self, synthetic_model):
        space = with_operating_points(make_toy_space(with_pad=False), POINTS)
        engine = EvaluationEngine(synthetic_model, space)
        scores = engine.evaluate(list(space.candidates()))
        calibration = default_calibration()
        by_assignment = {}
        for score in scores:
            assignment = dict(
                item.split("=") for item in score.key.split(",")
            )
            by_assignment.setdefault(assignment["n"], {})[
                assignment[OPERATING_POINT_KNOB]
            ] = score
        for per_point in by_assignment.values():
            assert len(per_point) == len(POINTS)
            # identical simulation across points...
            assert len({score.cycles for score in per_point.values()}) == 1
            # ...with energies in the exact calibration ratios
            base = {
                point: score.energy / calibration.energy_scale(point)
                for point, score in per_point.items()
            }
            values = list(base.values())
            assert all(v == pytest.approx(values[0]) for v in values)

    def test_scores_carry_point_and_clock(self, synthetic_model):
        space = with_operating_points(make_toy_space(with_pad=False), POINTS)
        engine = EvaluationEngine(synthetic_model, space)
        (score,) = engine.evaluate(
            [space.candidate({"n": 2, OPERATING_POINT_KNOB: "65nm@1.1V@800MHz"})]
        )
        assert score.operating_point == "65nm@1.1V@800MHz"
        assert score.frequency_mhz == 800.0
        assert score.seconds == pytest.approx(score.cycles / 800e6)
        assert score.edp_seconds == pytest.approx(score.energy * score.seconds)

    def test_op_only_candidates_share_one_batch(self, synthetic_model):
        space = with_operating_points(make_toy_space(with_pad=False), POINTS)
        candidates = [
            space.candidate({"n": 4, OPERATING_POINT_KNOB: point})
            for point in POINTS
        ]
        engine = EvaluationEngine(synthetic_model, space)
        scores = engine.evaluate(candidates)
        assert engine.batch_groups == 1
        assert engine.batch_members == len(POINTS)
        assert len({score.energy for score in scores}) == len(POINTS)

    @pytest.mark.parametrize("fault", ["one_member", "whole_pass"])
    def test_failing_batch_passes_still_count(self, synthetic_model, monkeypatch, fault):
        space = with_operating_points(make_toy_space(with_pad=False), POINTS)
        candidates = [
            space.candidate({"n": 4, OPERATING_POINT_KNOB: point}) for point in POINTS[:2]
        ]
        if fault == "one_member":
            real = model_module.extract_variables
            calls = []

            def flaky(*args, **kwargs):
                calls.append(None)
                if len(calls) == 2:
                    raise RuntimeError("injected scoring fault")
                return real(*args, **kwargs)

            monkeypatch.setattr(model_module, "extract_variables", flaky)
        else:

            def broken(configs, program, **kwargs):
                raise RuntimeError("injected batch fault")

            monkeypatch.setattr(model_module, "run_batch", broken)
        engine = EvaluationEngine(synthetic_model, space)
        scores = engine.evaluate(candidates)
        assert (engine.batch_groups, engine.batch_members) == (1, 2)
        assert len(scores) == (1 if fault == "one_member" else 0)
        assert [failure.stage for failure in engine.failures] == ["estimate"] * (2 - len(scores))

    def test_time_objectives(self, synthetic_model):
        space = with_operating_points(make_toy_space(with_pad=False), POINTS)
        engine = EvaluationEngine(synthetic_model, space)
        (score,) = engine.evaluate(
            [space.candidate({"n": 2, OPERATING_POINT_KNOB: POINTS[0]})]
        )
        assert score.objective("time") == score.seconds
        assert score.objective("edp_seconds") == score.edp_seconds
        bare_engine = EvaluationEngine(
            synthetic_model, make_toy_space(with_pad=False)
        )
        (bare,) = bare_engine.evaluate(
            [make_toy_space(with_pad=False).candidate({"n": 2})]
        )
        with pytest.raises(ValueError, match="operating point"):
            bare.objective("time")


class TestExploreMatrix:
    """The 3-point scenario matrix the PR's acceptance criteria name."""

    @pytest.fixture(scope="class")
    def reports(self):
        import numpy as np

        from repro.core import EnergyMacroModel, default_template

        template = default_template()
        model = EnergyMacroModel(template, np.linspace(50, 5000, len(template)))
        space = make_toy_space(with_pad=False)
        reports = {}
        for point in POINTS:
            reports[point] = explore(model.at(point), space, ExhaustiveStrategy())
        return reports

    def test_distinct_frontiers_per_point(self, reports):
        energies = {
            point: tuple(score.energy for score in report.ranked())
            for point, report in reports.items()
        }
        assert len(set(energies.values())) == len(POINTS)

    def test_stats_identical_across_points(self, reports):
        cycle_vectors = {
            tuple(sorted((score.key, score.cycles) for score in report.scores))
            for report in reports.values()
        }
        assert len(cycle_vectors) == 1

    def test_report_metadata_names_the_point(self, reports):
        for point, report in reports.items():
            assert report.operating_point == point
            assert report.model_digest
            assert point in report.table()
            payload = report.to_payload()
            assert payload["operating_point"] == point
        # one digest per point: requests keyed on it dedupe per point
        assert len({report.model_digest for report in reports.values()}) == len(POINTS)
