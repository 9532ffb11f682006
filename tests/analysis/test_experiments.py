"""Experiment-driver structure tests (reports, context plumbing).

The heavy numerical assertions live in tests/integration; these verify
the driver API itself using the shared session context.
"""

import pytest

from repro.analysis import (
    ExperimentContext,
    run_fig3,
    run_fig4,
    run_table1,
    run_table2,
)


@pytest.mark.slow
class TestContext:
    def test_context_shape(self, experiment_context):
        assert isinstance(experiment_context, ExperimentContext)
        assert experiment_context.method == "nnls"
        assert len(experiment_context.applications) == 10
        assert len(experiment_context.rs_choices) == 4
        assert experiment_context.model is experiment_context.characterization.model

    def test_default_context_cached(self, experiment_context):
        from repro.analysis import default_context

        assert default_context() is experiment_context


@pytest.mark.slow
class TestReports:
    def test_table1_report(self, experiment_context):
        text = run_table1(experiment_context).report()
        assert "Energy coefficients" in text
        assert "coverage audit" in text

    def test_fig3_report(self, experiment_context):
        text = run_fig3(experiment_context).report()
        assert "fit err %" in text

    def test_table2_report_columns(self, experiment_context):
        text = run_table2(experiment_context).report()
        for column in ("application", "estimate", "reference", "err %", "speedup"):
            assert column in text
        assert "mean |err|" in text

    def test_fig4_report(self, experiment_context):
        result = run_fig4(experiment_context)
        text = result.report()
        assert "rs_sw" in text and "rs_dual" in text
        assert "Spearman" in text
        assert len(result.rows) == 4


@pytest.mark.faults
class TestFaultTolerantContext:
    def test_build_context_survives_injected_faults(self):
        """The paper-reproduction flow completes despite per-sample faults:
        failing programs become failure records at the stage that failed,
        and the model fits from the survivors."""
        from repro.analysis import build_context
        from repro.programs import characterization_suite
        from repro.testing import FaultPlan

        suite = characterization_suite(include_variants=False)[:8]
        plan = FaultPlan().fail_simulation(suite[0].name).nan_energy(suite[1].name)
        ctx = build_context(suite=suite, fault_plan=plan)

        report = ctx.run_report
        assert report is not None
        stages = {f.name: f.stage for f in report.failures}
        assert stages == {suite[0].name: "simulate", suite[1].name: "validate"}
        assert len(ctx.characterization.samples) == 6
        assert ctx.model.coefficients.shape == (21,)

    def test_healthy_context_reports_clean_run(self, experiment_context):
        report = experiment_context.run_report
        assert report is not None
        assert report.ok
        assert report.failures == []
