"""Fault-tolerant characterization runner tests (error isolation, retry,
degradation policy, one measurement path with ``characterize``)."""

import numpy as np
import pytest

from repro.asm import assemble
from repro.core import (
    CharacterizationRunError,
    CharacterizationRunner,
    Characterizer,
    CoverageLossError,
    RetryPolicy,
    RunnerTask,
    TooManyFailures,
    characterize,
)
from repro.obs import run_session
from repro.rtl.estimator import RtlEnergyObserver
from repro.testing import FaultPlan, hanging_task
from repro.xtcore import build_processor

pytestmark = pytest.mark.faults


_SOURCES = {
    "arith": "main:\n    movi a2, 60\nl:\n    add a3, a3, a2\n    xor a3, a3, a2\n    addi a2, a2, -1\n    bnez a2, l\n    halt\n",
    "loads": "    .data\nb: .space 256\n    .text\nmain:\n    la a2, b\n    movi a3, 40\nl:\n    l32i a4, a2, 0\n    s32i a4, a2, 4\n    addi a2, a2, 4\n    addi a3, a3, -1\n    bnez a3, l\n    halt\n",
    "logic": "main:\n    movi a2, 30\nl:\n    sub a4, a3, a2\n    or a3, a3, a4\n    addi a2, a2, -1\n    bnez a2, l\n    halt\n",
    "shifts": "main:\n    movi a2, 20\n    movi a3, 3\nl:\n    slli a4, a3, 2\n    srli a5, a4, 1\n    add a3, a3, a5\n    addi a2, a2, -1\n    bnez a2, l\n    halt\n",
}


@pytest.fixture(scope="module")
def base_tasks():
    config = build_processor("runner-base")
    return [
        RunnerTask.from_pair(config, assemble(source, name, isa=config.isa))
        for name, source in _SOURCES.items()
    ]


def _runner(characterizer=None, plan=None, **kwargs):
    characterizer = characterizer if characterizer is not None else Characterizer()
    if plan is not None:
        kwargs.setdefault("simulate", plan.wrap_session())
        kwargs.setdefault("estimate_energy", plan.wrap_estimate())
    return CharacterizationRunner(characterizer, **kwargs)


class TestRetryPolicy:
    def test_budget_lowered_per_attempt(self):
        policy = RetryPolicy(max_attempts=3, budget_factor=0.5)
        assert policy.budget_for(1, 1000) == 1000
        assert policy.budget_for(2, 1000) == 500
        assert policy.budget_for(3, 1000) == 250

    def test_budget_never_below_one(self):
        assert RetryPolicy(budget_factor=0.5).budget_for(2, 1) == 1

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="budget_factor"):
            RetryPolicy(budget_factor=0.0)
        with pytest.raises(ValueError, match="budget_factor"):
            RetryPolicy(budget_factor=1.5)


class TestRunnerTask:
    def test_from_pair_names_task_after_program(self):
        config = build_processor("coerce")
        program = assemble(_SOURCES["arith"], "arith", isa=config.isa)
        task = RunnerTask.from_pair(config, program)
        assert task.name == "arith"
        assert task.builder() == (config, program)

    def test_from_case_adapts_benchmark_case(self):
        from repro.programs import characterization_suite

        case = characterization_suite(include_variants=False)[0]
        task = RunnerTask.from_case(case)
        assert task.name == case.name
        assert task.max_instructions == case.max_instructions


class TestErrorIsolation:
    def test_permanent_simulator_fault_contained(self, base_tasks):
        plan = FaultPlan().fail_simulation("arith")
        report = _runner(plan=plan).run(base_tasks)
        assert [f.name for f in report.failures] == ["arith"]
        failure = report.failures[0]
        assert failure.stage == "simulate"
        assert failure.attempts == 2
        assert failure.error_type == "InjectedFault"
        assert {s.name for s in report.samples} == {"loads", "logic", "shifts"}
        assert "arith" in report.summary()

    def test_transient_fault_recovered_by_retry(self, base_tasks):
        plan = FaultPlan().fail_simulation("arith", times=1)
        report = _runner(plan=plan).run(base_tasks)
        assert report.ok
        assert {s.name for s in report.samples} == set(_SOURCES)
        assert plan.injected == [("arith", "sim-error")]

    def test_nan_and_inf_energy_contained(self, base_tasks):
        plan = FaultPlan().nan_energy("loads").inf_energy("logic")
        report = _runner(plan=plan).run(base_tasks)
        assert {f.name for f in report.failures} == {"loads", "logic"}
        assert all(f.stage == "validate" for f in report.failures)
        assert all("non-finite energy" in f.message for f in report.failures)
        # surviving samples are clean
        assert all(np.isfinite(s.energy) for s in report.samples)

    def test_transient_nan_energy_recovered(self, base_tasks):
        plan = FaultPlan().nan_energy("loads", times=1)
        report = _runner(plan=plan).run(base_tasks)
        assert report.ok

    def test_hanging_program_contained_by_budget(self, base_tasks):
        report = _runner().run(base_tasks + [hanging_task()])
        assert [f.name for f in report.failures] == ["fault_hang"]
        failure = report.failures[0]
        assert failure.error_type == "SimulationLimitExceeded"
        assert failure.attempts == 2
        assert len(report.samples) == len(base_tasks)

    def test_build_failure_contained_not_retried(self, base_tasks):
        def broken_build():
            raise RuntimeError("assembly exploded")

        bad = RunnerTask(name="broken", builder=broken_build)
        report = _runner().run([bad] + base_tasks)
        failure = report.failures[0]
        assert failure.stage == "build"
        assert failure.attempts == 1
        assert len(report.samples) == len(base_tasks)

    def test_acceptance_two_injected_faults_fit_from_survivors(self, base_tasks):
        """Acceptance: >=2 injected programs; run completes, reports a
        structured summary, and fits from the surviving samples."""
        plan = FaultPlan().fail_simulation("arith").nan_energy("loads")
        report = _runner(plan=plan).run(base_tasks)
        assert len(report.failures) == 2
        assert report.result is not None
        assert report.result.model.coefficients.shape == (21,)
        summary = report.summary()
        assert "2 failure(s)" in summary
        assert "InjectedFault" in summary
        assert "non-finite energy" in summary


class TestMaxFailures:
    def test_abort_when_budget_exceeded(self, base_tasks):
        plan = FaultPlan().fail_simulation("arith").fail_simulation("loads")
        with pytest.raises(TooManyFailures, match="max_failures=0"):
            _runner(plan=plan, max_failures=0).run(base_tasks)

    def test_budget_counts_only_failures(self, base_tasks):
        plan = FaultPlan().fail_simulation("arith")
        report = _runner(plan=plan, max_failures=1).run(base_tasks)
        assert len(report.failures) == 1
        assert report.result is not None

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match="max_failures must be >= 0"):
            CharacterizationRunner(max_failures=-1)


class TestDegradation:
    def test_strict_mode_raises_on_coverage_loss(self, base_tasks):
        plan = FaultPlan().fail_simulation("arith")
        with pytest.raises(CoverageLossError) as excinfo:
            _runner(plan=plan, degradation="strict").run(base_tasks)
        assert excinfo.value.lost_variables  # names the unexercised variables
        assert "rank" in str(excinfo.value)

    def test_strict_mode_tolerates_inadequate_but_failure_free_suite(self, base_tasks):
        # the mini suite never spans the 21-variable template, but without
        # failures that is the suite designer's problem, not a degradation
        report = _runner(degradation="strict").run(base_tasks)
        assert report.result is not None

    def test_warn_mode_never_raises_on_coverage(self, base_tasks):
        plan = FaultPlan().fail_simulation("arith")
        report = _runner(plan=plan, degradation="warn").run(base_tasks)
        assert report.coverage is not None
        assert not report.coverage.is_adequate

    def test_all_samples_failing_raises(self, base_tasks):
        plan = FaultPlan()
        for name in _SOURCES:
            plan.fail_simulation(name)
        with pytest.raises(CharacterizationRunError, match="no samples survived"):
            _runner(plan=plan).run(base_tasks)

    def test_unknown_degradation_mode_rejected(self):
        with pytest.raises(ValueError, match="degradation"):
            CharacterizationRunner(degradation="yolo")


class TestCharacterizeIntegration:
    def test_runner_and_characterize_agree_bitwise(self, base_tasks):
        """The runner and the all-or-nothing ``characterize()`` share one
        measurement step, so coefficients and per-sample energies match
        bit for bit."""
        runs = [task.builder() for task in base_tasks]
        legacy = characterize(runs)
        report = _runner().run(base_tasks)
        assert report.ok
        assert np.array_equal(
            report.result.model.coefficients, legacy.model.coefficients
        )
        assert [s.name for s in report.samples] == [s.name for s in legacy.samples]
        assert [s.energy for s in report.samples] == [s.energy for s in legacy.samples]
        for ours, theirs in zip(report.samples, legacy.samples):
            assert np.array_equal(ours.variables, theirs.variables)

    def test_session_streams_through_rtl_observer(self, base_tasks):
        """Every observed run carries the RTL observer and keeps no trace."""
        calls = []

        def spy(config, program, **kwargs):
            calls.append(kwargs)
            return run_session(config, program, **kwargs)

        # arith fails once, so the retry's observer-free probe shows up too
        plan = FaultPlan().fail_simulation("arith", times=1)
        report = _runner(simulate=plan.wrap_session(spy)).run(base_tasks)
        assert report.ok
        assert not any(kwargs.get("collect_trace", False) for kwargs in calls)
        observed = [kwargs for kwargs in calls if kwargs.get("observers")]
        assert len(observed) == len(base_tasks)
        for kwargs in observed:
            (observer,) = kwargs["observers"]
            assert isinstance(observer, RtlEnergyObserver)
        probes = [kwargs for kwargs in calls if not kwargs.get("observers")]
        assert len(probes) == 1  # the one retry's termination probe
