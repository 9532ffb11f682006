"""The session seam: run_session wrapping and fault injection."""

import pytest

from repro.core.runner import CharacterizationRunner, RunnerTask
from repro.obs import StatsObserver, TraceObserver, run_session
from repro.testing.faults import FaultPlan, InjectedFault


@pytest.fixture()
def pair(base_config, tiny_loop_program):
    return base_config, tiny_loop_program


class TestWrapSession:
    def test_passthrough_preserves_session_semantics(self, pair):
        config, program = pair
        session = FaultPlan().wrap_session()
        observer = StatsObserver()
        tracer = TraceObserver()
        result = session(config, program, observers=(observer, tracer))
        assert len(tracer.records) == result.stats.total_instructions
        assert observer.stats.total_instructions == result.stats.total_instructions

    def test_injects_for_named_program(self, pair):
        config, program = pair
        plan = FaultPlan().fail_simulation(program.name, times=1)
        session = plan.wrap_session()
        with pytest.raises(InjectedFault):
            session(config, program)
        # fault budget exhausted: second call passes through
        result = session(config, program)
        assert result.stats.total_instructions > 0
        assert plan.injected == [(program.name, "sim-error")]

    def test_inner_session_receives_keywords(self, pair):
        config, program = pair
        seen = {}

        tracer = TraceObserver()

        def inner(config, program, *, observers=(), max_instructions=0):
            seen.update(observers=observers, max_instructions=max_instructions)
            return run_session(
                config,
                program,
                observers=observers,
                max_instructions=max_instructions,
            )

        session = FaultPlan().wrap_session(inner)
        session(config, program, observers=(tracer,), max_instructions=1234)
        assert seen == {"observers": (tracer,), "max_instructions": 1234}

    def test_runner_accepts_wrapped_session(self, pair):
        config, program = pair
        plan = FaultPlan().fail_simulation("absent-program")
        runner = CharacterizationRunner(simulate=plan.wrap_session())
        report = runner.run([RunnerTask.from_pair(config, program)], fit=False)
        assert report.ok
        assert len(report.samples) == 1

