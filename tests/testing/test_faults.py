"""Fault-injection harness tests: determinism and failure-mode fidelity."""

import pytest

from repro.asm import assemble
from repro.core import Characterizer
from repro.obs import run_session
from repro.rtl import RtlEnergyEstimator, generate_netlist
from repro.testing import FaultPlan, InjectedFault, hanging_task
from repro.xtcore import SimulationLimitExceeded, build_processor

pytestmark = pytest.mark.faults

SOURCE = "main:\n    movi a2, 5\nl:\n    addi a2, a2, -1\n    bnez a2, l\n    halt\n"


@pytest.fixture(scope="module")
def run_args():
    config = build_processor("faults-base")
    program = assemble(SOURCE, "victim", isa=config.isa)
    return config, program


class TestSimulationFaults:
    def test_injects_exactly_n_times(self, run_args):
        config, program = run_args
        session = FaultPlan().fail_simulation("victim", times=2).wrap_session()
        for _ in range(2):
            with pytest.raises(InjectedFault, match="victim"):
                session(config, program, max_instructions=1000)
        result = session(config, program, max_instructions=1000)  # injections used up
        assert result.stats.total_instructions > 0

    def test_always_injects_by_default(self, run_args):
        config, program = run_args
        session = FaultPlan().fail_simulation("victim").wrap_session()
        for _ in range(5):
            with pytest.raises(InjectedFault):
                session(config, program, max_instructions=1000)

    def test_budget_exhaustion_kind(self, run_args):
        config, program = run_args
        session = FaultPlan().exhaust_budget("victim", times=1).wrap_session()
        with pytest.raises(SimulationLimitExceeded, match="injected"):
            session(config, program, max_instructions=1000)

    def test_unlisted_programs_pass_through(self, run_args):
        config, program = run_args
        plan = FaultPlan().fail_simulation("someone-else")
        result = plan.wrap_session()(config, program, max_instructions=1000)
        assert result.stats.total_instructions > 0
        assert plan.injected == []


class TestEnergyFaults:
    @pytest.mark.parametrize("kind", ["nan", "inf"])
    def test_injects_non_finite_energy(self, run_args, kind):
        import math

        config, program = run_args
        plan = FaultPlan()
        getattr(plan, f"{kind}_energy")("victim", times=1)
        estimate = plan.wrap_estimate()
        observer = RtlEnergyEstimator(generate_netlist(config)).observer()
        run_session(config, program, observers=(observer,), max_instructions=1000)
        first = estimate(config, program, observer.report)
        second = estimate(config, program, observer.report)
        assert math.isnan(first) if kind == "nan" else math.isinf(first)
        assert second == observer.report.total
        assert plan.injected == [("victim", kind)]


class TestHangingTask:
    def test_genuinely_hangs_until_budget(self):
        task = hanging_task(max_instructions=500)
        config, program = task.builder()
        with pytest.raises(SimulationLimitExceeded):
            run_session(config, program, max_instructions=task.max_instructions)


class TestSamplesFileCorruption:
    def _valid_samples_file(self, tmp_path):
        characterizer = Characterizer()
        config = build_processor("samples-corrupt")
        characterizer.add_program(config, assemble(SOURCE, "victim", isa=config.isa))
        path = tmp_path / "samples.json"
        characterizer.save_samples(str(path))
        return path

    @pytest.mark.parametrize("mode", ["truncate", "garbage"])
    def test_corrupted_file_rejected_with_actionable_error(self, tmp_path, mode):
        path = self._valid_samples_file(tmp_path)
        if mode == "truncate":  # a write cut short
            data = path.read_bytes()
            path.write_bytes(data[: len(data) // 2])
        else:
            path.write_text('{"format": "repro-characterization-samples/1", "samp\x00')
        with pytest.raises(ValueError, match="not valid JSON"):
            Characterizer().load_samples(str(path))
