"""Observer-path equivalence.

Statistics and traces delivered through the observer protocol agree
with the run's own aggregate statistics, and a trace materialized by a
:class:`TraceObserver` carries everything the reference RTL estimator
reads: replaying its records through a fresh estimator observer
reproduces the streaming report bit for bit on every bundled program.
"""

import dataclasses

import pytest

from repro.obs import StatsObserver, TraceObserver, run_session
from repro.programs import characterization_suite
from repro.rtl import RtlEnergyEstimator, generate_netlist
from tests.stats_oracle import stats_from_records

SUITE = characterization_suite(include_variants=False)


def _assert_stats_equal(a, b):
    for field in dataclasses.fields(a):
        assert getattr(a, field.name) == getattr(b, field.name), field.name


def _replay(estimator, records, result):
    """Feed materialized trace records through a fresh estimator observer."""
    observer = estimator.observer()
    observer.on_run_start(result.config, result.program)
    for record in records:
        observer.on_retire(record)
    observer.on_run_finish(result)
    return observer.report


def _assert_reports_bitwise(a, b):
    assert a.total.hex() == b.total.hex()
    assert (a.cycles, a.instructions) == (b.cycles, b.instructions)
    assert [(k, v.hex()) for k, v in a.by_block.items()] == [
        (k, v.hex()) for k, v in b.by_block.items()
    ]
    assert [(k, v.hex()) for k, v in a.by_group.items()] == [
        (k, v.hex()) for k, v in b.by_group.items()
    ]


class TestBundledObserverEquivalence:
    @pytest.mark.parametrize("case", SUITE[:6], ids=lambda c: c.name)
    def test_external_stats_observer_matches_result_stats(self, case):
        observer = StatsObserver()
        result = case.run(observers=(observer,))
        assert observer.stats is not result.stats
        _assert_stats_equal(observer.stats, result.stats)

    @pytest.mark.parametrize("case", SUITE[:6], ids=lambda c: c.name)
    def test_trace_observer_records_fold_to_result_stats(self, case):
        observer = TraceObserver()
        result = case.run(observers=(observer,))
        assert len(observer.records) == result.stats.total_instructions
        _assert_stats_equal(
            stats_from_records(observer.records, result.config), result.stats
        )

    def test_session_without_trace_returns_none(self):
        # a trace exists only as an observer's records: the result of a
        # session without one carries none and takes the superop loop
        case = SUITE[0]
        config, program = case.build()
        result = run_session(config, program, max_instructions=case.max_instructions)
        assert not hasattr(result, "trace")
        assert result.engine == "superop"
        assert result.stats.total_instructions > 0


class TestStreamingRtlEquivalence:
    @pytest.mark.parametrize("case", SUITE, ids=lambda c: c.name)
    def test_streaming_matches_materialized(self, case):
        config, program = case.build()
        estimator = RtlEnergyEstimator(generate_netlist(config))

        tracer = TraceObserver()
        traced = run_session(
            config,
            program,
            observers=(tracer,),
            max_instructions=case.max_instructions,
        )
        materialized = _replay(estimator, tracer.records, traced)

        streaming, _ = estimator.estimate_program(
            program, max_instructions=case.max_instructions
        )
        _assert_reports_bitwise(streaming, materialized)

    def test_frozen_activity_mode_matches_too(self):
        case = SUITE[0]
        config, program = case.build()
        estimator = RtlEnergyEstimator(generate_netlist(config), data_dependent=False)
        tracer = TraceObserver()
        traced = run_session(
            config, program, observers=(tracer,), max_instructions=case.max_instructions
        )
        materialized = _replay(estimator, tracer.records, traced)
        streaming, _ = estimator.estimate_program(
            program, max_instructions=case.max_instructions
        )
        _assert_reports_bitwise(streaming, materialized)


class TestEstimatorErrors:
    def test_config_mismatch_reports_fingerprints(self, base_config, tiny_loop_program):
        from repro.programs.extensions import ALL_SPEC_FACTORIES
        from repro.xtcore import build_processor

        other = build_processor("obs-other", [ALL_SPEC_FACTORIES["mul16"]()])
        estimator = RtlEnergyEstimator(generate_netlist(other))
        with pytest.raises(ValueError) as excinfo:
            run_session(
                base_config, tiny_loop_program, observers=(estimator.observer(),)
            )
        message = str(excinfo.value)
        assert base_config.fingerprint()[:12] in message
        assert other.fingerprint()[:12] in message
        assert base_config.name in message
        assert other.name in message

    def test_observer_rejects_mismatched_session(self, base_config, tiny_loop_program):
        from repro.programs.extensions import ALL_SPEC_FACTORIES
        from repro.xtcore import build_processor

        other = build_processor("obs-other", [ALL_SPEC_FACTORIES["mul16"]()])
        estimator = RtlEnergyEstimator(generate_netlist(other))
        with pytest.raises(ValueError, match="fingerprint"):
            run_session(
                base_config, tiny_loop_program, observers=(estimator.observer(),)
            )

    def test_report_before_run_raises(self, base_config):
        estimator = RtlEnergyEstimator(generate_netlist(base_config))
        with pytest.raises(ValueError, match="no energy report yet"):
            estimator.observer().report

    def test_identical_content_configs_interchange(self, tiny_loop_program):
        # fingerprint equality, not object identity, is the contract
        from repro.xtcore import build_processor

        config_a = build_processor("twin")
        config_b = build_processor("twin")
        estimator = RtlEnergyEstimator(generate_netlist(config_a))
        observer = estimator.observer()
        run_session(config_b, tiny_loop_program, observers=(observer,))
        assert observer.report.total > 0
