"""Discovery scores each candidate from the run that verified it.

The macro-model needs one ISS run per design point; discovery makes
exactly that many — one profile run that also scores the baseline, and
one verifying rerun per proven candidate that is also its score.
"""

from unittest import mock

import pytest

import repro.core.model as model_module
import repro.discover.pipeline as pipeline
from repro.cli import build_parser
from repro.discover import DiscoveryOptions, discover_case, software_case
from repro.discover.rewrite import rewrite_program
from repro.xtcore import build_processor


@pytest.fixture(scope="module")
def fir_top3(smoke_model):
    case = software_case("fir")
    return case, discover_case(case, smoke_model, DiscoveryOptions(top_k=3), workload="fir")


class TestScoresMatchEstimate:
    """One job, every surface: the scores equal ``model.estimate``."""

    def test_baseline_equals_estimate(self, fir_top3, smoke_model):
        case, report = fir_top3
        estimate = smoke_model.estimate(*case.build())
        assert report.baseline_energy.hex() == estimate.energy.hex()
        assert report.baseline_cycles == estimate.cycles

    def test_each_candidate_equals_estimate(self, fir_top3, smoke_model):
        case, report = fir_top3
        assert report.evaluated
        legal = {legalized.mnemonic: legalized for legalized in report.legal}
        for cand in report.evaluated:
            config, program = case.build()
            legalized = legal[cand.mnemonic]
            extended = build_processor(
                f"{config.name}+{cand.mnemonic}", legalized.lifted.specs, base=config
            )
            rewritten = rewrite_program(program, extended.isa, legalized).program
            estimate = smoke_model.estimate(extended, rewritten)
            assert cand.energy.hex() == estimate.energy.hex(), cand.mnemonic
            assert cand.cycles == estimate.cycles, cand.mnemonic


@pytest.mark.parametrize("top_k", [1, 3])
def test_one_simulation_per_candidate(smoke_model, top_k):
    # every simulation goes through run_session, called by the pipeline
    # directly or by the macro-model's estimate path
    with mock.patch.object(
        pipeline, "run_session", wraps=pipeline.run_session
    ) as direct, mock.patch.object(
        model_module, "run_session", wraps=model_module.run_session
    ) as via_model:
        report = discover_case(
            software_case("fir"), smoke_model, DiscoveryOptions(top_k=top_k)
        )
    assert len(report.evaluated) + len(report.failures) == top_k
    assert direct.call_count + via_model.call_count == 1 + top_k


def test_jobs_flag_is_gone():
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(["discover", "m.json", "-j", "2"])
    assert excinfo.value.code == 2
