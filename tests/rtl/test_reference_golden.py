"""The reference estimator reproduces the committed paper goldens bit for bit.

``perfbench/data/golden.json`` records, for the paper workload, the
reference energy of every characterization program and of every Table II
application as ``float.hex``.  These tests recompute them through the
library, so a change that moves one reference energy by one ulp fails
here, not only inside the benchmark.  The file is read, never written.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.core import Characterizer
from repro.programs import application_suite, characterization_suite
from repro.rtl import RtlEnergyEstimator, generate_netlist

GOLDEN = pathlib.Path(__file__).resolve().parents[2] / "perfbench" / "data" / "golden.json"
SUITE = {case.name: case for case in characterization_suite()}
APPS = {case.name: case for case in application_suite()}


@pytest.fixture(scope="module")
def golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)["paper"]


def test_goldens_cover_every_bundled_case(golden):
    assert len(SUITE) == 56 and len(APPS) == 10
    assert set(golden) == set(SUITE) | set(APPS)


@pytest.fixture(scope="module")
def characterizer() -> Characterizer:
    return Characterizer()


@pytest.mark.parametrize("name", sorted(SUITE))
def test_characterization_sample_matches_golden(name, golden, characterizer):
    case = SUITE[name]
    sample = characterizer.add_program(
        case.config, case.program, max_instructions=case.max_instructions
    )
    assert {"energy": sample.energy.hex(), "cycles": sample.cycles} == golden[name]


@pytest.mark.parametrize("name", sorted(APPS))
def test_application_reference_matches_golden(name, golden):
    case = APPS[name]
    estimator = RtlEnergyEstimator(generate_netlist(case.config))
    report, _ = estimator.estimate_program(case.program, max_instructions=case.max_instructions)
    assert report.total.hex() == golden[name]["reference"]
    assert report.cycles == golden[name]["cycles"]
