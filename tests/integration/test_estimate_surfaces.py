"""One estimate, every surface: bitwise-equal energy and equal cycles.

Seeded generated programs x two processor configs x {no point, two
operating points} go through each user-visible way of estimating
energy: the library (``model.at(p).estimate`` and the
``estimate_many`` kernel, solo and batched), ``repro estimate --format
json``, ``/estimate`` on an in-process server and ``explore``.  They
all end in the one estimation kernel, so they must agree to the bit.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.asm import assemble
from repro.cli import main
from repro.core import EnergyMacroModel, default_template
from repro.dse import ExhaustiveStrategy, Knob, SearchSpace, explore, with_operating_points
from repro.programs.extensions import ALL_SPEC_FACTORIES
from repro.serve import EstimationService
from repro.testing.progen import generate_source
from repro.xtcore import DEFAULT_MAX_INSTRUCTIONS, build_processor

from tests.serve.conftest import ServerHarness

SEEDS = (3, 17, 42)
EXTENSIONS = ((), ("mul16",))
POINTS = (None, "130nm@1.5V@400MHz", "65nm@1.1V@800MHz")


def _config(extensions):
    return build_processor("surfaces", [ALL_SPEC_FACTORIES[m]() for m in extensions])


def _cases():
    for seed in SEEDS:
        for extensions in EXTENSIONS:
            for point in POINTS:
                yield seed, extensions, point


@pytest.fixture(scope="module")
def model():
    template = default_template()
    return EnergyMacroModel(template, np.linspace(50, 5000, len(template)))


@pytest.fixture(scope="module")
def expected(model):
    """(seed, extensions, point) -> (energy, cycles) via ``model.at(p).estimate``."""
    table = {}
    for seed, extensions, point in _cases():
        config = _config(extensions)
        program = assemble(generate_source(seed), f"g{seed}", isa=config.isa)
        estimate = model.at(point).estimate(config, program)
        table[seed, extensions, point] = (estimate.energy, estimate.cycles)
    return table


def _jobs():
    jobs = []
    for seed, extensions, point in _cases():
        config = _config(extensions)
        program = assemble(generate_source(seed), f"g{seed}", isa=config.isa)
        jobs.append((config, program, point, DEFAULT_MAX_INSTRUCTIONS))
    return jobs


def test_kernel_solo(model, expected):
    for case, job in zip(_cases(), _jobs()):
        outcomes = model.estimate_many([job])
        assert outcomes.passes == [1]
        (estimate,) = outcomes
        assert (estimate.energy, estimate.cycles) == expected[case]


def test_kernel_batched(model, expected):
    estimates = model.estimate_many(_jobs())
    # one run_batch pass per (program, config): the points share it
    assert set(estimates.passes) == {len(POINTS)}
    assert sum(estimates.passes) == len(estimates)
    for case, estimate in zip(_cases(), estimates):
        assert (estimate.energy, estimate.cycles) == expected[case]


def test_cli_estimate_json(model, expected, tmp_path, capsys):
    model_path = tmp_path / "model.json"
    model.save(str(model_path))
    paths = []
    for seed in SEEDS:
        path = tmp_path / f"g{seed}.s"
        path.write_text(generate_source(seed))
        paths.append(str(path))
    for extensions in EXTENSIONS:
        for point in POINTS:
            argv = ["estimate", str(model_path), *paths, "--format", "json"]
            argv += ["--extensions", ",".join(extensions)]
            if point is not None:
                argv += ["--operating-point", point]
            assert main(argv) == 0
            payload = json.loads(capsys.readouterr().out)
            for seed, entry in zip(SEEDS, payload["estimates"]):
                assert (entry["energy"], entry["cycles"]) == expected[
                    seed, extensions, point
                ]


def test_serve_estimate(model, expected):
    harness = ServerHarness(EstimationService(model, workers=0))
    try:
        for seed, extensions, point in _cases():
            body = {
                "program": {"source": generate_source(seed), "name": f"g{seed}"},
                "extensions": list(extensions),
            }
            if point is not None:
                body["operating_point"] = point
            status, response = harness.estimate(body)
            assert status == 200, response
            assert (response["energy"], response["cycles"]) == expected[
                seed, extensions, point
            ]
    finally:
        harness.close()


def test_explore(model, expected):
    def build(assignment):
        config = _config(EXTENSIONS[assignment["ext"]])
        seed = assignment["seed"]
        return config, assemble(generate_source(seed), f"g{seed}", isa=config.isa)

    space = SearchSpace(
        name="surfaces",
        description="generated programs x two configs",
        knobs=(Knob("seed", SEEDS), Knob("ext", (0, 1))),
        builder=build,
    )
    seen = set()
    for explored in (space, with_operating_points(space, POINTS[1:])):
        report = explore(model, explored, ExhaustiveStrategy())
        assert report.ok and not report.failures
        for score in report.scores:
            a = score.assignment
            case = (a["seed"], EXTENSIONS[a["ext"]], a.get("operating_point"))
            assert (score.energy, score.cycles) == expected[case]
            seen.add(case)
    assert seen == set(_cases())
