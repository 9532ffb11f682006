"""Pinned program content: the assembler's output for every program we ship.

``data/program_digests.json`` holds the :meth:`Program.digest` of the 66
bundled programs, 50 seeded :mod:`repro.testing.progen` programs and
every implementation of the ``reed_solomon_tuned`` and ``fir_tuned``
design spaces, as assembled when the file was written.  Any change to
how the assembler lays out, resolves or encodes a program moves a
digest here.  Regenerate with::

    PYTHONPATH=src python tests/asm/test_program_digests.py
"""

from __future__ import annotations

import json
import pathlib

import pytest

PINNED = pathlib.Path(__file__).resolve().parent / "data" / "program_digests.json"
PROGEN_SEEDS = range(50)
TUNED_SPACES = ("reed_solomon_tuned", "fir_tuned")


def bundled_digests() -> dict[str, str]:
    from repro.asm import assemble
    from repro.programs import application_suite, characterization_suite

    digests = {}
    for case in characterization_suite() + application_suite():
        program = assemble(case.source, case.name, isa=case.config.isa)
        digests[case.name] = program.digest()
    return digests


def progen_digests() -> dict[str, str]:
    from repro.testing.progen import generate_program

    return {str(seed): generate_program(seed).digest() for seed in PROGEN_SEEDS}


def tuned_digests() -> dict[str, str]:
    from repro.dse import get_space
    from repro.xtcore import compilation_cache

    digests = {}
    for name in TUNED_SPACES:
        space = get_space(name)
        for impl in space.knobs[0].values:
            compilation_cache().clear()
            point = {knob.name: knob.values[0] for knob in space.knobs}
            _, program = space.build({**point, "impl": impl})
            digests[f"{name}/{impl}"] = program.digest()
    return digests


def current() -> dict[str, dict[str, str]]:
    return {"bundled": bundled_digests(), "progen": progen_digests(), "tuned": tuned_digests()}


@pytest.fixture(scope="module")
def pinned() -> dict[str, dict[str, str]]:
    return json.loads(PINNED.read_text())


def test_bundled_programs(pinned):
    assert len(pinned["bundled"]) == 66
    assert bundled_digests() == pinned["bundled"]


def test_progen_programs(pinned):
    assert len(pinned["progen"]) == len(PROGEN_SEEDS)
    assert progen_digests() == pinned["progen"]


def test_tuned_implementations(pinned):
    assert len(pinned["tuned"]) == 7
    assert tuned_digests() == pinned["tuned"]


if __name__ == "__main__":
    PINNED.write_text(json.dumps(current(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {PINNED}")
