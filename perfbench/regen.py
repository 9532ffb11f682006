"""Regenerate the model fixture and the golden output digests.

    PYTHONHASHSEED=0 PYTHONPATH=src python3 perfbench/regen.py

The fixture is the model fitted from the full characterization suite in
suite order.  The golden file holds every output an op can produce: each
suite program's reference energy and cycles and each application's
comparison (``paper``), every bundled case at every operating point
(``estimate``) and every explore strategy seed (``explore``).  Rerun it
only for a change that is meant to change those outputs.
"""

from __future__ import annotations

import json

import workloads as w


def main() -> None:
    from repro.core import Characterizer, EnergyMacroModel, EstimationStudy
    from repro.programs import application_suite, characterization_suite

    characterizer = Characterizer()
    paper = {}
    for case in characterization_suite():
        sample = characterizer.add_program(case.config, case.program, max_instructions=case.max_instructions)
        paper[case.name] = w.paper_record((case.name, sample.energy, sample.cycles))
    w.DATA.mkdir(exist_ok=True)
    characterizer.fit().model.save(str(w.FIXTURE))
    model = EnergyMacroModel.load(str(w.FIXTURE))
    study = EstimationStudy(model)
    for case in application_suite():
        row = study.compare(case.config, case.program, max_instructions=case.max_instructions)
        paper[case.name] = w.paper_record((case.name, row.macro_energy, row.reference_energy, row.cycles))

    jobs = w.bundled_jobs()
    if len({job[0] for job in jobs}) != len(jobs):
        raise SystemExit("bundled case names are not unique")
    estimate = {
        w.estimate_key(jobs, (job, point)): w.estimate_one(model, jobs, (job, point))
        for job in range(len(jobs))
        for point in range(len(w.POINTS))
    }
    space = w.explore_space()
    explore = {str(seed): w.explore_one(model, space, seed)[0] for seed in range(w.EXPLORE_SEEDS)}
    with open(w.GOLDEN, "w", encoding="utf-8") as handle:
        json.dump({"paper": paper, "estimate": estimate, "explore": explore}, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
