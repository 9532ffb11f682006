"""CLI ``explore`` command (direct main() invocation)."""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.core import EnergyMacroModel, default_template


@pytest.fixture()
def model_file(tmp_path):
    template = default_template()
    model = EnergyMacroModel(template, np.linspace(50, 5000, len(template)))
    path = tmp_path / "model.json"
    model.save(str(path))
    return str(path)


class TestListSpaces:
    def test_lists_bundled_spaces(self, capsys):
        assert main(["explore", "--list-spaces"]) == 0
        out = capsys.readouterr().out
        for name in ("reed_solomon", "fir", "reed_solomon_tuned", "fir_tuned"):
            assert f"space {name}:" in out


class TestExplore:
    def test_exhaustive_fir(self, model_file, capsys):
        assert main(["explore", model_file, "--space", "fir"]) == 0
        out = capsys.readouterr().out
        assert "scored 3/3 design points" in out
        assert "fir_packed" in out and "fir_sw" in out
        assert "pareto frontier" in out

    def test_json_format(self, model_file, capsys):
        assert main(["explore", model_file, "--space", "fir", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["space"] == "fir"
        assert len(payload["scores"]) == 3

    def test_csv_to_file(self, model_file, tmp_path, capsys):
        out_path = tmp_path / "ranking.csv"
        assert (
            main(
                [
                    "explore",
                    model_file,
                    "--space",
                    "fir",
                    "--format",
                    "csv",
                    "-o",
                    str(out_path),
                ]
            )
            == 0
        )
        lines = out_path.read_text().strip().splitlines()
        assert lines[0].startswith("rank,key,program")
        assert len(lines) == 4

    def test_warm_cache_hits_every_candidate(self, model_file, tmp_path, capsys):
        cache_dir = str(tmp_path / "dse-cache")
        argv = ["explore", model_file, "--space", "fir", "--cache", cache_dir]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "0 hit(s), 3 miss(es)" in cold
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "3 hit(s), 0 miss(es)" in warm

    def test_random_strategy_deterministic(self, model_file, capsys):
        argv = [
            "explore",
            model_file,
            "--space",
            "fir_tuned",
            "--strategy",
            "random",
            "--budget",
            "3",
            "--seed",
            "7",
            "--format",
            "json",
        ]
        outputs = []
        for _ in range(2):
            assert main(argv) == 0
            payload = json.loads(capsys.readouterr().out)
            outputs.append([row["key"] for row in payload["scores"]])
        assert outputs[0] == outputs[1]
        assert len(outputs[0]) == 3


class TestExploreErrors:
    def test_requires_model(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["explore"])
        assert excinfo.value.code == 2

    def test_unknown_space(self, model_file):
        with pytest.raises(SystemExit) as excinfo:
            main(["explore", model_file, "--space", "nope"])
        assert excinfo.value.code == 2

    def test_unreadable_model(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(SystemExit) as excinfo:
            main(["explore", str(bad), "--space", "fir"])
        assert excinfo.value.code == 2

    def test_random_requires_budget(self, model_file):
        with pytest.raises(SystemExit) as excinfo:
            main(["explore", model_file, "--space", "fir", "--strategy", "random"])
        assert excinfo.value.code == 2

    def test_negative_max_failures_rejected(self, model_file, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["explore", model_file, "--space", "fir", "--max-failures", "-5"])
        assert excinfo.value.code == 2
        assert "--max-failures must be >= 0" in capsys.readouterr().err


class TestExploreOperatingPoints:
    def test_scenario_matrix_sections(self, model_file, capsys):
        assert (
            main(
                [
                    "explore", model_file, "--space", "fir",
                    "--operating-point", "130nm@1.5V@400MHz",
                    "--operating-point", "65nm@1.1V@800MHz",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "=== operating point 130nm@1.5V@400MHz ===" in out
        assert "=== operating point 65nm@1.1V@800MHz ===" in out
        assert "time_us" in out

    def test_scenario_matrix_json(self, model_file, capsys):
        assert (
            main(
                [
                    "explore", model_file, "--space", "fir", "--format", "json",
                    "--operating-point", "130nm@1.5V@400MHz",
                    "--operating-point", "65nm@1.1V@800MHz",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["format"] == "repro-dse-scenario-matrix/1"
        points = payload["points"]
        assert [p["operating_point"] for p in points] == [
            "130nm@1.5V@400MHz", "65nm@1.1V@800MHz",
        ]
        # distinct frontiers: same candidates, different energies
        a, b = points
        energies_a = {s["key"]: s["energy"] for s in a["scores"]}
        energies_b = {s["key"]: s["energy"] for s in b["scores"]}
        assert set(energies_a) == set(energies_b)
        assert all(energies_a[k] != energies_b[k] for k in energies_a)
        # ...but bitwise-identical execution statistics
        cycles_a = {s["key"]: s["cycles"] for s in a["scores"]}
        cycles_b = {s["key"]: s["cycles"] for s in b["scores"]}
        assert cycles_a == cycles_b

    def test_matrix_shares_cache_with_disjoint_keys(self, model_file, tmp_path, capsys):
        cache_dir = str(tmp_path / "matrix-cache")
        argv = [
            "explore", model_file, "--space", "fir", "--cache", cache_dir,
            "--operating-point", "130nm@1.5V@400MHz",
            "--operating-point", "65nm@1.1V@800MHz",
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        # disjoint key sets: the second point misses instead of hitting
        assert "0 hit(s), 3 miss(es)" in cold
        assert "0 hit(s), 6 miss(es)" in cold
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "3 hit(s), 0 miss(es)" in warm
        assert "6 hit(s), 0 miss(es)" in warm

    def test_csv_rejects_matrix(self, model_file, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "explore", model_file, "--space", "fir", "--format", "csv",
                    "--operating-point", "130nm@1.5V@400MHz",
                    "--operating-point", "65nm@1.1V@800MHz",
                ]
            )
        assert excinfo.value.code == 2
        assert "single operating point" in capsys.readouterr().err

    def test_bad_point_dies_before_simulating(self, model_file, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["explore", model_file, "--space", "fir",
                 "--operating-point", "65nm@9V@800MHz"]
            )
        assert excinfo.value.code == 2
        assert "bad --operating-point" in capsys.readouterr().err

    def test_op_axis_folds_into_space(self, model_file, capsys):
        assert (
            main(
                [
                    "explore", model_file, "--space", "fir", "--format", "json",
                    "--op-axis", "90nm@1.2V@600MHz,65nm@1.1V@800MHz",
                    "--objective", "time",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["space"] == "fir@dvfs"
        assert len(payload["scores"]) == 6
        assert {s["operating_point"] for s in payload["scores"]} == {
            "90nm@1.2V@600MHz", "65nm@1.1V@800MHz",
        }

    def test_time_objective_without_clock_dies(self, model_file, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["explore", model_file, "--space", "fir", "--objective", "time"])
        assert excinfo.value.code == 2
        assert "needs a clock" in capsys.readouterr().err

    def test_carbon_overlay(self, model_file, capsys):
        assert (
            main(
                [
                    "explore", model_file, "--space", "fir",
                    "--operating-point", "65nm@1.1V@800MHz",
                    "--carbon", "1000",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "TCO($)" in out
        assert "1000 executions/s" in out

    def test_carbon_json(self, model_file, capsys):
        assert (
            main(
                [
                    "explore", model_file, "--space", "fir", "--format", "json",
                    "--operating-point", "65nm@1.1V@800MHz",
                    "--carbon", "1000",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["carbon"]) == 3
        assert all(row["annual_kwh"] > 0 for row in payload["carbon"])

    def test_carbon_rejects_non_positive_rate(self, model_file, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["explore", model_file, "--space", "fir", "--carbon", "0"]
            )
        assert excinfo.value.code == 2
