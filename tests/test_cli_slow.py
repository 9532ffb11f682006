"""CLI flow tests that exercise the characterization-backed commands."""

import pytest

from repro.cli import main

KERNEL = """
    .data
out: .word 0
    .text
main:
    movi a2, 30
    movi a3, 0
loop:
    mul16 a4, a2, a2
    add a3, a3, a4
    addi a2, a2, -1
    bnez a2, loop
    la a5, out
    s32i a3, a5, 0
    halt
"""


@pytest.fixture()
def kernel_file(tmp_path):
    path = tmp_path / "kernel.s"
    path.write_text(KERNEL)
    return str(path)


@pytest.mark.slow
class TestCharacterizeCommand:
    def test_core_only_characterization(self, tmp_path, capsys):
        output = str(tmp_path / "model.json")
        assert main(["characterize", "-o", output, "--core-only"]) == 0
        out = capsys.readouterr().out
        assert "Energy coefficients" in out
        assert (tmp_path / "model.json").exists()

        # the produced model estimates programs end to end
        kernel = tmp_path / "k.s"
        kernel.write_text(KERNEL)
        assert main(["estimate", output, str(kernel), "--extensions", "mul16"]) == 0
        estimate_out = capsys.readouterr().out
        assert "macro-model estimate" in estimate_out


@pytest.mark.slow
class TestExperimentsCommand:
    def test_single_experiment(self, capsys, monkeypatch, experiment_context):
        import repro.analysis.experiments as experiments

        monkeypatch.setattr(experiments, "_CACHED_CONTEXT", experiment_context)
        assert main(["experiments", "fig4"]) == 0
        out = capsys.readouterr().out
        assert "Spearman" in out

    def test_all_experiments(self, capsys, monkeypatch, experiment_context):
        import repro.analysis.experiments as experiments

        monkeypatch.setattr(experiments, "_CACHED_CONTEXT", experiment_context)
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        for marker in ("table1", "fig3", "table2", "fig4", "speedup"):
            assert f"=== {marker} ===" in out


class TestAssembleCommand:
    def test_xpf_pipeline(self, kernel_file, tmp_path, capsys):
        xpf = str(tmp_path / "kernel.xpf")
        assert main(["assemble", kernel_file, "-o", xpf, "--extensions", "mul16"]) == 0
        assert "wrote" in capsys.readouterr().out
        assert main(["simulate", xpf, "--extensions", "mul16", "--dump-word", "out"]) == 0
        out = capsys.readouterr().out
        assert "out = " in out

    def test_xpf_needs_matching_extensions(self, kernel_file, tmp_path, capsys):
        xpf = str(tmp_path / "kernel.xpf")
        main(["assemble", kernel_file, "-o", xpf, "--extensions", "mul16"])
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", xpf])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "malformed XPF image" in err
        assert "unknown to ISA" in err


@pytest.mark.slow
class TestMarkdownReport:
    def test_report_generated(self, tmp_path, monkeypatch, experiment_context, capsys):
        import repro.analysis.experiments as experiments

        monkeypatch.setattr(experiments, "_CACHED_CONTEXT", experiment_context)
        output = str(tmp_path / "report.md")
        assert main(["experiments", "--output", output]) == 0
        text = (tmp_path / "report.md").read_text()
        assert text.startswith("# Energy Estimation for Extensible Processors")
        for section in ("Table I", "Fig. 3", "Table II", "Fig. 4", "Suite quality", "Suite-size"):
            assert section in text
