"""CLI tests (direct main() invocation; one subprocess for a closed stdout)."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.core import EnergyMacroModel, default_template

DEMO = """
    .data
out: .word 0
    .text
main:
    movi a2, 12
    movi a3, 0
loop:
    add a3, a3, a2
    addi a2, a2, -1
    bnez a2, loop
    la a4, out
    s32i a3, a4, 0
    halt
"""

CUSTOM_DEMO = """
main:
    movi a2, 9
    movi a3, 4
    mul16 a4, a2, a3
    halt
"""


@pytest.fixture()
def demo_file(tmp_path):
    path = tmp_path / "demo.s"
    path.write_text(DEMO)
    return str(path)


@pytest.fixture()
def custom_file(tmp_path):
    path = tmp_path / "custom.s"
    path.write_text(CUSTOM_DEMO)
    return str(path)


@pytest.fixture()
def model_file(tmp_path):
    template = default_template()
    model = EnergyMacroModel(template, np.linspace(50, 5000, len(template)))
    path = tmp_path / "model.json"
    model.save(str(path))
    return str(path)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    @pytest.mark.parametrize("command", ["explore", "serve"])
    def test_result_cache_flag_is_gone(self, command, capsys):
        # a script still passing --cache must fail loudly, not run uncached
        with pytest.raises(SystemExit) as excinfo:
            main([command, "model.json", "--cache", "d"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --cache d" in capsys.readouterr().err


class TestSimulate:
    def test_basic(self, demo_file, capsys):
        assert main(["simulate", demo_file, "--dump-word", "out"]) == 0
        out = capsys.readouterr().out
        assert "instructions: " in out
        assert "out = 78" in out  # 12+11+...+1

    def test_trace(self, demo_file, capsys):
        assert main(["simulate", demo_file, "--trace", "--trace-limit", "3"]) == 0
        out = capsys.readouterr().out
        assert "TraceRecord" in out
        assert "more records" in out

    def test_with_extension(self, custom_file, capsys):
        assert main(["simulate", custom_file, "--extensions", "mul16"]) == 0
        assert "instructions: 4" in capsys.readouterr().out

    def test_unknown_extension(self, custom_file, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", custom_file, "--extensions", "warpdrive"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: unknown extension 'warpdrive'; available: ")


class TestDisasm:
    def test_output_reassembles(self, demo_file, capsys):
        assert main(["disasm", demo_file]) == 0
        text = capsys.readouterr().out
        from repro.asm import assemble

        rebuilt = assemble(text, "rebuilt")
        assert len(rebuilt) == 9  # `la` expanded to movhi+ori in the original


class TestListExtensions:
    def test_lists_library(self, capsys):
        assert main(["list-extensions"]) == 0
        out = capsys.readouterr().out
        assert "mac16" in out
        assert "gfmul" in out


class TestEstimateAndProfile:
    def test_estimate(self, model_file, demo_file, capsys):
        assert main(["estimate", model_file, demo_file, "--variables"]) == 0
        out = capsys.readouterr().out
        assert "macro-model estimate" in out
        assert "N_a" in out

    def test_estimate_multiple_programs_tabulates(
        self, model_file, demo_file, tmp_path, capsys
    ):
        second = tmp_path / "second.s"
        second.write_text(DEMO.replace("movi a2, 12", "movi a2, 24"))
        assert main(["estimate", model_file, demo_file, str(second)]) == 0
        out = capsys.readouterr().out
        assert "macro-model estimate" not in out  # table replaces the summary
        assert "program" in out and "EDP" in out
        assert "demo" in out and "second" in out

    def test_estimate_multiple_programs_with_variables(
        self, model_file, demo_file, tmp_path, capsys
    ):
        second = tmp_path / "second.s"
        second.write_text(DEMO)
        assert main(
            ["estimate", model_file, demo_file, str(second), "--variables"]
        ) == 0
        out = capsys.readouterr().out
        # one labelled variable block per program
        assert "\ndemo:" in out and "\nsecond:" in out
        assert out.count("N_a") >= 2

    def test_estimate_multiple_identical_programs_agree(
        self, model_file, demo_file, tmp_path, capsys
    ):
        clone = tmp_path / "clone.s"
        clone.write_text(DEMO)
        assert main(["estimate", model_file, demo_file, str(clone)]) == 0
        rows = [
            line.split()
            for line in capsys.readouterr().out.splitlines()
            if line.startswith(("demo", "clone"))
        ]
        assert len(rows) == 2
        assert rows[0][1:] == rows[1][1:]  # same energy/cycles/EDP

    def test_reference(self, demo_file, capsys):
        assert main(["reference", demo_file]) == 0
        assert "RTL energy estimate" in capsys.readouterr().out

    def test_profile(self, model_file, demo_file, capsys):
        assert main(["profile", model_file, demo_file, "--top", "2"]) == 0
        out = capsys.readouterr().out
        assert "energy profile" in out
        assert "total" in out

    def test_profile_observers(self, model_file, demo_file, capsys):
        assert (
            main(
                [
                    "profile",
                    model_file,
                    demo_file,
                    "--timeline",
                    "10",
                    "--hot",
                    "--cache-events",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "energy timeline" in out
        assert "hot spots" in out
        assert "cache events" in out

    def test_profile_json(self, model_file, demo_file, capsys):
        import json

        assert (
            main(
                [
                    "profile",
                    model_file,
                    demo_file,
                    "--timeline",
                    "10",
                    "--hot",
                    "--cache-events",
                    "--format",
                    "json",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"regions", "timeline", "hot_spots", "cache_events"}
        # linearity: the timeline intervals partition the run exactly
        assert payload["timeline"]["total_energy"] == pytest.approx(
            payload["regions"]["total_energy"]
        )
        assert payload["hot_spots"]["blocks"]
        assert all(
            iv["instructions"] <= 10 for iv in payload["timeline"]["intervals"][:-1]
        )

    def test_profile_rejects_bad_timeline(self, model_file, demo_file):
        with pytest.raises(SystemExit) as excinfo:
            main(["profile", model_file, demo_file, "--timeline", "0"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("top", ["0", "-1"])
    def test_profile_rejects_non_positive_top(self, model_file, demo_file, capsys, top):
        with pytest.raises(SystemExit) as excinfo:
            main(["profile", model_file, demo_file, "--top", top])
        assert excinfo.value.code == 2
        assert "repro: error: --top must be >= 1" in capsys.readouterr().err


class TestInputErrorHygiene:
    def test_missing_program_file_is_clean_exit(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "/nonexistent/program.s"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "repro: error:" in err
        assert "/nonexistent/program.s" in err
        assert "Traceback" not in err

    def test_missing_xpf_file_is_clean_exit(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "/nonexistent/image.xpf"])
        assert excinfo.value.code == 2
        assert "cannot read program file" in capsys.readouterr().err

    def test_malformed_xpf_is_clean_exit(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.xpf"
        bogus.write_bytes(b"this is not an XPF image at all")
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", str(bogus)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "malformed XPF image" in err
        assert "bad magic" in err

    def test_truncated_xpf_is_clean_exit(self, tmp_path, demo_file, capsys):
        image = tmp_path / "demo.xpf"
        assert main(["assemble", demo_file, "-o", str(image)]) == 0
        data = image.read_bytes()
        image.write_bytes(data[: len(data) // 2])
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", str(image)])
        assert excinfo.value.code == 2
        assert "truncated image" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "command, rest",
        [
            ("estimate", ["PROGRAM"]),
            ("profile", ["PROGRAM"]),
            ("explore", ["--space", "fir"]),
            ("discover", ["--workload", "fir"]),
            ("serve", []),
        ],
    )
    @pytest.mark.parametrize("bad", ["missing", "malformed"])
    def test_unloadable_model_is_clean_exit(
        self, tmp_path, demo_file, capsys, command, rest, bad
    ):
        model = tmp_path / "model.json"
        if bad == "malformed":
            model.write_text("{not json")
        argv = [command, str(model)] + [demo_file if a == "PROGRAM" else a for a in rest]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"repro: error: cannot load model {str(model)!r}")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["simulate", "estimate", "profile"])
    @pytest.mark.parametrize(
        "source, message",
        [
            ("main:\n    frobnicate a2\n    halt\n", "unknown instruction"),
            ('    .data\nx: .ascii "\\"\n    .text\nmain: halt\n', "bad escape"),
            ('    .data\nx: .asciiz "\\x4"\n    .text\nmain: halt\n', "bad escape"),
        ],
        ids=["bad-mnemonic", "lone-backslash", "truncated-hex-escape"],
    )
    def test_unassemblable_source_is_clean_exit(
        self, tmp_path, model_file, capsys, command, source, message
    ):
        bad = tmp_path / "bad.s"
        bad.write_text(source)
        argv = [command, str(bad)] if command == "simulate" else [
            command, model_file, str(bad)
        ]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error:")
        assert str(bad) in err
        assert message in err
        assert "Traceback" not in err


def _exit_code(argv):
    """``main``'s exit status, whether returned or raised."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestRunTimeErrors:
    """A program that assembles but fails while running is bad input."""

    @pytest.mark.parametrize("command", ["simulate", "estimate", "reference", "profile"])
    def test_budget_exhaustion_exits_2(self, command, model_file, demo_file, capsys):
        model = [model_file] if command in ("estimate", "profile") else []
        argv = [command, *model, demo_file, "--max-instructions", "5"]
        assert _exit_code(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error:")
        assert "exceeded 5 instructions" in err
        assert "Traceback" not in err

    def test_invalid_pc_exits_2(self, tmp_path, capsys):
        path = tmp_path / "falloff.s"
        path.write_text("main:\n    nop\n")  # runs off the end of the text
        assert _exit_code(["simulate", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error:")
        assert "not a valid instruction address" in err

    @pytest.mark.parametrize("budget", ["0", "-1"])
    @pytest.mark.parametrize(
        "command",
        ["simulate", "assemble", "disasm", "estimate", "reference", "profile",
         "explore", "discover"],
    )
    def test_non_positive_budget_exits_2(
        self, command, budget, model_file, demo_file, tmp_path, capsys
    ):
        argv = {
            "simulate": ["simulate", demo_file],
            "assemble": ["assemble", demo_file, "-o", str(tmp_path / "out.xpf")],
            "disasm": ["disasm", demo_file],
            "estimate": ["estimate", model_file, demo_file],
            "reference": ["reference", demo_file],
            "profile": ["profile", model_file, demo_file],
            "explore": ["explore", model_file, "--space", "fir"],
            "discover": ["discover", model_file, "--workload", "fir"],
        }[command]
        assert _exit_code([*argv, "--max-instructions", budget]) == 2
        assert "repro: error: --max-instructions must be >= 1" in capsys.readouterr().err

    def test_negative_trace_limit_exits_2(self, demo_file, capsys):
        argv = ["simulate", demo_file, "--trace", "--trace-limit", "-3"]
        assert _exit_code(argv) == 2
        captured = capsys.readouterr()
        assert "repro: error: --trace-limit must be >= 0" in captured.err
        assert captured.out == ""

    def test_zero_trace_limit_prints_only_the_count(self, demo_file, capsys):
        assert main(["simulate", demo_file, "--trace", "--trace-limit", "0"]) == 0
        out = capsys.readouterr().out
        assert "TraceRecord" not in out
        assert "more records)" in out


def test_closed_stdout_exits_without_traceback():
    # The read end closes before the child starts, so every write fails.
    src = Path(__file__).resolve().parents[1] / "src"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "list-extensions"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "BrokenPipeError" not in proc.stderr


class TestCharacterizeFlagValidation:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--core-only", "--max-failures", "-5"], "--max-failures must be >= 0"),
        ],
    )
    def test_invalid_numeric_flags(self, argv, message, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["characterize", *argv])
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err

    def test_corrupt_samples_file_is_clean_exit(self, tmp_path, capsys):
        bad = tmp_path / "samples.json"
        bad.write_text("{ truncated")
        with pytest.raises(SystemExit) as excinfo:
            main(["characterize", "--from-samples", str(bad), "-o", str(tmp_path / "m.json")])
        assert excinfo.value.code == 2
        assert "cannot load samples" in capsys.readouterr().err


class TestOperatingPointFlags:
    def test_estimate_json_carries_model_metadata(self, model_file, demo_file, capsys):
        import json

        assert (
            main(
                [
                    "estimate", model_file, demo_file,
                    "--format", "json",
                    "--operating-point", "65nm@1.1V@800MHz",
                    "--variables",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["format"] == "repro-estimates/1"
        assert payload["operating_point"] == "65nm@1.1V@800MHz"
        assert len(payload["model_digest"]) == 64
        (entry,) = payload["estimates"]
        assert entry["seconds"] == pytest.approx(entry["cycles"] / 800e6)
        assert entry["edp_seconds"] == pytest.approx(
            entry["energy"] * entry["seconds"]
        )
        assert entry["variables"]

    def test_estimate_json_without_point_omits_time(self, model_file, demo_file, capsys):
        import json

        assert main(["estimate", model_file, demo_file, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["operating_point"] is None
        (entry,) = payload["estimates"]
        assert "seconds" not in entry

    def test_estimate_point_scales_energy(self, model_file, demo_file, capsys):
        import json

        from repro.tech import default_calibration

        energies = {}
        for point in (None, "90nm@1.2V@600MHz"):
            argv = ["estimate", model_file, demo_file, "--format", "json"]
            if point:
                argv += ["--operating-point", point]
            assert main(argv) == 0
            payload = json.loads(capsys.readouterr().out)
            energies[point] = payload["estimates"][0]["energy"]
        scale = default_calibration().energy_scale("90nm@1.2V@600MHz")
        assert energies["90nm@1.2V@600MHz"] == pytest.approx(
            energies[None] * scale
        )

    def test_estimate_summary_mentions_point(self, model_file, demo_file, capsys):
        assert (
            main(
                ["estimate", model_file, demo_file,
                 "--operating-point", "65nm@1.1V@800MHz"]
            )
            == 0
        )
        assert "65nm@1.1V@800MHz" in capsys.readouterr().out

    def test_bad_point_is_clean_exit(self, model_file, demo_file, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["estimate", model_file, demo_file,
                 "--operating-point", "65nm@9V@800MHz"]
            )
        assert excinfo.value.code == 2
        assert "bad --operating-point" in capsys.readouterr().err

    def test_characterize_rejects_bad_point(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["characterize", "--operating-point", "nope",
                 "-o", str(tmp_path / "m.json")]
            )
        assert excinfo.value.code == 2
        assert "bad --operating-point" in capsys.readouterr().err

    def test_profile_at_point(self, model_file, demo_file, capsys):
        assert (
            main(
                ["profile", model_file, demo_file,
                 "--operating-point", "65nm@1.1V@800MHz"]
            )
            == 0
        )
        assert "energy" in capsys.readouterr().out
