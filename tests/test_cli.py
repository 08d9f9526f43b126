import json
import subprocess
import sys

import numpy as np
import pytest

from zalmsim import SourceParams, pgen, spin_spin_dm
from zalmsim.cli import main
from zalmsim.sweep import SweepConfig, render_sweep, run_sweep


def run_cli(args: list[str]):
    return subprocess.run(
        [sys.executable, "-m", "zalmsim", *args],
        capture_output=True,
        text=True,
        timeout=600,
    )


class TestSweepConfig:
    def test_validation(self):
        fixed = SourceParams(mean_photon=0.1)
        with pytest.raises(ValueError):
            SweepConfig("mean_photon", 1.0, 0.5, 5, fixed)
        with pytest.raises(ValueError):
            SweepConfig("mean_photon", 0.1, 1.0, 1, fixed)
        with pytest.raises(ValueError):
            SweepConfig("not_a_param", 0.1, 1.0, 5, fixed)
        with pytest.raises(ValueError):
            SweepConfig("mean_photon", 0.1, 1.0, 5, fixed, metrics=("bogus",))

    def test_degenerate_two_step_sweep(self):
        config = SweepConfig("mean_photon", 0.01, 0.02, 2, SourceParams(mean_photon=0.1))
        rows = run_sweep(config)
        assert len(rows) == 2
        assert rows[0]["mean_photon"] == 0.01
        assert rows[1]["mean_photon"] == 0.02

    def test_rows_reproduce_library_calls(self):
        config = SweepConfig(
            "bsm_efficiency", 0.5, 1.0, 3, SourceParams(mean_photon=0.1), metrics=("pgen",)
        )
        rows = run_sweep(config)
        for row in rows:
            direct = pgen(SourceParams(mean_photon=0.1, eta_b=row["bsm_efficiency"])).value
            assert row["pgen"] == direct

    def test_error_column_marks_failures_and_continues(self):
        config = SweepConfig(
            "mean_photon", 0.0, 0.1, 3, SourceParams(mean_photon=0.1), metrics=("fidelity",)
        )
        rows = run_sweep(config)
        assert len(rows) == 3
        assert "fidelity:UndefinedFidelityError" in rows[0]["error"]
        assert rows[1]["error"] == ""

    def test_spin_dm_columns(self):
        config = SweepConfig(
            "mean_photon", 0.05, 0.1, 2, SourceParams(mean_photon=0.1), metrics=("spin_dm",)
        )
        rows = run_sweep(config)
        dm = spin_spin_dm(SourceParams(mean_photon=0.05))
        assert rows[0]["spin_dm_00_re"] == dm.entries[0, 0].real

    def test_render_deterministic(self):
        config = SweepConfig(
            "mean_photon", 0.01, 0.2, 4, SourceParams(mean_photon=0.1), metrics=("pgen", "trace")
        )
        text1 = render_sweep(config, run_sweep(config))
        text2 = render_sweep(config, run_sweep(config))
        assert text1 == text2
        header = text1.splitlines()[0]
        assert header == "mean_photon,pgen,trace,imag_residual,error"


class TestCliProcess:
    def test_sweep_csv_byte_identical_across_runs(self, tmp_path):
        args = [
            "sweep",
            "--param",
            "mean_photon",
            "--from",
            "0.01",
            "--to",
            "0.3",
            "--steps",
            "4",
            "--scale",
            "log",
            "--metrics",
            "pgen,fidelity",
        ]
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        r1 = run_cli(args + ["--output", str(out1)])
        r2 = run_cli(args + ["--output", str(out2)])
        assert r1.returncode == 0 and r2.returncode == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert b"\r" not in out1.read_bytes()

    def test_sweep_json_format(self):
        result = run_cli(
            [
                "sweep",
                "--param",
                "mean_photon",
                "--from",
                "0.05",
                "--to",
                "0.1",
                "--steps",
                "2",
                "--format",
                "json",
            ]
        )
        assert result.returncode == 0
        rows = json.loads(result.stdout)
        assert len(rows) == 2
        assert rows[0]["pgen"] == pgen(SourceParams(mean_photon=0.05)).value

    def test_metrics_subcommand_matches_library(self):
        result = run_cli(["metrics", "--mean-photon", "0.1"])
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert payload["pgen"] == pgen(SourceParams(mean_photon=0.1)).value

    def test_spin_dm_subcommand(self):
        result = run_cli(["spin-dm", "--mean-photon", "0.05"])
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        dm = spin_spin_dm(SourceParams(mean_photon=0.05))
        got = np.array([[complex(re, im) for re, im in row] for row in payload["spin_dm"]])
        assert np.array_equal(got, dm.entries)

    def test_in_process_entry_point(self, capsys):
        code = main(["metrics", "--mean-photon", "0.05", "--bsm-efficiency", "0.8"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pgen"] == pgen(SourceParams(mean_photon=0.05, eta_b=0.8)).value

    def test_validate_passes_and_reports(self, capsys):
        code = main(["validate"])
        out = capsys.readouterr().out
        assert code == 0
        assert "[FAIL]" not in out
        lines = [line for line in out.splitlines() if line.startswith("[PASS]")]
        assert len(lines) >= 15

    @pytest.mark.parametrize(
        "args, field",
        [
            (["metrics", "--herald-pattern", "1,2"], "herald_pattern"),
            (["spin-dm", "--herald-pattern", "5,5,0,0"], "herald_pattern"),
            (["metrics", "--mean-photon", "1e17"], "mean_photon"),
        ],
        ids=["metrics-short-pattern", "spin-dm-over-cap", "metrics-mean-photon-over-bound"],
    )
    def test_bad_parameter_is_one_line_error(self, args, field):
        result = run_cli(args)
        assert result.returncode == 2
        assert result.stdout == ""
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"zalmsim: error: {field}")

    @pytest.mark.parametrize(
        "pattern, message",
        [("9,9", "click pattern must be 8"), ("0,1,1,1,0,0,0,1", "--dark mixes dark counts")],
        ids=["invalid-pattern", "non-default-pattern"],
    )
    def test_dark_spin_dm_rejects_other_click_patterns(self, pattern, message):
        result = run_cli(["spin-dm", "--dark", "--click-pattern", pattern])
        assert result.returncode == 2
        assert result.stdout == ""
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"zalmsim: error: {message}")
