import json
import signal
import socket
import subprocess
import sys
import urllib.request

import numpy as np
import pytest

from zalmsim import (
    NumericalDomainError,
    SourceParams,
    SpinSpinDM,
    UndefinedFidelityError,
    cli,
    fidelity,
    metrics,
    pgen,
    pgen_with_dark,
    server,
    spin_spin_dm,
    spin_spin_dm_dark,
    sweep,
)
from zalmsim.cli import main
from zalmsim.errors import OutOfRangeError
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
        for steps in (2.5, True):
            with pytest.raises(ValueError, match=f"steps must be an integer >= 2, got {steps}$"):
                SweepConfig("mean_photon", 0.01, 0.1, steps, fixed)

    def test_metric_named_twice_is_refused(self):
        # each metric is one CSV column and one JSON key: a repeat would print two columns for one key
        with pytest.raises(ValueError, match="named once"):
            SweepConfig("mean_photon", 0.1, 1.0, 5, SourceParams(mean_photon=0.1), metrics=("pgen", "pgen"))
        result = run_cli(["sweep", "--param", "mean_photon", "--from", "0.1", "--to", "0.2", "--steps", "2", "--metrics", "pgen,pgen"])
        assert (result.returncode, result.stdout, len(result.stderr.splitlines())) == (2, "", 1)

    @pytest.mark.parametrize("param, start, stop, bad", [("bsm_efficiency", 0.5, 1.5, 1.5),
                                                         ("detection_efficiency", -0.5, 0.5, -0.5),
                                                         ("dark_click_prob", 0.0, 1.0, 1.0)])
    def test_bad_grid_end_is_refused_under_the_swept_name(self, param, start, stop, bad):
        # the ends are checked once, at construction, by SourceParams' own rule
        with pytest.raises(OutOfRangeError) as info:
            SweepConfig(param, start, stop, 3, SourceParams(mean_photon=0.1))
        assert info.value.field == param
        assert str(info.value).startswith(f"{param} must lie in [0, 1") and str(info.value).endswith(f"got {bad}")

    def test_log_scale_start_is_checked_at_construction(self):
        with pytest.raises(ValueError, match="log scale requires a positive start"):
            SweepConfig("mean_photon", 0.0, 1.0, 3, SourceParams(mean_photon=0.1), scale="log")

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
            direct = pgen(SourceParams(mean_photon=0.1, eta_b=row["bsm_efficiency"]))
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
        assert rows[0]["pgen"] == pgen(SourceParams(mean_photon=0.05))

    def test_metrics_subcommand_matches_library(self):
        result = run_cli(["metrics", "--mean-photon", "0.1"])
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert payload["pgen"] == pgen(SourceParams(mean_photon=0.1))

    def test_spin_dm_subcommand(self):
        result = run_cli(["spin-dm", "--mean-photon", "0.05"])
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        dm = spin_spin_dm(SourceParams(mean_photon=0.05))
        got = np.array([[complex(re, im) for re, im in row] for row in payload["spin_dm"]])
        assert np.array_equal(got, dm.entries)

    def test_dark_spin_dm_mixes_any_click_pattern(self):
        click = (0, 1, 1, 1, 0, 0, 0, 1)
        result = run_cli(
            ["spin-dm", "--dark-click-prob", "1e-3", "--click-pattern", ",".join(map(str, click))]
        )
        assert result.returncode == 0, result.stderr
        payload = json.loads(result.stdout)
        dm = spin_spin_dm_dark(SourceParams(mean_photon=0.1, dark_click_prob=1e-3), click)
        got = np.array([[complex(re, im) for re, im in row] for row in payload["spin_dm"]])
        assert payload["click_pattern"] == list(click)
        assert np.array_equal(got, dm.entries)

    def test_in_process_entry_point(self, capsys):
        code = main(["metrics", "--mean-photon", "0.05", "--bsm-efficiency", "0.8"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pgen"] == pgen(SourceParams(mean_photon=0.05, eta_b=0.8))

    def test_metrics_mixes_dark_counts_into_pgen(self, capsys):
        assert main(["metrics", "--dark-click-prob", "1e-3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        params = SourceParams(mean_photon=0.1, dark_click_prob=1e-3)
        assert payload["pgen"] == pgen_with_dark(params) != pgen(params)

    def test_validate_passes_and_reports(self, capsys):
        code = main(["validate"])
        out = capsys.readouterr().out
        assert code == 0
        assert "[FAIL]" not in out
        assert "[info]" not in out
        lines = [line for line in out.splitlines() if line.startswith("[PASS]")]
        assert len(lines) >= 15

    @pytest.mark.parametrize(
        "args, field",
        [
            (["metrics", "--herald-pattern", "1,2"], "herald_pattern"),
            (["spin-dm", "--click-pattern", "1,0,5,5,0,0,1,0"], "heralding clicks exceed the cap of 8"),
            (["metrics", "--mean-photon", "1e78"], "mean_photon"),
            (["metrics", "--bsm-efficiency", "1.5"], "bsm_efficiency must lie in [0, 1], got 1.5"),
            (["spin-dm", "--outcoupling-efficiency", "-0.5"], "outcoupling_efficiency must lie in [0, 1], got -0.5"),
            (["sweep", "--param", "bsm_efficiency", "--from", "0.5", "--to", "1.5", "--steps", "3"],
             "bsm_efficiency must lie in [0, 1], got 1.5"),
            (["metrics", "--detection-efficiency", "1.5"], "detection_efficiency must lie in [0, 1], got 1.5"),
            (["sweep", "--param", "detection_efficiency", "--from", "-0.5", "--to", "0.5", "--steps", "3"],
             "detection_efficiency must lie in [0, 1], got -0.5"),
        ],
        ids=["metrics-short-pattern", "spin-dm-over-cap", "metrics-mean-photon-over-bound", "metrics-bsm-efficiency",
             "spin-dm-outcoupling-efficiency", "sweep-bsm-efficiency-end", "metrics-detection-efficiency",
             "sweep-detection-efficiency-start"],
    )
    def test_bad_parameter_is_one_line_error(self, args, field):
        result = run_cli(args)
        assert result.returncode == 2
        assert result.stdout == ""
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"zalmsim: error: {field}")

    def test_spin_dm_has_no_herald_pattern_flag(self, capsys):
        # its heralds are modes 3-6 of --click-pattern
        with pytest.raises(SystemExit) as info:
            main(["spin-dm", "--herald-pattern", "0,0,1,1"])
        assert info.value.code == 2
        assert "unrecognized arguments: --herald-pattern" in capsys.readouterr().err

    @pytest.mark.parametrize("pattern, message", [("9,9", "click pattern must be 8")], ids=["invalid-pattern"])
    def test_dark_spin_dm_rejects_other_click_patterns(self, pattern, message):
        result = run_cli(["spin-dm", "--click-pattern", pattern])
        assert result.returncode == 2
        assert result.stdout == ""
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"zalmsim: error: {message}")


class TestFlagText:
    """A flag's text is read as the service reads a query value: as JSON, a count list as a JSON array's items."""

    @pytest.mark.parametrize(
        "command, flag, text",
        [
            ("metrics", "--herald-pattern", "0_1,1,0,0"),
            ("metrics", "--mean-photon", "1_0e-1"),
            ("spin-dm", "--mean-photon", "nan"),
            ("spin-dm", "--mean-photon", ".5"),
            ("spin-dm", "--click-pattern", "+1,0,1,1,0,0,1,0"),
            ("sweep", "--bsm-efficiency", "+1"),
        ],
    )
    def test_text_that_is_not_json_is_one_line_error(self, command, flag, text, capsys):
        args = [command, flag, text]
        if command == "sweep":
            args += ["--param", "mean_photon", "--from", "0.1", "--to", "0.2", "--steps", "2"]
        assert main(args) == 2
        out, err = capsys.readouterr()
        field = flag[2:].replace("-", "_")
        assert out == "" and err == f"zalmsim: error: {field} must be a {'list of integers' if 'pattern' in flag else 'number'}\n"

    @pytest.mark.parametrize(
        "args, message",
        [
            (["sweep", "--from", "0_1", "--to", "2", "--steps", "2"], "--from must be a number, got '0_1'"),
            (["sweep", "--from", "0.1", "--to", "true", "--steps", "2"], "--to must be a number, got 'true'"),
            (["sweep", "--from", "1" + "0" * 400, "--to", "2", "--steps", "2"], "--from must be a number, got '1" + "0" * 400 + "'"),
            (["sweep", "--from", "0.1", "--to", "2", "--steps", "2.0"], "--steps must be an integer, got '2.0'"),
            (["serve", "--port", "8791.0"], "--port must be an integer, got '8791.0'"),
            (["serve", "--port", "false"], "--port must be an integer, got 'false'"),
            (["serve", "--port", "70000"], "--port must lie in [0, 65535], got 70000"),
            (["metrics", "--herald-pattern", "true,true,false,false"], "herald_pattern must be a list of integers"),
        ],
        ids=["underscore-from", "boolean-to", "from-too-large-for-a-float", "fractional-steps", "fractional-port",
             "boolean-port", "port-out-of-range", "boolean-counts"],
    )
    def test_flag_outside_the_json_rule_is_one_line_error(self, args, message, capsys):
        if args[0] == "sweep":
            args = [*args, "--param", "mean_photon"]
        assert main(args) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"zalmsim: error: {message}\n"

    def test_serve_on_a_busy_port_is_one_line_error(self):
        # a subprocess, so that a bind that wrongly succeeds ends at the timeout instead of serving forever
        with socket.socket() as busy:
            busy.bind(("127.0.0.1", 0))
            busy.listen()
            port = busy.getsockname()[1]
            result = subprocess.run(
                [sys.executable, "-m", "zalmsim", "serve", "--port", str(port)], capture_output=True, text=True, timeout=60
            )
        assert result.returncode == 2 and result.stdout == ""
        assert result.stderr.startswith(f"zalmsim: error: cannot serve on 127.0.0.1:{port}: ")
        assert result.stderr.count("\n") == 1

    def test_integer_too_large_for_a_float_is_one_line_error(self, capsys):
        assert main(["metrics", "--mean-photon", "1" + "0" * 400]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "zalmsim: error: mean_photon is too large for a float\n"

    def test_sweep_takes_its_fixed_params_from_the_request_parser(self):
        result = run_cli(["sweep", "--param", "mean_photon", "--from", "0.1", "--to", "0.2", "--steps", "2",
                          "--herald-pattern", "0,0,1,1", "--bsm-efficiency", "1", "--format", "json"])
        assert result.returncode == 0, result.stderr
        rows = json.loads(result.stdout)
        assert rows[1]["pgen"] == pgen(SourceParams(mean_photon=0.2, herald_pattern=(0, 0, 1, 1)))


class TestServeStops:
    """`zalmsim serve` ends promptly on a signal, with the handler threads it keeps between connections still idle."""

    @staticmethod
    def _serve_and_stop(sig: int) -> tuple[subprocess.Popen, str, str]:
        """Serve a few requests in a subprocess, send it sig; (the process after it ended, the serving line, the rest of stderr)."""
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        # A child keeps a signal its parent ignores, as a shell without job control ignores SIGINT for its
        # background jobs; with a handler of this process in place the child starts with Python's own.
        previous = signal.signal(signal.SIGINT, signal.default_int_handler)
        try:
            proc = subprocess.Popen([sys.executable, "-m", "zalmsim", "serve", "--port", str(port)],
                                    stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        finally:
            signal.signal(signal.SIGINT, previous)
        try:
            serving = proc.stderr.readline()  # the server listens before it prints this line
            body = json.dumps({"mean_photon": 0.1}).encode()
            for _ in range(3):
                for request in (f"http://127.0.0.1:{port}/v1/health",
                                urllib.request.Request(f"http://127.0.0.1:{port}/v1/metrics", data=body, method="POST")):
                    with urllib.request.urlopen(request, timeout=60) as reply:
                        assert reply.status == 200
            proc.send_signal(sig)
            proc.wait(timeout=5)
            return proc, serving, proc.stderr.read()
        finally:
            proc.kill()
            proc.wait()
            proc.stderr.close()

    def test_sigterm_ends_the_process(self):
        proc, serving, _ = self._serve_and_stop(signal.SIGTERM)
        assert serving.startswith("serving on ") and proc.returncode == -signal.SIGTERM

    def test_ctrl_c_closes_the_server_and_exits_130_quietly(self):
        proc, serving, rest = self._serve_and_stop(signal.SIGINT)
        assert serving.startswith("serving on ")
        assert (proc.returncode, rest) == (130, "")


class TestStrictJson:
    def test_sweep_json_writes_null_for_a_failed_metric(self, capsys):
        def reject(name):
            raise ValueError(f"{name} is not JSON")

        code = main(["sweep", "--param", "mean_photon", "--from", "0", "--to", "0.1", "--steps", "2",
                     "--metrics", "pgen,fidelity", "--format", "json"])
        assert code == 0
        rows = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert rows[0]["fidelity"] is None
        assert "fidelity:UndefinedFidelityError" in rows[0]["error"]
        assert rows[1]["fidelity"] == 0.5 and rows[1]["error"] == ""

    def test_sweep_json_writes_null_for_a_failed_spin_matrix(self, monkeypatch):
        def undefined(params):
            raise UndefinedFidelityError("spin-spin matrix has nonpositive trace")

        monkeypatch.setattr(sweep, "spin_spin_dm", undefined)
        config = SweepConfig(
            "mean_photon", 0.05, 0.1, 2, SourceParams(mean_photon=0.1), metrics=("spin_dm",), output_format="json"
        )
        rows = json.loads(render_sweep(config, run_sweep(config)))
        assert rows[0]["spin_dm_00_re"] is None
        assert rows[0]["error"] == "spin_dm:UndefinedFidelityError"

    @pytest.mark.parametrize(
        "args, module, name, nan_result",
        [
            (["metrics"], cli, "compute_metrics_response", lambda data: {"pgen": float("nan")}),
            (["spin-dm"], server, "spin_spin_dm_dark", lambda params, click: SpinSpinDM(np.full((4, 4), np.nan))),
        ],
        ids=["metrics", "spin-dm"],
    )
    @pytest.mark.parametrize("failure", ["nan-in-reply", "undefined-fidelity"])
    def test_numerical_failure_is_one_line_error(self, args, module, name, nan_result, failure, monkeypatch, capsys):
        def undefined(*_):
            raise UndefinedFidelityError("heralding probability vanished")

        monkeypatch.setattr(module, name, nan_result if failure == "nan-in-reply" else undefined)
        assert main(args) == 2
        out, err = capsys.readouterr()
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("zalmsim: error: ")

    @pytest.mark.parametrize("element, value", [(1.0, 2.0), (float("nan"), float("nan"))], ids=["above-one", "nan"])
    def test_out_of_range_fidelity_is_a_numerical_domain_error(self, element, value, monkeypatch, capsys):
        # Every element equal makes the fidelity 0.5 * 4 element / element: 2.0, or NaN from a NaN element.
        monkeypatch.setattr(metrics, "_element", lambda *_: element)
        server._metrics_values.cache_clear()  # else an earlier reply's values would answer the request
        params = SourceParams(mean_photon=0.0123)
        with pytest.raises(NumericalDomainError, match=f"fidelity {value!r} lies outside"):
            fidelity(params)
        row = run_sweep(SweepConfig("mean_photon", 0.0123, 0.0124, 2, params, metrics=("fidelity",)))[0]
        assert np.isnan(row["fidelity"]) and row["error"] == "fidelity:NumericalDomainError"
        assert main(["metrics", "--mean-photon", "0.0123"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1 and err.startswith("zalmsim: error: fidelity ")


def _two_detector_dark(params):
    # weights pd^k (1 - pd)^(2 - k): the silent herald detectors' (1 - pd)^2 left out
    return pgen_with_dark(params) / (1 - params.dark_click_prob) ** 2


class TestValidateChecksCanFail:
    @pytest.mark.parametrize(
        "name, fake, check",
        [
            ("pgen_with_dark", _two_detector_dark, "pgen_with_dark vs oracle_pgen_dark"),
            ("fidelity", lambda params, *target: 1.5, "fidelity in [0, 1]"),
            ("spin_spin_dm", lambda params, *click: SpinSpinDM(-np.eye(4)), "spin_dm PSD"),
            ("pgen", lambda params: pgen(params) * (1 + 1e-9), "pgen closed form"),
            ("fidelity", lambda params, *target: fidelity(params) + 1e-9, "lossless fidelity 1/2"),
        ],
        ids=["dark-model", "fidelity-range", "spin-psd", "pgen-closed-form", "lossless-fidelity"],
    )
    def test_a_broken_engine_fails_validate(self, name, fake, check, monkeypatch, capsys):
        monkeypatch.setattr(cli, name, fake)
        assert main(["validate"]) == 2
        assert f"[FAIL] {check}" in capsys.readouterr().out
