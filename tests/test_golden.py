"""Byte-exact regression against committed sweep outputs.

Pins the numeric pipeline end to end (chain moments -> exponent matrix ->
hafnians -> CSV formatting).  The files were produced by the `sweep` subcommand
on the reference build; regenerate them deliberately when the engine's numerics
change:

    zalmsim sweep --param mean_photon --from 0.01 --to 2.0 --steps 8 \
        --scale log --metrics pgen,fidelity,trace \
        --bsm-efficiency 0.8 --outcoupling-efficiency 0.9 \
        --output tests/data/v1/golden_sweep.csv
    zalmsim sweep --param mean_photon --from 1e-4 --to 20 --steps 200 \
        --scale log --metrics pgen,pgen_dark,fidelity,trace --dark-click-prob 1e-3 \
        --bsm-efficiency 0.8 --outcoupling-efficiency 0.9 \
        --output tests/data/v1/golden_sweep_dark.csv

The second is the benchmark's sweep (its metric set, the README grid) with
dark counts, so it pins the dark-count mixture too.
"""

from pathlib import Path

from zalmsim.sources import SourceParams
from zalmsim.sweep import SweepConfig, render_sweep, run_sweep

DATA = Path(__file__).parent / "data" / "v1"


def test_sweep_matches_golden_file():
    config = SweepConfig(
        swept_parameter="mean_photon",
        start=0.01,
        stop=2.0,
        steps=8,
        scale="log",
        fixed=SourceParams(mean_photon=0.1, eta_b=0.8, eta_t=0.9),
        metrics=("pgen", "fidelity", "trace"),
        output_format="csv",
    )
    assert render_sweep(config, run_sweep(config)) == (DATA / "golden_sweep.csv").read_text()


def test_dark_count_sweep_matches_golden_file():
    config = SweepConfig(
        swept_parameter="mean_photon",
        start=1e-4,
        stop=20.0,
        steps=200,
        scale="log",
        fixed=SourceParams(mean_photon=0.1, eta_b=0.8, eta_t=0.9, dark_click_prob=1e-3),
        metrics=("pgen", "pgen_dark", "fidelity", "trace"),
        output_format="csv",
    )
    assert render_sweep(config, run_sweep(config)) == (DATA / "golden_sweep_dark.csv").read_text()
