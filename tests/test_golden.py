"""Byte-exact regression against a committed sweep output.

Pins the numeric pipeline end to end (chain moments -> exponent matrix ->
hafnians -> CSV formatting).  The file was produced by the `sweep` subcommand
on the reference build; regenerate it deliberately when the engine's numerics
change:

    zalmsim sweep --param mean_photon --from 0.01 --to 2.0 --steps 8 \
        --scale log --metrics pgen,fidelity,trace \
        --bsm-efficiency 0.8 --outcoupling-efficiency 0.9 \
        --output tests/data/v1/golden_sweep.csv
"""

from pathlib import Path

from zalmsim.sources import SourceParams
from zalmsim.sweep import SweepConfig, render_sweep, run_sweep

GOLDEN = Path(__file__).parent / "data" / "v1" / "golden_sweep.csv"


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
    assert render_sweep(config, run_sweep(config)) == GOLDEN.read_text()
