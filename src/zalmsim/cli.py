"""Command line interface: parameter sweeps, point metrics, spin density matrices,
and the oracle-equivalence validation report."""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .memory import (
    DEFAULT_CLICK_PATTERN,
    SIGMA_PATTERNS,
    spin_spin_dm,
    spin_spin_dm_dark,
    validate_click_pattern,
)
from .metrics import fidelity, pgen, pgen_with_dark, photonic_trace
from .moments import hafnian
from .oracle import (
    oracle_fidelity,
    oracle_pgen,
    oracle_pgen_dark,
    oracle_pgen_filtered,
    oracle_spin_spin,
)
from .server import ENGINE_VERSION, RequestError, _spin_dm_wire, compute_metrics_response, serve
from .sources import PARAM_FIELDS, SourceParams, params_from_external
from .sweep import SweepConfig, render_sweep, run_sweep


def _add_param_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--mean-photon", type=float, default=0.1)
    parser.add_argument("--bsm-efficiency", type=float, default=1.0)
    parser.add_argument("--outcoupling-efficiency", type=float, default=1.0)
    parser.add_argument("--detection-efficiency", type=float, default=1.0)
    parser.add_argument("--dark-click-prob", type=float, default=0.0)
    parser.add_argument(
        "--herald-pattern", type=str, default="1,1,0,0", help="comma separated clicks on modes 3-6"
    )


def _request_from_args(args: argparse.Namespace) -> dict:
    """The parameter flags as a service request body."""
    request = {name: getattr(args, name) for name in PARAM_FIELDS}
    request["herald_pattern"] = [int(x) for x in args.herald_pattern.split(",")]
    return request


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = SweepConfig(
        swept_parameter=args.param,
        start=getattr(args, "from"),
        stop=args.to,
        steps=args.steps,
        scale=args.scale,
        fixed=params_from_external(_request_from_args(args)),
        metrics=tuple(args.metrics.split(",")),
        output_format=args.format,
        include_timing=args.timing,
    )
    text = render_sweep(config, run_sweep(config))
    if args.output:
        with open(args.output, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    sys.stdout.write(json.dumps(compute_metrics_response(_request_from_args(args)), indent=2) + "\n")
    return 0


def _cmd_spin_dm(args: argparse.Namespace) -> int:
    params = params_from_external(_request_from_args(args))
    click = validate_click_pattern(int(x) for x in args.click_pattern.split(","))
    if args.dark:
        if click != DEFAULT_CLICK_PATTERN:
            default = ",".join(map(str, DEFAULT_CLICK_PATTERN))
            raise ValueError(
                f"--dark mixes dark counts into the default click pattern {default} only, got {args.click_pattern}"
            )
        dm = spin_spin_dm_dark(params)
    else:
        dm = spin_spin_dm(params, click)
    payload = {
        "click_pattern": list(click),
        "trace": dm.trace,
        "spin_dm": _spin_dm_wire(dm.entries),
        "engine_version": ENGINE_VERSION,
    }
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    print(f"serving on http://{args.bind}:{args.port}", file=sys.stderr)
    serve(args.bind, args.port)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    checks: list[tuple[str, bool, str]] = []

    def check(name: str, ok: bool, detail: str = "") -> None:
        checks.append((name, bool(ok), detail))

    # Engine vs oracle on a reduced grid.
    for mu in (0.05, 0.1):
        for eta_b, eta_t, eta_d in ((1.0, 1.0, 1.0), (0.5, 0.8, 0.9)):
            p = SourceParams(mean_photon=mu, eta_b=eta_b, eta_t=eta_t, eta_d=eta_d)
            ev = pgen(p).value
            ov = oracle_pgen(mu, eta_b)
            check(f"pgen vs oracle mu={mu} eta_b={eta_b}", abs(ev - ov) / ov < 1e-5, f"{ev:.9e} vs {ov:.9e}")
            ef = fidelity(p).value
            of = oracle_fidelity(mu, p.eta_vector)
            check(f"fidelity vs oracle mu={mu} eta_b={eta_b}", abs(ef - of) < 1e-5, f"{ef:.9f} vs {of:.9f}")
            dm = spin_spin_dm(p).entries
            om = oracle_spin_spin(mu, p.eta_vector)
            err = float(np.max(np.abs(dm - om)))
            check(f"spin_dm vs oracle mu={mu} eta_b={eta_b}", err < 1e-6, f"max err {err:.2e}")

    # Dual oracle paths.
    a = oracle_pgen(0.1, 0.8, cutoff=4)
    b = oracle_pgen_filtered(0.1, 0.8, cutoff=4)
    check("oracle dual-path pgen", abs(a - b) < 1e-12, f"{a:.15e} vs {b:.15e}")

    # Trace preservation.
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(10):
        p = SourceParams(
            mean_photon=float(rng.uniform(0, 3)),
            eta_b=float(rng.uniform(0.2, 1)),
            eta_t=float(rng.uniform(0.2, 1)),
            eta_d=float(rng.uniform(0.2, 1)),
        )
        worst = max(worst, abs(photonic_trace(p).value - 1.0))
    check("trace preservation", worst < 1e-9, f"worst |trace-1| = {worst:.2e}")

    # Hafnian spot checks.
    check("hafnian empty", hafnian(np.zeros((0, 0))) == 1.0)
    m4 = np.arange(16, dtype=float).reshape(4, 4)
    m4 = m4 + m4.T
    expected = m4[0, 1] * m4[2, 3] + m4[0, 2] * m4[1, 3] + m4[0, 3] * m4[1, 2]
    check("hafnian 4x4 three-matching formula", hafnian(m4) == expected)

    # Dark-count reductions.
    p0 = SourceParams(mean_photon=0.05, dark_click_prob=0.0)
    check("pgen_with_dark(P_d=0) == pgen", pgen_with_dark(p0).value == pgen(p0).value)
    dmd = spin_spin_dm_dark(p0).entries
    dm0 = spin_spin_dm(p0).entries
    check("spin_spin_dm_dark(P_d=0) == spin_spin_dm", np.array_equal(dmd, dm0))

    # Dark-click patterns: C(4, k) ways to attribute k of the four base clicks.
    counts = tuple(len(SIGMA_PATTERNS[k]) for k in (1, 2, 3, 4))
    check("dark-click sigma pattern counts", counts == (4, 6, 4, 1), f"{counts}, expected (4, 6, 4, 1)")

    # Informational: the closed-form dark heralding omits the silent
    # detectors' no-dark factors; report the ratio against the complete model.
    pd = 1e-3
    p_dark = SourceParams(mean_photon=0.05, dark_click_prob=pd)
    engine_dark = pgen_with_dark(p_dark).value
    full_dark = oracle_pgen_dark(0.05, 1.0, pd)
    ratio = full_dark / engine_dark
    print(
        f"[info] dark-count model: engine/full-classical ratio at P_d={pd}: "
        f"{1.0 / ratio:.8f} (complete model carries an extra (1-P_d)^2 = {(1 - pd) ** 2:.8f})"
    )

    failures = 0
    for name, ok, detail in checks:
        status = "PASS" if ok else "FAIL"
        line = f"[{status}] {name}"
        if detail:
            line += f" ({detail})"
        print(line)
        if not ok:
            failures += 1
    print(f"{len(checks) - failures}/{len(checks)} checks passed")
    return 0 if failures == 0 else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="zalmsim", description=__doc__)
    parser.add_argument("--version", action="version", version=ENGINE_VERSION)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="sweep one parameter and emit CSV/JSON rows")
    p_sweep.add_argument("--param", required=True, choices=sorted(PARAM_FIELDS))
    p_sweep.add_argument("--from", type=float, required=True, dest="from")
    p_sweep.add_argument("--to", type=float, required=True)
    p_sweep.add_argument("--steps", type=int, required=True)
    p_sweep.add_argument("--scale", choices=("linear", "log"), default="linear")
    p_sweep.add_argument("--metrics", default="pgen", help="comma separated subset of pgen,pgen_dark,fidelity,trace,spin_dm")
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sweep.add_argument("--output", default=None, help="output path (default: stdout)")
    p_sweep.add_argument("--timing", action="store_true", help="append a wall_time_s column (non-deterministic)")
    _add_param_args(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_metrics = sub.add_parser("metrics", help="evaluate the metrics at one parameter point")
    _add_param_args(p_metrics)
    p_metrics.set_defaults(func=_cmd_metrics)

    p_spin = sub.add_parser("spin-dm", help="spin-spin density matrix for a click pattern")
    _add_param_args(p_spin)
    p_spin.add_argument("--click-pattern", default=",".join(str(x) for x in DEFAULT_CLICK_PATTERN))
    p_spin.add_argument("--dark", action="store_true", help="include dark-click mixing on the base pattern")
    p_spin.set_defaults(func=_cmd_spin_dm)

    p_validate = sub.add_parser("validate", help="run the oracle-equivalence suite")
    p_validate.set_defaults(func=_cmd_validate)

    p_serve = sub.add_parser("serve", help="run the JSON HTTP service")
    p_serve.add_argument("--bind", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8791)
    p_serve.set_defaults(func=_cmd_serve)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (RequestError, ValueError) as exc:
        # Parameter values are checked after argparse has read the flags;
        # report a rejected one as argparse reports a bad flag.
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
