"""Command line interface: parameter sweeps, point metrics, spin density matrices,
and the oracle-equivalence validation report."""

from __future__ import annotations

import argparse
import functools
import random
import sys

import numpy as np

from .errors import NumericalDomainError
from .memory import spin_spin_dm, spin_spin_dm_dark
from .metrics import fidelity, pgen, pgen_with_dark
from .metrics import photonic_trace  # noqa: F401 - unused here, but perfbench/tracing.py patches cli.photonic_trace
from .moments import hafnian  # noqa: F401 - unused here, but perfbench/tracing.py patches cli.hafnian
from .oracle import (
    oracle_fidelity,
    oracle_pgen,
    oracle_pgen_dark,
    oracle_pgen_filtered,
    oracle_spin_spin,
)
from .server import ENGINE_VERSION, _REQUEST_FIELDS, RequestError, _parse_request, compute_metrics_response, read_fields
from .server import build_server, read_json, reply_json, spin_dm_response
from .sources import PARAM_FIELDS, SourceParams
from .sweep import KNOWN_METRICS, SweepConfig, render_sweep, run_sweep


_FLAG_HELP = {"herald_pattern": "comma separated clicks on modes 3-6", "click_pattern": "comma separated clicks on modes 1-8"}


def _add_param_args(parser: argparse.ArgumentParser, *counts: str) -> None:
    """The parameter flags, plus the count flags named; a flag left out keeps SourceParams' default."""
    for name in (*PARAM_FIELDS, *counts):
        default = "0.1" if name == "mean_photon" else None
        parser.add_argument("--" + name.replace("_", "-"), default=default, help=_FLAG_HELP.get(name))


def _request_from_args(args: argparse.Namespace) -> dict:
    """The flags that were given, read as a service query is (server.read_fields)."""
    return read_fields({name: text for name in _REQUEST_FIELDS if (text := getattr(args, name, None)) is not None})


def _number_flag(args: argparse.Namespace, name: str, kind: type = float):
    """A numeric flag read by the parameter flags' JSON rule: a JSON number, an integer where kind is int, never a boolean."""
    text = getattr(args, name)
    try:
        value = read_json(text)
        if isinstance(value, bool) or not isinstance(value, (int, kind)):
            raise ValueError
        return kind(value)
    except (ValueError, OverflowError):  # OverflowError: an integer too large for a float
        raise ValueError(f"--{name} must be {'an integer' if kind is int else 'a number'}, got {text!r}") from None


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = SweepConfig(
        swept_parameter=args.param,
        start=_number_flag(args, "from"),
        stop=_number_flag(args, "to"),
        steps=_number_flag(args, "steps", int),
        scale=args.scale,
        fixed=_parse_request(_request_from_args(args))[0],
        metrics=tuple(args.metrics.split(",")),
        output_format=args.format,
        include_timing=args.timing,
    )
    if not args.output:
        sys.stdout.write(render_sweep(config, run_sweep(config)))
        return 0
    try:
        # Opened before the sweep runs, so a path it cannot write fails at once.
        with open(args.output, "w", newline="") as fh:
            fh.write(render_sweep(config, run_sweep(config)))
    except OSError as exc:  # a missing directory, no permission, a full disk
        raise ValueError(f"cannot write {args.output}: {exc.strerror or exc}") from None
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    sys.stdout.write(reply_json(compute_metrics_response(_request_from_args(args)), indent=2) + "\n")
    return 0


def _cmd_spin_dm(args: argparse.Namespace) -> int:
    sys.stdout.write(reply_json(spin_dm_response(_request_from_args(args)), indent=2) + "\n")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    port = _number_flag(args, "port", int)
    if not 0 <= port <= 65535:
        raise ValueError(f"--port must lie in [0, 65535], got {port}")
    try:
        httpd = build_server(args.bind, port)
    except OSError as exc:  # the bind only: a port in use, an address not of this host
        raise ValueError(f"cannot serve on {args.bind}:{port}: {exc}") from None
    print(f"serving on http://{args.bind}:{port}", file=sys.stderr)
    try:
        httpd.serve_forever()
    except KeyboardInterrupt:  # Ctrl-C: stop quietly, with the shell's status for SIGINT
        return 130
    finally:
        httpd.server_close()
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    passed: list[bool] = []

    def check(name: str):
        """Run the decorated measure at once and print its (ok, detail) as name's line; a raise fails name alone."""

        def run(measure) -> None:
            try:
                ok, detail = measure()
            except Exception as exc:  # named in the line, and every other check still runs and prints
                ok, detail = False, f"{type(exc).__name__}: {exc}"
            passed.append(bool(ok))
            print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" ({detail})" if detail else ""))

        return run

    # Engine vs oracle on a reduced grid.
    for mu in (0.05, 0.1):
        for eta_b, eta_t, eta_d in ((1.0, 1.0, 1.0), (0.5, 0.8, 0.9)):
            p = SourceParams(mean_photon=mu, eta_b=eta_b, eta_t=eta_t, eta_d=eta_d)
            dm = functools.cache(lambda: spin_spin_dm(p))

            @check(f"pgen vs oracle mu={mu} eta_b={eta_b}")
            def pgen_close():
                ev, ov = pgen(p), oracle_pgen(mu, eta_b)
                return abs(ev - ov) / ov < 1e-5, f"{ev:.9e} vs {ov:.9e}"

            @check(f"fidelity vs oracle mu={mu} eta_b={eta_b}")
            def fidelity_close():
                ef, of = fidelity(p), oracle_fidelity(mu, p.eta_vector)
                return abs(ef - of) < 1e-5, f"{ef:.9f} vs {of:.9f}"

            @check(f"spin_dm vs oracle mu={mu} eta_b={eta_b}")
            def spin_close():
                err = float(np.max(np.abs(dm().entries - oracle_spin_spin(mu, p.eta_vector))))
                return err < 1e-6, f"max err {err:.2e}"

            @check(f"spin_dm PSD mu={mu} eta_b={eta_b}")
            def spin_psd():
                low = dm().min_eigenvalue()
                return low >= -1e-12 * dm().trace, f"min eigenvalue {low:.2e}"

    @check("oracle dual-path pgen")
    def dual_path():
        a, b = oracle_pgen(0.1, 0.8, cutoff=4), oracle_pgen_filtered(0.1, 0.8, cutoff=4)
        return abs(a - b) < 1e-12, f"{a:.15e} vs {b:.15e}"

    # Fidelity range, an invariant the engine does not enforce by construction.
    # The stdlib generator keeps numpy.random, whose import costs about as
    # much as the check, out of the process.
    @check("fidelity in [0, 1]")
    def fidelity_range():
        rng = random.Random(7)
        fids = []
        for _ in range(10):
            p = SourceParams(
                mean_photon=rng.uniform(0, 3),
                eta_b=rng.uniform(0.2, 1),
                eta_t=rng.uniform(0.2, 1),
                eta_d=rng.uniform(0.2, 1),
            )
            fids.append(fidelity(p))
        return all(0.0 <= f <= 1.0 for f in fids), f"range [{min(fids):.6f}, {max(fids):.6f}]"

    # Closed forms from mu = 1e-6 to 1e3: pgen at herald (1, 1, 0, 0) is
    # (eta_b mu)^2 / (1 + eta_b mu)^6, and without loss the fidelity is 1/2.
    mus = (1e-6, 0.1, 3.0, 1e3)

    @check("pgen closed form (eta_b mu)^2 / (1 + eta_b mu)^6")
    def pgen_closed_form():
        worst = 0.0
        for mu in mus:
            for eta_b in (1.0, 0.5):
                exact = (eta_b * mu) ** 2 / (1.0 + eta_b * mu) ** 6
                worst = max(worst, abs(pgen(SourceParams(mean_photon=mu, eta_b=eta_b)) - exact) / exact)
        return worst <= 1e-12, f"max relative error {worst:.1e}"

    @check("lossless fidelity 1/2")
    def lossless_fidelity():
        worst = max(abs(fidelity(SourceParams(mean_photon=mu)) - 0.5) for mu in mus)
        return worst <= 1e-12, f"max error {worst:.1e}"

    # Dark-count reductions.
    p0 = SourceParams(mean_photon=0.05, dark_click_prob=0.0)
    check("pgen_with_dark(P_d=0) == pgen")(lambda: (pgen_with_dark(p0) == pgen(p0), ""))
    check("spin_spin_dm_dark(P_d=0) == spin_spin_dm")(
        lambda: (np.array_equal(spin_spin_dm_dark(p0).entries, spin_spin_dm(p0).entries), "")
    )

    # One dark-count model: the engine's mixture against the referee's own enumeration.
    @check("pgen_with_dark vs oracle_pgen_dark")
    def dark_model():
        ed, od = pgen_with_dark(SourceParams(mean_photon=0.05, dark_click_prob=1e-3)), oracle_pgen_dark(0.05, 1.0, 1e-3)
        return abs(ed - od) <= 1e-9 * od, f"{ed:.12e} vs {od:.12e}"

    print(f"{sum(passed)}/{len(passed)} checks passed")
    return 0 if all(passed) else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="zalmsim", description=__doc__)
    parser.add_argument("--version", action="version", version=ENGINE_VERSION)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="sweep one parameter and emit CSV/JSON rows")
    p_sweep.add_argument("--param", required=True, choices=sorted(PARAM_FIELDS))
    p_sweep.add_argument("--from", required=True, dest="from")
    p_sweep.add_argument("--to", required=True)
    p_sweep.add_argument("--steps", required=True)
    p_sweep.add_argument("--scale", choices=("linear", "log"), default="linear")
    p_sweep.add_argument("--metrics", default="pgen", help=f"comma separated subset of {','.join(KNOWN_METRICS)}")
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sweep.add_argument("--output", default=None, help="output path (default: stdout)")
    p_sweep.add_argument("--timing", action="store_true", help="append a wall_time_s column (non-deterministic)")
    _add_param_args(p_sweep, "herald_pattern")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_metrics = sub.add_parser("metrics", help="evaluate the metrics at one parameter point")
    _add_param_args(p_metrics, "herald_pattern")
    p_metrics.set_defaults(func=_cmd_metrics)

    p_spin = sub.add_parser("spin-dm", help="spin-spin density matrix for a click pattern")
    _add_param_args(p_spin, "click_pattern")
    p_spin.set_defaults(func=_cmd_spin_dm)

    p_validate = sub.add_parser("validate", help="run the oracle-equivalence suite")
    p_validate.set_defaults(func=_cmd_validate)

    p_serve = sub.add_parser("serve", help="run the JSON HTTP service")
    p_serve.add_argument("--bind", default="127.0.0.1")
    p_serve.add_argument("--port", default="8791")
    p_serve.set_defaults(func=_cmd_serve)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (RequestError, ValueError, NumericalDomainError) as exc:
        # Parameter values are checked after argparse has read the flags; report a
        # rejected one, or a result the arithmetic cannot give, as argparse reports a bad flag.
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
