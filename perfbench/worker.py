"""One fresh interpreter: import the package, warm up, print READY, then run on request.

Started by ``run.py``, which times spawn-to-READY as set-up.  On ``run`` it
executes the workload's passes in this process and prints one JSON line; on
``exit`` it stops.  Every pass starts from empty ``lru_cache``s, so no pass
inherits another's cache state; warm-up uses points outside the inputs.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from zalmsim import cli, metrics, memory, oracle, server, sweep  # noqa: E402
from zalmsim.sources import SourceParams  # noqa: E402

TRACE_DIR = HERE / "out"


def clear_caches() -> None:
    metrics._kernel_for.cache_clear()
    metrics._a_variant.cache_clear()
    oracle._bs_sector.cache_clear()


class Op:
    """One timed call.

    ``samples`` turns its output and time into latency samples (default: the
    call's own time); ``count`` is the number of operations it completes
    (default: one per sample).
    """

    def __init__(self, call, samples=None, count=None):
        self.call = call
        self.samples = samples or (lambda out, elapsed: [elapsed])
        self.count = count


def _sweep_configs(inputs) -> list:
    return [
        sweep.SweepConfig(
            swept_parameter="mean_photon",
            start=workloads.SWEEP_RANGE[0],
            stop=workloads.SWEEP_RANGE[1],
            steps=workloads.SWEEP_STEPS,
            scale="log",
            fixed=SourceParams(
                mean_photon=workloads.SWEEP_RANGE[0],
                eta_b=c["bsm_efficiency"],
                dark_click_prob=c["dark_click_prob"],
            ),
            metrics=workloads.SWEEP_METRICS,
            include_timing=True,
        )
        for c in inputs
    ]


def _validate_in_process():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["validate"])
    return code, out.getvalue()


def build_ops(workload: str, inputs) -> tuple[list[Op], object]:
    """The ordered calls of one pass and an untimed priming step (or None).

    Calls go through module attributes at call time so that a Tracer's
    patches apply.
    """
    if workload == "sweep_grid":
        rows_samples = lambda rows, _elapsed: [row["wall_time_s"] for row in rows]  # noqa: E731
        return [Op(lambda c=c: sweep.run_sweep(c), rows_samples) for c in _sweep_configs(inputs)], None
    if workload == "memory_loading":
        # One latency sample per point covers its 16 matrices and the dark
        # mixture (17 operations): the matrices differ in cost by 50x, so
        # per-matrix percentiles would jump between matrix kinds.
        def load(params):
            return [memory.spin_spin_dm(params, c) for c in checks.memory_patterns()] + [
                memory.spin_spin_dm_dark(params)]

        ops = [Op(lambda p=SourceParams(**point): load(p), count=len(checks.memory_patterns()) + 1)
               for point in inputs]
        # The matrices are measured on warm caches: one zero-form Fock
        # element per point fills the A matrix that spin_spin_dm uses.
        prime = lambda: [metrics.fock_element(SourceParams(**p), (0,) * 8, (0,) * 8) for p in inputs]  # noqa: E731
        return ops, prime
    if workload == "fock_high_order":
        params = SourceParams(**inputs["point"])
        ops = []
        for op in inputs["ops"]:
            if op[0] == "fock":
                ops.append(Op(lambda d=op[1], g=op[2]: metrics.fock_element(params, d, g)))
            else:
                ops.append(Op(lambda c=op[1]: memory.spin_spin_dm(params, c)))
        return ops, lambda: metrics.fock_element(params, (0,) * 8, (0,) * 8)
    if workload == "service_mix":
        return [Op(lambda r=r: json.dumps(server.compute_metrics_response(r))) for r in inputs], None
    if workload == "validate":
        return [Op(_validate_in_process)], None
    raise ValueError(workload)


def fingerprint(workload: str, out) -> object:
    """A value equal for two outputs exactly when they are bit-identical."""
    if isinstance(out, Exception):
        return repr(out)
    if workload == "sweep_grid":
        return tuple(tuple((k, repr(v)) for k, v in row.items() if k != "wall_time_s") for row in out)
    if workload == "memory_loading":
        return tuple(dm.entries.tobytes() for dm in out)
    if isinstance(out, memory.SpinSpinDM):
        return out.entries.tobytes()
    return repr(out)


def outside(mu_a: float, mu_b: float, used: list[float]) -> None:
    if mu_a in used or mu_b in used:
        raise ValueError("a warm-up point is one of the workload's inputs")


def warm_up(workload: str, inputs) -> None:
    """Exercise the workload's code paths on points outside its inputs, then empty the caches."""
    mu_a, mu_b = workloads.WARMUP_MEAN_PHOTON
    if workload == "sweep_grid":
        outside(mu_a, mu_b, list(_sweep_configs(inputs)[0].grid()))
        config = sweep.SweepConfig("mean_photon", mu_a, mu_b, 2, SourceParams(mu_a, dark_click_prob=1e-4),
                                   metrics=workloads.SWEEP_METRICS)
        sweep.run_sweep(config)
    elif workload in ("memory_loading", "fock_high_order"):
        points = inputs if workload == "memory_loading" else [inputs["point"]]
        outside(mu_a, mu_b, [p["mean_photon"] for p in points])
        params = SourceParams(mu_a, eta_b=0.9, eta_t=0.9, eta_d=0.9, dark_click_prob=1e-4)
        memory.spin_spin_dm_dark(params)
        metrics.fock_element(params, (1, 0, 1, 1, 0, 1, 1, 0), (0, 1, 1, 1, 0, 1, 0, 1))
    elif workload == "service_mix":
        outside(mu_a, mu_b, [r["mean_photon"] for r in inputs])
        server.compute_metrics_response({"mean_photon": mu_b, "click_pattern": list(workloads.BASE_CLICK)})
    clear_caches()


def run_pass(workload: str, ops: list[Op], prime) -> dict:
    """Empty the caches, prime them if the workload asks, and time every operation."""
    clear_caches()
    if prime:
        prime()
    return timed_ops(workload, ops)


def timed_ops(workload: str, ops: list[Op]) -> dict:
    """Time each call; ``spans`` holds each call's start, end and latency samples."""
    spans, counts, outputs, errors = [], [], [], set()
    started = time.perf_counter()
    for i, op in enumerate(ops):
        t0 = time.perf_counter()
        try:
            out = op.call()
        except Exception as exc:  # noqa: BLE001 - a failing operation is counted, not fatal
            out = exc
            errors.add(i)
        t1 = time.perf_counter()
        samples = [t1 - t0] if i in errors else op.samples(out, t1 - t0)
        spans.append((t0, t1, samples))
        counts.append(op.count or len(samples))
        outputs.append(out)
    ended = time.perf_counter()
    return {"t0": started, "t1": ended, "wall": ended - started, "spans": spans, "counts": counts,
            "outputs": outputs, "errors": errors, "prints": [fingerprint(workload, o) for o in outputs]}


def check_outputs(workload: str, inputs, seed: int, outputs: list) -> list[tuple[int, str]]:
    if workload == "sweep_grid":
        bad_rows = checks.sweep_rows(inputs, outputs, seed)
        # Map row indices back to the sweep (operation) that produced them.
        return [(row // workloads.SWEEP_STEPS, reason) for row, reason in bad_rows]
    if workload == "memory_loading":
        per_point = len(checks.memory_patterns()) + 1
        bad = checks.memory_matrices(inputs, [dm for point in outputs for dm in point])
        return [(i // per_point, reason) for i, reason in bad]
    if workload == "fock_high_order":
        return checks.fock_outputs(inputs["point"], inputs["ops"], outputs)
    if workload == "validate":
        reason = checks.validate_output(*outputs[0])
        return [(0, reason)] if reason else []
    return []  # service_mix replies are compared with the in-process reference by run.py


def wrong_ops(workload, inputs, seed, reference: dict) -> dict[int, str]:
    if reference["errors"]:
        return {i: "the reference pass raised" for i in range(len(reference["outputs"]))}
    return dict(check_outputs(workload, inputs, seed, reference["outputs"]))


def count_failures(workload, inputs, seed, passes: list[dict], reference: dict) -> tuple[int, list[str]]:
    """Failed operations over all passes: raised, differs from the reference pass, or wrong.

    A call counts as many operations as it completes (a sweep its grid
    points, a memory loading its 17 matrices).
    """
    per_op = reference["counts"]
    wrong = wrong_ops(workload, inputs, seed, reference)
    failed, notes = 0, [f"op {i}: {reason}" for i, reason in sorted(wrong.items())]
    for p in passes:
        for i, weight in enumerate(per_op):
            if i in p["errors"] or p["prints"][i] != reference["prints"][i] or i in wrong:
                failed += weight
            if i in p["errors"]:
                notes.append(f"op {i}: raised {p['outputs'][i]!r}")
            elif p["prints"][i] != reference["prints"][i]:
                notes.append(f"op {i}: output differs from the reference pass")
    return failed, notes


def run_untraced(workload, inputs, seed, seconds) -> dict:
    """Passes until ``seconds`` have been measured; raw timestamps go to run.py for the speed correction."""
    ops, prime = build_ops(workload, inputs)
    passes = []
    while len(passes) < 2 or sum(p["wall"] for p in passes) < seconds:
        passes.append(run_pass(workload, ops, prime))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed, notes = count_failures(workload, inputs, seed, passes, passes[0])
    return {
        "passes": [{"t0": p["t0"], "t1": p["t1"], "spans": p["spans"]} for p in passes],
        "rss_mb": rss_mb,
        "attempted": sum(sum(p["counts"]) for p in passes),
        "failed": failed,
        "notes": notes,
    }


def run_traced(workload, inputs, seed, seconds) -> dict:
    """Untraced and traced passes in turn; outputs and exact counts must repeat.

    The first untraced pass is the reference every other pass must match bit
    for bit.  Tracing overhead compares the median traced pass with the
    median untraced one.
    """
    ops, prime = build_ops(workload, inputs)
    untraced, traced, tracers = [], [], []
    while len(traced) < 2 or sum(p["wall"] for p in untraced + traced) < seconds:
        untraced.append(run_pass(workload, ops, prime))
        clear_caches()
        if prime:
            prime()
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced.append(timed_ops(workload, ops))
        finally:
            tracer.restore()
        tracers.append(tracer)
    reference = untraced[0]
    failed, notes = count_failures(workload, inputs, seed, untraced + traced, reference)
    counts = [t.exact_counts() for t in tracers]
    if any(c != counts[0] for c in counts[1:]):
        failed += sum(reference["counts"])
        notes.append("exact counts differ between traced passes of the same inputs")
    attempted = sum(reference["counts"]) * (len(untraced) + len(traced))
    layer = per_layer_metrics(workload, reference, tracers, counts[0])
    overhead = statistics.median(p["wall"] for p in traced) / statistics.median(p["wall"] for p in untraced)
    layer["bench.tracing_overhead_pct"] = 100.0 * (overhead - 1.0)
    layer["bench.error_rate"] = failed / attempted
    write_spans(workload, seed, tracers)
    compute_ms = [s * 1e3 for _, _, op_samples in reference["spans"] for s in op_samples]
    return {"per_layer": layer, "attempted": attempted, "failed": failed, "notes": notes,
            "untraced_op_ms_median": statistics.median(compute_ms)}


def per_layer_metrics(workload, reference, tracers, counts) -> dict:
    """Counts of the first traced pass; self times as the median over traced passes."""
    values = {name: 0 if unit == "count" else 0.0 for name, unit in tracing.per_layer_units().items()}
    values.update(counts)
    self_ms = [t.self_ms() for t in tracers]
    for name in tracing.SPAN_NAMES:
        values[f"{name}.self_ms"] = statistics.median(s.get(name, 0.0) for s in self_ms)
    for cache, _, _ in tracing.CACHES:
        total = values[f"{cache}.hits"] + values[f"{cache}.misses"]
        values[f"{cache}.hit_ratio"] = values[f"{cache}.hits"] / total if total else 0.0
    if workload == "sweep_grid":
        values["sweep.rows_flagged"] = sum(1 for rows in reference["outputs"] for row in rows if row["error"])
    return values


def write_spans(workload: str, seed: int, tracers) -> None:
    """Write the spans of the first traced pass; later passes repeat its calls exactly."""
    TRACE_DIR.mkdir(exist_ok=True)
    names = list(tracing.SPAN_NAMES)
    index = {n: i for i, n in enumerate(names)}
    payload = {
        "workload": workload,
        "seed": seed,
        "span_fields": ["id", "parent", "name", "start_ns", "end_ns"],
        "names": names,
        "spans": [[s[0], s[1], index[s[2]], s[3], s[4]] for s in tracers[0].spans],
    }
    (TRACE_DIR / f"trace_{workload}.json").write_text(json.dumps(payload, separators=(",", ":")))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    inputs = workloads.inputs(args.workload, args.seed)
    warm_up(args.workload, inputs)
    print("READY", flush=True)
    if sys.stdin.readline().strip() != "run":
        return 0
    run = run_traced if args.trace else run_untraced
    print(json.dumps(run(args.workload, inputs, args.seed, args.seconds)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
