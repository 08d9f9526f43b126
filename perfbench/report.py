"""Metric names, units and the summary of one run's timings."""

from __future__ import annotations

import json
import math
import statistics

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "latency_p99_ms": "ms",
    "peak_rss_mb": "MB",
}
PERCENTILES = (50, 90, 99)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q % of samples at or below it."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1]


def tail_percentile(n: int) -> float | None:
    """Highest of 50, 90, 99, 99.9 that leaves at least ten samples above it."""
    best = None
    for q in (50, 90, 99, 99.9):
        if n - math.ceil(q / 100.0 * n) >= 10:
            best = q
    return best


def end_to_end(setup_s: list[float], pass_walls: list[float], operations: int, latencies_s: list[float],
               rss_mb: float) -> dict:
    """End-to-end metrics of one run from times already divided by the host-speed factor.

    wall_s is the mean time of one pass over the workload's input set;
    throughput counts operations (grid points, matrices, Fock elements or
    matrices, requests, validate runs) over the summed pass time.
    """
    values = {
        "setup_s": statistics.median(setup_s),
        "wall_s": statistics.fmean(pass_walls),
        "throughput_per_s": operations / sum(pass_walls),
        "peak_rss_mb": rss_mb,
    }
    for q in PERCENTILES:
        values[f"latency_p{q}_ms"] = percentile(latencies_s, q) * 1e3
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def describe(metrics: dict, latency_samples: int | None = None) -> list[str]:
    lines = [f"  {name} = {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    if latency_samples is not None:
        tail = tail_percentile(latency_samples)
        note = f"p{tail} is the highest percentile with >= 10 samples beyond it" if tail else "fewer than 20 samples"
        lines.append(f"  latency samples = {latency_samples} ({note})")
    return lines


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics})
