"""Deterministic parameter sweeps over the source metrics."""

from __future__ import annotations

import dataclasses
import json
import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import OutOfRangeError
from .memory import spin_spin_dm
from .metrics import fidelity, pgen, pgen_with_dark, photonic_trace
from .sources import PARAM_FIELDS, SourceParams, as_count

KNOWN_METRICS = ("pgen", "pgen_dark", "fidelity", "trace", "spin_dm")


@dataclass(frozen=True)
class SweepConfig:
    swept_parameter: str
    start: float
    stop: float
    steps: int
    fixed: SourceParams
    scale: str = "linear"
    metrics: tuple[str, ...] = ("pgen",)
    output_format: str = "csv"
    include_timing: bool = False

    def __post_init__(self):
        if self.swept_parameter not in PARAM_FIELDS:
            raise ValueError(
                f"unknown swept parameter {self.swept_parameter!r}; options: {sorted(PARAM_FIELDS)}"
            )
        if not self.start < self.stop:
            raise ValueError(f"sweep range must satisfy start < stop, got [{self.start}, {self.stop}]")
        try:
            steps = as_count(self.steps)
        except TypeError:
            steps = 0
        if steps < 2:
            raise ValueError(f"steps must be an integer >= 2, got {self.steps!r}")
        if self.scale not in ("linear", "log"):
            raise ValueError(f"scale must be 'linear' or 'log', got {self.scale!r}")
        if self.scale == "log" and self.start <= 0:
            raise ValueError("log scale requires a positive start")
        # The grid's ends are exact and its rows lie between them, so checking the two end rows checks every row.
        for end in (self.start, self.stop):
            try:
                self.params_at(end)
            except OutOfRangeError as exc:
                raise OutOfRangeError(self.swept_parameter, exc.rule) from exc
        if self.output_format not in ("csv", "json"):
            raise ValueError(f"output format must be 'csv' or 'json', got {self.output_format!r}")
        unknown = [m for m in self.metrics if m not in KNOWN_METRICS]
        if unknown:
            raise ValueError(f"unknown metrics {unknown}; options: {KNOWN_METRICS}")
        if len(set(self.metrics)) < len(self.metrics):
            raise ValueError(f"each metric may be named once, got {','.join(self.metrics)}")
        object.__setattr__(self, "metrics", tuple(self.metrics))

    def params_at(self, value: float) -> SourceParams:
        return dataclasses.replace(self.fixed, **{PARAM_FIELDS[self.swept_parameter]: float(value)})

    def grid(self) -> np.ndarray:
        if self.scale == "log":
            return np.geomspace(self.start, self.stop, self.steps)
        return np.linspace(self.start, self.stop, self.steps)


def _columns(config: SweepConfig) -> list[str]:
    cols = [config.swept_parameter]
    for metric in config.metrics:
        if metric == "spin_dm":
            cols.extend(f"spin_dm_{i}{j}_{part}" for i in range(4) for j in range(4) for part in ("re", "im"))
        else:
            cols.append(metric)
    cols.append("imag_residual")
    cols.append("error")
    if config.include_timing:
        cols.append("wall_time_s")
    return cols


def _evaluate_row(config: SweepConfig, value: float) -> dict:
    row: dict = {config.swept_parameter: float(value)}
    params = config.params_at(value)
    errors: list[str] = []
    started = time.perf_counter()
    for metric in config.metrics:
        try:
            if metric == "pgen":
                row[metric] = pgen(params)
            elif metric == "pgen_dark":
                row[metric] = pgen_with_dark(params)
            elif metric == "fidelity":
                row[metric] = fidelity(params)
            elif metric == "trace":
                row[metric] = photonic_trace(params)
            else:
                entries = spin_spin_dm(params).entries.tolist()
                for i in range(4):
                    for j in range(4):
                        row[f"spin_dm_{i}{j}_re"] = entries[i][j]
                        row[f"spin_dm_{i}{j}_im"] = 0.0
        except Exception as exc:  # noqa: BLE001 - the sweep must continue past bad points
            errors.append(f"{metric}:{type(exc).__name__}")
            if metric != "spin_dm":
                row[metric] = float("nan")
    # Every metric is real, so the imaginary residual column is 0.0, kept for the schema.
    row["imag_residual"] = 0.0
    row["error"] = ";".join(errors)
    if config.include_timing:
        row["wall_time_s"] = time.perf_counter() - started
    return row


def run_sweep(config: SweepConfig) -> list[dict]:
    """One row per grid point, in grid order; a metric that raised is NaN, and the error column names its exception."""
    return [_evaluate_row(config, value) for value in config.grid()]


def _format_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def rows_to_csv(config: SweepConfig, rows: list[dict]) -> str:
    cols = _columns(config)
    lines = [",".join(cols)]
    for row in rows:
        lines.append(",".join(_format_cell(row.get(c, "")) for c in cols))
    return "\n".join(lines) + "\n"


def _json_cell(value):
    # JSON has no NaN: a metric that failed (NaN, or no spin_dm cells) is null, and the row's error column says why.
    return None if isinstance(value, float) and not math.isfinite(value) else value


def rows_to_json(config: SweepConfig, rows: list[dict]) -> str:
    cols = _columns(config)
    ordered = [{c: _json_cell(row.get(c)) for c in cols} for row in rows]
    return json.dumps(ordered, allow_nan=False, indent=2) + "\n"


def render_sweep(config: SweepConfig, rows: list[dict]) -> str:
    if config.output_format == "json":
        return rows_to_json(config, rows)
    return rows_to_csv(config, rows)
