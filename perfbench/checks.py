"""Correctness gates, run after the timed phase on the outputs it produced.

Engine values are compared with the truncated-Fock oracle with the
tolerances of ``zalmsim validate`` (pgen 1e-5 relative, fidelity 1e-5
absolute, spin-spin matrices 1e-6 absolute).  Where those absolute
tolerances are loose against small values (spin matrices, Fock elements at
12-16 forms), a relative bound of 1e-8 is checked as well.  Each function
returns the indices of the operations whose output is wrong, with a reason.
"""

from __future__ import annotations

import math
import random

import numpy as np
from zalmsim import memory, oracle
from zalmsim.sources import SourceParams

TRACE_TOL = 1e-9
PGEN_RTOL = 1e-5
FIDELITY_ATOL = 1e-5
SPIN_ATOL = 1e-6
HIGH_ORDER_RTOL = 1e-8
# The oracle stops refining once a cutoff step changes its value by less
# than 1e-11 absolute, which leaves up to ~1e-6 relative error on Fock
# elements of 1e-9.  The 12-16-form checks use this fixed cutoff instead:
# at mean_photon <= 0.3 it agrees with the engine to ~1e-13 relative.
FOCK_ORACLE_CUTOFF = 24
ORACLE_MU_MAX = 0.1
ORACLE_ROWS_PER_SWEEP = 8


def _params(point: dict) -> SourceParams:
    return SourceParams(**point)


def _matrix_error(got: np.ndarray, ref: np.ndarray) -> str | None:
    err = float(np.max(np.abs(got - ref)))
    scale = float(np.max(np.abs(ref)))
    if not err < SPIN_ATOL or not err <= HIGH_ORDER_RTOL * scale:
        return f"max |engine - oracle| = {err:.3e} at scale {scale:.3e}"
    herm = (got + got.conj().T) / 2.0
    if float(np.min(np.linalg.eigvalsh(herm))) < -TRACE_TOL * float(np.real(np.trace(herm))):
        return "matrix is not positive semidefinite"
    return None


def sweep_rows(configs: list[dict], rows_per_config: list[list[dict]], seed: int) -> list[tuple[int, str]]:
    """Every row: no error, |trace - 1| <= 1e-9, values finite and in range.

    A seeded sample of rows with mean_photon <= 0.1 is checked against the
    oracle (the oracle costs about 20 ms a row, too much for all of them).
    The pgen_dark tolerance admits the silent detectors' (1 - P_d)^2 factor
    on which the engine and ``oracle_pgen_dark`` differ, as reported by
    ``zalmsim validate``.
    """
    bad: list[tuple[int, str]] = []
    rng = random.Random(seed)
    offset = 0
    for config, rows in zip(configs, rows_per_config):
        for i, row in enumerate(rows):
            values = [row[m] for m in ("pgen", "pgen_dark", "fidelity", "trace")]
            if row["error"]:
                bad.append((offset + i, f"row flagged {row['error']}"))
            elif not all(math.isfinite(v) for v in values):
                bad.append((offset + i, "non-finite value"))
            elif abs(row["trace"] - 1.0) > TRACE_TOL:
                bad.append((offset + i, f"trace {row['trace']!r}"))
            elif not (0.0 <= row["pgen"] <= 1.0 and 0.0 <= row["pgen_dark"] <= 1.0):
                bad.append((offset + i, "probability outside [0, 1]"))
            elif not -TRACE_TOL <= row["fidelity"] <= 1.0 + TRACE_TOL:
                bad.append((offset + i, f"fidelity {row['fidelity']!r}"))
        low = [i for i, row in enumerate(rows) if row["mean_photon"] <= ORACLE_MU_MAX]
        for i in sorted(rng.sample(low, min(ORACLE_ROWS_PER_SWEEP, len(low)))):
            row = rows[i]
            mu, eta_b, pd = row["mean_photon"], config["bsm_efficiency"], config["dark_click_prob"]
            params = SourceParams(mean_photon=mu, eta_b=eta_b, dark_click_prob=pd)
            ref_pgen = oracle.oracle_pgen(mu, eta_b)
            ref_fid = oracle.oracle_fidelity(mu, params.eta_vector)
            ref_dark = oracle.oracle_pgen_dark(mu, eta_b, pd)
            if abs(row["pgen"] - ref_pgen) > PGEN_RTOL * ref_pgen:
                bad.append((offset + i, f"pgen {row['pgen']!r} vs oracle {ref_pgen!r}"))
            elif abs(row["fidelity"] - ref_fid) > FIDELITY_ATOL:
                bad.append((offset + i, f"fidelity {row['fidelity']!r} vs oracle {ref_fid!r}"))
            elif abs(row["pgen_dark"] - ref_dark) > (PGEN_RTOL + 2.5 * pd) * ref_dark:
                bad.append((offset + i, f"pgen_dark {row['pgen_dark']!r} vs oracle {ref_dark!r}"))
        offset += len(rows)
    return bad


def memory_matrices(points: list[dict], outputs: list) -> list[tuple[int, str]]:
    """Each point's 16 matrices against ``oracle_spin_spin``, its dark mixture against their mixture."""
    bad: list[tuple[int, str]] = []
    patterns = memory_patterns()
    per_point = len(patterns) + 1
    for p, point in enumerate(points):
        params = _params(point)
        pd = params.dark_click_prob
        refs = [oracle.oracle_spin_spin(params.mean_photon, params.eta_vector, c) for c in patterns]
        weights = [(1.0 - pd) ** 8] + [
            pd**k * (1.0 - pd) ** (8 - k) for k, group in memory.SIGMA_PATTERNS.items() for _ in group
        ]
        refs.append(sum(w * r for w, r in zip(weights, refs)))
        for j, ref in enumerate(refs):
            index = p * per_point + j
            reason = _matrix_error(outputs[index].entries, ref)
            if reason:
                bad.append((index, reason))
    return bad


def memory_patterns() -> list[tuple[int, ...]]:
    """The base click pattern followed by its 15 dark-attribution patterns."""
    return [memory.DEFAULT_CLICK_PATTERN] + [c for group in memory.SIGMA_PATTERNS.values() for c in group]


def fock_outputs(point: dict, ops: list[tuple], outputs: list) -> list[tuple[int, str]]:
    """Fock elements against ``oracle_fock_element``, spin matrices against ``oracle_spin_spin``."""
    bad: list[tuple[int, str]] = []
    params = _params(point)
    for i, (op, out) in enumerate(zip(ops, outputs)):
        if op[0] == "fock":
            ref = oracle.oracle_fock_element(params.mean_photon, params.eta_vector, op[1], op[2],
                                             cutoff=FOCK_ORACLE_CUTOFF)
            if ref == 0 or abs(out - ref) > HIGH_ORDER_RTOL * abs(ref):
                bad.append((i, f"fock {out!r} vs oracle {ref!r}"))
        else:
            ref = oracle.oracle_spin_spin(params.mean_photon, params.eta_vector, op[1], cutoff=FOCK_ORACLE_CUTOFF)
            reason = _matrix_error(out.entries, ref)
            if reason:
                bad.append((i, reason))
    return bad


def validate_output(code: int, text: str) -> str | None:
    """``zalmsim validate`` passed: exit 0, no [FAIL] line, an all-passed summary."""
    lines = text.splitlines()
    if code != 0:
        return f"exit code {code}"
    if any(line.startswith("[FAIL]") for line in lines):
        return "a [FAIL] line"
    summary = [line for line in lines if line.endswith("checks passed")]
    if len(summary) != 1:
        return "no summary line"
    passed, total = summary[0].split()[0].split("/")
    return None if passed == total else f"summary {summary[0]!r}"
