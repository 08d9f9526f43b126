"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines alongside pytest's own status output.
"""

import json
import subprocess
import sys
import threading
import urllib.request

import numpy as np
import pytest

from zalmsim import (
    SourceParams,
    build_cascaded_cov,
    fidelity,
    oracle_fidelity,
    oracle_pgen,
    oracle_spin_spin,
    pgen,
    pgen_with_dark,
    photonic_trace,
    spin_spin_dm,
    spin_spin_dm_dark,
)
from zalmsim.moments import hafnian
from zalmsim.server import build_server
from zalmsim.sources import DEFAULT_HERALD_PATTERN

GRID_MU = (0.01, 0.05, 0.1, 0.2)
GRID_ETA = (
    {"eta_b": 1.0, "eta_t": 1.0, "eta_d": 1.0},
    {"eta_b": 0.5, "eta_t": 1.0, "eta_d": 1.0},
    {"eta_b": 1.0, "eta_t": 0.8, "eta_d": 0.9},
)


def report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def grid_params():
    for mu in GRID_MU:
        for etas in GRID_ETA:
            yield SourceParams(mean_photon=mu, **etas)


def test_criterion_1_oracle_equivalence():
    worst_pgen = worst_fid = worst_spin = 0.0
    for params in grid_params():
        mu = params.mean_photon
        ref_p = oracle_pgen(mu, params.eta_b)
        got_p = pgen(params).value
        worst_pgen = max(worst_pgen, abs(got_p - ref_p) / ref_p)
        ref_f = oracle_fidelity(mu, params.eta_vector)
        got_f = fidelity(params).value
        worst_fid = max(worst_fid, abs(got_f - ref_f))
        ref_m = oracle_spin_spin(mu, params.eta_vector)
        got_m = spin_spin_dm(params).entries
        worst_spin = max(worst_spin, float(np.max(np.abs(got_m - ref_m))))
    ok = worst_pgen < 1e-5 and worst_fid < 1e-5 and worst_spin < 1e-6
    report(
        1,
        ok,
        f"oracle equivalence on 12-point grid: pgen rel {worst_pgen:.2e} (<1e-5), "
        f"fidelity abs {worst_fid:.2e} (<1e-5), spin-spin {worst_spin:.2e} (<1e-6)",
    )


def test_criterion_2_trace_preservation():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        params = SourceParams(
            mean_photon=float(rng.uniform(0.0, 5.0)),
            eta_b=float(rng.uniform(0.2, 1.0)),
            eta_t=float(rng.uniform(0.2, 1.0)),
            eta_d=float(rng.uniform(0.2, 1.0)),
        )
        worst = max(worst, abs(photonic_trace(params).value - 1.0))
    report(2, worst < 1e-9, f"trace = 1 on 50 random points, worst |trace-1| = {worst:.2e} (<1e-9)")


def test_criterion_3_peak_shift_with_heralding_loss():
    mus = np.geomspace(1e-4, 20.0, 200)
    argmaxes = []
    for eta_b in (1.0, 10 ** (-3 / 10), 10 ** (-6 / 10)):
        values = [pgen(SourceParams(mean_photon=float(m), eta_b=eta_b)).value for m in mus]
        argmaxes.append(float(mus[int(np.argmax(values))]))
    ok = argmaxes[0] < argmaxes[1] < argmaxes[2]
    report(3, ok, f"pgen peak shifts to higher mean photon number with loss: {argmaxes}")


def test_criterion_4_small_mu_scaling():
    lo = pgen(SourceParams(mean_photon=1e-4)).value
    hi = pgen(SourceParams(mean_photon=1e-3)).value
    slope = (np.log(hi) - np.log(lo)) / np.log(10.0)
    report(4, abs(slope - 2.0) < 0.05, f"log-log slope of pgen over [1e-4, 1e-3] = {slope:.4f} (2 +- 0.05)")


def test_criterion_5_hafnian_suite():
    def pairings(items):
        items = list(items)
        if not items:
            yield []
            return
        first = items[0]
        for i in range(1, len(items)):
            for rest in pairings(items[1:i] + items[i + 1 :]):
                yield [(first, items[i])] + rest

    checks = []
    checks.append(hafnian(np.zeros((0, 0))) == 1.0)
    checks.append(hafnian(np.array([[0.0, 4.25], [4.25, 0.0]])) == 4.25)
    rng = np.random.default_rng(5)
    m4 = rng.integers(-6, 7, size=(4, 4)).astype(float)
    m4 = m4 + m4.T
    checks.append(hafnian(m4) == m4[0, 1] * m4[2, 3] + m4[0, 2] * m4[1, 3] + m4[0, 3] * m4[1, 2])
    re = rng.integers(-9, 10, size=(6, 6))
    im = rng.integers(-9, 10, size=(6, 6))
    m6 = (re + re.T + 1j * (im + im.T)).astype(complex)
    by_enumeration = sum(
        np.prod([m6[i, j] for i, j in pairing]) for pairing in pairings(range(6))
    )
    checks.append(hafnian(m6) == by_enumeration)
    report(5, all(checks), f"hafnian unit suite (empty, 2x2, 4x4, 6x6 vs enumeration): {checks}")


def test_criterion_6_dark_count_reductions():
    p = SourceParams(mean_photon=0.05, eta_b=0.8, dark_click_prob=0.0)
    exact_pgen = pgen_with_dark(p).value == pgen(p).value
    exact_spin = np.array_equal(spin_spin_dm_dark(p).entries, spin_spin_dm(p).entries)
    vac = SourceParams(mean_photon=0.0, dark_click_prob=1e-4)
    vac_value = pgen_with_dark(vac).value
    # both clicks dark and both silent herald detectors quiet
    vac_ok = abs(vac_value - 1e-8 * (1 - 1e-4) ** 2) < 1e-20
    report(
        6,
        exact_pgen and exact_spin and vac_ok,
        f"dark reductions: pgen identical {exact_pgen}, spin identical {exact_spin}, "
        f"vacuum limit {vac_value!r} == P_d^2 (1 - P_d)^2",
    )


def test_criterion_7_spin_spin_structural_suite():
    worst_herm = worst_eig = 0.0
    traces_ok = True
    flip_ok = True
    x_a = np.kron(np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2))
    for params in grid_params():
        dm = spin_spin_dm(params)
        worst_herm = max(worst_herm, dm.hermiticity_defect())
        worst_eig = min(worst_eig, dm.min_eigenvalue())
        traces_ok = traces_ok and 0.0 <= dm.trace <= 1.0
        flipped = spin_spin_dm(params, (0, 1, 1, 1, 0, 0, 1, 0)).entries
        # moving the memory-A click between rails applies the advertised Pauli
        # conjugation: X in the stored rail basis, Z in the logical readout frame
        flip_ok = flip_ok and np.allclose(flipped, x_a @ dm.entries @ x_a, atol=1e-12)
    ok = worst_herm < 1e-10 and worst_eig > -1e-9 and traces_ok and flip_ok
    report(
        7,
        ok,
        f"spin-spin structure: hermiticity {worst_herm:.2e} (<1e-10), min eig {worst_eig:.2e} "
        f"(>-1e-9), traces in [0,1] {traces_ok}, click-flip conjugation {flip_ok}",
    )


def test_criterion_8_purity_and_symplectic_suite():
    # A pure Gaussian state keeps the symplectic form: V Omega V^T = Omega, det V = 1.
    omega = np.block([[np.zeros((4, 4)), np.eye(4)], [-np.eye(4), np.zeros((4, 4))]])
    worst_det = 0.0
    worst_form = 0.0
    for mu in np.linspace(0.0, 20.0, 21):
        cov = build_cascaded_cov(mu)
        worst_det = max(worst_det, abs(np.linalg.det(cov) - 1.0))
        worst_form = max(worst_form, np.max(np.abs(cov @ omega @ cov.T - omega)))
    ok = worst_det < 1e-9 and worst_form < 1e-11
    report(8, ok, f"chain purity |det-1| {worst_det:.2e} (<1e-9), |V Omega V^T - Omega| {worst_form:.2e} (<1e-11)")


def test_criterion_9_interface_fidelity(tmp_path):
    httpd = build_server("127.0.0.1", 0)
    port = httpd.server_address[1]
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        rng = np.random.default_rng(99)
        service_ok = True
        for _ in range(20):
            req = {
                "mean_photon": float(rng.uniform(0.005, 1.0)),
                "bsm_efficiency": float(rng.uniform(0.2, 1.0)),
                "outcoupling_efficiency": float(rng.uniform(0.2, 1.0)),
                "detection_efficiency": float(rng.uniform(0.2, 1.0)),
                "dark_click_prob": float(rng.uniform(0.0, 0.01)),
            }
            http_req = urllib.request.Request(
                f"http://127.0.0.1:{port}/v1/metrics",
                data=json.dumps(req).encode(),
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with urllib.request.urlopen(http_req, timeout=60) as resp:
                payload = json.loads(resp.read())
            params = SourceParams(
                mean_photon=req["mean_photon"],
                eta_b=req["bsm_efficiency"],
                eta_t=req["outcoupling_efficiency"],
                eta_d=req["detection_efficiency"],
                dark_click_prob=req["dark_click_prob"],
            )
            service_ok = service_ok and payload["pgen"] == pgen_with_dark(params).value
            service_ok = service_ok and payload["trace"] == photonic_trace(params).value
            service_ok = service_ok and payload["fidelity"] == fidelity(params).value
    finally:
        httpd.shutdown()
        httpd.server_close()

    args = [
        sys.executable,
        "-m",
        "zalmsim",
        "sweep",
        "--param",
        "mean_photon",
        "--from",
        "0.01",
        "--to",
        "1.0",
        "--steps",
        "5",
        "--scale",
        "log",
        "--metrics",
        "pgen,fidelity,trace",
    ]
    out1 = tmp_path / "sweep1.csv"
    out2 = tmp_path / "sweep2.csv"
    subprocess.run(args + ["--output", str(out1)], check=True, timeout=600)
    subprocess.run(args + ["--output", str(out2)], check=True, timeout=600)
    sweep_ok = out1.read_bytes() == out2.read_bytes()
    report(
        9,
        service_ok and sweep_ok,
        f"service responses bit-identical to library on 20 tuples: {service_ok}; "
        f"sweep byte-identical across runs: {sweep_ok}",
    )


def test_criterion_10_realness_of_heralding_quantities():
    # The engine is real by construction: each value is a Python float and its imaginary residual 0.0.
    worst = 0.0
    floats = True
    results = []
    for params in grid_params():
        for result in (pgen(params), fidelity(params)):
            assert result.ok, f"flagged metric at {params}: {result.flags}"
            results.append(result)
    for eta_b in (1.0, 10 ** (-3 / 10), 10 ** (-6 / 10)):
        for mu in np.geomspace(1e-4, 20.0, 40):
            results.append(pgen(SourceParams(mean_photon=float(mu), eta_b=eta_b)))
    for result in results:
        worst = max(worst, result.imag_residual / max(abs(result.value), 1e-30))
        floats = floats and type(result.value) is float
    report(10, worst < 1e-9 and floats,
           f"imag/real ratio across criteria 1 and 3 evaluations: {worst:.2e} (<1e-9); every value a float: {floats}")


def test_default_herald_pattern_is_printed_one():
    assert DEFAULT_HERALD_PATTERN == (1, 1, 0, 0)
