"""Precision of the engine over its whole accepted range of mean photon numbers.

The grid is mean_photon = 10^k from 1e-20 up to sources.MAX_MEAN_PHOTON,
times heralding efficiency eta_b in {1, 0.5, 1e-6}, times outer efficiency
eta_t in {1, 1e-6, 0}.  MAX_MEAN_PHOTON is the largest power of ten at which
every check here passes: one decade above it, the 8-mode prefactor
(1 + mu)^-4 and pgen ~ mu^-4 at eta_b = 1 are no longer normal floats, and
pgen is 1.5e-12 off its closed form.
"""

import random
from fractions import Fraction
from math import log10, ulp

import pytest

from zalmsim import SourceParams, fidelity, pgen, pgen_with_dark, photonic_trace
from zalmsim.sources import MAX_MEAN_PHOTON

MEAN_PHOTONS = [10.0**k for k in range(-20, round(log10(MAX_MEAN_PHOTON)) + 1)]
HERALD_EFFICIENCIES = (1.0, 0.5, 1e-6)
OUTER_EFFICIENCIES = (1.0, 1e-6, 0.0)
# A fidelity that is 0 in exact arithmetic comes out as a sum of terms that cancel to rounding.
FIDELITY_ROUNDING = 1e-15


def exact_pgen(mu: float, eta_b: float, dark_click_prob: float = 0.0) -> Fraction:
    """The heralding probability of pattern (1, 1, 0, 0) with dark counts, in exact arithmetic.

    Herald detectors 3 and 5 sit on chain B, 4 and 6 on chain A, so the dark
    mixture factorizes into one chain's ((1 - P_d)^2 q + P_d (1 - P_d) v)
    squared, with q = x / (1 + x)^3 its probability of counts (1, 0),
    v = 1 / (1 + x)^2 that of (0, 0) and x = eta_b mu.  At P_d = 0 this is
    (eta_b mu)^2 / (1 + eta_b mu)^6.
    """
    x = Fraction(eta_b) * Fraction(mu)
    pd = Fraction(dark_click_prob)
    return ((1 - pd) ** 2 * x / (1 + x) ** 3 + pd * (1 - pd) / (1 + x) ** 2) ** 2


@pytest.mark.parametrize("mu", MEAN_PHOTONS)
def test_scan(mu):
    for eta_b in HERALD_EFFICIENCIES:
        for eta_t in OUTER_EFFICIENCIES:
            params = SourceParams(mean_photon=mu, eta_b=eta_b, eta_t=eta_t)
            exact = exact_pgen(mu, eta_b)
            assert abs(Fraction(pgen(params)) - exact) <= Fraction(1e-12) * exact, (eta_b, eta_t)
            assert abs(photonic_trace(params) - 1.0) <= 1e-15
            for target in ("psi_minus", "psi_plus"):
                value = fidelity(params, target)
                assert -FIDELITY_ROUNDING <= value <= 1.0 + FIDELITY_ROUNDING, (eta_b, eta_t, target)
    # without loss the fidelity is 1/2 at every mean photon number
    assert abs(fidelity(SourceParams(mean_photon=mu)) - 0.5) <= 1e-12


# The engine's pgen at herald (1, 1, 0, 0) against its exact rational value, in units in the last place of
# that value: 16 ulps, at most 3.6e-15 relative, where test_scan allows 1e-12.  The 200 points below reach
# 6.7 ulps; 4000 points drawn the same way (seeds 1 and 2) reach 9.8 ulps (mu = 3.22, eta_b = 0.315).
PGEN_ULP_BUDGET = 16


def ulps_off(value: float, exact: Fraction) -> float:
    return float(abs(Fraction(value) - exact) / Fraction(ulp(float(exact))))


def test_pgen_within_ulp_budget_of_exact_value():
    rng = random.Random(20)
    worst = (0.0, 0.0, 0.0)  # (ulps, mu, eta_b)
    for _ in range(200):
        mu = 10.0 ** rng.uniform(-6.0, 3.0)
        eta_b = 1.0 - rng.random()  # uniform in (0, 1]
        off = ulps_off(pgen(SourceParams(mean_photon=mu, eta_b=eta_b)), exact_pgen(mu, eta_b))
        worst = max(worst, (off, mu, eta_b))
    assert worst[0] <= PGEN_ULP_BUDGET, worst


def test_pgen_with_dark_within_ulp_budget_of_exact_value():
    # The same budget, with P_d = 0 and a drawn P_d at each point: these reach 5.3 ulps; 2000 points drawn the
    # same way (seed 1) reach 9.5 ulps (mu = 367, eta_b = 0.175, P_d = 1.5e-5).
    rng = random.Random(21)
    worst = (0.0, 0.0, 0.0, 0.0)  # (ulps, mu, eta_b, P_d)
    for _ in range(200):
        mu = 10.0 ** rng.uniform(-6.0, 3.0)
        eta_b = 1.0 - rng.random()  # uniform in (0, 1]
        for pd in (0.0, 10.0 ** rng.uniform(-8.0, log10(0.5))):  # log-uniform in [1e-8, 0.5), and 0
            params = SourceParams(mean_photon=mu, eta_b=eta_b, dark_click_prob=pd)
            worst = max(worst, (ulps_off(pgen_with_dark(params), exact_pgen(mu, eta_b, pd)), mu, eta_b, pd))
    assert worst[0] <= PGEN_ULP_BUDGET, worst
