"""Walk through the Gaussian stage of the model.

Builds the two-mode squeezed vacuum, the 4-mode SPDC source, and the 8-mode
cascaded source, and shows the invariants the rest of the package leans on:
unit determinant (pure states), the correlation pattern created by the idler
swap, and agreement with the truncated-Fock second moments.
"""

import numpy as np

from zalmsim import (
    build_cascaded_cov,
    build_spdc_cov,
    oracle_covariance,
    tmsv_cov,
)

np.set_printoptions(precision=4, suppress=True, linewidth=120)

mu = 0.25

print(f"TMSV covariance at mean photon number {mu}, quadratures (q1, q2, p1, p2):")
print(tmsv_cov(mu).entries)

spdc = build_spdc_cov(mu)
print(f"\nSPDC source (4 modes): det = {np.linalg.det(spdc.entries):.12f}")
print("q-q correlation mode 1 <-> 4:", spdc.entries[0, 3], " mode 1 <-> 2:", spdc.entries[0, 1])

casc = build_cascaded_cov(mu)
print(f"\nCascaded source (8 modes): det = {np.linalg.det(casc.entries):.12f}")

reference = oracle_covariance(mu, cutoff=14)
print("max |covariance - truncated-Fock second moments| =", np.max(np.abs(casc.entries - reference)))
