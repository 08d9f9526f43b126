"""Walk through the Gaussian stage of the model: one chain's covariance.

The cascaded source is a product of two identical 4-mode chains, so the
engine builds only one chain's 8x8 covariance, in closed form.  This shows
the closed form, the invariant the rest of the package leans on (unit
determinant: a pure state), the correlations the heralding splitter creates,
and agreement with the truncated-Fock second moments.
"""

import numpy as np

from zalmsim import build_cascaded_cov, oracle_covariance

np.set_printoptions(precision=4, suppress=True, linewidth=120)

mu = 0.25

cov = build_cascaded_cov(mu)
print(f"Chain covariance at mean photon number {mu}")
print("local modes (outer, herald, herald, outer), quadratures (q1..q4, p1..p4):")
print(cov)
print(f"\ndet = {np.linalg.det(cov):.12f} (pure state)")

# Before the splitter the pairs are (outer 1, herald 2) and (herald 3, outer 4);
# the 50:50 splitter spreads each outer mode's correlation over both heralds.
squeeze = 2.0 * np.sqrt(mu * (1.0 + mu))
print(f"\nq-q correlations, in units of the unsplit pair's 2 sqrt(mu (1 + mu)) = {squeeze:.4f}:")
for i, j in ((0, 1), (0, 2), (3, 1), (3, 2), (0, 3), (1, 2)):
    print(f"  mode {i + 1} <-> {j + 1}: {cov[i, j] / squeeze:+.4f}")

reference = oracle_covariance(mu, cutoff=14)
print("\nmax |covariance - truncated-Fock second moments| =", np.max(np.abs(cov - reference)))
