"""Inspect the lossy source state element by element in the Fock basis.

Shows the vacuum weight, the dominant pair terms, the Bell coherence between
the two receivers, and a two-photon interference zero: with balanced
splitters, one photon in each input of a splitter never produces one photon
in each output, so the all-singles occupation is forbidden.
"""

import numpy as np

from zalmsim import SourceParams, fock_element, oracle_fock_element

params = SourceParams(mean_photon=0.1, eta_b=0.9, eta_t=0.95)
herald = (1, 1, 0, 0)

vac = fock_element(params, (0,) * 8, (0,) * 8)
print(f"vacuum weight <0|rho|0> = {vac:.6f}  (closed form at eta=1 would be (1+mu)^-4 = {1.1 ** -4:.6f})")

e1 = (1, 0) + herald + (0, 1)
e2 = (0, 1) + herald + (1, 0)
t11 = fock_element(params, e1, e1)
t22 = fock_element(params, e2, e2)
t12 = fock_element(params, e1, e2)
print(f"\nheralded pair terms: <e1|rho|e1> = {t11:.3e}, <e2|rho|e2> = {t22:.3e}")
print(f"Bell coherence <e1|rho|e2> = {t12:.3e} (positive: the heralded pair is phase-aligned)")

ref = oracle_fock_element(params.mean_photon, params.eta_vector, e1, e2)
print(f"reference value agrees: |difference| = {abs(t12 - ref):.2e}")

ones = (1,) * 8
exact = fock_element(SourceParams(mean_photon=0.1), ones, ones)
lossy = fock_element(params, ones, ones)
print(f"\nall-singles occupation |1,...,1>: {abs(exact):.2e} without loss "
      f"(two-photon interference forbids it exactly), {abs(lossy):.2e} with loss")
