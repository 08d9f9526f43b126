"""Loading the heralded pair into two dual-rail memories.

Computes the unnormalized spin-spin density matrix for the standard click
pattern, its Bell fidelity, and the dark-click mixture, then cross-checks the
whole chain against the truncated-Fock reference.
"""

import numpy as np

from zalmsim import (
    BELL_TARGETS,
    SourceParams,
    bell_fidelity_spin,
    oracle_spin_spin,
    spin_spin_dm,
    spin_spin_dm_dark,
)

np.set_printoptions(precision=6, suppress=True)

params = SourceParams(mean_photon=0.1, eta_b=0.8, eta_t=0.9, eta_d=0.95, dark_click_prob=1e-4)

dm = spin_spin_dm(params)
print("spin-spin density matrix (unnormalized):")
print(dm.entries)
print(f"\nclick-pattern probability (trace): {dm.trace:.6e}")
for target in BELL_TARGETS:
    print(f"  fidelity vs {target:9s}: {bell_fidelity_spin(dm, target):.6f}")

reference = oracle_spin_spin(params.mean_photon, params.eta_vector)
print("\nmax deviation from the truncated-Fock reference:", np.max(np.abs(dm.entries - reference)))

dark = spin_spin_dm_dark(params)
print(f"\nwith dark clicks mixed in: trace {dark.trace:.6e}, "
      f"phi_minus fidelity {bell_fidelity_spin(dark, 'phi_minus'):.6f}")
