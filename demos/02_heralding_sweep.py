"""Heralding probability versus pump strength, with and without BSM loss.

Reproduces the headline phenomenology of the model: the success-probability
peak does not collapse under heralding loss, it migrates to higher mean
photon number.  Writes a CSV table next to this script; plot the columns with
any tool you like.
"""

import csv
from pathlib import Path

import numpy as np

from zalmsim import SourceParams, pgen

mus = np.geomspace(1e-4, 20.0, 200)
loss_settings = {
    "no_loss": 1.0,
    "3dB": 10 ** (-3 / 10),
    "6dB": 10 ** (-6 / 10),
}

curves = {}
for label, eta_b in loss_settings.items():
    curves[label] = [pgen(SourceParams(mean_photon=float(mu), eta_b=eta_b)) for mu in mus]
    peak_at = mus[int(np.argmax(curves[label]))]
    print(f"eta_b = {eta_b:.3f} ({label:8s}): peak pgen = {max(curves[label]):.5f} at mean photon {peak_at:.3f}")

out = Path(__file__).with_suffix(".csv")
with out.open("w", newline="") as fh:
    writer = csv.writer(fh)
    writer.writerow(["mean_photon", *loss_settings])
    for i, mu in enumerate(mus):
        writer.writerow([repr(float(mu))] + [repr(curves[label][i]) for label in loss_settings])
print(f"\nwrote {out}")
