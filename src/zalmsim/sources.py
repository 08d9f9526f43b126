"""Physical parameters of the cascaded (ZALM) source and the covariance of one of its chains.

The cascaded source is two SPDC sources whose inner modes meet on two 50:50
Bell-measurement splitters, (3, 5) and (4, 6).  Its 8-mode state is exactly
a product of two identical 4-mode chains, modes (1, 4, 6, 7) and (2, 3, 5, 8):
in each, two squeezed-vacuum pairs meet on one heralding splitter.  Only one
chain's covariance is ever built.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

DEFAULT_HERALD_PATTERN = (1, 1, 0, 0)
# The largest power of ten at which the engine's measured |trace - 1| (1.5e-10)
# stays within metrics.REAL_TOLERANCE = 1e-9; at 1e7 it is 5.4e-9.
MAX_MEAN_PHOTON = 1e6

# External names (service fields, CLI flags, sweep parameters) of the numeric
# SourceParams fields; herald_pattern keeps its name.
PARAM_FIELDS = {
    "mean_photon": "mean_photon",
    "bsm_efficiency": "eta_b",
    "outcoupling_efficiency": "eta_t",
    "detection_efficiency": "eta_d",
    "dark_click_prob": "dark_click_prob",
}


@dataclass(frozen=True)
class SourceParams:
    """Physical parameters of one cascaded-source trial.

    mean_photon is the mean photon number per mode of each constituent TMSV,
    at most MAX_MEAN_PHOTON: above it double precision no longer keeps the
    trace within 1e-9 of 1.
    eta_b is the heralding (BSM) path efficiency applied to modes 3-6,
    eta_t the transmission and eta_d the detector efficiency applied to the
    outer modes 1, 2, 7, 8.  dark_click_prob is the per-detector dark click
    probability.
    """

    mean_photon: float
    eta_b: float = 1.0
    eta_t: float = 1.0
    eta_d: float = 1.0
    dark_click_prob: float = 0.0
    herald_pattern: tuple[int, int, int, int] = DEFAULT_HERALD_PATTERN

    def __post_init__(self):
        if not 0.0 <= self.mean_photon <= MAX_MEAN_PHOTON:
            raise ValueError(f"mean_photon must lie in [0, {MAX_MEAN_PHOTON:g}], got {self.mean_photon}")
        for name in ("eta_b", "eta_t", "eta_d"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")
        if not 0.0 <= self.dark_click_prob < 1.0:
            raise ValueError(f"dark_click_prob must lie in [0, 1), got {self.dark_click_prob}")
        pattern = tuple(int(n) for n in self.herald_pattern)
        if len(pattern) != 4 or any(n < 0 for n in pattern):
            raise ValueError(f"herald_pattern must be 4 nonnegative counts, got {self.herald_pattern}")
        if sum(pattern) > 8:
            raise ValueError("herald_pattern exceeds the total click cap of 8")
        object.__setattr__(self, "herald_pattern", pattern)

    @property
    def eta_vector(self) -> np.ndarray:
        """Per-mode efficiencies (eta_t*eta_d on 1,2,7,8 and eta_b on 3-6)."""
        out = self.eta_t * self.eta_d
        return np.array([out, out, self.eta_b, self.eta_b, self.eta_b, self.eta_b, out, out])


def params_from_external(values: dict) -> SourceParams:
    """SourceParams from a mapping keyed by external names; absent fields keep their defaults."""
    fields = {PARAM_FIELDS.get(name, name): value for name, value in values.items()}
    if "herald_pattern" in fields:
        fields["herald_pattern"] = tuple(fields["herald_pattern"])
    return SourceParams(**fields)


def build_cascaded_cov(mu: float) -> np.ndarray:
    """One chain of the cascaded/ZALM source: its 8x8 covariance, in closed form.

    The local modes run (outer, herald, herald, outer) and the quadratures
    (q_1..q_4, p_1..p_4), with unit vacuum variance.  The squeezed pairs
    (1, 2) and (3, 4) give N = <a^dag a> = mu I and M = <a a> =
    sqrt(mu (1 + mu)) M0; the 50:50 splitter on the herald modes (2, 3)
    keeps N and turns M0 into the pairing P = U M0 U^T below, so

        V = (1 + 2 mu) I + 2 sqrt(mu (1 + mu)) diag(P, -P).
    """
    if not np.isfinite(mu) or mu < 0:
        raise ValueError(f"mean photon number must be finite and >= 0, got {mu}")
    c = sqrt(0.5)
    pairing = np.array([[0.0, c, -c, 0.0], [c, 0.0, 0.0, c], [-c, 0.0, 0.0, c], [0.0, c, c, 0.0]])
    squeeze = 2.0 * sqrt(mu * (1.0 + mu))
    cov = (1.0 + 2.0 * mu) * np.eye(8)
    cov[:4, :4] += squeeze * pairing
    cov[4:, 4:] -= squeeze * pairing
    return cov
