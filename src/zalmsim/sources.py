"""Physical source models: SPDC (4 modes) and the cascaded/ZALM source (8 modes)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .phase_space import (
    CovarianceMatrix,
    QuadOrdering,
    apply_symplectic,
    beamsplitter_symplectic,
    direct_sum,
    mode_permutation,
    reorder,
    tmsv_cov,
)

DEFAULT_HERALD_PATTERN = (1, 1, 0, 0)

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

    mean_photon is the mean photon number per mode of each constituent TMSV.
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
        if not np.isfinite(self.mean_photon) or self.mean_photon < 0:
            raise ValueError(f"mean_photon must be finite and >= 0, got {self.mean_photon}")
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


def build_spdc_cov(mu: float) -> CovarianceMatrix:
    """SPDC polarization-entanglement source: two TMSVs with an idler swap.

    Returns the 4-mode covariance in QPQP ordering.  Mode pairs (1, 4) and
    (2, 3) carry the two-mode squeezing correlations.
    """
    two = direct_sum(tmsv_cov(mu, QuadOrdering.QPQP), tmsv_cov(mu, QuadOrdering.QPQP))
    swap = mode_permutation(4, {2: 4, 4: 2}, QuadOrdering.QPQP)
    return apply_symplectic(swap, two)


def build_cascaded_cov(mu: float, t: float = 0.5) -> CovarianceMatrix:
    """Cascaded/ZALM source: two SPDC sources joined by BSM beam splitters.

    The two splitters (transmissivity t, 50/50 by default) act between modes
    (3, 5) and (4, 6).  Returns the 8-mode covariance in QQPP ordering.
    """
    spdc = build_spdc_cov(mu)
    initial = reorder(direct_sum(spdc, spdc), QuadOrdering.QQPP)
    bs35 = beamsplitter_symplectic(8, 3, 5, t, QuadOrdering.QQPP)
    bs46 = beamsplitter_symplectic(8, 4, 6, t, QuadOrdering.QQPP)
    return apply_symplectic(bs46, apply_symplectic(bs35, initial))
