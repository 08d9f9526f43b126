"""Physical parameters of the cascaded (ZALM) source and the covariance of one of its chains.

The cascaded source is two SPDC sources whose inner modes meet on two 50:50
Bell-measurement splitters, (3, 5) and (4, 6).  Its 8-mode state is exactly
a product of two identical 4-mode chains, modes (1, 4, 6, 7) and (2, 3, 5, 8):
in each, two squeezed-vacuum pairs meet on one heralding splitter, whose
pairing PAIRING carries the chain's correlations.  The engine reads one
chain's moments off PAIRING in the amplitude basis (``moments.k_data``);
build_cascaded_cov gives the same chain's quadrature covariance.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from math import sqrt

import numpy as np

from .errors import OutOfRangeError

DEFAULT_HERALD_PATTERN = (1, 1, 0, 0)
# The largest power of ten at which the precision scan (tests/test_precision.py)
# passes: pgen within 1e-12 relative of its closed form, the trace within 1e-15
# of 1, the lossless fidelity within 1e-12 of 1/2.  At 1e78 the 8-mode
# prefactor (1 + mu)^-4 leaves the normal floats and pgen is 1.5e-12 off.
MAX_MEAN_PHOTON = 1e77

# External names (service fields, CLI flags, sweep parameters) of the numeric
# SourceParams fields; herald_pattern keeps its name.
PARAM_FIELDS = {
    "mean_photon": "mean_photon",
    "bsm_efficiency": "eta_b",
    "outcoupling_efficiency": "eta_t",
    "detection_efficiency": "eta_d",
    "dark_click_prob": "dark_click_prob",
}


def as_count(item) -> int:
    """item as an int: ints and numpy ints pass; a bool, a fractional number or a string raises TypeError."""
    if isinstance(item, bool):
        raise TypeError(f"a boolean is not a count, got {item!r}")
    return operator.index(item)


def parse_counts(counts, size: int, what: str) -> tuple[int, ...]:
    """counts as size nonnegative ints (as_count reads each), else a one-line OutOfRangeError on what."""
    counts = tuple(counts)
    try:
        parsed = tuple(map(as_count, counts))
    except TypeError:
        parsed = ()
    if len(parsed) != size or min(parsed) < 0:
        raise OutOfRangeError(what, f"must be {size} nonnegative integer counts, got {counts}")
    return parsed


@dataclass(frozen=True)
class SourceParams:
    """Physical parameters of one cascaded-source trial.

    mean_photon is the mean photon number per mode of each constituent TMSV,
    at most MAX_MEAN_PHOTON: above it the heralding probability underflows
    out of the normal floats.
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
            raise OutOfRangeError("mean_photon", f"must lie in [0, {MAX_MEAN_PHOTON:g}], got {self.mean_photon}")
        for name in ("eta_b", "eta_t", "eta_d"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise OutOfRangeError(name, f"must lie in [0, 1], got {value}")
        if not 0.0 <= self.dark_click_prob < 1.0:
            raise OutOfRangeError("dark_click_prob", f"must lie in [0, 1), got {self.dark_click_prob}")
        pattern = parse_counts(self.herald_pattern, 4, "herald_pattern")
        if sum(pattern) > 8:
            raise OutOfRangeError("herald_pattern", "exceeds the total click cap of 8")
        object.__setattr__(self, "herald_pattern", pattern)

    @property
    def etas(self) -> list[float]:
        """Per-mode efficiencies as Python floats (eta_t*eta_d on 1,2,7,8 and eta_b on 3-6)."""
        outer, herald = float(self.eta_t * self.eta_d), float(self.eta_b)
        return [outer, outer, herald, herald, herald, herald, outer, outer]

    @property
    def eta_vector(self) -> np.ndarray:
        """etas as a float64 array."""
        return np.array(self.etas)


# The pairing P = U M0 U^T of one chain's squeezed pairs (1, 2) and (3, 4)
# after the 50:50 heralding splitter U on its herald modes (2, 3).
_C = sqrt(0.5)
PAIRING = np.array([[0.0, _C, -_C, 0.0], [_C, 0.0, 0.0, _C], [-_C, 0.0, 0.0, _C], [0.0, _C, _C, 0.0]])
PAIRING.flags.writeable = False

# The quadrature covariance V of build_cascaded_cov (unit vacuum variance) in
# the amplitude basis: with W the map from (q, p) to (a, a^dag), the Husimi
# matrix is Q = W (COVARIANCE_PRESCALE V) W^dag + I/2.
COVARIANCE_PRESCALE = 0.5


def build_cascaded_cov(mu: float) -> np.ndarray:
    """One chain of the cascaded/ZALM source: its 8x8 covariance, in closed form, for 0 <= mu <= MAX_MEAN_PHOTON.

    The local modes run (outer, herald, herald, outer) and the quadratures
    (q_1..q_4, p_1..p_4), with unit vacuum variance.  The squeezed pairs
    (1, 2) and (3, 4) give N = <a^dag a> = mu I and M = <a a> =
    sqrt(mu (1 + mu)) M0; the 50:50 splitter on the herald modes (2, 3)
    keeps N and turns M0 into the pairing P = PAIRING, so

        V = (1 + 2 mu) I + 2 sqrt(mu (1 + mu)) diag(P, -P).
    """
    if not 0.0 <= mu <= MAX_MEAN_PHOTON:
        raise ValueError(f"mean photon number must lie in [0, {MAX_MEAN_PHOTON:g}], got {mu}")
    squeeze = 2.0 * sqrt(mu * (1.0 + mu))
    cov = (1.0 + 2.0 * mu) * np.eye(8)
    cov[:4, :4] += squeeze * PAIRING
    cov[4:, 4:] -= squeeze * PAIRING
    return cov
