"""The K-function of one chain, in the amplitude basis.

The paper's K-function is the coherent-state kernel of the Gaussian source
state.  Written over one chain's amplitudes (a_1..a_4, a_1^dag..a_4^dag)
instead of its quadratures, it is fixed by the chain's excess normally
ordered moments

    S = [[N, M], [M, N]],   N = <a^dag a> = mu I,   M = <a a> = sqrt(mu (1 + mu)) P,

with P the heralding splitter's pairing (``sources.PAIRING``): the Husimi
matrix is Q = I + S and the kernel's exponent follows from (I + S)^-1 S.  S
is known in closed form, so it is never formed as Q - I from a covariance,
which would cancel the O(mu) moments against the vacuum's 1 at small mu.

COVARIANCE_PRESCALE relates the quadrature covariance V of
``sources.build_cascaded_cov`` (unit vacuum variance) to the amplitude
basis: with W the map from (q, p) to (a, a^dag), Q = W (COVARIANCE_PRESCALE
V) W^dag + I/2.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite, sqrt

COVARIANCE_PRESCALE = 0.5


@dataclass(frozen=True)
class ChainMoments:
    """One chain's excess moments: N = mean_photon I and M = pair P."""

    mean_photon: float
    pair: float


def k_data(mu: float) -> ChainMoments:
    """The chain's excess moments at mean photon number mu per squeezed mode.

    sqrt(mu) sqrt(1 + mu) instead of sqrt(mu (1 + mu)) keeps the pair moment
    finite wherever mu is.
    """
    if not isfinite(mu) or mu < 0:
        raise ValueError(f"mean photon number must be finite and >= 0, got {mu}")
    return ChainMoments(float(mu), sqrt(mu) * sqrt(1.0 + mu))
