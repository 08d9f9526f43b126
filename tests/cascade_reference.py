"""Reference covariances built without the chain split, for the tests.

A pure Gaussian state made of squeezed pairs and passive optics has
N = <a^dag a> = mu I and M = <a a> = sqrt(mu (1 + mu)) P, where P is the
pairing matrix of the squeezed pairs carried through the optics' unitary,
P = U P0 U^T.  Over (q_1..q_N, p_1..p_N) with unit vacuum variance its
covariance is (1 + 2 mu) I + 2 sqrt(mu (1 + mu)) diag(P, -P).
"""

import numpy as np

# The cascaded source's squeezed pairs and its two 50:50 heralding splitters (1-based modes).
EIGHT_MODE_PAIRS = ((1, 4), (2, 3), (5, 8), (6, 7))
EIGHT_MODE_SPLITTERS = ((3, 5), (4, 6))


def squeezed_cov(mu: float, pairing: np.ndarray) -> np.ndarray:
    squeeze = 2.0 * np.sqrt(mu * (1.0 + mu))
    n = pairing.shape[0]
    cov = (1.0 + 2.0 * mu) * np.eye(2 * n)
    cov[:n, :n] += squeeze * pairing
    cov[n:, n:] -= squeeze * pairing
    return cov


def tmsv_cov(mu: float) -> np.ndarray:
    """One squeezed pair on two modes."""
    return squeezed_cov(mu, np.array([[0.0, 1.0], [1.0, 0.0]]))


def eight_mode_cov(mu: float) -> np.ndarray:
    """The whole 16x16 cascaded covariance: four pairs, then both splitters act on all 8 modes."""
    pairs = np.zeros((8, 8))
    for i, j in EIGHT_MODE_PAIRS:
        pairs[i - 1, j - 1] = pairs[j - 1, i - 1] = 1.0
    unitary = np.eye(8)
    c = np.sqrt(0.5)
    for i, j in EIGHT_MODE_SPLITTERS:
        splitter = np.eye(8)
        splitter[np.ix_([i - 1, j - 1], [i - 1, j - 1])] = [[c, c], [-c, c]]
        unitary = splitter @ unitary
    return squeezed_cov(mu, unitary @ pairs @ unitary.T)
