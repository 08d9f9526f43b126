"""Coherent-basis kernel of a Gaussian pure state.

For a zero-mean state with covariance V the overlap with an N-mode coherent
state, written over the coherent amplitude quadratures x = (q_1..q_N, p_1..p_N)
with alpha_k = (q_k + i p_k)/sqrt(2), is a Gaussian

    (2 pi)^N K(x) = exp(-x^T B x / 2) / det(Gamma)^(1/4)

with Gamma = kappa*V + I/2.  The prescale kappa = 1/2 reconciles the unit
vacuum variance of the covariance stage with the hbar = 1 normalization this
kernel assumes; it is pinned by the vacuum kernel (B = I/2), trace
preservation, and the truncated-Fock cross-checks in the test suite.

The engine takes the kernel of one chain's 8x8 closed-form covariance
(``sources.build_cascaded_cov``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalDomainError

COVARIANCE_PRESCALE = 0.5


@dataclass(frozen=True)
class KFunctionData:
    n_modes: int
    gamma: np.ndarray
    log_det_gamma: float
    script_b: np.ndarray

    def __post_init__(self):
        for name in ("gamma", "script_b"):
            arr = np.ascontiguousarray(getattr(self, name))
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def k_data(cov: np.ndarray) -> KFunctionData:
    """Gaussian kernel data (Gamma, its log-det, and the exponent matrix) for a 2N x 2N covariance.

    Gamma = COVARIANCE_PRESCALE * V + I/2.  The covariance's (q..q, p..p)
    layout is the coherent quadrature vector's, so the q-q, q-p and p-p
    blocks of Gamma^-1 build the exponent matrix directly.
    """
    n = cov.shape[0] // 2
    gamma = COVARIANCE_PRESCALE * cov + 0.5 * np.eye(2 * n)
    gamma = (gamma + gamma.T) / 2.0
    try:
        chol = np.linalg.cholesky(gamma)
    except np.linalg.LinAlgError as exc:
        raise NumericalDomainError(f"Gamma is not positive definite: {exc}") from exc
    log_det_gamma = 2.0 * float(np.sum(np.log(np.diag(chol))))
    chol_inv = np.linalg.inv(chol)
    inv = chol_inv.T @ chol_inv
    inv = (inv + inv.T) / 2.0
    a = inv[:n, :n]
    c = inv[:n, n:]
    b = inv[n:, n:]
    cs = c + c.T
    ab = a - b
    script_b = 0.5 * np.block(
        [
            [a + 0.5j * cs, c - 0.5j * ab],
            [c.T - 0.5j * ab, b - 0.5j * cs],
        ]
    )
    script_b = (script_b + script_b.T) / 2.0
    return KFunctionData(n, gamma, log_det_gamma, script_b)
