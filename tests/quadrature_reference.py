"""The quadrature K-function path, for the tests.

The engine reads every moment off one chain's amplitude-basis exponent
matrix (zalmsim.moments.assemble_a).  This module keeps the route it
replaced: the coherent-basis kernel of a covariance from a Cholesky of
Gamma, a 4N x 4N complex exponent matrix over the doubled quadrature vector

    x = (q_a1..q_aN, p_a1..p_aN, q_b1..q_bN, p_b1..p_bN)

(ket kernel in the a-block, conjugated bra kernel in the b-block, one
a<->b loss coupling per mode), and Wick moments haf(L A^-1 L^T) of complex
linear forms L.  It shares no linear algebra with the amplitude-basis stage,
so the tests check the chain engine against it on the full 8-mode state.

For a zero-mean state with covariance V the overlap with an N-mode coherent
state is a Gaussian

    (2 pi)^N K(x) = exp(-x^T B x / 2) / det(Gamma)^(1/4)

with Gamma = COVARIANCE_PRESCALE * V + I/2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from zalmsim import NumericalDomainError
from zalmsim.moments import hafnian
from zalmsim.sources import COVARIANCE_PRESCALE

MAX_REQUEST_CARDINALITY = 16


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class KFunctionData:
    n_modes: int
    gamma: np.ndarray
    log_det_gamma: float
    script_b: np.ndarray

    def __post_init__(self):
        for name in ("gamma", "script_b"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))


def k_data(cov: np.ndarray) -> KFunctionData:
    """Gaussian kernel data (Gamma, its log-det, and the exponent matrix) for a 2N x 2N covariance.

    The covariance's (q..q, p..p) layout is the coherent quadrature vector's,
    so the q-q, q-p and p-p blocks of Gamma^-1 build the exponent matrix directly.
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


@dataclass(frozen=True)
class LinearForm:
    """Complex linear form over the doubled quadrature vector."""

    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _frozen(np.asarray(self.coeffs, dtype=complex)))

    def __add__(self, other: "LinearForm") -> "LinearForm":
        return LinearForm(self.coeffs + other.coeffs)

    def __mul__(self, scalar: complex) -> "LinearForm":
        return LinearForm(self.coeffs * scalar)

    __rmul__ = __mul__


def alpha_form(mode: int, n_modes: int = 8) -> LinearForm:
    """Ket-side coherent amplitude alpha_j = (q_aj + i p_aj)/sqrt(2)."""
    coeffs = np.zeros(4 * n_modes, dtype=complex)
    coeffs[mode - 1] = 1.0 / np.sqrt(2.0)
    coeffs[n_modes + mode - 1] = 1.0j / np.sqrt(2.0)
    return LinearForm(coeffs)


def beta_conj_form(mode: int, n_modes: int = 8) -> LinearForm:
    """Bra-side conjugated amplitude beta_j* = (q_bj - i p_bj)/sqrt(2)."""
    coeffs = np.zeros(4 * n_modes, dtype=complex)
    coeffs[2 * n_modes + mode - 1] = 1.0 / np.sqrt(2.0)
    coeffs[3 * n_modes + mode - 1] = -1.0j / np.sqrt(2.0)
    return LinearForm(coeffs)


@dataclass(frozen=True)
class MomentRequest:
    """Multiset of linear forms to Wick-integrate; repeated Fock exponents enter as repeated forms."""

    forms: tuple[LinearForm, ...]

    def __post_init__(self):
        object.__setattr__(self, "forms", tuple(self.forms))
        if len(self.forms) > MAX_REQUEST_CARDINALITY:
            raise ValueError(f"request cardinality {len(self.forms)} exceeds the cap of {MAX_REQUEST_CARDINALITY}")


@dataclass(frozen=True)
class AMatrix:
    """Complex symmetric exponent matrix with its inverse and log-det."""

    entries: np.ndarray
    inverse: np.ndarray = field(init=False)
    log_det: complex = field(init=False)

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"A matrix must be square, got shape {m.shape}")
        m = (m + m.T) / 2.0
        object.__setattr__(self, "entries", _frozen(m))
        sign, logabs = np.linalg.slogdet(m)
        if sign == 0 or not np.isfinite(logabs):
            raise NumericalDomainError("A matrix is singular")
        # Principal branch; physical outputs are asserted real downstream.
        object.__setattr__(self, "log_det", complex(logabs, float(np.angle(sign))))
        inv = np.linalg.inv(m)
        object.__setattr__(self, "inverse", _frozen((inv + inv.T) / 2.0))


def assemble_a(k: KFunctionData, eta) -> AMatrix:
    """Detection exponent matrix for per-mode efficiencies; a traced-out mode is a mode at efficiency 0.

    The ket block is the kernel's exponent matrix and the bra block its
    conjugate.  Each mode adds the a<->b coupling expanded from
    (eta_i - 1)(q_a + i p_a)(q_b - i p_b), halved before symmetric placement.
    """
    n = k.n_modes
    eta = np.asarray(eta, dtype=float)
    if eta.shape != (n,):
        raise ValueError(f"expected {n} per-mode efficiencies, got shape {eta.shape}")
    if np.any(eta < 0.0) or np.any(eta > 1.0):
        raise ValueError("efficiencies must lie in [0, 1]")
    dim = 4 * n
    a = np.zeros((dim, dim), dtype=complex)
    a[: 2 * n, : 2 * n] = k.script_b
    a[2 * n :, 2 * n :] = np.conj(k.script_b)
    a += 0.5 * np.eye(dim)
    for mode in range(1, n + 1):
        half = 0.5 * (eta[mode - 1] - 1.0)
        if half == 0.0:
            continue
        qa, pa = mode - 1, n + mode - 1
        qb, pb = 2 * n + mode - 1, 3 * n + mode - 1
        for r, c, v in ((qa, qb, half), (pa, pb, half), (qa, pb, -1.0j * half), (pa, qb, 1.0j * half)):
            a[r, c] += v
            a[c, r] += v
    return AMatrix(a)


def wick_moment(a: AMatrix, req: MomentRequest) -> complex:
    """haf(L A^-1 L^T) for the request's forms stacked into L; no forms give 1, odd cardinality 0."""
    n_forms = len(req.forms)
    if n_forms == 0:
        return 1.0 + 0.0j
    if n_forms % 2 == 1:
        return 0.0 + 0.0j
    l = np.vstack([f.coeffs for f in req.forms])
    if l.shape[1] != a.entries.shape[0]:
        raise ValueError(f"form dimension {l.shape[1]} does not match A dimension {a.entries.shape[0]}")
    pair = l @ a.inverse @ l.T
    return hafnian((pair + pair.T) / 2.0)


def gaussian_prefactor(a: AMatrix, k: KFunctionData) -> complex:
    """1 / sqrt(det(Gamma) det A): the ket and bra kernels' det(Gamma)^(1/4) each, times the integral's det A^(-1/2)."""
    return complex(np.exp(-0.5 * k.log_det_gamma - 0.5 * a.log_det))
