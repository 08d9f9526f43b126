"""Real symplectic linear algebra over the grouped quadrature vector.

Covariance matrices are kept in the normalization where the vacuum state has
unit variance on every quadrature (vacuum covariance = identity).  The
quadrature vector of N modes is always

    (q_1, ..., q_N, p_1, ..., p_N)

which is the layout the coherent-basis kernel reads its blocks from.  Modes
are numbered 1..N in the public API.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.flags.writeable = False
    return arr


def _quad_matrix(entries) -> np.ndarray:
    m = np.asarray(entries, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] % 2:
        raise ValueError(f"expected 2N x 2N entries, got shape {m.shape}")
    return m


def quad_slots(mode: int, n_modes: int) -> tuple[int, int]:
    """0-based (q, p) row indices of a 1-based mode."""
    if not 1 <= mode <= n_modes:
        raise ValueError(f"mode {mode} outside 1..{n_modes}")
    return mode - 1, n_modes + mode - 1


def symplectic_form(n_modes: int) -> np.ndarray:
    """The form Omega with [x_i, x_j] = 2i Omega_ij."""
    omega = np.zeros((2 * n_modes, 2 * n_modes))
    for mode in range(1, n_modes + 1):
        q, p = quad_slots(mode, n_modes)
        omega[q, p] = 1.0
        omega[p, q] = -1.0
    return omega


@dataclass(frozen=True)
class CovarianceMatrix:
    """Symmetrized second-moment matrix of a zero-mean Gaussian state."""

    entries: np.ndarray

    def __post_init__(self):
        m = _quad_matrix(self.entries)
        object.__setattr__(self, "entries", _frozen((m + m.T) / 2.0))

    @property
    def n_modes(self) -> int:
        return self.entries.shape[0] // 2


@dataclass(frozen=True)
class SymplecticOp:
    """Real linear map on the quadrature vector, S Omega S^T = Omega."""

    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "entries", _frozen(_quad_matrix(self.entries)))

    @property
    def n_modes(self) -> int:
        return self.entries.shape[0] // 2

    def symplectic_defect(self) -> float:
        """Max-norm of S Omega S^T - Omega; exactly symplectic ops give ~0."""
        omega = symplectic_form(self.n_modes)
        return float(np.max(np.abs(self.entries @ omega @ self.entries.T - omega)))


def tmsv_cov(mu: float) -> CovarianceMatrix:
    """Two-mode squeezed vacuum covariance with mean photon number mu per mode."""
    if not np.isfinite(mu) or mu < 0:
        raise ValueError(f"mean photon number must be finite and >= 0, got {mu}")
    d = 1.0 + 2.0 * mu
    c = 2.0 * np.sqrt(mu * (mu + 1.0))
    gp = np.array([[d, c], [c, d]])
    gm = np.array([[d, -c], [-c, d]])
    return CovarianceMatrix(np.block([[gp, np.zeros((2, 2))], [np.zeros((2, 2)), gm]]))


def mode_permutation(n_modes: int, mapping: dict[int, int]) -> SymplecticOp:
    """Symplectic permutation sending mode i to mode mapping[i] (identity elsewhere).

    ``mapping`` is given on 1-based mode labels and must be a bijection on the
    modes it mentions.
    """
    full = {i: mapping.get(i, i) for i in range(1, n_modes + 1)}
    if sorted(full.values()) != list(range(1, n_modes + 1)):
        raise ValueError(f"mapping {mapping} is not a bijection on 1..{n_modes}")
    s = np.zeros((2 * n_modes, 2 * n_modes))
    for src, dst in full.items():
        qs, ps = quad_slots(src, n_modes)
        qd, pd = quad_slots(dst, n_modes)
        s[qd, qs] = 1.0
        s[pd, ps] = 1.0
    return SymplecticOp(s)


def beamsplitter_symplectic(n_modes: int, i: int, j: int, t: float) -> SymplecticOp:
    """Beam splitter of transmissivity t between modes i and j.

    Acts as [[sqrt(t), sqrt(1-t)], [-sqrt(1-t), sqrt(t)]] on the (q_i, q_j)
    pair and identically on (p_i, p_j).
    """
    if i == j:
        raise ValueError("beam splitter needs two distinct modes")
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"transmissivity must lie in [0, 1], got {t}")
    ct = np.sqrt(t)
    st = np.sqrt(1.0 - t)
    s = np.eye(2 * n_modes)
    qi, pi = quad_slots(i, n_modes)
    qj, pj = quad_slots(j, n_modes)
    for a, b in ((qi, qj), (pi, pj)):
        s[a, a] = ct
        s[a, b] = st
        s[b, a] = -st
        s[b, b] = ct
    return SymplecticOp(s)


def apply_symplectic(s: SymplecticOp, cov: CovarianceMatrix) -> CovarianceMatrix:
    """Transform the state: V -> S V S^T (re-symmetrized)."""
    if s.n_modes != cov.n_modes:
        raise ValueError(f"mode count mismatch: {s.n_modes} vs {cov.n_modes}")
    return CovarianceMatrix(s.entries @ cov.entries @ s.entries.T)


def direct_sum(a: CovarianceMatrix, b: CovarianceMatrix) -> CovarianceMatrix:
    """Covariance of the joint product state of two independent blocks.

    The joint quad vector stays (q ... q, p ... p) with a's modes first, so
    each block's q and p halves interleave into the joint matrix.
    """
    na = a.n_modes
    n = na + b.n_modes
    joint = np.zeros((2 * n, 2 * n))
    idx_a = np.r_[0:na, n : n + na]
    idx_b = np.r_[na:n, n + na : 2 * n]
    joint[np.ix_(idx_a, idx_a)] = a.entries
    joint[np.ix_(idx_b, idx_b)] = b.entries
    return CovarianceMatrix(joint)
