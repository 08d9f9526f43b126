"""Gaussian moment engine: exponent-matrix assembly, hafnian, and Wick coupling.

All detection-stage quantities reduce to integrals of a polynomial prefactor
against exp(-x^T A x / 2) over the doubled quadrature vector

    x = (q_a1..q_aN, p_a1..p_aN, q_b1..q_bN, p_b1..p_bN)

where the a-block carries the ket kernel and the b-block the conjugated bra
kernel.  Wick's theorem evaluates the polynomial part as a hafnian of
two-point functions drawn from A^{-1}.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalDomainError
from .kfunction import KFunctionData

MAX_REQUEST_CARDINALITY = 16
# Below this many forms, matching enumeration beats hafnian_repeated.
REPEATED_MIN_FORMS = 8


@dataclass(frozen=True)
class LinearForm:
    """Complex linear form over the doubled quadrature vector."""

    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(self.coeffs, dtype=complex)
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)

    def __add__(self, other: "LinearForm") -> "LinearForm":
        return LinearForm(self.coeffs + other.coeffs)

    def __sub__(self, other: "LinearForm") -> "LinearForm":
        return LinearForm(self.coeffs - other.coeffs)

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
            raise ValueError(
                f"request cardinality {len(self.forms)} exceeds the cap of {MAX_REQUEST_CARDINALITY}"
            )


@dataclass(frozen=True)
class AMatrix:
    """Complex symmetric exponent matrix with its cached inverse and log-det."""

    entries: np.ndarray
    inverse: np.ndarray = field(init=False)
    log_det: complex = field(init=False)

    def __post_init__(self):
        m = np.ascontiguousarray(self.entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"A matrix must be square, got shape {m.shape}")
        m = (m + m.T) / 2.0
        m.flags.writeable = False
        object.__setattr__(self, "entries", m)
        sign, logabs = np.linalg.slogdet(m)
        if sign == 0 or not np.isfinite(logabs):
            raise NumericalDomainError("A matrix is singular")
        # Principal branch; physical outputs are asserted real downstream.
        object.__setattr__(self, "log_det", complex(logabs, float(np.angle(sign))))
        inv = np.linalg.inv(m)
        inv = (inv + inv.T) / 2.0
        inv.flags.writeable = False
        object.__setattr__(self, "inverse", inv)

    @property
    def n_modes(self) -> int:
        return self.entries.shape[0] // 4


def assemble_a(k: KFunctionData, eta: np.ndarray) -> AMatrix:
    """Assemble the detection exponent matrix for one set of per-mode efficiencies.

    The ket block is the kernel's exponent matrix and the bra block its
    conjugate.  Each mode contributes an a<->b cross coupling expanded from
    (eta_i - 1)(q_a + i p_a)(q_b - i p_b); a traced-out mode is a mode at
    efficiency 0, whose coupling is -1.  Every off-diagonal contribution is
    halved before symmetric placement so the quadratic form reproduces the
    scalar exponent exactly.
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
        w = eta[mode - 1] - 1.0
        if w == 0.0:
            continue
        qa, pa = mode - 1, n + mode - 1
        qb, pb = 2 * n + mode - 1, 3 * n + mode - 1
        half = 0.5 * w
        for r, c, v in (
            (qa, qb, half),
            (pa, pb, half),
            (qa, pb, -1.0j * half),
            (pa, qb, 1.0j * half),
        ):
            a[r, c] += v
            a[c, r] += v
    return AMatrix(a)


def hafnian(m: np.ndarray) -> complex:
    """Hafnian of a symmetric matrix by exact perfect-matching enumeration.

    Recursion anchors the first remaining index and sums over its (n-1)
    partners, visiting every one of the (n-1)!! matchings once; repeated
    rows are cheaper through hafnian_repeated.
    """
    m = np.asarray(m)
    n = m.shape[0]
    if m.ndim != 2 or m.shape != (n, n):
        raise ValueError(f"hafnian needs a square matrix, got shape {m.shape}")
    if n % 2 != 0:
        raise ValueError(f"hafnian is defined for even dimension, got {n}")

    def rec(idx: tuple[int, ...]) -> complex:
        if not idx:
            return 1.0 + 0.0j
        i0 = idx[0]
        total = 0.0 + 0.0j
        for pos in range(1, len(idx)):
            rest = idx[1:pos] + idx[pos + 1 :]
            total += m[i0, idx[pos]] * rec(rest)
        return total

    return complex(rec(tuple(range(n))))


def hafnian_repeated(m: np.ndarray, reps) -> complex:
    """Hafnian of the symmetric matrix m with row and column i repeated reps[i] times.

    Matches the first remaining row to a copy of itself or of a later row and
    memoises remainders by their repetition counts, so each distinct
    remainder is summed once, not once per matching that reaches it.
    """
    m, reps = np.asarray(m, dtype=complex), tuple(int(r) for r in reps)
    if m.shape != (len(reps), len(reps)) or min(reps, default=0) < 0 or sum(reps) % 2:
        raise ValueError(f"need a square matrix of side {len(reps)} and counts >= 0 of even sum, got {m.shape}, {reps}")
    rows = m.tolist()

    @functools.cache
    def rec(r: tuple[int, ...]) -> complex:
        i = next((i for i, c in enumerate(r) if c), None)
        if i is None:
            return 1.0 + 0.0j
        r = r[:i] + (r[i] - 1,) + r[i + 1 :]
        return sum(r[j] * rows[i][j] * rec(r[:j] + (r[j] - 1,) + r[j + 1 :]) for j in range(i, len(r)) if r[j])

    return complex(rec(reps))


def wick_moment(a: AMatrix, req: MomentRequest) -> complex:
    """Gaussian moment of the request's forms under exp(-x^T A x / 2).

    Stacks the forms into L and evaluates haf(L A^{-1} L^T); no forms give 1
    and odd cardinality vanishes identically.  Repeated forms in
    requests of REPEATED_MIN_FORMS or more go through hafnian_repeated.
    """
    n_forms = len(req.forms)
    if n_forms == 0:
        return 1.0 + 0.0j
    if n_forms % 2 == 1:
        return 0.0 + 0.0j
    groups: dict[bytes, list[np.ndarray]] = {}
    for f in req.forms if n_forms >= REPEATED_MIN_FORMS else ():
        groups.setdefault(f.coeffs.tobytes(), []).append(f.coeffs)
    repeated = 0 < len(groups) < n_forms
    l = np.vstack([g[0] for g in groups.values()] if repeated else [f.coeffs for f in req.forms])
    if l.shape[1] != a.entries.shape[0]:
        raise ValueError(f"form dimension {l.shape[1]} does not match A dimension {a.entries.shape[0]}")
    pair = l @ a.inverse @ l.T
    pair = (pair + pair.T) / 2.0
    return hafnian_repeated(pair, [len(g) for g in groups.values()]) if repeated else hafnian(pair)


def gaussian_prefactor(a: AMatrix, k: KFunctionData) -> complex:
    """Normalization 1 / (det(Gamma)^(1/4) det(Gamma*)^(1/4) sqrt(det A)) = 1 / sqrt(det(Gamma) det A).

    Gamma is real, so the ket and bra kernels give one det(Gamma)^(1/2).
    Computed in log space; the 2 pi powers of the kernel normalization and the
    Gaussian integral cancel exactly at this dimension.
    """
    log_total = -0.5 * k.log_det_gamma - 0.5 * a.log_det
    return complex(np.exp(log_total))
