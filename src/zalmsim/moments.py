"""Chain moment engine: the K-function's moments, the amplitude-basis exponent matrix, hafnians and Wick moments.

The paper's K-function is the coherent-state kernel of the Gaussian source
state.  Written over one chain's amplitudes (a_1..a_4, a_1^dag..a_4^dag)
instead of its quadratures, it is fixed by the chain's excess normally
ordered moments (k_data)

    S = [[N, M], [M, N]],   N = <a^dag a> = mu I,   M = <a a> = sqrt(mu (1 + mu)) P,

with P the heralding splitter's pairing (``sources.PAIRING``): the Husimi
matrix is Q = I + S, and the kernel's exponent is B below at unit
efficiency.  S is known in closed form, so it is never formed as Q - I from
a covariance, which would cancel the O(mu) moments against the vacuum's 1
at small mu.

A Gaussian state with excess moments S and per-mode efficiencies eta has
the Fock elements (Hamilton et al., PRL 119, 170501 (2017), in the form of
The Walrus's ``density_matrix_element``)

    <d| rho |g> = haf(A_(d,g)) / (sqrt(det(I + D S D)) sqrt(d! g!)),   A = X (I + D S D)^-1 D S D,

over the amplitudes (a_1..a_n, a_1^dag..a_n^dag), with D = diag(sqrt(eta),
sqrt(eta)), X the swap of the a and a^dag blocks, and A_(d,g) the submatrix
that repeats a_j's row and column d_j times and a_j^dag's g_j times.  Loss
factors out exactly: (I + D S D)^-1 D S D = D (I + S E)^-1 S D with E = D^2,
so A = D B D with

    B = X (I + S E)^-1 S,

every photon's sqrt(eta) leaves the hafnian (``metrics._weight`` puts it
back), and det(I + D S D) = det(I + S E).  A mode at efficiency 0 is summed
over.

On one chain both herald modes have one efficiency eta_h, so the loss
commutes with the heralding splitter.  Undoing the splitter leaves two equal
squeezed pairs (outer, herald) at efficiencies (eta_o, eta_h), on which
I + S E splits into 2x2 blocks of determinant

    Delta = 1 + (eta_o + eta_h (1 - eta_o)) mu.

So B = [[p P, T], [T, p P]] with p = sqrt(mu (1 + mu)) / Delta and
T = diag(t_o, t_h, t_h, t_o), t_o = (1 - eta_h) mu / Delta,
t_h = (1 - eta_o) mu / Delta, and det(I + S E) = Delta^4 per chain.  No
entry is a difference of nearly equal terms, at any mu or efficiency; the
solve (I + S E)^-1 S is conditioned like 4 mu, and (S^-1 + E)^-1 loses
precision wherever an efficiency is near 0.  B is real, and so is every
Wick moment.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass
from math import isfinite, sqrt

import numpy as np

from .sources import PAIRING

MAX_REQUEST_CARDINALITY = 16
# Below this many forms, matching enumeration beats hafnian_repeated.
REPEATED_MIN_FORMS = 8


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


@dataclass(frozen=True)
class MomentRequest:
    """Multiset of amplitude indices to Wick-contract, one per form.

    On a chain of n modes, index j - 1 is a_j (a ket photon on mode j) and
    n + j - 1 is a_j^dag (a bra photon); a Fock exponent repeats its index.
    """

    forms: tuple[int, ...]

    def __post_init__(self):
        forms = tuple(self.forms)
        object.__setattr__(self, "forms", forms)
        if len(forms) > MAX_REQUEST_CARDINALITY:
            raise ValueError(f"request cardinality {len(forms)} exceeds the cap of {MAX_REQUEST_CARDINALITY}")
        if min(forms, default=0) < 0:
            raise ValueError(f"amplitude indices must be >= 0, got {forms}")


@dataclass(frozen=True)
class AMatrix:
    """One chain's exponent matrix B over its amplitudes, and the 8-mode Gaussian prefactor 1 / det(I + S E)."""

    entries: np.ndarray
    prefactor: float

    def __post_init__(self):
        m = np.ascontiguousarray(self.entries, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] % 2:
            raise ValueError(f"A matrix must be square of even side, got shape {m.shape}")
        m.flags.writeable = False
        object.__setattr__(self, "entries", m)


# PAIRING's rows as Python floats: assemble_a scales them and lays out B in one np.array call.
_PAIRING_ROWS = PAIRING.tolist()


def assemble_a(k: ChainMoments, eta_outer: float, eta_herald: float) -> AMatrix:
    """One chain's closed-form exponent matrix B and prefactor at outer and herald efficiencies.

    The local modes run (outer, herald, herald, outer); an efficiency of 0
    traces its modes out.
    """
    for name, eta in (("eta_outer", eta_outer), ("eta_herald", eta_herald)):
        if not 0.0 <= eta <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {eta}")
    mu = k.mean_photon
    delta = 1.0 + (eta_outer + eta_herald * (1.0 - eta_outer)) * mu
    t_o = (1.0 - eta_herald) * mu / delta
    t_h = (1.0 - eta_outer) * mu / delta
    p = k.pair / delta
    pair = [[p * x for x in row] for row in _PAIRING_ROWS]
    thermal = ([t_o, 0.0, 0.0, 0.0], [0.0, t_h, 0.0, 0.0], [0.0, 0.0, t_h, 0.0], [0.0, 0.0, 0.0, t_o])
    rows = [pr + tr for pr, tr in zip(pair, thermal)] + [tr + pr for pr, tr in zip(pair, thermal)]
    return AMatrix(np.array(rows), delta**-4.0)


def hafnian(m: np.ndarray):
    """Hafnian of a symmetric matrix by exact perfect-matching enumeration, in the type of its entries.

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
    rows = m.tolist()

    def rec(idx: tuple[int, ...]):
        if not idx:
            return 1.0
        row = rows[idx[0]]
        total = 0.0
        for pos in range(1, len(idx)):
            total += row[idx[pos]] * rec(idx[1:pos] + idx[pos + 1 :])
        return total

    return rec(tuple(range(n)))


def hafnian_repeated(m: np.ndarray, reps):
    """Hafnian of the symmetric matrix m with row and column i repeated reps[i] times, in the type of its entries.

    Matches the first remaining row to a copy of itself or of a later row and
    memoises remainders by their repetition counts, so each distinct
    remainder is summed once, not once per matching that reaches it.
    """
    m, reps = np.asarray(m), tuple(int(r) for r in reps)
    if m.shape != (len(reps), len(reps)) or min(reps, default=0) < 0 or sum(reps) % 2:
        raise ValueError(f"need a square matrix of side {len(reps)} and counts >= 0 of even sum, got {m.shape}, {reps}")
    rows = m.tolist()

    @functools.cache
    def rec(r: tuple[int, ...]):
        i = next((i for i, c in enumerate(r) if c), None)
        if i is None:
            return 1.0
        r = r[:i] + (r[i] - 1,) + r[i + 1 :]
        return sum(r[j] * rows[i][j] * rec(r[:j] + (r[j] - 1,) + r[j + 1 :]) for j in range(i, len(r)) if r[j])

    return rec(reps)


def wick_moment(a: AMatrix, req: MomentRequest) -> float:
    """Wick moment of the request's amplitudes: the hafnian of B at their indices.

    No forms give 1 and odd cardinality vanishes identically.  Requests of
    REPEATED_MIN_FORMS or more with repeated indices go through
    hafnian_repeated.
    """
    forms = req.forms
    n_forms = len(forms)
    if n_forms == 0:
        return 1.0
    if n_forms % 2 == 1:
        return 0.0
    if max(forms) >= a.entries.shape[0]:
        raise ValueError(f"amplitude index {max(forms)} out of range for a {a.entries.shape[0]}-dimensional B")
    if n_forms >= REPEATED_MIN_FORMS:
        counts = Counter(forms)
        if len(counts) < n_forms:
            idx = list(counts)
            return hafnian_repeated(a.entries[np.ix_(idx, idx)], list(counts.values()))
    return hafnian(a.entries[np.ix_(forms, forms)])
