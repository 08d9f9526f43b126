"""Brute-force truncated-Fock reference for the Gaussian/Wick pipeline.

Everything here works directly with Fock amplitudes of the cascaded source:
four truncated TMSV ladders, idler swaps, 50:50 beam splitters applied per
photon-number sector (the exponential of the sector's generator, taken in the
eigenbasis of a numpy Hermitian eigensolve), Kraus loss, and explicit
detection kernels.  Independent of the engine's amplitude-basis K-function
machinery by construction; agreement between the two is the package's core
correctness argument.  Every scalar quantity is one lossy-state element
<d| rho |g> from ``_element``: two truncated chain states contracted with
one detection kernel per mode at that mode's own efficiency, a traced mode
being a vacuum detection at efficiency 0.  ``_chain_state`` holds a chain's
state as one array psi[u, v, a] over its TMSV ladders and splitter output,
gathered from a per-cutoff table of the sector unitaries (``_bs_table``).
An entry point's elements at one cutoff share a ``_chain_table``, which
takes each distinct chain contraction once.
The full truncated state, which the Kraus-branch heralding path needs, has
one builder: ``build_pre_bsm_state``, then the (3, 5) and (4, 6) splitters.
A ``TruncatedState`` holds it as arrays, one (occupations, amplitudes) pair
per Kraus branch, in an entry order every function keeps, so each sum over
it runs in one fixed order.  ``oracle_pgen_filtered`` projects each of its
entries onto the herald pattern through the one Kraus index per mode that
reaches it, with the coefficients ``oracle_apply_loss`` uses
(``_kraus_coeffs``).  Public entry points check their physical inputs once
and raise a one-line ``ValueError``.  ``oracle_covariance`` reports one
chain's second moments as ``_chain_value`` contractions with ladder-operator
kernels, the quantity the engine's closed-form chain covariance is checked against.

Mode bookkeeping: TMSV ladder indices (n, m, k, l) populate modes
(1,4) = n, (2,3) = m, (5,8) = k, (6,7) = l before the splitters mix
(3,5) and (4,6).  Metrics factor into two independent "chains":
chain A covers modes 1, 7 and the (4,6) splitter (indices n, l), chain B
covers modes 2, 8 and the (3,5) splitter (indices m, k).
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from math import factorial, sqrt

import numpy as np

from .errors import ConvergenceError, UndefinedFidelityError

# Mixing angle of the 50:50 Bell-measurement splitters.
BS_THETA = np.pi / 4
CUTOFF_START = 4
CUTOFF_STEP = 2
CUTOFF_CAP = 30
CONVERGENCE_ATOL = 1e-11
CONVERGENCE_RTOL = 1e-10


def _tmsv_amps(mu: float, nmax: int) -> np.ndarray:
    n = np.arange(nmax + 1)
    return np.sqrt(mu**n / (1.0 + mu) ** (n + 1))


@functools.lru_cache(maxsize=4096)
def _bs_sector(total: int) -> np.ndarray:
    """The 50:50 beam splitter's unitary within one photon-number sector.

    Basis |a, total-a> indexed by the first mode's count; generated by
    a1^dag a2 - a1 a2^dag so that a1^dag -> cos(BS_THETA) a1^dag - sin(BS_THETA) a2^dag.
    """
    # exp(BS_THETA g) for the real antisymmetric tridiagonal generator g, from
    # the eigenbasis of the Hermitian i g: exp(BS_THETA g) = V exp(-i BS_THETA L) V^dag.
    a = np.arange(total)
    s = np.sqrt((a + 1.0) * (total - a))
    g = np.diag(s, -1) - np.diag(s, 1)
    lam, v = np.linalg.eigh(1j * g)
    return ((v * np.exp(-1j * BS_THETA * lam)) @ v.conj().T).real


# A detection or ladder-operator kernel on one mode, (shift, vec): vec[o] weighs ket o against bra o + shift.
Kernel = tuple[int, np.ndarray]


def _kernel_vec(nmax: int, d: int, g: int, eta: float) -> Kernel:
    """Detection kernel <d| L_eta(|o><o'|) |g> as (shift, vec) with o' = o + shift.

    The Kraus index is forced to K = o - d = o' - g; vec[o] holds the value.
    """
    shift = g - d
    vec = np.zeros(nmax + 1)
    for o in range(d, nmax + 1):
        op = o + shift
        if op < 0:
            continue
        kk = o - d
        vec[o] = (
            (1.0 - eta) ** kk
            / factorial(kk)
            * eta ** ((d + g) / 2.0)
            * sqrt(factorial(o) / factorial(d))
            * sqrt(factorial(op) / factorial(g))
        )
    return shift, vec


@functools.lru_cache(maxsize=16)
def _bs_table(cutoff: int) -> np.ndarray:
    """Every 50:50 sector unitary a chain at this cutoff meets, as table[t, a, u].

    table[t, a, u] = _bs_sector(t)[a, u] for totals t = 0..2 cutoff, output
    counts a = 0..2 cutoff and ladder indices u = 0..cutoff; entries with a or
    u above t are 0, so a contraction may index the whole box.
    """
    size = 2 * cutoff + 1
    table = np.zeros((size, size, cutoff + 1))
    for t in range(size):
        cols = min(t, cutoff) + 1
        table[t, : t + 1, :cols] = _bs_sector(t)[:, :cols]
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=32)
def _chain_state(mu: float, cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """One chain's truncated state psi[u, v, a] and the second splitter output's count u + v - a, clamped at 0.

    psi[u, v, a] = c_u c_v U_(u+v)[a, u], c = _tmsv_amps, is the amplitude of
    |u, a, u + v - a, v> on the chain's (outer, splitter, splitter, outer)
    modes, 0 for a > u + v.  The splitter is unitary, so the squared norm of
    psi is that of two ladders, (1 - lambda^(cutoff + 1))^2, lambda = mu / (1 + mu).
    """
    ladder = np.arange(cutoff + 1)
    amps = _tmsv_amps(mu, cutoff)
    total = (ladder[:, None] + ladder)[:, :, None]
    out = np.arange(2 * cutoff + 1)
    psi = (amps[:, None] * amps)[:, :, None] * _bs_table(cutoff)[total, out, ladder[:, None, None]]
    rest = np.maximum(total - out, 0)
    psi.flags.writeable = rest.flags.writeable = False
    return psi, rest


def _overlap(size: int, shift: int) -> tuple[slice, slice]:
    """The ket slice of range(size) whose bra index, ket + shift, stays inside, and that bra slice."""
    lo = max(0, -shift)
    hi = max(lo, min(size, size - shift))
    return slice(lo, hi), slice(lo + shift, hi + shift)


def _chain_value(mu: float, cutoff: int, outer1: Kernel, outer2: Kernel, bs1: Kernel, bs2: Kernel) -> float:
    """One chain's contribution: its state contracted with one kernel per mode.

    outer1/outer2 are the kernels of the chain's undisturbed modes (occupancy
    u and v on the ket, u + du and v + dv on the bra); bs1/bs2 the kernels of
    the two splitter outputs (a and u + v - a photons on the ket).
    Photon-number conservation of the splitter forces the shifts to balance.
    The value sums, over the (u, v, a) whose ket and bra both lie in psi,

        psi[u, v, a] psi[u + du, v + dv, a + s1] vec_u[u] vec_v[v] w1[a] w2[u + v - a].
    """
    (du, vec_u), (dv, vec_v), (s1, w1), (s2, w2) = outer1, outer2, bs1, bs2
    if du + dv != s1 + s2:
        return 0.0
    psi, rest = _chain_state(mu, cutoff)
    (ku, bu), (kv, bv), (ka, ba) = map(_overlap, psi.shape, (du, dv, s1))
    terms = psi[ku, kv, ka] * psi[bu, bv, ba] * w1[ka] * w2[rest[ku, kv, ka]]
    return float(vec_u[ku] @ terms.sum(axis=2) @ vec_v[kv])


def _converge(at, cutoff: int | None):
    """at(cutoff), or for cutoff None at(c) with c raised until the last increment is below 1e-11 + 1e-10 |value|.

    That certifies nothing: on a small value the absolute term can stop it
    far too early (oracle_pgen at mu = 3, eta_b = 1e-6 stops 77 % low; the
    strict xfail test_small_value_converges_to_closed_form).  ROADMAP item 5
    replaces it with a certified truncation bound.
    """
    if cutoff is not None:
        return at(cutoff)
    cutoff = CUTOFF_START
    prev = np.asarray(at(cutoff))
    while cutoff < CUTOFF_CAP:
        cutoff += CUTOFF_STEP
        cur = np.asarray(at(cutoff))
        delta = float(np.max(np.abs(cur - prev)))
        if delta < CONVERGENCE_ATOL + CONVERGENCE_RTOL * float(np.max(np.abs(cur))):
            return cur
        prev = cur
    raise ConvergenceError(f"no convergence by cutoff {CUTOFF_CAP}")


HERALD_MODES = (3, 4, 5, 6)


def _counts(pattern, size: int, what: str) -> tuple[int, ...]:
    """pattern as size nonnegative ints (numpy ints pass, floats do not), else a one-line ValueError."""
    try:
        counts = tuple(operator.index(n) for n in pattern)
    except TypeError:
        counts = ()
    if len(counts) != size or min(counts) < 0:
        raise ValueError(f"{what} must be {size} nonnegative ints, got {pattern!r}")
    return counts


def _herald_pattern(pattern) -> tuple[int, ...]:
    """The photon counts on herald modes 3-6 as four nonnegative ints."""
    return _counts(pattern, 4, "herald pattern")


def _check_mean_photon(mu: float) -> None:
    if not (np.isfinite(mu) and mu >= 0):
        raise ValueError(f"mean photon number must be finite and >= 0, got {mu}")


def _check_efficiency(eta: float) -> None:
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must lie in [0, 1], got {eta}")


def _efficiencies(etas) -> np.ndarray:
    """The eight per-mode efficiencies as a float array, each in [0, 1]."""
    values = np.asarray(etas, dtype=float)
    if values.shape != (8,) or not np.all((values >= 0.0) & (values <= 1.0)):
        raise ValueError(f"etas must be 8 efficiencies in [0, 1], got {values.tolist()}")
    return values


def _chain_table(mu: float, cutoff: int):
    """One chain's contraction at this cutoff as a function of its four modes' (d, g, eta) detections.

    The outer modes' kernels run to the cutoff, the splitter outputs' to
    twice it.  Each distinct contraction, and each distinct kernel, is
    computed once per table; callers that take several elements at one
    cutoff share one.
    """
    kernel = functools.cache(_kernel_vec)

    @functools.cache
    def chain(outer1, outer2, bs1, bs2) -> float:
        sizes = (cutoff, cutoff, 2 * cutoff, 2 * cutoff)
        return _chain_value(mu, cutoff, *(kernel(n, *spec) for n, spec in zip(sizes, (outer1, outer2, bs1, bs2))))

    return chain


def _element(chain, etas, d, g) -> float:
    """<d| rho_lossy |g> under one _chain_table: the product of the two chains' contractions.

    Each mode m gets the detection kernel of its own efficiency etas[m - 1].
    A traced mode is a vacuum detection at efficiency 0: its kernel,
    <0| L_0(|o><o|) |0> = 1 for every o, sums the mode out.  With a pattern
    symmetric between the chains, chain A's contraction is chain B's.
    """
    spec = {m: (d[m - 1], g[m - 1], etas[m - 1]) for m in range(1, 9)}
    chain_b = chain(spec[2], spec[8], spec[3], spec[5])
    chain_a = chain(spec[1], spec[7], spec[4], spec[6])
    return chain_a * chain_b


def oracle_pgen(
    mu: float,
    eta_b: float = 1.0,
    pattern=(1, 1, 0, 0),
    cutoff: int | None = None,
) -> float:
    """Heralding-pattern probability: the Fock element of the herald counts, eta_b on every herald mode."""
    _check_efficiency(eta_b)
    herald = (0, 0) + _herald_pattern(pattern) + (0, 0)
    # the outer modes are traced: vacuum detections at efficiency 0
    return oracle_fock_element(mu, (0.0, 0.0, eta_b, eta_b, eta_b, eta_b, 0.0, 0.0), herald, herald, cutoff)


def oracle_fock_element(
    mu: float,
    etas,
    d,
    g,
    cutoff: int | None = None,
) -> float:
    """<d| rho_lossy |g> for 8-mode Fock indices by chain contraction."""
    _check_mean_photon(mu)
    etas = _efficiencies(etas)
    d = _counts(d, 8, "Fock index d")
    g = _counts(g, 8, "Fock index g")

    def at(c: int) -> float:
        return _element(_chain_table(mu, c), etas, d, g)

    return float(_converge(at, cutoff))


def oracle_fidelity(
    mu: float,
    etas,
    pattern=(1, 1, 0, 0),
    cross_sign: float = 1.0,
    cutoff: int | None = None,
) -> float:
    """Conditional Bell fidelity of the heralded photonic state.

    Undefined where nothing heralds (mean photon number 0 or a clicked
    herald mode at efficiency 0): every term and pgen vanish at every cutoff.
    """
    _check_mean_photon(mu)
    pattern = _herald_pattern(pattern)
    etas = _efficiencies(etas)
    blind = [m for m, n in zip(HERALD_MODES, pattern) if n and etas[m - 1] == 0.0]
    if mu == 0.0 or blind:
        raise UndefinedFidelityError(f"zero heralding probability at mu={mu}, efficiency 0 on clicked modes {blind}")
    herald = (0, 0) + pattern + (0, 0)
    e1 = (1, 0) + pattern + (0, 1)
    e2 = (0, 1) + pattern + (1, 0)
    # pgen traces the outer modes: vacuum detections at efficiency 0
    traced = (0.0, 0.0, *etas[2:6], 0.0, 0.0)

    def at(c: int) -> float:
        chain = _chain_table(mu, c)
        t11, t22, t12, t21 = (_element(chain, etas, d, g) for d, g in ((e1, e1), (e2, e2), (e1, e2), (e2, e1)))
        den = _element(chain, traced, herald, herald)
        return 0.5 * (t11 + t22 + cross_sign * (t12 + t21)) / den

    return float(_converge(at, cutoff))


_PBS_AMP = {
    ((0, 0), (0, 0)): 1.0,
    ((1, 0), (1, 0)): 1.0 / sqrt(2.0),
    ((1, 0), (0, 1)): 1.0 / sqrt(2.0),
    ((0, 1), (1, 0)): 1.0 / sqrt(2.0),
    ((0, 1), (0, 1)): -1.0 / sqrt(2.0),
}


def _pair_detection_amps(clicks: tuple[int, int]):
    """(r_first, r_second, amplitude) options reaching a memory-pair click."""
    if clicks == (0, 0):
        return [((0, 0), 1.0)]
    if sum(clicks) != 1:
        raise ValueError(f"memory-pair clicks must total 0 or 1, got {clicks}")
    return [(r, _PBS_AMP[(clicks, r)]) for r in ((1, 0), (0, 1))]


# Signs over the spin basis (01, 01), (01, 10), (10, 01), (10, 10), keyed by the photons (0 or 1) on
# modes 2 and 8: branch 01 flips a photon on mode 2 or 8.
_SPIN_SIGNS = {(n2, n8): np.kron([(-1.0) ** n2, 1.0], [(-1.0) ** n8, 1.0]) for n2 in (0, 1) for n8 in (0, 1)}


def oracle_spin_spin(
    mu: float,
    etas,
    click_pattern=(1, 0, 1, 1, 0, 0, 1, 0),
    cutoff: int | None = None,
) -> np.ndarray:
    """Unnormalized 4x4 spin-spin matrix, float64, by direct Fock-space loading.

    The memory branches enter as conditional sign flips on modes 2 and 8
    before the pair interference; detection keeps at most one photon per
    memory pair, so the per-mode Kraus decomposition collapses to small
    kernel sums threaded through the two chains.
    """
    _check_mean_photon(mu)
    etas = _efficiencies(etas)
    click = _counts(click_pattern, 8, "click pattern")
    herald = click[2:6]
    opts12 = _pair_detection_amps((click[0], click[1]))
    opts78 = _pair_detection_amps((click[6], click[7]))

    def at(c: int) -> np.ndarray:
        out = np.zeros((4, 4))
        chain = _chain_table(mu, c)
        for (rk12, ak12), (rb12, ab12), (rk78, ak78), (rb78, ab78) in itertools.product(
            opts12, opts12, opts78, opts78
        ):
            element = _element(chain, etas, rk12 + herald + rk78, rb12 + herald + rb78)
            signs_k, signs_b = _SPIN_SIGNS[rk12[1], rk78[1]], _SPIN_SIGNS[rb12[1], rb78[1]]
            out += 0.25 * ak12 * ab12 * ak78 * ab78 * element * np.outer(signs_k, signs_b)
        return out

    return _converge(at, cutoff)


def oracle_pgen_dark(
    mu: float,
    eta_b: float,
    dark_click_prob: float,
    pattern=(1, 1, 0, 0),
    cutoff: int | None = None,
) -> float:
    """Heralding probability of a herald pattern with independent dark counts on the four herald detectors.

    Each detector fires a dark count with probability P_d.  One that reads
    n >= 1 counts saw n photons and no dark count, or n - 1 photons and a
    dark count; one that reads 0 saw neither.  Every dark or silent choice
    carries its own P_d or 1 - P_d, the silent detectors' no-dark factors
    included.  The whole mixture is evaluated, and converged, at each cutoff
    through one _chain_table, so its patterns share their chain contractions.
    """
    _check_mean_photon(mu)
    _check_efficiency(eta_b)
    pd = dark_click_prob
    if not 0.0 <= pd <= 1.0:
        raise ValueError(f"dark click probability must lie in [0, 1], got {pd}")
    pattern = _herald_pattern(pattern)
    # the outer modes are traced: vacuum detections at efficiency 0
    etas = (0.0, 0.0, eta_b, eta_b, eta_b, eta_b, 0.0, 0.0)
    terms = []
    for dark in itertools.product(*[(0, 1) if n else (0,) for n in pattern]):
        herald = (0, 0) + tuple(n - d for n, d in zip(pattern, dark)) + (0, 0)
        terms.append((pd ** sum(dark) * (1.0 - pd) ** (4 - sum(dark)), herald))

    def at(c: int) -> float:
        chain = _chain_table(mu, c)
        total = 0.0
        for weight, herald in terms:
            total += weight * _element(chain, etas, herald, herald)
        return total

    return float(_converge(at, cutoff))


@dataclass
class TruncatedState:
    """Truncated Fock state of the cascaded source as Kraus-loss branches of arrays.

    Each branch is an (occ, amp) pair: occ an (N, 8) int array with one
    row of occupation numbers per entry, amp the (N,) real amplitudes.  Rows
    are distinct within a branch and stay in the order their builder made
    them, which fixes the order of every product and sum over them.  Before
    any loss there is a single branch.  norm_deficit bounds the weight lost
    to truncation.
    """

    branches: list[tuple[np.ndarray, np.ndarray]]
    norm_deficit: float

    def total_weight(self) -> float:
        return sum(sum(_squares(amp)) for _, amp in self.branches)


def _squares(amps: np.ndarray) -> list[float]:
    """|amp|^2 of each entry, in entry order, as float pow takes it (not always amp * amp)."""
    return list(map(pow, np.abs(amps).tolist(), itertools.repeat(2)))


def oracle_build_cascaded(mu: float, cutoff: int) -> TruncatedState:
    """Cascaded-source state: four truncated TMSV ladders, then the BSM splitters (3, 5) and (4, 6)."""
    return apply_beamsplitter(apply_beamsplitter(build_pre_bsm_state(mu, cutoff), 3, 5), 4, 6)


def _kraus_coeffs(max_occ: int, eta: float) -> np.ndarray:
    """coeffs[o, kk] = <o - kk| E_kk |o>: the loss Kraus operator E_kk that removes kk of o photons; 0 for kk > o."""
    coeffs = np.zeros((max_occ + 1, max_occ + 1))
    for o in range(max_occ + 1):
        coeffs[o, : o + 1] = [
            sqrt((1.0 - eta) ** kk / factorial(kk)) * eta ** ((o - kk) / 2.0) * sqrt(factorial(o) / factorial(o - kk))
            for kk in range(o + 1)
        ]
    return coeffs


def oracle_apply_loss(state: TruncatedState, mode: int, eta: float) -> TruncatedState:
    """Expand the Kraus-operator loss channel on one mode into branches.

    Each input branch gives one output branch per Kraus index kk (photons
    lost), in increasing kk; an entry with o photons on the mode feeds
    branches kk = 0..o in entry order, and empty branches are dropped.
    """
    _check_efficiency(eta)
    i = mode - 1
    max_occ = max((int(occ[:, i].max(initial=0)) for occ, _ in state.branches), default=0)
    coeffs = _kraus_coeffs(max_occ, eta)
    new_branches = []
    for occ, amp in state.branches:
        for kk in range(max_occ + 1):
            coeff = coeffs[occ[:, i], kk]
            keep = coeff != 0.0
            if keep.any():
                lost = occ[keep]
                lost[:, i] -= kk
                new_branches.append((lost, amp[keep] * coeff[keep]))
    return TruncatedState(new_branches, state.norm_deficit)


def build_pre_bsm_state(mu: float, cutoff: int) -> TruncatedState:
    """Two SPDC sources side by side, before the BSM splitters mix (3,5) and (4,6).

    Entries run over the ladder indices (n, m, k, l) with l fastest; each
    amplitude is amps[n] * amps[m] * amps[k] * amps[l], multiplied in that order.
    """
    _check_mean_photon(mu)
    if cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff}")
    amps = _tmsv_amps(mu, cutoff)
    n, m, k, l = (g.ravel() for g in np.meshgrid(*[np.arange(cutoff + 1)] * 4, indexing="ij"))
    amp = amps[n] * amps[m] * amps[k] * amps[l]
    keep = amp != 0.0
    occ = np.stack((n, m, m, n, k, l, l, k), axis=1)[keep]
    ratio = mu / (1.0 + mu)
    deficit = 1.0 - (1.0 - ratio ** (cutoff + 1)) ** 4
    return TruncatedState([(occ, amp[keep])], deficit)


def apply_beamsplitter(state: TruncatedState, i: int, j: int) -> TruncatedState:
    """Apply the 50:50 (i, j) beam splitter to every branch, sector by sector.

    An entry with (oi, oj) photons on the pair feeds the outputs (a, oi + oj - a)
    through the column oi of _bs_sector(oi + oj), in increasing a, skipping
    zero coefficients.  Equal output occupations merge in order of first
    appearance, their terms amp * f added from 0.0 in entry order.
    """
    new_branches = []
    for occ, amp in state.branches:
        oi, oj = occ[:, i - 1], occ[:, j - 1]
        total = oi + oj
        tmax = int(total.max(initial=0))
        sectors = np.zeros((tmax + 1, tmax + 1, tmax + 1))
        for t in range(tmax + 1):
            sectors[t, : t + 1, : t + 1] = _bs_sector(t)
        # One row per (entry, a), entry-major.
        width = total + 1
        src = np.repeat(np.arange(len(amp)), width)
        a = np.arange(len(src)) - np.repeat(np.cumsum(width) - width, width)
        f = sectors[total[src], a, oi[src]]
        keep = f != 0.0
        src, a, f = src[keep], a[keep], f[keep]
        out = occ[src]
        out[:, i - 1] = a
        out[:, j - 1] = total[src] - a
        base = max(int(occ.max(initial=0)), tmax) + 1
        _, first, slot = np.unique(out @ base ** np.arange(occ.shape[1]), return_index=True, return_inverse=True)
        # Renumber the distinct outputs by first appearance; bincount adds in input order.
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        merged = np.bincount(rank[slot], weights=amp[src] * f, minlength=len(order))
        new_branches.append((out[first[order]], merged))
    return TruncatedState(new_branches, state.norm_deficit)


def pattern_probability(state: TruncatedState, pattern: tuple[int, ...]) -> float:
    """Probability of an exact click pattern on the herald modes 3-6, tracing the rest.

    The |amp|^2 of the matching entries are summed branch by branch, in entry order.
    """
    idx = [m - 1 for m in HERALD_MODES]
    pattern = np.asarray(tuple(pattern))
    return sum(
        itertools.chain.from_iterable(
            _squares(amp[np.all(occ[:, idx] == pattern, axis=1)]) for occ, amp in state.branches
        )
    )


def oracle_pgen_filtered(
    mu: float, eta_b: float, pattern=(1, 1, 0, 0), cutoff: int = 4
) -> float:
    """Second, independent heralding-probability path: Kraus loss on the full truncated state.

    Defined as loss on the four herald modes by ``oracle_apply_loss``, then
    ``pattern_probability``: the sum of |amplitude|^2 over the Kraus branches,
    ordered by (kk3, kk4, kk5, kk6), of the entries that show the pattern.
    Loss on one mode never changes another mode's count, so an entry of the
    lossless state with o photons on herald mode m reaches the pattern's
    count c_m through exactly one Kraus index, kk_m = o - c_m.  Each full-state
    entry therefore lands in one branch with amplitude
    amp * E(o3, kk3) * E(o4, kk4) * E(o5, kk5) * E(o6, kk6), and none of the
    (max occupation + 1)^4 branches is built.  The factors are multiplied in
    mode order and the squares summed branch by branch in that order (a
    stable sort keeps entry order within a branch), so the result is
    bit-identical to the branch expansion.
    """
    pattern = _herald_pattern(pattern)
    _check_efficiency(eta_b)
    ((occ, amp),) = oracle_build_cascaded(mu, cutoff).branches
    herald = occ[:, [m - 1 for m in HERALD_MODES]]
    kk = herald - pattern
    factors = np.where(kk >= 0, _kraus_coeffs(2 * cutoff, eta_b)[herald, np.maximum(kk, 0)], 0.0)
    keep = np.all(factors != 0.0, axis=1)
    kk, c = kk[keep], factors[keep]
    projected = amp[keep] * c[:, 0] * c[:, 1] * c[:, 2] * c[:, 3]
    # lexsort's last key is the primary one
    order = np.lexsort(kk.T[::-1])
    return float(sum(_squares(projected[order])))


def _ladder_kernel(nmax: int, raises: int, lowers: int) -> Kernel:
    """Kernel of a^dag^raises a^lowers on one mode as (shift, vec): vec[o] = <o + shift| a^dag^raises a^lowers |o>."""
    vec = np.zeros(nmax + 1)
    for o in range(lowers, nmax + 1):
        kept = o - lowers
        vec[o] = sqrt(factorial(o) / factorial(kept) * factorial(kept + raises) / factorial(kept))
    return raises - lowers, vec


def oracle_covariance(mu: float, cutoff: int) -> np.ndarray:
    """Symmetrized quadrature second moments of one truncated chain over (q_1..q_4, p_1..p_4).

    The chain's local modes run (outer, herald, herald, outer), as in
    ``sources.build_cascaded_cov``: TMSV ladders u on (1, 2) and v on (3, 4),
    then the splitter on (2, 3).  Each <a_i^dag a_j> and <a_i a_j> is one
    ``_chain_value`` contraction with ladder-operator kernels, divided by
    the identity contraction (the truncated state's norm).  Uses
    q = a + a^dag, p = i(a^dag - a) so the vacuum diagonal is 1, matching
    the covariance stage's normalization.
    """
    _check_mean_photon(mu)
    unit = np.eye(4, dtype=int)
    none = np.zeros(4, dtype=int)

    def expect(raises, lowers) -> float:
        """The unnormalized <prod_m a_m^dag^raises[m] a_m^lowers[m]> over local modes 1-4."""
        k = [_ladder_kernel(nmax, r, l) for nmax, r, l in zip((cutoff, 2 * cutoff, 2 * cutoff, cutoff), raises, lowers)]
        return _chain_value(mu, cutoff, k[0], k[3], k[1], k[2])

    norm = expect(none, none)
    ada = np.array([[expect(unit[i], unit[j]) for j in range(4)] for i in range(4)]) / norm
    aa = np.array([[expect(none, unit[i] + unit[j]) for j in range(4)] for i in range(4)]) / norm
    # Real amplitudes: <a a> and <a^dag a> are real, so the q-p blocks vanish.
    sym = ada + ada.T + np.eye(4)
    v = np.zeros((8, 8))
    v[:4, :4] = sym + 2.0 * aa
    v[4:, 4:] = sym - 2.0 * aa
    return (v + v.T) / 2.0
