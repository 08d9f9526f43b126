"""Two-memory loading: click-pattern projection of the source state onto spins.

Each receiver holds an ideal dual-rail memory prepared in (|0,1> + |1,0>)/sqrt(2).
A conditional-phase interaction flips the sign of source mode 2 (8) when
memory A (B) occupies its second rail, the mode pair interferes on a
polarizing beam splitter, and single-photon detection heralds the load.  The
resulting unnormalized 4x4 spin-spin matrix lives on the ordered basis

    (|0,1>|0,1>, |0,1>|1,0>, |1,0>|0,1>, |1,0>|1,0>)

and its trace is the probability of the full click pattern.

Each memory pair (1, 2) and (7, 8) joins one mode of chain A with one of
chain B, so its detection form is expanded multilinearly: every entry is a
signed sum of lossy-state Fock elements with the herald counts on modes 3-6
and one photon per clicked memory pair, and the 16 entries evaluate each
distinct chain moment once (metrics.moment_scope).  All of it is real, so
the matrix holds float64 entries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UndefinedFidelityError
from .metrics import CHAIN_MODES, HERALD_MODES, _a_variant, _dark_mixture, _detected, _moment, _weight, dark_attributions
from .metrics import moment_scope
from .moments import MAX_REQUEST_CARDINALITY
from .moments import wick_moment  # noqa: F401 - unused here, but perfbench/tracing.py patches memory.wick_moment
from .sources import SourceParams, parse_counts

DEFAULT_CLICK_PATTERN = (1, 0, 1, 1, 0, 0, 1, 0)
MEMORY_PAIRS = ((1, 2), (7, 8))
BRANCHES = ("01", "10")
BASIS = tuple((a, b) for a in BRANCHES for b in BRANCHES)

BELL_TARGETS = {
    "phi_plus": np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0),
    "phi_minus": np.array([-1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0),
    "psi_plus": np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2.0),
    "psi_minus": np.array([0.0, -1.0, 1.0, 0.0]) / np.sqrt(2.0),
}


def validate_click_pattern(click) -> tuple[int, ...]:
    """Check a click pattern, including that each chain's Wick request stays under the cap.

    Each memory pair clicks (0,0), (1,0) or (0,1): one photon loads its
    memory.  A chain receives two forms per herald click on its modes and, in
    the multilinear expansion, up to two per clicked memory pair.
    """
    click = parse_counts(click, 8, "click pattern")
    for i, j in MEMORY_PAIRS:
        if click[i - 1] + click[j - 1] > 1:
            raise ValueError(f"memory pair ({i}, {j}) allows at most one click, got {(click[i - 1], click[j - 1])}")
    if sum(click[2:6]) > 8:
        raise ValueError("heralding clicks exceed the cap of 8")
    pairs = sum(click[i - 1] + click[j - 1] for i, j in MEMORY_PAIRS)
    for chain in CHAIN_MODES:
        forms = 2 * sum(click[m - 1] for m in chain if m in HERALD_MODES) + 2 * pairs
        if forms > MAX_REQUEST_CARDINALITY:
            raise ValueError(
                f"click pattern puts up to {forms} forms on the chain of modes {chain}, "
                f"over the cap of {MAX_REQUEST_CARDINALITY}"
            )
    return click


# Click patterns mixed in by dark counts at the default pattern, grouped by
# how many of its four clicks are attributed to dark counts.
SIGMA_PATTERNS = {k: patterns for k, patterns in dark_attributions(DEFAULT_CLICK_PATTERN).items() if k}


@dataclass(frozen=True)
class SpinSpinDM:
    """Unnormalized spin-spin density matrix over the dual-rail basis, as real float64 entries."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries)
        if m.shape != (4, 4) or m.dtype.kind not in "biuf":
            raise ValueError(f"spin-spin matrix must be 4x4 real numbers, got shape {m.shape} of dtype {m.dtype}")
        m = np.array(m, dtype=float, order="C")  # a copy, so freezing it leaves the caller's array writeable
        m.flags.writeable = False
        object.__setattr__(self, "entries", m)

    @property
    def trace(self) -> float:
        d = self.entries.diagonal().tolist()  # summed pairwise, as replies always were; np.trace sums in sequence
        return (d[0] + d[1]) + (d[2] + d[3])

    def hermiticity_defect(self) -> float:
        return float(np.max(np.abs(self.entries - self.entries.T)))

    def min_eigenvalue(self) -> float:
        return float(np.min(np.linalg.eigvalsh((self.entries + self.entries.T) / 2.0)))


def _branch_forms(branch, click, eta) -> list[tuple[float, tuple[int, ...]]]:
    """Memory-side detection terms for both pairs of one bra or ket branch, for a validated click pattern.

    branch is a (memory A, memory B) pair of rail labels from BRANCHES.  A
    clicked pair (i, j) detects (sqrt(eta_i) x_i +- sqrt(eta_j) x_j)/sqrt(2)
    over the modes' amplitudes x: the second rail's amplitude flips sign on
    the |0,1> branch (conditional-phase interaction), and the polarizing beam
    splitter maps click (1,0) to the sum form and click (0,1) to the
    difference form.  The product of the pair forms comes back expanded into
    (coefficient, modes) terms, one mode per clicked pair.
    """
    terms: list[tuple[float, tuple[int, ...]]] = [(1.0, ())]
    for (i, j), mem in zip(MEMORY_PAIRS, branch):
        ni, nj = click[i - 1], click[j - 1]
        if (ni, nj) == (0, 0):
            continue
        sign = (1.0 if mem == "10" else -1.0) * (1.0 if ni else -1.0)
        pair = ((np.sqrt(eta[i - 1]) / np.sqrt(2.0), i), (sign * np.sqrt(eta[j - 1]) / np.sqrt(2.0), j))
        terms = [(c * pc, modes + (m,)) for c, modes in terms for pc, m in pair]
    return terms


def spin_spin_dm(params: SourceParams, click=DEFAULT_CLICK_PATTERN) -> SpinSpinDM:
    """Unnormalized two-memory density matrix heralded by one click pattern, counting photons only.

    A photon-number quantity: it ignores dark_click_prob, which
    spin_spin_dm_dark mixes in (ROADMAP item 8).  The exponent matrix is the
    every-mode-detected variant; memory loading only changes the polynomial
    prefactor of each entry.  Every branch expands into the same term modes
    with its own signs, so the matrix is C M C^T with C the branch-by-term
    coefficients and M the moments of term pairs, which the prefactor and
    the herald weight turn into Fock elements.  M is evaluated in a
    metrics.moment_scope: the caller's, if one is open (the request
    layer's), else one for this call alone.
    """
    click = validate_click_pattern(click)
    a = _a_variant(params.mean_photon, *_detected(params))
    eta = params.etas
    herald = (0, 0) + click[2:6] + (0, 0)
    scalar, heralds, _ = _weight(eta, herald, herald)
    if scalar == 0.0:  # a herald click on a mode at efficiency 0: exactly 0, whatever the moments would be
        return SpinSpinDM(np.zeros((4, 4)))
    terms = [_branch_forms(b, click, eta) for b in BASIS]
    modes = [m for _, m in terms[0]]
    coeffs = np.array([[c for c, _ in branch] for branch in terms])
    with moment_scope():
        moments = np.array([[_moment(a, [*heralds, *k], [*heralds, *b]) for b in modes] for k in modes])
    return SpinSpinDM((0.25 * a.prefactor * scalar) * (coeffs @ moments @ coeffs.T))


def spin_spin_dm_dark(params: SourceParams, click=DEFAULT_CLICK_PATTERN) -> SpinSpinDM:
    """Spin-spin matrix heralded by one click pattern, including dark counts.

    The dark-count mixture (metrics._dark_mixture) of spin_spin_dm over the
    photon patterns behind the click pattern, with all eight detectors able
    to fire a dark count.
    """
    click = validate_click_pattern(click)
    entries = _dark_mixture(click, params.dark_click_prob, lambda photons: spin_spin_dm(params, photons).entries)
    return SpinSpinDM(entries)


def bell_fidelity_spin(dm: SpinSpinDM, target: str) -> float:
    """Overlap <target| dm |target> / trace for a Bell label, a key of BELL_TARGETS."""
    if not (isinstance(target, str) and target in BELL_TARGETS):
        raise ValueError(f"unknown Bell target {target!r}; options: {sorted(BELL_TARGETS)}")
    vec = BELL_TARGETS[target]
    tr = dm.trace
    if tr <= 0.0:
        raise UndefinedFidelityError("spin-spin matrix has nonpositive trace")
    return float(vec @ dm.entries @ vec / tr)
