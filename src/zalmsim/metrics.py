"""Photonic figures of merit: trace, heralding probability, fidelity, Fock elements.

The cascaded source is exactly a product of two identical 4-mode chains.
Chain A holds modes 1, 4, 6, 7 and chain B modes 2, 3, 5, 8; in each, two
squeezed pairs meet on one heralding beam splitter, and the local modes run
(outer, herald, herald, outer).  Loss and the traced modes are the same on
both chains, so one 16x16 exponent matrix serves both.  Every metric is the
8-mode Gaussian prefactor (the chain prefactor squared) times a scalar times
a product of two chain Wick moments, or a sum of such products.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import factorial

import numpy as np

from .errors import UndefinedFidelityError
from .kfunction import KFunctionData, k_data
from .moments import (
    AMatrix,
    MomentRequest,
    alpha_form,
    assemble_a,
    beta_conj_form,
    gaussian_prefactor,
    wick_moment,
)
from .phase_space import CovarianceMatrix
from .sources import SourceParams, build_cascaded_cov

HERALD_MODES = (3, 4, 5, 6)
OUTER_MODES = (1, 2, 7, 8)
CHAIN_MODES = ((1, 4, 6, 7), (2, 3, 5, 8))
REAL_TOLERANCE = 1e-9
MAX_TOTAL_FOCK = 16

# Global mode -> (chain index, local mode 1..4).
_CHAIN_OF = {mode: (c, local) for c, modes in enumerate(CHAIN_MODES) for local, mode in enumerate(modes, 1)}
_CHAIN_IDX = np.array(CHAIN_MODES[0]) - 1
_ALPHA = {local: alpha_form(local, 4) for local in range(1, 5)}
_BETA = {local: beta_conj_form(local, 4) for local in range(1, 5)}

# Traced sets in local chain modes.
A_FULL = frozenset()
A_PGEN_TRACED = frozenset(_CHAIN_OF[m][1] for m in OUTER_MODES)
A_TRACE_ALL = frozenset(range(1, 5))


@dataclass(frozen=True)
class MetricResult:
    """A real scalar observable with its imaginary residual diagnostics."""

    value: float
    imag_residual: float
    params_echo: SourceParams
    flags: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.flags


def _as_metric(raw: complex, params: SourceParams, extra_flags: tuple[str, ...] = ()) -> MetricResult:
    value = float(np.real(raw))
    residual = abs(float(np.imag(raw)))
    flags = list(extra_flags)
    if residual >= REAL_TOLERANCE * max(abs(value), 1e-30):
        flags.append("imag_residual")
    return MetricResult(value, residual, params, tuple(flags))


@functools.lru_cache(maxsize=256)
def _kernel_for(mu: float) -> KFunctionData:
    """Kernel of chain A's 4-mode block of the cascaded covariance."""
    cov = build_cascaded_cov(mu)
    idx = np.r_[_CHAIN_IDX, _CHAIN_IDX + 8]
    return k_data(CovarianceMatrix(cov.ordering, 4, cov.entries[np.ix_(idx, idx)]))


@functools.lru_cache(maxsize=256)
def _a_variant(mu: float, eta: tuple[float, ...], traced: frozenset[int]) -> AMatrix:
    k = _kernel_for(mu)
    return assemble_a(k, k, np.asarray(eta), traced)


def _variants(params: SourceParams, traced: frozenset[int]) -> tuple[complex, AMatrix]:
    """The 8-mode Gaussian prefactor and the chain exponent matrix both chains share."""
    eta = tuple(params.eta_vector[_CHAIN_IDX])
    k = _kernel_for(params.mean_photon)
    a = _a_variant(params.mean_photon, eta, traced)
    return gaussian_prefactor(a, k, k) ** 2, a


def split_by_chain(kets, bras) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Sorted local (ket, bra) modes of each chain for a multiset of global modes."""
    split = tuple(([], []) for _ in CHAIN_MODES)
    for side, modes in enumerate((kets, bras)):
        for mode in modes:
            chain, local = _CHAIN_OF[mode]
            split[chain][side].append(local)
    return tuple((tuple(sorted(k)), tuple(sorted(b))) for k, b in split)


def chain_request(kets, bras) -> MomentRequest:
    """Ket amplitudes alpha on local modes kets and bra amplitudes beta* on local modes bras."""
    return MomentRequest(tuple(_ALPHA[m] for m in kets) + tuple(_BETA[m] for m in bras))


def _moment(a: AMatrix, kets, bras) -> complex:
    """Wick moment of alpha on global modes kets and beta* on bras, one factor per chain."""
    out = 1.0 + 0.0j
    for local in split_by_chain(kets, bras):
        out *= wick_moment(a, chain_request(*local))
    return out


def herald_clicks(pattern, eta) -> tuple[float, tuple[int, ...]]:
    """The eta^n / n! weight of a heralding pattern and its clicked modes, once per click."""
    scalar = 1.0
    modes: list[int] = []
    for mode, clicks in zip(HERALD_MODES, pattern):
        scalar *= eta[mode - 1] ** clicks / factorial(clicks)
        modes.extend([mode] * clicks)
    return scalar, tuple(modes)


def photonic_trace(params: SourceParams) -> MetricResult:
    """Trace of the lossy source state; equals 1 for every physical parameter set."""
    pref, a = _variants(params, A_TRACE_ALL)
    return _as_metric(pref * _moment(a, (), ()), params)


def pgen(params: SourceParams) -> MetricResult:
    """Probability that the heralding detectors fire with the requested pattern."""
    pref, a = _variants(params, A_PGEN_TRACED)
    scalar, modes = herald_clicks(params.herald_pattern, params.eta_vector)
    return _as_metric(pref * (scalar * _moment(a, modes, modes)), params)


def pgen_with_dark(params: SourceParams) -> MetricResult:
    """Heralding probability including detector dark clicks.

    Sums the click-attribution terms for the (1, 1, 0, 0)-class pattern: both
    clicks real, either single click real with the other dark, or both dark.
    A dark-attributed detector keeps its mode in the detected set with zero
    photons, so all four terms share the same exponent matrix.
    """
    pattern = params.herald_pattern
    if sorted(pattern) != [0, 0, 1, 1]:
        raise ValueError(f"dark-count heralding is defined for two single clicks, got {pattern}")
    pd = params.dark_click_prob
    pref, a = _variants(params, A_PGEN_TRACED)
    eta = params.eta_vector
    m1, m2 = [m for m, n in zip(HERALD_MODES, pattern) if n == 1]
    eta1, eta2 = eta[m1 - 1], eta[m2 - 1]
    raw = (eta1 * eta2) * (1.0 - pd) ** 2 * _moment(a, (m1, m2), (m1, m2))
    if pd > 0.0:
        raw += eta1 * pd * (1.0 - pd) * _moment(a, (m1,), (m1,))
        raw += eta2 * pd * (1.0 - pd) * _moment(a, (m2,), (m2,))
        raw += pd * pd * _moment(a, (), ())
    return _as_metric(pref * raw, params)


def fidelity(params: SourceParams, bell_target: str = "psi_minus") -> MetricResult:
    """Bell fidelity of the heralded photonic state.

    Supported patterns click exactly one photon on each of two heralding
    modes, (1,1,0,0) or (0,0,1,1).  bell_target selects the relative sign of
    the two coherence terms; "psi_minus" reproduces the pattern's nominal
    Bell state, "psi_plus" the orthogonal one.
    """
    pattern = params.herald_pattern
    if pattern == (1, 1, 0, 0):
        h1, h2 = 3, 4
    elif pattern == (0, 0, 1, 1):
        h1, h2 = 5, 6
    else:
        raise ValueError(f"fidelity is defined for patterns (1,1,0,0) or (0,0,1,1), got {pattern}")
    if bell_target == "psi_minus":
        cross_sign = 1.0
    elif bell_target == "psi_plus":
        cross_sign = -1.0
    else:
        raise ValueError(f"unknown bell_target {bell_target!r}")
    if params.mean_photon == 0.0:
        raise UndefinedFidelityError("zero heralding probability at mean_photon = 0")
    _, a_full = _variants(params, A_FULL)
    _, a_pgen = _variants(params, A_PGEN_TRACED)

    ket1 = (1, h1, h2, 8)
    ket2 = (2, h1, h2, 7)
    w11 = _moment(a_full, ket1, ket1)
    w12 = _moment(a_full, ket1, ket2)
    w21 = _moment(a_full, ket2, ket1)
    w22 = _moment(a_full, ket2, ket2)
    denom = _moment(a_pgen, (h1, h2), (h1, h2))
    if denom == 0.0:
        raise UndefinedFidelityError("heralding probability vanished")
    # Ratio of the two 8-mode prefactors; the kernel determinants cancel.
    det_ratio = np.exp(a_pgen.log_det - a_full.log_det)
    raw = (
        (params.eta_d * params.eta_t) ** 2
        * det_ratio
        * (w11 + w22 + cross_sign * (w12 + w21))
        / (2.0 * denom)
    )
    flags = ()
    value = float(np.real(raw))
    if value < -REAL_TOLERANCE or value > 1.0 + REAL_TOLERANCE:
        flags = ("out_of_range",)
    return _as_metric(raw, params, flags)


def fock_element(params: SourceParams, d, g) -> complex:
    """Matrix element <d| rho |g> of the lossy photonic state in the Fock basis."""
    d = tuple(int(x) for x in d)
    g = tuple(int(x) for x in g)
    if len(d) != 8 or len(g) != 8 or any(x < 0 for x in d + g):
        raise ValueError("Fock indices must be 8 nonnegative integers each")
    if sum(d) + sum(g) > MAX_TOTAL_FOCK:
        raise ValueError(f"total photon count {sum(d) + sum(g)} exceeds the cap of {MAX_TOTAL_FOCK}")
    pref, a = _variants(params, A_FULL)
    eta = params.eta_vector
    scalar = 1.0
    kets: list[int] = []
    bras: list[int] = []
    for mode in range(1, 9):
        dj, gj = d[mode - 1], g[mode - 1]
        scalar *= np.sqrt(eta[mode - 1]) ** (dj + gj) / np.sqrt(factorial(dj) * factorial(gj))
        kets.extend([mode] * dj)
        bras.extend([mode] * gj)
    return pref * (scalar * _moment(a, kets, bras))
