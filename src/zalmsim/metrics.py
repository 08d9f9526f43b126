"""Photonic figures of merit: trace, heralding probability, fidelity, Fock elements.

The cascaded source is exactly a product of two identical 4-mode chains.
Chain A holds modes 1, 4, 6, 7 and chain B modes 2, 3, 5, 8; in each, two
squeezed pairs meet on one heralding beam splitter, and the local modes run
(outer, herald, herald, outer).  No 8-mode state is built: the kernel comes
from one chain's closed-form covariance, and since loss is the same on
both chains, one 16x16 exponent matrix serves both; a traced mode is a mode
at efficiency 0.
Every metric is a combination of lossy-state Fock elements <d| rho |g>, as
in the oracle; one element is the 8-mode Gaussian prefactor (the chain
prefactor squared) times the sqrt(eta)^(d+g) / sqrt(d! g!) weight times a
product of two chain Wick moments.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from math import factorial, sqrt

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
from .sources import SourceParams, build_cascaded_cov

HERALD_MODES = (3, 4, 5, 6)
CHAIN_MODES = ((1, 4, 6, 7), (2, 3, 5, 8))
REAL_TOLERANCE = 1e-9
MAX_TOTAL_FOCK = 16

# Global mode -> (chain index, local mode 1..4).
_CHAIN_OF = {mode: (c, local) for c, modes in enumerate(CHAIN_MODES) for local, mode in enumerate(modes, 1)}
_CHAIN_IDX = np.array(CHAIN_MODES[0]) - 1
_ALPHA = {local: alpha_form(local, 4) for local in range(1, 5)}
_BETA = {local: beta_conj_form(local, 4) for local in range(1, 5)}


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
    """Kernel of one chain's covariance; both chains share it."""
    return k_data(build_cascaded_cov(mu))


@functools.lru_cache(maxsize=256)
def _a_variant(mu: float, eta: tuple[float, ...]) -> AMatrix:
    return assemble_a(_kernel_for(mu), np.asarray(eta))


def _variants(params: SourceParams, eta) -> tuple[complex, AMatrix]:
    """The 8-mode Gaussian prefactor and the chain exponent matrix both chains share.

    eta holds one chain's efficiencies over its local modes (outer, herald,
    herald, outer), 0.0 on each mode to trace out.
    """
    k = _kernel_for(params.mean_photon)
    a = _a_variant(params.mean_photon, tuple(eta))
    return gaussian_prefactor(a, k) ** 2, a


def _detected(params: SourceParams) -> tuple[float, ...]:
    """Chain efficiencies with every mode detected."""
    return tuple(params.eta_vector[_CHAIN_IDX])


def _heralded(params: SourceParams) -> tuple[float, ...]:
    """Chain efficiencies with the outer modes traced out: only the heralds are detected."""
    return (0.0, params.eta_b, params.eta_b, 0.0)


def _moment(a: AMatrix, kets, bras, memo: dict | None = None) -> complex:
    """Wick moment of alpha on global modes kets and beta* on bras, one wick_moment per chain.

    memo, if given, maps a chain's sorted local (ket, bra) modes to its moment;
    both chains share A, so equal keys on either chain have equal moments.
    """
    split = (([], []), ([], []))
    for side, modes in enumerate((kets, bras)):
        for mode in modes:
            chain, local = _CHAIN_OF[mode]
            split[chain][side].append(local)
    out = 1.0 + 0.0j
    for k, b in split:
        key = (tuple(sorted(k)), tuple(sorted(b)))
        if memo is not None and key in memo:
            out *= memo[key]
            continue
        value = wick_moment(a, MomentRequest(tuple(_ALPHA[m] for m in key[0]) + tuple(_BETA[m] for m in key[1])))
        if memo is not None:
            memo[key] = value
        out *= value
    return out


def _weight(eta, d, g) -> tuple[float, list[int], list[int]]:
    """The sqrt(eta)^(d+g) / sqrt(d! g!) weight of <d| rho |g> and its ket and bra modes, once per photon.

    Every metric in this module weights its Fock counts here.  spin_spin_dm
    weights only its herald counts here: memory.branch_forms puts sqrt(eta)
    on the memory modes' detection forms itself.
    """
    scalar = 1.0
    kets: list[int] = []
    bras: list[int] = []
    for mode, e, dj, gj in zip(range(1, 9), eta, d, g):
        if dj or gj:
            scalar *= e ** ((dj + gj) / 2) / sqrt(factorial(dj) * factorial(gj))
            kets.extend([mode] * dj)
            bras.extend([mode] * gj)
    return scalar, kets, bras


def _element(variant: tuple[complex, AMatrix], eta, d, g) -> complex:
    """<d| rho |g> of the lossy state under one (prefactor, A) variant, for 8-mode counts d, g.

    With traced modes (efficiency 0) in A, the element sums over their photon
    numbers, so the heralding probability is the element of the herald counts.
    """
    pref, a = variant
    scalar, kets, bras = _weight(eta, d, g)
    return pref * (scalar * _moment(a, kets, bras))


def dark_attributions(pattern) -> dict[int, tuple[tuple[int, ...], ...]]:
    """Photon patterns behind a click pattern when k of its single clicks are dark counts, keyed by k.

    Attributing a click to a dark count removes it from the photon pattern;
    k = 0 holds the pattern itself.
    """
    clicked = [i for i, n in enumerate(pattern) if n == 1]
    out = {}
    for k in range(len(clicked) + 1):
        reduced = []
        for dark in itertools.combinations(clicked, k):
            photons = list(pattern)
            for i in dark:
                photons[i] = 0
            reduced.append(tuple(photons))
        out[k] = tuple(reduced)
    return out


def photonic_trace(params: SourceParams) -> MetricResult:
    """Trace of the lossy source state; equals 1 for every physical parameter set."""
    vacuum = (0,) * 8
    return _as_metric(_element(_variants(params, (0.0,) * 4), (), vacuum, vacuum), params)


def pgen(params: SourceParams) -> MetricResult:
    """Probability that the heralding detectors fire with the requested pattern."""
    herald = (0, 0) + params.herald_pattern + (0, 0)
    return _as_metric(_element(_variants(params, _heralded(params)), params.eta_vector.tolist(), herald, herald), params)


def pgen_with_dark(params: SourceParams) -> MetricResult:
    """Heralding probability including detector dark clicks.

    A classical mixture over the photon patterns behind the (1, 1, 0, 0)-class
    click pattern: k of its two clicks dark, weighted pd^k (1 - pd)^(2 - k).
    A dark-attributed detector keeps its mode in the detected set with zero
    photons, so every term is a heralding element under the same exponent
    matrix.
    """
    pattern = params.herald_pattern
    if sorted(pattern) != [0, 0, 1, 1]:
        raise ValueError(f"dark-count heralding is defined for two single clicks, got {pattern}")
    pd = params.dark_click_prob
    variant = _variants(params, _heralded(params))
    eta = params.eta_vector.tolist()
    raw = 0.0
    for k, photon_patterns in dark_attributions(pattern).items():
        if k and pd == 0.0:
            break
        for photons in photon_patterns:
            herald = (0, 0) + photons + (0, 0)
            raw += pd**k * (1.0 - pd) ** (2 - k) * _element(variant, eta, herald, herald)
    return _as_metric(raw, params)


def fidelity(params: SourceParams, bell_target: str = "psi_minus") -> MetricResult:
    """Bell fidelity of the heralded photonic state, (rho11 + rho22 +- (rho12 + rho21)) / (2 pgen).

    Supported patterns click exactly one photon on each of two heralding
    modes, (1,1,0,0) or (0,0,1,1); e1 and e2 put one photon on the outer
    modes (1, 8) and (2, 7).  bell_target selects the relative sign of the
    two coherence terms; "psi_minus" reproduces the pattern's nominal Bell
    state, "psi_plus" the orthogonal one.
    """
    pattern = params.herald_pattern
    if pattern not in ((1, 1, 0, 0), (0, 0, 1, 1)):
        raise ValueError(f"fidelity is defined for patterns (1,1,0,0) or (0,0,1,1), got {pattern}")
    if bell_target == "psi_minus":
        cross_sign = 1.0
    elif bell_target == "psi_plus":
        cross_sign = -1.0
    else:
        raise ValueError(f"unknown bell_target {bell_target!r}")
    if params.mean_photon == 0.0:
        raise UndefinedFidelityError("zero heralding probability at mean_photon = 0")
    full = _variants(params, _detected(params))
    heralded = _variants(params, _heralded(params))
    # Every element and pgen carry the same herald weight eta_b^2; leaving it
    # out of all five keeps the ratio finite in the eta_b -> 0 limit.
    eta = [1.0 if mode in HERALD_MODES else e for mode, e in enumerate(params.eta_vector.tolist(), 1)]
    herald = (0, 0) + pattern + (0, 0)
    e1 = (1, 0) + pattern + (0, 1)
    e2 = (0, 1) + pattern + (1, 0)
    r11, r12, r21, r22 = (_element(full, eta, d, g) for d in (e1, e2) for g in (e1, e2))
    denom = _element(heralded, eta, herald, herald)
    if denom == 0.0:
        raise UndefinedFidelityError("heralding probability vanished")
    raw = 0.5 * (r11 + r22 + cross_sign * (r12 + r21)) / denom
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
    return _element(_variants(params, _detected(params)), params.eta_vector.tolist(), d, g)
