"""The 4-mode chain engine against the public 8-mode Wick path.

The reference builds the full 8-mode cascaded covariance (cascade_reference,
which does not assume the chain split), its 8-mode kernel and a 32x32
exponent matrix, and Wick-integrates 8-mode linear forms directly, as the
engine did before it was factored into two chains.
"""

from math import factorial

import numpy as np
import pytest
from cascade_reference import eight_mode_cov

from zalmsim import (
    BASIS,
    SourceParams,
    alpha_form,
    assemble_a,
    beta_conj_form,
    build_cascaded_cov,
    fidelity,
    fock_element,
    gaussian_prefactor,
    k_data,
    pgen,
    spin_spin_dm,
    wick_moment,
)
from zalmsim import metrics
from zalmsim.moments import MomentRequest
from zalmsim.oracle import oracle_pgen

RTOL = 1e-11
CHAIN_A = (1, 4, 6, 7)
CHAIN_B = (2, 3, 5, 8)
OUTER = frozenset({1, 2, 7, 8})
PARAMS = SourceParams(mean_photon=0.2, eta_b=0.6, eta_t=0.9, eta_d=0.8)


def reference_a(params, traced=frozenset()):
    kd = k_data(eight_mode_cov(params.mean_photon))
    eta = [0.0 if mode in traced else e for mode, e in enumerate(params.eta_vector, 1)]
    a = assemble_a(kd, eta)
    return gaussian_prefactor(a, kd), a


def reference_moment(a, kets, bras, scalar=1.0):
    forms = [alpha_form(m) for m in kets] + [beta_conj_form(m) for m in bras]
    return scalar * wick_moment(a, MomentRequest(tuple(forms)))


def reference_pgen(params):
    pref, a = reference_a(params, OUTER)
    eta = params.eta_vector
    scalar, modes = 1.0, []
    for mode, n in zip((3, 4, 5, 6), params.herald_pattern):
        scalar *= eta[mode - 1] ** n / factorial(n)
        modes += [mode] * n
    return pref * reference_moment(a, modes, modes, scalar)


def reference_fidelity(params, cross_sign):
    h1, h2 = (3, 4) if params.herald_pattern == (1, 1, 0, 0) else (5, 6)
    _, a_full = reference_a(params)
    _, a_pgen = reference_a(params, OUTER)
    ket1, ket2 = (1, h1, h2, 8), (2, h1, h2, 7)
    coherences = sum(
        sign * reference_moment(a_full, k, b)
        for k, b, sign in ((ket1, ket1, 1.0), (ket2, ket2, 1.0), (ket1, ket2, cross_sign), (ket2, ket1, cross_sign))
    )
    denom = reference_moment(a_pgen, (h1, h2), (h1, h2))
    det_ratio = np.exp(0.5 * (a_pgen.log_det - a_full.log_det))
    return (params.eta_d * params.eta_t) ** 2 * det_ratio * coherences / (2.0 * denom)


def reference_fock(params, d, g):
    pref, a = reference_a(params)
    eta = params.eta_vector
    scalar, kets, bras = 1.0, [], []
    for mode in range(1, 9):
        dj, gj = d[mode - 1], g[mode - 1]
        scalar *= np.sqrt(eta[mode - 1]) ** (dj + gj) / np.sqrt(factorial(dj) * factorial(gj))
        kets += [mode] * dj
        bras += [mode] * gj
    return pref * reference_moment(a, kets, bras, scalar)


def reference_spin(params, click):
    pref, a = reference_a(params)
    eta = params.eta_vector
    scalar, herald = 0.25, []
    for mode, n in zip((3, 4, 5, 6), click[2:6]):
        scalar *= eta[mode - 1] ** n / factorial(n)
        herald += [alpha_form(mode), beta_conj_form(mode)] * n

    def pair_forms(branch, base):
        forms = []
        for (i, j), mem in zip(((1, 2), (7, 8)), branch):
            ni, nj = click[i - 1], click[j - 1]
            if (ni, nj) == (0, 0):
                continue
            sign = (1.0 if mem == "10" else -1.0) * (1.0 if ni else -1.0)
            forms.append(
                base(i) * (np.sqrt(eta[i - 1]) / np.sqrt(2.0)) + base(j) * (sign * np.sqrt(eta[j - 1]) / np.sqrt(2.0))
            )
        return forms

    entries = np.zeros((4, 4), dtype=complex)
    for r, ket in enumerate(BASIS):
        for c, bra in enumerate(BASIS):
            forms = tuple(herald + pair_forms(ket, alpha_form) + pair_forms(bra, beta_conj_form))
            entries[r, c] = pref * scalar * wick_moment(a, MomentRequest(forms))
    return entries


@pytest.mark.parametrize("mu", [0.0, 0.1, 3.0, 1e5])
def test_cascaded_covariance_is_two_equal_chains(mu):
    entries = eight_mode_cov(mu)
    ia = np.r_[np.array(CHAIN_A) - 1, np.array(CHAIN_A) + 7]
    ib = np.r_[np.array(CHAIN_B) - 1, np.array(CHAIN_B) + 7]
    assert np.all(entries[np.ix_(ia, ib)] == 0.0)
    chain = build_cascaded_cov(mu)
    np.testing.assert_array_equal(entries[np.ix_(ia, ia)], chain)
    np.testing.assert_array_equal(entries[np.ix_(ib, ib)], chain)


def test_engine_kernel_is_one_chain():
    assert metrics._kernel_for(0.2).n_modes == 4


@pytest.mark.parametrize("pattern", [(1, 1, 0, 0), (0, 0, 1, 1), (0, 1, 0, 1), (2, 0, 0, 0), (1, 0, 1, 0), (2, 1, 1, 0)])
def test_pgen_matches_reference(pattern):
    params = SourceParams(mean_photon=0.2, eta_b=0.6, eta_t=0.9, eta_d=0.8, herald_pattern=pattern)
    ref = reference_pgen(params)
    assert abs(pgen(params).value - ref) <= RTOL * abs(ref)


@pytest.mark.parametrize("pattern", [(1, 1, 0, 0), (0, 0, 1, 1)])
@pytest.mark.parametrize("target, cross_sign", [("psi_minus", 1.0), ("psi_plus", -1.0)])
def test_fidelity_matches_reference(pattern, target, cross_sign):
    params = SourceParams(mean_photon=0.2, eta_b=0.6, eta_t=0.9, eta_d=0.8, herald_pattern=pattern)
    ref = reference_fidelity(params, cross_sign)
    assert abs(fidelity(params, target).value - ref) <= RTOL * abs(ref)


@pytest.mark.parametrize(
    "d, g",
    [
        ((0,) * 8, (0,) * 8),
        ((1, 0, 1, 1, 0, 0, 0, 1), (0, 1, 1, 1, 0, 0, 1, 0)),
        ((1, 0, 1, 0, 0, 1, 0, 1), (0, 1, 1, 0, 0, 1, 1, 0)),
        ((2, 1, 1, 1, 0, 0, 1, 0), (2, 1, 1, 1, 0, 0, 1, 0)),
        ((2, 1, 1, 0, 0, 2, 0, 0), (1, 0, 0, 1, 1, 1, 1, 1)),
        ((0, 2, 1, 0, 1, 1, 1, 0), (0, 0, 0, 0, 1, 2, 2, 1)),
    ],
)
def test_fock_element_matches_reference(d, g):
    ref = reference_fock(PARAMS, d, g)
    assert abs(ref) > 1e-9
    assert abs(fock_element(PARAMS, d, g) - ref) <= RTOL * abs(ref)


@pytest.mark.parametrize(
    "click",
    [
        (1, 0, 1, 1, 0, 0, 1, 0),
        (0, 1, 0, 0, 1, 1, 0, 1),
        (0, 0, 1, 1, 0, 0, 1, 0),
        (1, 0, 2, 1, 0, 0, 1, 0),
        (0, 1, 1, 0, 2, 0, 1, 0),
    ],
)
def test_spin_matrix_matches_reference(click):
    ref = reference_spin(PARAMS, click)
    got = spin_spin_dm(PARAMS, click).entries
    assert np.max(np.abs(got - ref)) <= RTOL * np.max(np.abs(ref))


@pytest.mark.parametrize("pattern", [(8, 0, 0, 0), (0, 3, 0, 5), (4, 0, 0, 4)])
def test_sixteen_forms_on_one_chain_match_oracle(pattern):
    # Eight herald clicks on one chain put 16 forms on it (hafnian_repeated);
    # (4, 0, 0, 4) splits them 8 and 8.
    params = SourceParams(mean_photon=0.1, herald_pattern=pattern)
    ref = oracle_pgen(0.1, pattern=pattern)
    assert pgen(params).value == pytest.approx(ref, rel=1e-10)
