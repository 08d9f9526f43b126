"""Physical invariants of the engine over its accepted domain, as hypothesis properties.

The domain is mean_photon in [0, 3] and every efficiency in [0, 1].  The
examples are derandomized, no example database is written and failing
examples are not shrunk, so every run checks the same points in bounded time.

Below mean_photon ~ 1e-8 with heralding loss (eta_b < 1) the engine's
heralded quantities lose relative precision, about 1e-16 / mean_photon
(pgen is 1e-4 off the oracle at 1e-12, fidelity leaves [0, 1] near 1e-16
and its heralding probability is 0.0 by 1e-20).  Fidelity and the oracle
comparison are therefore checked from 1e-8 (and at 0), and
test_small_mean_photon_precision pins the loss until it is mended.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from zalmsim import (
    SourceParams,
    UndefinedFidelityError,
    fidelity,
    oracle_fidelity,
    oracle_pgen,
    oracle_spin_spin,
    pgen,
    photonic_trace,
    spin_spin_dm,
    spin_spin_dm_dark,
)
from zalmsim.metrics import REAL_TOLERANCE

PROPERTY = settings(
    derandomize=True, database=None, max_examples=25, deadline=None, phases=(Phase.explicit, Phase.generate)
)
# Relative accuracy ends at the smallest normal float.
TINY = np.finfo(float).tiny
# At mean_photon <= 0.2 the Fock tail past this cutoff is below 6^-21 ~ 5e-17 per mode.
ORACLE_CUTOFF = 20

efficiency = st.floats(0.0, 1.0)
precise_mean_photon = st.floats(1e-8, 3.0)
herald_patterns = st.sampled_from([(1, 1, 0, 0), (0, 0, 1, 1), (0, 1, 0, 1), (1, 0, 0, 0), (2, 0, 1, 0), (0, 0, 0, 0)])
# Memory pairs (1, 2) and (7, 8) click (0, 0), (1, 0) or (0, 1); up to two herald clicks per mode.
memory_pair = st.sampled_from([(0, 0), (1, 0), (0, 1)])
click_patterns = st.builds(
    lambda a, heralds, b: a + heralds + b, memory_pair, st.tuples(*[st.integers(0, 2)] * 4), memory_pair
)


def source_params(mean_photon=st.floats(0.0, 3.0), **extra):
    return st.builds(
        SourceParams, mean_photon=mean_photon, eta_b=efficiency, eta_t=efficiency, eta_d=efficiency, **extra
    )


@PROPERTY
@given(source_params())
def test_trace_is_one(params):
    assert abs(photonic_trace(params).value - 1.0) <= 1e-9


@PROPERTY
@given(source_params(herald_pattern=herald_patterns))
def test_pgen_is_a_probability(params):
    # to the rounding the engine tolerates before it flags a value
    assert -REAL_TOLERANCE <= pgen(params).value <= 1.0 + REAL_TOLERANCE


@PROPERTY
@given(source_params(mean_photon=precise_mean_photon, herald_pattern=st.sampled_from([(1, 1, 0, 0), (0, 0, 1, 1)])))
def test_fidelity_is_a_probability(params):
    # out_of_range flags a value outside [-REAL_TOLERANCE, 1 + REAL_TOLERANCE]
    for target in ("psi_minus", "psi_plus"):
        result = fidelity(params, target)
        assert result.ok, result.flags


@PROPERTY
@given(source_params(dark_click_prob=st.floats(0.0, 0.1)), click_patterns)
def test_spin_matrices_are_hermitian_and_psd(params, click):
    for dm in (spin_spin_dm(params, click), spin_spin_dm_dark(params)):
        assert dm.hermiticity_defect() <= 1e-12 * np.max(np.abs(dm.entries))
        assert dm.min_eigenvalue() > -1e-9


@PROPERTY
@given(source_params())
def test_heralding_factorizes_over_the_two_chains(params):
    # Modes 3 and 4 sit at the same position of different chains.
    patterns = ((1, 1, 0, 0), (0, 0, 0, 0), (1, 0, 0, 0))
    both, none, one = (pgen(replace(params, herald_pattern=p)).value for p in patterns)
    np.testing.assert_allclose(both * none, one**2, rtol=1e-12, atol=0.0)


@settings(PROPERTY, max_examples=15)
@given(source_params(mean_photon=st.one_of(st.just(0.0), st.floats(1e-8, 0.2))))
def test_engine_matches_oracle(params):
    # The tolerances of `zalmsim validate`.  The oracle runs at a fixed cutoff:
    # its converging stopping rule has a 1e-11 absolute term, so it stops
    # early on small values.  Its fidelity divides by its heralding
    # probability, so it is compared where that is a normal float.
    mu, eta = params.mean_photon, params.eta_vector
    ov = oracle_pgen(mu, params.eta_b, cutoff=ORACLE_CUTOFF)
    assert abs(pgen(params).value - ov) <= 1e-5 * ov + TINY
    if ov >= TINY:
        assert abs(fidelity(params).value - oracle_fidelity(mu, eta, cutoff=ORACLE_CUTOFF)) < 1e-5
    om = oracle_spin_spin(mu, eta, cutoff=ORACLE_CUTOFF)
    assert np.max(np.abs(spin_spin_dm(params).entries - om)) < 1e-6


@pytest.mark.xfail(
    strict=True,
    raises=(AssertionError, UndefinedFidelityError),
    reason="A^-1 loses the O(mean_photon) herald pair entry below mean_photon ~ 1e-8 with heralding loss",
)
@pytest.mark.parametrize("mu", [1e-12, 1e-16, 1e-20])
def test_small_mean_photon_precision(mu):
    params = SourceParams(mean_photon=mu, eta_b=0.5)
    ov = oracle_pgen(mu, params.eta_b, cutoff=ORACLE_CUTOFF)
    assert abs(pgen(params).value - ov) <= 1e-5 * ov
    assert fidelity(params).ok
