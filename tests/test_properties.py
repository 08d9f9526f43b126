"""Physical invariants of the engine over its accepted domain, as hypothesis properties.

The domain is mean_photon in [0, 3] and every efficiency in [0, 1].  The
examples are derandomized, no example database is written and failing
examples are not shrunk, so every run checks the same points in bounded time.
tests/test_precision.py scans the accepted domain beyond mean_photon = 3.
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
# The heralding moments (~ mean_photon^2) leave the normal floats a little below this.
UNDERFLOW_MEAN_PHOTON = 1e-150
# At mean_photon <= 0.2 the Fock tail past this cutoff is below 6^-21 ~ 5e-17 per mode.
ORACLE_CUTOFF = 20

efficiency = st.floats(0.0, 1.0)
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
    assert abs(photonic_trace(params) - 1.0) <= 1e-9


@PROPERTY
@given(source_params(herald_pattern=herald_patterns))
def test_pgen_is_a_probability(params):
    # to the rounding the engine tolerates in a fidelity before it raises
    assert -REAL_TOLERANCE <= pgen(params) <= 1.0 + REAL_TOLERANCE


@PROPERTY
@given(source_params(herald_pattern=st.sampled_from([(1, 1, 0, 0), (0, 0, 1, 1)])))
def test_fidelity_is_a_probability(params):
    # fidelity raises NumericalDomainError outside [-REAL_TOLERANCE, 1 + REAL_TOLERANCE];
    # the range is asserted here directly.  The heralding moments scale as mean_photon^2, so they underflow below
    # about 1e-160 (and vanish at 0): then the fidelity is undefined.
    for target in ("psi_minus", "psi_plus"):
        try:
            value = fidelity(params, target)
        except UndefinedFidelityError:
            assert params.mean_photon < UNDERFLOW_MEAN_PHOTON
            continue
        assert -REAL_TOLERANCE <= value <= 1.0 + REAL_TOLERANCE, value


@PROPERTY
@given(source_params(dark_click_prob=st.floats(0.0, 0.1)), click_patterns)
def test_spin_matrices_are_hermitian_and_psd(params, click):
    for dm in (spin_spin_dm(params, click), spin_spin_dm_dark(params, click)):
        assert dm.hermiticity_defect() <= 1e-12 * np.max(np.abs(dm.entries))
        assert dm.min_eigenvalue() > -1e-9


@PROPERTY
@given(source_params())
def test_heralding_factorizes_over_the_two_chains(params):
    # Modes 3 and 4 sit at the same position of different chains.
    patterns = ((1, 1, 0, 0), (0, 0, 0, 0), (1, 0, 0, 0))
    both, none, one = (pgen(replace(params, herald_pattern=p)) for p in patterns)
    np.testing.assert_allclose(both * none, one**2, rtol=1e-12, atol=0.0)


@settings(PROPERTY, max_examples=15)
@given(source_params(mean_photon=st.floats(0.0, 0.2)))
def test_engine_matches_oracle(params):
    # The tolerances of `zalmsim validate`.  The oracle runs at a fixed cutoff:
    # its converging stopping rule has a 1e-11 absolute term, so it stops
    # early on small values.  Its fidelity divides by its heralding
    # probability, so it is compared where that is a normal float.
    mu, eta = params.mean_photon, params.eta_vector
    ov = oracle_pgen(mu, params.eta_b, cutoff=ORACLE_CUTOFF)
    assert abs(pgen(params) - ov) <= 1e-5 * ov + TINY
    if ov >= TINY:
        assert abs(fidelity(params) - oracle_fidelity(mu, eta, cutoff=ORACLE_CUTOFF)) < 1e-5
    om = oracle_spin_spin(mu, eta, cutoff=ORACLE_CUTOFF)
    assert np.max(np.abs(spin_spin_dm(params).entries - om)) < 1e-6


@pytest.mark.parametrize("mu", [1e-12, 1e-16, 1e-20])
def test_small_mean_photon_precision(mu):
    params = SourceParams(mean_photon=mu, eta_b=0.5)
    ov = oracle_pgen(mu, params.eta_b, cutoff=ORACLE_CUTOFF)
    assert abs(pgen(params) - ov) <= 1e-5 * ov
    assert -REAL_TOLERANCE <= fidelity(params) <= 1.0 + REAL_TOLERANCE
