"""The K-function: the quadrature kernel of the test reference, and the engine's amplitude-basis moments.

quadrature_reference.k_data is the coherent-basis kernel of a covariance,
which the chain engine is checked against; zalmsim.moments.k_data gives the engine
one chain's excess moments N and M, which must be the same state's.
"""

import numpy as np
import pytest
from cascade_reference import tmsv_cov
from quadrature_reference import k_data

from zalmsim import NumericalDomainError, build_cascaded_cov, moments
from zalmsim.sources import COVARIANCE_PRESCALE, PAIRING


def coherent_overlap_from_kernel(kd, alphas: np.ndarray) -> complex:
    """<alpha|psi> reconstructed from the kernel data at one coherent point."""
    q = np.sqrt(2.0) * np.real(alphas)
    p = np.sqrt(2.0) * np.imag(alphas)
    x = np.concatenate([q, p])
    return np.exp(-0.5 * x @ kd.script_b @ x) * np.exp(-0.25 * kd.log_det_gamma)


class TestVacuumKernel:
    def test_gamma_and_exponent(self):
        kd = k_data(tmsv_cov(0.0))
        assert COVARIANCE_PRESCALE == 0.5
        np.testing.assert_allclose(kd.gamma, np.eye(4), atol=1e-15)
        np.testing.assert_allclose(kd.script_b, 0.5 * np.eye(4), atol=1e-15)
        assert abs(kd.log_det_gamma) < 1e-14

    def test_matches_vacuum_coherent_overlap(self):
        kd = k_data(tmsv_cov(0.0))
        rng = np.random.default_rng(11)
        for _ in range(5):
            alphas = rng.normal(size=2) + 1j * rng.normal(size=2)
            expected = np.exp(-0.5 * np.sum(np.abs(alphas) ** 2))
            np.testing.assert_allclose(coherent_overlap_from_kernel(kd, alphas), expected, atol=1e-12)


class TestTmsvKernel:
    def test_matches_fock_series_closed_form(self):
        mu = 0.1
        kd = k_data(tmsv_cov(mu))
        schmidt = np.sqrt(mu / (1.0 + mu))
        rng = np.random.default_rng(5)
        for _ in range(5):
            alphas = rng.normal(size=2) + 1j * rng.normal(size=2)
            closed = (
                np.exp(-0.5 * np.sum(np.abs(alphas) ** 2))
                * np.exp(schmidt * np.conj(alphas[0]) * np.conj(alphas[1]))
                / np.sqrt(1.0 + mu)
            )
            got = coherent_overlap_from_kernel(kd, alphas)
            assert abs(got - closed) < 1e-9

    def test_normalization_factor(self):
        # det(Gamma) = (1 + mu)^2 for the two-mode squeezed kernel
        mu = 0.3
        kd = k_data(tmsv_cov(mu))
        np.testing.assert_allclose(np.exp(kd.log_det_gamma), (1.0 + mu) ** 2, rtol=1e-12)


class TestKernelStructure:
    def test_exponent_symmetric_for_cascaded_source(self):
        kd = k_data(build_cascaded_cov(0.3))
        assert np.max(np.abs(kd.script_b - kd.script_b.T)) < 1e-12

    def test_gamma_positive_definite(self):
        kd = k_data(build_cascaded_cov(2.0))
        assert np.min(np.linalg.eigvalsh(kd.gamma)) > 0.0

    def test_non_positive_definite_rejected(self):
        with pytest.raises(NumericalDomainError):
            k_data(-10.0 * np.eye(2))


class TestChainMoments:
    @pytest.mark.parametrize("mu", [0.0, 1e-3, 0.3, 7.0])
    def test_match_the_chain_covariance(self, mu):
        # Q = W (kappa V) W^dag + I/2 = I + S over (a_1..a_4, a_1^dag..a_4^dag),
        # with a = (q + i p) / sqrt(2) at the hbar = 1 scale kappa V.
        w = np.block([[np.eye(4), 1j * np.eye(4)], [np.eye(4), -1j * np.eye(4)]]) / np.sqrt(2.0)
        q = w @ (COVARIANCE_PRESCALE * build_cascaded_cov(mu)) @ w.conj().T + 0.5 * np.eye(8)
        k = moments.k_data(mu)
        n, m = k.mean_photon * np.eye(4), k.pair * PAIRING
        excess = np.block([[n, m], [m, n]])
        np.testing.assert_allclose(q - np.eye(8), excess, atol=1e-14 * (1.0 + mu))

    def test_pair_moment_stays_finite(self):
        k = moments.k_data(1e300)
        assert k.pair == pytest.approx(1e300, rel=1e-15)

    @pytest.mark.parametrize("mu", [-1e-3, float("nan"), float("inf")])
    def test_rejects_invalid_mean_photon(self, mu):
        with pytest.raises(ValueError):
            moments.k_data(mu)
