import numpy as np
import pytest
from cascade_reference import tmsv_cov

from zalmsim import (
    COVARIANCE_PRESCALE,
    NumericalDomainError,
    build_cascaded_cov,
    k_data,
)


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
