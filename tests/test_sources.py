import numpy as np
import pytest

from zalmsim import (
    SourceParams,
    apply_symplectic,
    build_cascaded_cov,
    build_spdc_cov,
    direct_sum,
    mode_permutation,
    oracle_covariance,
)


class TestSourceParams:
    def test_defaults(self):
        p = SourceParams(mean_photon=0.1)
        assert p.herald_pattern == (1, 1, 0, 0)
        assert p.eta_b == p.eta_t == p.eta_d == 1.0

    def test_eta_vector_layout(self):
        p = SourceParams(mean_photon=0.1, eta_b=0.5, eta_t=0.8, eta_d=0.9)
        outer = 0.8 * 0.9
        np.testing.assert_allclose(p.eta_vector, [outer, outer, 0.5, 0.5, 0.5, 0.5, outer, outer])

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mean_photon": -1.0},
            {"mean_photon": 0.1, "eta_b": 1.2},
            {"mean_photon": 0.1, "eta_t": -0.1},
            {"mean_photon": 0.1, "dark_click_prob": 1.0},
            {"mean_photon": 0.1, "herald_pattern": (1, 1, 0)},
            {"mean_photon": 0.1, "herald_pattern": (3, 3, 3, 3)},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SourceParams(**kwargs)


class TestSpdcCov:
    def test_vacuum(self):
        assert np.array_equal(build_spdc_cov(0.0).entries, np.eye(8))

    def test_purity(self):
        assert abs(np.linalg.det(build_spdc_cov(0.1).entries) - 1.0) < 1e-9

    def test_correlation_pattern_after_idler_swap(self):
        cov = build_spdc_cov(0.1)
        # q-q correlation sits between modes 1 and 4, none between 1 and 2
        q1, q2, q4 = 0, 1, 3
        assert abs(cov.entries[q1, q4]) > 0.1
        assert cov.entries[q1, q2] == 0.0


class TestCascadedCov:
    def test_vacuum(self):
        np.testing.assert_allclose(build_cascaded_cov(0.0).entries, np.eye(16), atol=1e-14)

    @pytest.mark.parametrize("mu", [0.01, 0.1, 1.0, 5.0, 20.0])
    def test_purity(self, mu):
        cov = build_cascaded_cov(mu)
        assert abs(np.linalg.det(cov.entries) - 1.0) < 1e-9
        assert np.min(np.diag(cov.entries)) >= 1.0 - 1e-12

    def test_unit_transmissivity_reduces_to_two_spdcs(self):
        spdc = build_spdc_cov(0.3)
        expected = direct_sum(spdc, spdc)
        np.testing.assert_allclose(build_cascaded_cov(0.3, t=1.0).entries, expected.entries, atol=1e-14)

    def test_source_swap_is_mode_relabeling(self):
        cov = build_cascaded_cov(0.4)
        swap = mode_permutation(8, {1: 5, 2: 6, 3: 7, 4: 8, 5: 1, 6: 2, 7: 3, 8: 4})
        np.testing.assert_allclose(apply_symplectic(swap, cov).entries, cov.entries, atol=1e-12)

    @pytest.mark.parametrize("mu", [0.05, 0.2])
    def test_second_moments_match_fock_oracle(self, mu):
        engine = build_cascaded_cov(mu).entries
        oracle = oracle_covariance(mu, cutoff=14)
        assert np.max(np.abs(engine - oracle)) < 1e-6

    def test_unbalanced_splitters_match_fock_oracle(self):
        engine = build_cascaded_cov(0.1, t=0.37).entries
        oracle = oracle_covariance(0.1, cutoff=12, t=0.37)
        assert np.max(np.abs(engine - oracle)) < 1e-9
