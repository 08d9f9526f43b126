import numpy as np
import pytest

from zalmsim import SourceParams, build_cascaded_cov, oracle_covariance
from zalmsim.sources import MAX_MEAN_PHOTON


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

    def test_fractional_herald_counts_raise(self):
        with pytest.raises(ValueError, match=r"^herald_pattern must be 4 nonnegative integer counts, got \(0\.9, 1, 0, 0\)$"):
            SourceParams(mean_photon=0.1, herald_pattern=(0.9, 1, 0, 0))
        assert SourceParams(mean_photon=0.1, herald_pattern=np.array([0, 1, 0, 1])).herald_pattern == (0, 1, 0, 1)


class TestCascadedCov:
    def test_vacuum(self):
        np.testing.assert_array_equal(build_cascaded_cov(0.0), np.eye(8))

    @pytest.mark.parametrize("mu", [0.01, 0.1, 1.0, 5.0, 20.0])
    def test_purity(self, mu):
        cov = build_cascaded_cov(mu)
        assert abs(np.linalg.det(cov) - 1.0) < 1e-9
        assert np.min(np.diag(cov)) >= 1.0 - 1e-12

    def test_source_swap_is_mode_relabeling(self):
        # Swapping the two SPDC sources exchanges the chain's squeezed pairs:
        # local modes (1, 2, 3, 4) -> (3, 4, 1, 2).
        cov = build_cascaded_cov(0.4)
        swap = np.r_[2, 3, 0, 1, 6, 7, 4, 5]
        np.testing.assert_array_equal(cov[np.ix_(swap, swap)], cov)

    @pytest.mark.parametrize("mu", [-0.1, float("nan"), float("inf"), 1e78, 1e160])
    def test_mean_photon_outside_the_domain_raises(self, mu):
        # past MAX_MEAN_PHOTON the prefactor leaves the normal floats, and at 1e160 mu (1 + mu) overflows to inf
        with pytest.raises(ValueError, match=r"^mean photon number must lie in \[0, 1e\+77\], got \S+$"):
            build_cascaded_cov(mu)

    def test_domain_ends_at_the_largest_mean_photon(self):
        assert np.all(np.isfinite(build_cascaded_cov(MAX_MEAN_PHOTON)))
        with pytest.raises(ValueError):
            build_cascaded_cov(np.nextafter(MAX_MEAN_PHOTON, np.inf))

    @pytest.mark.parametrize("mu", [0.05, 0.2])
    def test_second_moments_match_fock_oracle(self, mu):
        engine = build_cascaded_cov(mu)
        oracle = oracle_covariance(mu, cutoff=14)
        assert np.max(np.abs(engine - oracle)) < 1e-6
