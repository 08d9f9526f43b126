import warnings
from math import factorial, sqrt

import numpy as np
import pytest

from zalmsim import (
    UndefinedFidelityError,
    build_cascaded_cov,
    oracle_apply_loss,
    oracle_build_cascaded,
    oracle_covariance,
    oracle_fidelity,
    oracle_fock_element,
    oracle_pgen,
    oracle_pgen_filtered,
)
from zalmsim.oracle import (
    _bs_sector,
    _tmsv_amps,
    apply_beamsplitter,
    build_pre_bsm_state,
    pattern_probability,
)


class TestBuildCascaded:
    def test_vacuum_is_single_amplitude(self):
        state = oracle_build_cascaded(0.0, 3)
        assert state.branches[0] == {(0,) * 8: 1.0}
        assert state.norm_deficit == 0.0

    def test_tmsv_amplitudes_closed_form(self):
        amps = _tmsv_amps(0.1, 3)
        np.testing.assert_allclose(amps[0], 1.0 / np.sqrt(1.1), rtol=1e-15)
        np.testing.assert_allclose(amps[1], np.sqrt(0.1) / 1.1, rtol=1e-15)

    def test_norm_deficit_geometric_tail(self):
        state = oracle_build_cascaded(0.1, 3)
        ratio = 0.1 / 1.1
        expected = 1.0 - (1.0 - ratio**4) ** 4
        np.testing.assert_allclose(state.norm_deficit, expected, rtol=1e-12)
        assert state.norm_deficit < 1e-3
        # the truncated state's weight accounts for exactly that deficit
        np.testing.assert_allclose(state.total_weight(), 1.0 - expected, rtol=1e-12)

    def test_deficit_decreases_with_cutoff(self):
        deficits = [oracle_build_cascaded(0.2, c).norm_deficit for c in (2, 3, 4, 5)]
        assert all(b < a for a, b in zip(deficits, deficits[1:]))

    def test_matches_explicit_beamsplitter_route(self):
        direct = oracle_build_cascaded(0.15, 3).branches[0]
        routed = apply_beamsplitter(apply_beamsplitter(build_pre_bsm_state(0.15, 3), 3, 5), 4, 6)
        alt = routed.branches[0]
        keys = set(direct) | set(alt)
        worst = max(abs(direct.get(k, 0.0) - alt.get(k, 0.0)) for k in keys)
        assert worst < 1e-14

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            oracle_build_cascaded(0.1, 0)
        with pytest.raises(ValueError):
            oracle_build_cascaded(-0.1, 3)

    def test_high_mu_small_cutoff_flagged(self):
        state = oracle_build_cascaded(0.5, 2)
        assert state.warning is not None


class TestApplyLoss:
    def test_unit_efficiency_is_identity(self):
        state = oracle_build_cascaded(0.1, 2)
        out = oracle_apply_loss(state, 3, 1.0)
        assert len(out.branches) == 1
        before = state.branches[0]
        after = out.branches[0]
        assert set(before) == set(after)
        worst = max(abs(before[k] - after[k]) for k in before)
        assert worst < 1e-15

    def test_full_loss_empties_the_mode(self):
        state = oracle_build_cascaded(0.2, 2)
        out = oracle_apply_loss(state, 1, 0.0)
        assert all(occ[0] == 0 for branch in out.branches for occ in branch)
        np.testing.assert_allclose(out.total_weight(), state.total_weight(), rtol=1e-12)

    def test_trace_preserved_at_half_loss(self):
        state = oracle_build_cascaded(0.1, 3)
        out = oracle_apply_loss(state, 4, 0.5)
        np.testing.assert_allclose(out.total_weight(), state.total_weight(), rtol=1e-12)
        assert len(out.branches) > 1

    def test_rejects_bad_eta(self):
        state = oracle_build_cascaded(0.1, 2)
        with pytest.raises(ValueError):
            oracle_apply_loss(state, 1, 1.5)


class TestOraclePgen:
    def test_vacuum_cannot_click(self):
        assert oracle_pgen(0.0, 1.0, (1, 1, 0, 0)) == 0.0

    @pytest.mark.parametrize("eta_b", [1.0, 0.6])
    def test_two_paths_agree(self, eta_b):
        chain = oracle_pgen(0.05, eta_b, (1, 1, 0, 0), cutoff=4)
        filtered = oracle_pgen_filtered(0.05, eta_b, (1, 1, 0, 0), cutoff=4)
        assert abs(chain - filtered) < 1e-12

    def test_pattern_relabeling_symmetry(self):
        a = oracle_pgen(0.1, 0.8, (1, 1, 0, 0))
        b = oracle_pgen(0.1, 0.8, (0, 0, 1, 1))
        np.testing.assert_allclose(a, b, rtol=1e-10)

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="_converge stops on its absolute tolerance 1e-11 at too small a cutoff when the value is small",
    )
    def test_small_value_converges_to_closed_form(self):
        mu, eta_b = 3.0, 1e-6
        exact = (eta_b * mu) ** 2 / (1.0 + eta_b * mu) ** 6
        np.testing.assert_allclose(oracle_pgen(mu, eta_b), exact, rtol=1e-8)


class TestOracleFidelity:
    def test_stabilizes_between_small_cutoffs(self):
        etas = np.ones(8)
        f2 = oracle_fidelity(1e-3, etas, cutoff=2)
        f3 = oracle_fidelity(1e-3, etas, cutoff=3)
        assert abs(f2 - f3) < 5e-5 * abs(f3)

    def test_small_mu_limit_is_half_at_unit_efficiency(self):
        assert abs(oracle_fidelity(1e-3, np.ones(8)) - 0.5) < 1e-9

    @pytest.mark.parametrize("mu, eta_b", [(0.125, 0.0), (0.0, 1.0)])
    def test_nothing_heralds_is_undefined_at_once(self, mu, eta_b):
        # pgen and every element vanish at every cutoff, so the ratio must not be attempted
        etas = np.array([1.0, 1.0, eta_b, eta_b, eta_b, eta_b, 1.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(UndefinedFidelityError):
                oracle_fidelity(mu, etas)


class TestOracleFockElement:
    def test_vacuum_element_closed_form(self):
        got = oracle_fock_element(0.1, np.ones(8), (0,) * 8, (0,) * 8)
        np.testing.assert_allclose(got, 1.1**-4, rtol=1e-10)

    def test_hermiticity(self):
        etas = np.full(8, 0.8)
        d = (1, 0, 1, 1, 0, 0, 0, 1)
        g = (0, 1, 1, 1, 0, 0, 1, 0)
        a = oracle_fock_element(0.1, etas, d, g)
        b = oracle_fock_element(0.1, etas, g, d)
        np.testing.assert_allclose(a, np.conj(b), rtol=1e-10)


class TestLossCommutation:
    def test_loss_commutes_with_balanced_splitter(self):
        mu, eta, cutoff = 0.1, 0.6, 3
        pre = build_pre_bsm_state(mu, cutoff)

        after = apply_beamsplitter(apply_beamsplitter(pre, 3, 5), 4, 6)
        for mode in (3, 4, 5, 6):
            after = oracle_apply_loss(after, mode, eta)

        before = pre
        for mode in (3, 4, 5, 6):
            before = oracle_apply_loss(before, mode, eta)
        before = apply_beamsplitter(apply_beamsplitter(before, 3, 5), 4, 6)

        for pattern in ((1, 1, 0, 0), (1, 0, 1, 0), (0, 0, 1, 1)):
            p1 = pattern_probability(after, (3, 4, 5, 6), pattern)
            p2 = pattern_probability(before, (3, 4, 5, 6), pattern)
            assert abs(p1 - p2) < 1e-10


def per_kraus_index_loss(state, mode, eta):
    """Reference loss channel: one pass over every branch per Kraus index kk."""
    max_occ = max(occ[mode - 1] for branch in state.branches for occ in branch)
    out = []
    for branch in state.branches:
        for kk in range(max_occ + 1):
            nb = {}
            for occ, amp in branch.items():
                o = occ[mode - 1]
                if o < kk:
                    continue
                coeff = sqrt((1.0 - eta) ** kk / factorial(kk)) * eta ** ((o - kk) / 2.0) * sqrt(
                    factorial(o) / factorial(o - kk)
                )
                if coeff != 0.0:
                    nb[occ[: mode - 1] + (o - kk,) + occ[mode:]] = amp * coeff
            if nb:
                out.append(nb)
    return out


class TestProjectedFilter:
    @pytest.mark.parametrize("eta_b", [0.0, 0.6, 1.0])
    @pytest.mark.parametrize("pattern", [(1, 1, 0, 0), (2, 0, 1, 0), (0, 0, 0, 0)])
    def test_equals_unprojected_composition(self, pattern, eta_b):
        state = oracle_build_cascaded(0.1, 3)
        for mode in (3, 4, 5, 6):
            state = oracle_apply_loss(state, mode, eta_b)
        unprojected = pattern_probability(state, (3, 4, 5, 6), pattern)
        assert oracle_pgen_filtered(0.1, eta_b, pattern, cutoff=3) == unprojected

    def test_loss_branches_keep_order_and_amplitudes(self):
        state = oracle_apply_loss(oracle_build_cascaded(0.1, 3), 3, 0.6)
        got = oracle_apply_loss(state, 4, 0.6).branches
        expected = per_kraus_index_loss(state, 4, 0.6)
        assert [list(b.items()) for b in got] == [list(b.items()) for b in expected]


class TestBeamsplitterSectors:
    def test_unitary(self):
        for theta in (np.pi / 4, float(np.arccos(np.sqrt(0.37)))):
            for total in range(61):
                u = _bs_sector(total, theta)
                np.testing.assert_allclose(u @ u.T, np.eye(total + 1), rtol=0, atol=1e-13)

    def test_single_photon_sector(self):
        # basis index within a sector is the first mode's count
        u = _bs_sector(1, np.pi / 4)
        r = 1.0 / np.sqrt(2.0)
        # |1,0> -> (|1,0> - |0,1>)/sqrt(2) under the covariance-stage convention
        np.testing.assert_allclose(u[:, 1], [-r, r], atol=1e-12)
        np.testing.assert_allclose(u[:, 0], [r, r], atol=1e-12)

    def test_angles_compose(self):
        for total in (1, 4, 17, 40):
            u = _bs_sector(total, 0.3) @ _bs_sector(total, 0.5)
            np.testing.assert_allclose(u, _bs_sector(total, 0.8), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("theta", [np.pi / 4, float(np.arccos(np.sqrt(0.37)))])
    def test_matches_matrix_exponential(self, theta):
        linalg = pytest.importorskip("scipy.linalg")
        for total in range(61):
            g = np.zeros((total + 1, total + 1))
            for a in range(total):
                g[a + 1, a] = sqrt((a + 1) * (total - a))
                g[a, a + 1] = -g[a + 1, a]
            np.testing.assert_allclose(_bs_sector(total, theta), linalg.expm(theta * g), rtol=0, atol=1e-12)

    def test_covariance_consistency(self):
        engine = build_cascaded_cov(0.05)
        oracle = oracle_covariance(0.05, cutoff=10)
        assert np.max(np.abs(engine - oracle)) < 1e-9
