import numpy as np
import pytest

from zalmsim import (
    CovarianceMatrix,
    SymplecticOp,
    apply_symplectic,
    beamsplitter_symplectic,
    direct_sum,
    mode_permutation,
    symplectic_form,
    tmsv_cov,
)


class TestTmsvCov:
    def test_vacuum_is_identity(self):
        cov = tmsv_cov(0.0)
        assert np.array_equal(cov.entries, np.eye(4))

    def test_mu_one_qqpp_blocks(self):
        cov = tmsv_cov(1.0)
        c = 2.0 * np.sqrt(2.0)
        expected = np.zeros((4, 4))
        expected[:2, :2] = [[3.0, c], [c, 3.0]]
        expected[2:, 2:] = [[3.0, -c], [-c, 3.0]]
        np.testing.assert_allclose(cov.entries, expected, atol=1e-14)

    def test_quarter_mu_entries(self):
        cov = tmsv_cov(0.25)
        np.testing.assert_allclose(np.diag(cov.entries), [1.5, 1.5, 1.5, 1.5])
        c = 2.0 * np.sqrt(0.25 * 1.25)
        # q1-q2 and p1-p2 correlations
        np.testing.assert_allclose(cov.entries[0, 1], c)
        np.testing.assert_allclose(cov.entries[2, 3], -c)
        assert abs(c - 1.118033988749895) < 1e-12

    @pytest.mark.parametrize("bad", [-0.1, float("nan"), float("inf")])
    def test_rejects_bad_mu(self, bad):
        with pytest.raises(ValueError):
            tmsv_cov(bad)

    @pytest.mark.parametrize("mu", [0.0, 0.3, 2.0, 20.0])
    def test_purity(self, mu):
        cov = tmsv_cov(mu)
        assert abs(np.linalg.det(cov.entries) - 1.0) < 1e-9
        assert np.min(np.diag(cov.entries)) >= 1.0 - 1e-12


class TestShapes:
    def test_n_modes_from_entries(self):
        assert tmsv_cov(0.1).n_modes == 2
        assert SymplecticOp(np.eye(6)).n_modes == 3

    @pytest.mark.parametrize("shape", [(3, 3), (2, 4), (4,)])
    def test_rejects_non_quadrature_shapes(self, shape):
        with pytest.raises(ValueError):
            CovarianceMatrix(np.zeros(shape))
        with pytest.raises(ValueError):
            SymplecticOp(np.zeros(shape))


# The idler-swap permutation printed for the 4-mode source, (q1..q4, p1..p4).
SWAP_2_4 = np.array(
    [
        [1, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 1, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 1, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 1],
        [0, 0, 0, 0, 0, 0, 1, 0],
        [0, 0, 0, 0, 0, 1, 0, 0],
    ],
    dtype=float,
)


class TestModePermutation:
    def test_identity_mapping(self):
        s = mode_permutation(3, {})
        assert np.array_equal(s.entries, np.eye(6))

    def test_swap_2_4_matches_printed_matrix(self):
        s = mode_permutation(4, {2: 4, 4: 2})
        assert np.array_equal(s.entries, SWAP_2_4)

    def test_permutations_are_symplectic(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            perm = rng.permutation(5) + 1
            mapping = {i + 1: int(perm[i]) for i in range(5)}
            assert mode_permutation(5, mapping).symplectic_defect() < 1e-12

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            mode_permutation(3, {1: 2})


class TestBeamsplitter:
    def test_fully_transmissive_is_identity(self):
        s = beamsplitter_symplectic(4, 1, 3, 1.0)
        assert np.array_equal(s.entries, np.eye(8))

    def test_printed_direct_sum_layout_modes_3_5(self):
        t = 0.37
        ct, st = np.sqrt(t), np.sqrt(1.0 - t)
        block = np.array(
            [
                [ct, 0.0, st, 0.0],
                [0.0, 1.0, 0.0, 0.0],
                [-st, 0.0, ct, 0.0],
                [0.0, 0.0, 0.0, 1.0],
            ]
        )
        expected_half = np.zeros((8, 8))
        expected_half[:2, :2] = np.eye(2)
        expected_half[2:6, 2:6] = block
        expected_half[6:, 6:] = np.eye(2)
        expected = np.zeros((16, 16))
        expected[:8, :8] = expected_half
        expected[8:, 8:] = expected_half
        s = beamsplitter_symplectic(8, 3, 5, t)
        np.testing.assert_array_equal(s.entries, expected)

    def test_balanced_entries(self):
        s = beamsplitter_symplectic(2, 1, 2, 0.5)
        r = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(np.abs(s.entries[0, :2]), [r, r])

    def test_symplectic(self):
        for t in (0.0, 0.25, 0.5, 1.0):
            assert beamsplitter_symplectic(6, 2, 5, t).symplectic_defect() < 1e-12

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            beamsplitter_symplectic(4, 2, 2, 0.5)
        with pytest.raises(ValueError):
            beamsplitter_symplectic(4, 1, 2, 1.5)


class TestApplySymplectic:
    def test_identity_leaves_state(self):
        cov = tmsv_cov(0.2)
        s = mode_permutation(2, {})
        np.testing.assert_array_equal(apply_symplectic(s, cov).entries, cov.entries)

    def test_determinant_preserved(self):
        cov = tmsv_cov(0.8)
        s = beamsplitter_symplectic(2, 1, 2, 0.3)
        out = apply_symplectic(s, cov)
        np.testing.assert_allclose(np.linalg.det(out.entries), np.linalg.det(cov.entries), rtol=1e-12)

    def test_vacuum_invariant_under_balanced_splitter(self):
        vac = tmsv_cov(0.0)
        s = beamsplitter_symplectic(2, 1, 2, 0.5)
        np.testing.assert_allclose(apply_symplectic(s, vac).entries, np.eye(4), atol=1e-15)

    def test_mismatch_errors(self):
        cov = tmsv_cov(0.2)
        with pytest.raises(ValueError):
            apply_symplectic(beamsplitter_symplectic(3, 1, 2, 0.5), cov)


class TestDirectSum:
    def test_vacua_combine_to_identity(self):
        out = direct_sum(tmsv_cov(0.0), tmsv_cov(0.0))
        assert np.array_equal(out.entries, np.eye(8))

    def test_qqpp_interleaves(self):
        a = tmsv_cov(0.3)
        b = tmsv_cov(0.7)
        joint = direct_sum(a, b)
        # joint (q1 q2 q3 q4 p1 p2 p3 p4): a on modes 1-2, b on modes 3-4, nothing between
        expected = np.zeros((8, 8))
        for block, rows in ((a, [0, 1, 4, 5]), (b, [2, 3, 6, 7])):
            expected[np.ix_(rows, rows)] = block.entries
        np.testing.assert_array_equal(joint.entries, expected)

    def test_det_multiplicative(self):
        a = tmsv_cov(0.3)
        b = tmsv_cov(1.2)
        out = direct_sum(a, b)
        np.testing.assert_allclose(
            np.linalg.det(out.entries),
            np.linalg.det(a.entries) * np.linalg.det(b.entries),
            rtol=1e-10,
        )


def test_symplectic_form_conventions():
    omega = symplectic_form(2)
    assert omega[0, 2] == 1.0 and omega[2, 0] == -1.0
