"""Hafnians, the K-function, the engine's amplitude-basis chain stage, and the quadrature reference path it replaced.

TestChainMoments, TestChainExponent and TestChainWickMoment check the engine
(zalmsim.moments); TestVacuumKernel, TestTmsvKernel, TestKernelStructure,
TestWickMoment, TestWickAgainstQuadrature, TestAssembleA and
TestGaussianPrefactor check quadrature_reference, the path the chain engine
is compared with in test_chain_engine.  quadrature_reference.k_data is the
coherent-basis kernel of a covariance; zalmsim.moments.k_data gives the
engine one chain's excess moments N and M, which must be the same state's.
"""

import itertools

import numpy as np
import pytest
from cascade_reference import eight_mode_cov, tmsv_cov
from quadrature_reference import (
    AMatrix,
    LinearForm,
    MomentRequest,
    alpha_form,
    assemble_a,
    beta_conj_form,
    gaussian_prefactor,
    k_data,
    wick_moment,
)

from zalmsim import NumericalDomainError, SourceParams, build_cascaded_cov, moments
from zalmsim.moments import hafnian, hafnian_repeated
from zalmsim.sources import COVARIANCE_PRESCALE, MAX_MEAN_PHOTON, PAIRING


def enumerate_pairings(items):
    """All partitions into pairs, anchored on the first element."""
    items = list(items)
    if not items:
        yield []
        return
    first = items[0]
    for i in range(1, len(items)):
        rest = items[1:i] + items[i + 1 :]
        for sub in enumerate_pairings(rest):
            yield [(first, items[i])] + sub


def hafnian_by_enumeration(m: np.ndarray) -> complex:
    total = 0.0 + 0.0j
    for pairing in enumerate_pairings(range(m.shape[0])):
        term = 1.0 + 0.0j
        for i, j in pairing:
            term *= m[i, j]
        total += term
    return total


class TestHafnian:
    def test_empty_matrix(self):
        assert hafnian(np.zeros((0, 0))) == 1.0

    def test_two_by_two(self):
        m = np.array([[0.0, 3.5], [3.5, 0.0]])
        assert hafnian(m) == 3.5

    def test_four_by_four_three_matchings(self):
        rng = np.random.default_rng(0)
        m = rng.integers(-5, 6, size=(4, 4)).astype(float)
        m = m + m.T
        expected = m[0, 1] * m[2, 3] + m[0, 2] * m[1, 3] + m[0, 3] * m[1, 2]
        assert hafnian(m) == expected

    def test_six_by_six_exact_vs_enumeration(self):
        # integer entries keep both routes exact in floating point
        rng = np.random.default_rng(42)
        re = rng.integers(-9, 10, size=(6, 6))
        im = rng.integers(-9, 10, size=(6, 6))
        m = (re + re.T + 1j * (im + im.T)).astype(complex)
        assert hafnian(m) == hafnian_by_enumeration(m)

    def test_zero_row_single_use_vanishes(self):
        m = np.arange(16, dtype=float).reshape(4, 4)
        m = m + m.T
        m[2, :] = 0.0
        m[:, 2] = 0.0
        assert hafnian(m) == 0.0

    def test_rejects_odd_dimension(self):
        with pytest.raises(ValueError):
            hafnian(np.zeros((3, 3)))


class TestHafnianRepeated:
    def test_matches_expanded_matrix(self):
        rng = np.random.default_rng(7)
        for reps in [(2,), (1, 1), (2, 2), (3, 1), (2, 1, 1), (3, 3, 2), (2, 2, 1, 1, 2), (1, 0, 3, 2)]:
            k = len(reps)
            m = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
            m = m + m.T
            idx = np.repeat(np.arange(k), reps)
            ref = hafnian_by_enumeration(m[np.ix_(idx, idx)])
            np.testing.assert_allclose(hafnian_repeated(m, reps), ref, rtol=1e-12)

    def test_sixteen_rows_against_hafnian(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m = m + m.T
        reps = (4, 4, 4, 4)
        idx = np.repeat(np.arange(4), reps)
        np.testing.assert_allclose(hafnian_repeated(m, reps), hafnian(m[np.ix_(idx, idx)]), rtol=1e-11)

    def test_single_variable_is_double_factorial(self):
        # E[x^(2s)] = (2s - 1)!! c^s for a single variance c.
        assert hafnian_repeated(np.array([[2.0]]), (8,)) == pytest.approx(105.0 * 2.0**4, rel=1e-14)

    def test_no_rows_is_one(self):
        assert hafnian_repeated(np.zeros((2, 2)), (0, 0)) == 1.0

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            hafnian_repeated(np.eye(2), (1, 2))
        with pytest.raises(ValueError):
            hafnian_repeated(np.eye(2), (1, -1))
        with pytest.raises(ValueError):
            hafnian_repeated(np.eye(3), (1, 1))


def toy_amatrix(n: int, eps: float = 0.3, imag: float = 0.0) -> AMatrix:
    diag = np.linspace(2.5, 3.5, n)
    v = np.linspace(1.0, -0.7, n)
    m = np.diag(diag) + eps * np.outer(v, v)
    if imag:
        w = np.linspace(0.2, 0.8, n)
        m = m + 1j * imag * np.outer(w, w)
    return AMatrix(m)


def unit_form(i: int, n: int) -> LinearForm:
    coeffs = np.zeros(n, dtype=complex)
    coeffs[i] = 1.0
    return LinearForm(coeffs)


class TestWickMoment:
    def test_empty_request_is_one(self):
        a = toy_amatrix(4)
        assert wick_moment(a, MomentRequest(())) == 1.0

    def test_odd_cardinality_vanishes(self):
        a = toy_amatrix(4)
        assert wick_moment(a, MomentRequest((unit_form(0, 4),))) == 0.0

    def test_pair_moment_is_inverse_entry(self):
        a = toy_amatrix(4, imag=0.1)
        got = wick_moment(a, MomentRequest((unit_form(1, 4), unit_form(2, 4))))
        np.testing.assert_allclose(got, a.inverse[1, 2], rtol=1e-12)

    def test_one_variable_quartic(self):
        a = AMatrix(np.array([[1.7]]))
        x = unit_form(0, 1)
        got = wick_moment(a, MomentRequest((x, x, x, x)))
        np.testing.assert_allclose(got, 3.0 / 1.7**2, rtol=1e-12)

    def test_repeated_forms_match_expanded_hafnian(self):
        a = toy_amatrix(4, imag=0.05)
        forms = [unit_form(i, 4) for i in (0, 0, 1, 2, 2, 2, 3, 3, 1, 0)]
        l = np.vstack([f.coeffs for f in forms])
        ref = hafnian(l @ a.inverse @ l.T)
        np.testing.assert_allclose(wick_moment(a, MomentRequest(tuple(forms))), ref, rtol=1e-12)

    def test_multilinear_in_forms(self):
        a = toy_amatrix(4, imag=0.05)
        f = unit_form(0, 4)
        g = unit_form(2, 4)
        h = unit_form(3, 4)
        lhs = wick_moment(a, MomentRequest((f + 2.0 * g, h)))
        rhs = wick_moment(a, MomentRequest((f, h))) + 2.0 * wick_moment(a, MomentRequest((g, h)))
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    def test_symmetric_under_form_permutation(self):
        a = toy_amatrix(4, imag=0.05)
        forms = [unit_form(i, 4) for i in (0, 1, 2, 3)]
        base = wick_moment(a, MomentRequest(tuple(forms)))
        for perm in itertools.permutations(forms):
            np.testing.assert_allclose(wick_moment(a, MomentRequest(perm)), base, rtol=1e-12)

    def test_cardinality_cap(self):
        with pytest.raises(ValueError):
            MomentRequest(tuple(unit_form(0, 4) for _ in range(18)))

    def test_singular_matrix_rejected(self):
        from zalmsim import NumericalDomainError

        singular = np.ones((4, 4), dtype=complex)
        with pytest.raises(NumericalDomainError):
            AMatrix(singular)


def gauss_hermite_moment(m: np.ndarray, monomial: tuple[int, ...], nodes: int = 48) -> complex:
    """<x_{i1}...x_{ik}> under exp(-x^T m x / 2) by tensor quadrature."""
    n = m.shape[0]
    x1, w1 = np.polynomial.hermite.hermgauss(nodes)
    grids = np.meshgrid(*([x1] * n), indexing="ij")
    x = np.stack([g.ravel() for g in grids])
    logw = np.add.reduce(np.meshgrid(*([np.log(w1)] * n), indexing="ij")).ravel()
    quad = np.einsum("in,ij,jn->n", x, m, x)
    weight = np.exp(logw - 0.5 * quad + np.sum(x**2, axis=0))
    poly = np.ones_like(weight)
    for i in monomial:
        poly = poly * x[i]
    return np.sum(poly * weight) / np.sum(weight)


class TestWickAgainstQuadrature:
    def test_two_dimensional_complex(self):
        a = toy_amatrix(2, imag=0.2)
        got = wick_moment(a, MomentRequest((unit_form(0, 2), unit_form(1, 2))))
        ref = gauss_hermite_moment(a.entries, (0, 1))
        assert abs(got - ref) < 1e-8

    def test_four_dimensional_quartic(self):
        a = toy_amatrix(4)
        forms = tuple(unit_form(i, 4) for i in (0, 1, 2, 3))
        got = wick_moment(a, MomentRequest(forms))
        ref = gauss_hermite_moment(a.entries, (0, 1, 2, 3), nodes=28)
        assert abs(got - ref) < 1e-8

    def test_four_dimensional_repeated(self):
        a = toy_amatrix(4, eps=0.2)
        f0 = unit_form(0, 4)
        f2 = unit_form(2, 4)
        got = wick_moment(a, MomentRequest((f0, f0, f2, f2)))
        ref = gauss_hermite_moment(a.entries, (0, 0, 2, 2), nodes=28)
        assert abs(got - ref) < 1e-8

    def test_six_forms_on_reduced_integral(self):
        a = toy_amatrix(4, eps=0.25)
        forms = tuple(unit_form(i, 4) for i in (0, 0, 1, 2, 3, 3))
        got = wick_moment(a, MomentRequest(forms))
        ref = gauss_hermite_moment(a.entries, (0, 0, 1, 2, 3, 3), nodes=28)
        assert abs(got - ref) < 1e-8


class TestAssembleA:
    def setup_method(self):
        self.kd = k_data(eight_mode_cov(0.2))

    def test_unit_efficiency_no_trace_is_block_kernel(self):
        a = assemble_a(self.kd, np.ones(8))
        expected = np.zeros((32, 32), dtype=complex)
        expected[:16, :16] = self.kd.script_b
        expected[16:, 16:] = np.conj(self.kd.script_b)
        expected += 0.5 * np.eye(32)
        np.testing.assert_allclose(a.entries, expected, atol=1e-15)

    def test_traced_modes_touch_exactly_32_entries(self):
        eta = np.full(8, 0.7)
        a_full = assemble_a(self.kd, eta)
        traced = eta.copy()
        traced[[0, 1, 6, 7]] = 0.0  # a traced mode is a mode at efficiency 0
        a_pgen = assemble_a(self.kd, traced)
        diff = a_pgen.entries - a_full.entries
        assert np.count_nonzero(diff) == 32
        rows, cols = np.nonzero(diff)
        for r, c in zip(rows, cols):
            # every touched entry couples a traced mode's ket and bra quadratures
            mode = r % 8 + 1
            assert mode in (1, 2, 7, 8)
            assert (r < 16) != (c < 16)

    def test_symmetry(self):
        a = assemble_a(self.kd, np.array([0.6, 0.6, 0.0, 0.6, 0.6, 0.6, 0.6, 0.6]))
        assert np.max(np.abs(a.entries - a.entries.T)) < 1e-15

    def test_rejects_bad_eta(self):
        with pytest.raises(ValueError):
            assemble_a(self.kd, np.full(8, 1.2))
        with pytest.raises(ValueError):
            assemble_a(self.kd, np.ones(4))


class TestGaussianPrefactor:
    def test_vacuum_all_traced_is_one(self):
        kd = k_data(eight_mode_cov(0.0))
        a = assemble_a(kd, np.zeros(8))
        np.testing.assert_allclose(gaussian_prefactor(a, kd), 1.0, atol=1e-12)

    def test_real_positive_over_eta_grid(self):
        kd = k_data(eight_mode_cov(0.4))
        for eta in (0.2, 0.5, 0.9, 1.0):
            a = assemble_a(kd, np.full(8, eta))
            value = gaussian_prefactor(a, kd)
            assert abs(value.imag) < 1e-10 * abs(value.real)
            assert value.real > 0.0

    def test_log_det_branch_is_real_for_physical_matrices(self):
        params = SourceParams(mean_photon=1.5, eta_b=0.4, eta_t=0.7, eta_d=0.9)
        kd = k_data(eight_mode_cov(params.mean_photon))
        eta = params.eta_vector
        eta[[0, 1, 6, 7]] = 0.0
        a = assemble_a(kd, eta)
        assert abs(a.log_det.imag) < 1e-9


def test_canonical_forms_are_unit_amplitude_pairs():
    f = alpha_form(3)
    nz = np.nonzero(f.coeffs)[0]
    np.testing.assert_array_equal(nz, [2, 10])
    g = beta_conj_form(3)
    nz = np.nonzero(g.coeffs)[0]
    np.testing.assert_array_equal(nz, [18, 26])
    np.testing.assert_allclose(g.coeffs[26], -1j / np.sqrt(2))



def excess_moments(mu: float) -> np.ndarray:
    n, m = mu * np.eye(4), moments.k_data(mu) * PAIRING
    return np.block([[n, m], [m, n]])


def swap_blocks(m: np.ndarray) -> np.ndarray:
    return np.vstack([m[4:], m[:4]])


EFFICIENCY_PAIRS = [(1.0, 1.0), (0.72, 0.6), (0.0, 0.6), (0.3, 0.0), (0.0, 0.0), (1e-6, 1.0)]


def assemble_a_by_blocks(mu, pair, eta_outer, eta_herald) -> tuple[np.ndarray, float]:
    """B and the prefactor as np.diag and np.block lay them out: the reference for assemble_a's single np.array."""
    delta = 1.0 + (eta_outer + eta_herald * (1.0 - eta_outer)) * mu
    t_o = (1.0 - eta_herald) * mu / delta
    t_h = (1.0 - eta_outer) * mu / delta
    thermal = np.diag([t_o, t_h, t_h, t_o])
    paired = (pair / delta) * PAIRING
    return np.block([[paired, thermal], [thermal, paired]]), delta**-4.0


class TestChainExponent:
    @pytest.mark.parametrize("mu", [1e-3, 0.2, 5.0])
    @pytest.mark.parametrize("eta_outer, eta_herald", EFFICIENCY_PAIRS)
    def test_is_the_solve_form(self, mu, eta_outer, eta_herald):
        # B = X (I + S E)^-1 S and prefactor 1 / det(I + S E), E = diag(eta, eta)
        s = excess_moments(mu)
        e = np.diag([eta_outer, eta_herald, eta_herald, eta_outer] * 2)
        a = moments.assemble_a(mu, moments.k_data(mu), eta_outer, eta_herald)
        np.testing.assert_allclose(a.entries, swap_blocks(np.linalg.solve(np.eye(8) + s @ e, s)), rtol=0, atol=1e-13)
        assert a.prefactor == pytest.approx(1.0 / np.linalg.det(np.eye(8) + s @ e), rel=1e-13)

    @pytest.mark.parametrize("eta_outer, eta_herald", EFFICIENCY_PAIRS)
    def test_prefactor_is_the_quadrature_prefactor(self, eta_outer, eta_herald):
        kd = k_data(eight_mode_cov(0.2))
        eta = [eta_outer, eta_outer, eta_herald, eta_herald, eta_herald, eta_herald, eta_outer, eta_outer]
        ref = gaussian_prefactor(assemble_a(kd, eta), kd)
        got = moments.assemble_a(0.2, moments.k_data(0.2), eta_outer, eta_herald).prefactor
        assert got == pytest.approx(ref.real, rel=1e-12)
        assert abs(ref.imag) < 1e-12

    @pytest.mark.parametrize("mu", [0.0, 1e-20, 0.3, 1e40])
    def test_tracing_every_mode_is_exactly_the_vacuum(self, mu):
        a = moments.assemble_a(mu, moments.k_data(mu), 0.0, 0.0)
        assert a.prefactor == 1.0
        assert np.all(np.diag(a.entries[:4, 4:]) == mu)

    def test_bit_identical_to_the_block_construction(self):
        rng = np.random.default_rng(24)
        mus = [0.0, 1.0, MAX_MEAN_PHOTON, *np.exp(rng.uniform(np.log(1e-6), np.log(MAX_MEAN_PHOTON), 40)).tolist()]
        etas = [0.0, 1.0, *rng.uniform(0.0, 1.0, 6).tolist()]
        for mu in mus:
            pair = moments.k_data(mu)
            for eta_outer, eta_herald in itertools.product(etas, repeat=2):
                a = moments.assemble_a(mu, pair, eta_outer, eta_herald)
                entries, prefactor = assemble_a_by_blocks(mu, pair, eta_outer, eta_herald)
                # tobytes tells -0.0 from 0.0, which array_equal does not
                assert a.entries.tobytes() == entries.tobytes(), (mu, eta_outer, eta_herald)
                assert a.prefactor == prefactor

    def test_symmetric_and_read_only(self):
        a = moments.assemble_a(0.4, moments.k_data(0.4), 0.7, 0.3)
        assert np.array_equal(a.entries, a.entries.T)
        assert not a.entries.flags.writeable


class TestChainWickMoment:
    def setup_method(self):
        self.a = moments.assemble_a(0.3, moments.k_data(0.3), 0.8, 0.6)

    def test_empty_and_odd_requests(self):
        assert moments.wick_moment(self.a, moments.MomentRequest(())) == 1.0
        assert moments.wick_moment(self.a, moments.MomentRequest((1, 2, 5))) == 0.0

    @pytest.mark.parametrize("forms", [(), (1, 2, 5), (0, 5), (0, 1, 5, 6), (0, 0, 1, 5, 5, 5, 2, 6, 1, 0)],
                             ids=["empty", "odd", "pair", "matchings", "repeated"])
    def test_moment_is_a_python_float(self, forms):
        # B is real, so every path, hafnian_repeated's included, returns a float
        assert type(moments.wick_moment(self.a, moments.MomentRequest(forms))) is float

    def test_pair_moment_is_the_exponent_entry(self):
        for i, j in itertools.product(range(8), repeat=2):
            assert moments.wick_moment(self.a, moments.MomentRequest((i, j))) == self.a.entries[i, j]

    def test_four_forms_are_three_matchings(self):
        b = self.a.entries
        got = moments.wick_moment(self.a, moments.MomentRequest((0, 1, 5, 6)))
        ref = b[0, 1] * b[5, 6] + b[0, 5] * b[1, 6] + b[0, 6] * b[1, 5]
        assert got == pytest.approx(ref, rel=1e-15)

    def test_repeated_indices_match_expanded_hafnian(self):
        # Ten forms with repeats take the hafnian_repeated path.
        forms = (0, 0, 1, 5, 5, 5, 2, 6, 1, 0)
        ref = hafnian(self.a.entries[np.ix_(forms, forms)])
        got = moments.wick_moment(self.a, moments.MomentRequest(forms))
        assert got == pytest.approx(ref, rel=1e-12)

    def test_symmetric_under_form_permutation(self):
        base = moments.wick_moment(self.a, moments.MomentRequest((0, 2, 5, 7)))
        for perm in itertools.permutations((0, 2, 5, 7)):
            assert moments.wick_moment(self.a, moments.MomentRequest(perm)) == pytest.approx(base, rel=1e-14)


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
        n, m = mu * np.eye(4), moments.k_data(mu) * PAIRING
        excess = np.block([[n, m], [m, n]])
        np.testing.assert_allclose(q - np.eye(8), excess, atol=1e-14 * (1.0 + mu))

    def test_pair_moment_stays_finite(self):
        assert moments.k_data(1e300) == pytest.approx(1e300, rel=1e-15)
