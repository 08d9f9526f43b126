import itertools

import numpy as np
import pytest
from cascade_reference import eight_mode_cov

from zalmsim import (
    AMatrix,
    LinearForm,
    MomentRequest,
    SourceParams,
    alpha_form,
    assemble_a,
    beta_conj_form,
    gaussian_prefactor,
    hafnian,
    hafnian_repeated,
    k_data,
    wick_moment,
)


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
        # Ten forms with repeats take the hafnian_repeated path.
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

