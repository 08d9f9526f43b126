import itertools
import time
import warnings

import numpy as np
import pytest

from zalmsim import (
    BELL_TARGETS,
    DEFAULT_CLICK_PATTERN,
    SourceParams,
    SpinSpinDM,
    UndefinedFidelityError,
    bell_fidelity_spin,
    oracle_spin_spin,
    pgen,
    spin_spin_dm,
    spin_spin_dm_dark,
)
from zalmsim.memory import SIGMA_PATTERNS, _branch_forms, validate_click_pattern
from zalmsim.metrics import dark_attributions


class TestBranchForms:
    def setup_method(self):
        self.eta = SourceParams(mean_photon=0.1, eta_t=0.81).eta_vector
        self.e = {m: np.sqrt(self.eta[m - 1]) / np.sqrt(2.0) for m in (1, 2, 7, 8)}

    def test_no_click_pair_contributes_nothing(self):
        terms = _branch_forms(("10", "10"), (0, 0, 1, 1, 0, 0, 1, 0), self.eta)
        # only the (7,8) pair clicked: one term per mode of that pair
        assert [modes for _, modes in terms] == [(7,), (8,)]

    def test_plus_combination_for_first_rail_branch(self):
        terms = dict((modes, c) for c, modes in _branch_forms(("10", "10"), DEFAULT_CLICK_PATTERN, self.eta))
        e = self.e
        expected = {(1, 7): e[1] * e[7], (1, 8): e[1] * e[8], (2, 7): e[2] * e[7], (2, 8): e[2] * e[8]}
        assert terms.keys() == expected.keys()
        for modes, c in expected.items():
            np.testing.assert_allclose(terms[modes], c, atol=1e-15)

    def test_minus_combination_when_click_moves(self):
        flipped = list(DEFAULT_CLICK_PATTERN)
        flipped[0], flipped[1] = 0, 1
        terms = dict((modes, c) for c, modes in _branch_forms(("10", "10"), tuple(flipped), self.eta))
        e = self.e
        expected = {(1, 7): e[1] * e[7], (1, 8): e[1] * e[8], (2, 7): -e[2] * e[7], (2, 8): -e[2] * e[8]}
        assert terms.keys() == expected.keys()
        for modes, c in expected.items():
            np.testing.assert_allclose(terms[modes], c, atol=1e-15)

    def test_second_rail_branch_flips_sign(self):
        plus = _branch_forms(("10", "10"), DEFAULT_CLICK_PATTERN, self.eta)
        minus = _branch_forms(("01", "10"), DEFAULT_CLICK_PATTERN, self.eta)
        assert [m for _, m in plus] == [m for _, m in minus]
        for (cp, modes), (cm, _) in zip(plus, minus):
            # only the terms on mode 2 change sign
            assert cm == (-cp if 2 in modes else cp)

    def test_rejects_double_clicks(self):
        # validate_click_pattern owns the memory-pair rule; spin_spin_dm applies it before any branch forms
        params = SourceParams(mean_photon=0.1, dark_click_prob=1e-3)
        for click in ((1, 1, 1, 1, 0, 0, 1, 0), (1, 0, 1, 1, 0, 0, 1, 1)):
            for check in (validate_click_pattern, lambda c: spin_spin_dm(params, c), lambda c: spin_spin_dm_dark(params, c)):
                with pytest.raises(ValueError, match=r"^memory pair \(\d, \d\) allows at most one click, got \(1, 1\)$"):
                    check(click)

    def test_rejects_invalid_memory_counts(self):
        with pytest.raises(ValueError):
            validate_click_pattern((2, 0, 1, 1, 0, 0, 1, 0))

    def test_rejects_fractional_counts(self):
        click = (1.5, 0, 1, 1, 0, 0, 1, 0)
        # a generator, as the CLI passes, is shown as given
        with pytest.raises(ValueError, match=r"^click pattern must be 8 nonnegative integer counts, got \(1\.5, 0, 1, 1, 0, 0, 1, 0\)$"):
            validate_click_pattern(n for n in click)
        with pytest.raises(ValueError, match="^click pattern must be 8 nonnegative integer counts"):
            spin_spin_dm_dark(SourceParams(mean_photon=0.1, dark_click_prob=1e-3), click)
        assert validate_click_pattern(np.array(DEFAULT_CLICK_PATTERN)) == DEFAULT_CLICK_PATTERN


class TestClickPatternCost:
    def test_chain_over_the_cap_is_rejected_at_once(self):
        # chain B gets 16 herald forms plus up to 4 memory forms
        started = time.perf_counter()
        with pytest.raises(ValueError, match="cap"):
            validate_click_pattern((1, 0, 8, 0, 0, 0, 1, 0))
        assert time.perf_counter() - started < 0.1

    def test_split_heralds_are_computable(self):
        # 20 forms in one 8-mode request, 12 at most on either chain
        dm = spin_spin_dm(SourceParams(mean_photon=0.1, eta_t=0.8), (1, 0, 4, 4, 0, 0, 1, 0))
        assert dm.hermiticity_defect() <= 1e-12 * np.max(np.abs(dm.entries))
        assert dm.trace > 0.0


class TestSpinSpinDM:
    def test_entries_are_float64(self):
        p = SourceParams(mean_photon=0.1, eta_b=0.8, eta_t=0.9, dark_click_prob=1e-3)
        assert spin_spin_dm(p).entries.dtype == np.float64
        assert spin_spin_dm(p, (0, 1, 1, 1, 0, 0, 0, 1)).entries.dtype == np.float64
        assert spin_spin_dm_dark(p).entries.dtype == np.float64

    @pytest.mark.parametrize("imag", [0.0, 0.1], ids=["zero-imaginary-part", "imaginary-part"])
    def test_refuses_a_matrix_that_is_not_real_in_one_line(self, imag):
        # numpy would drop the imaginary part with a warning; the matrix refuses the dtype outright
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^spin-spin matrix must be 4x4 real numbers") as info:
                SpinSpinDM(np.eye(4) * (1.0 + imag * 1j))
        assert "\n" not in str(info.value)

    def test_keeps_a_read_only_copy_of_the_callers_array(self):
        given = np.eye(4)
        dm = SpinSpinDM(given)
        given[0, 0] = 2.0
        assert dm.entries[0, 0] == 1.0 and not dm.entries.flags.writeable

    def test_hermitian(self):
        dm = spin_spin_dm(SourceParams(mean_photon=0.1, eta_t=0.8))
        assert dm.hermiticity_defect() < 1e-10

    def test_positive_semidefinite(self):
        dm = spin_spin_dm(SourceParams(mean_photon=0.2, eta_t=0.7, eta_b=0.6))
        assert dm.min_eigenvalue() > -1e-9

    def test_trace_in_unit_interval(self):
        dm = spin_spin_dm(SourceParams(mean_photon=0.3, eta_t=0.8, eta_d=0.9, eta_b=0.5))
        assert 0.0 <= dm.trace <= 1.0

    def test_matches_oracle_trace_and_entries(self):
        p = SourceParams(mean_photon=0.05)
        dm = spin_spin_dm(p)
        ref = oracle_spin_spin(0.05, p.eta_vector)
        assert np.max(np.abs(dm.entries - ref)) < 1e-6
        np.testing.assert_allclose(dm.trace, np.trace(ref).real, rtol=1e-5)

    def test_matches_oracle_lossy(self):
        p = SourceParams(mean_photon=0.1, eta_t=0.8, eta_d=0.9, eta_b=0.7)
        dm = spin_spin_dm(p)
        ref = oracle_spin_spin(0.1, p.eta_vector)
        assert np.max(np.abs(dm.entries - ref)) < 1e-6

    def test_ideal_load_is_pure_bell_state(self):
        dm = spin_spin_dm(SourceParams(mean_photon=1e-3))
        assert abs(bell_fidelity_spin(dm, "phi_minus") - 1.0) < 1e-6

    def test_click_flip_conjugates_by_pauli(self):
        # moving the pair-(1,2) click between rails applies X on memory A in
        # the stored basis, i.e. Z in the logical frame behind the
        # interference readout (entries flip sign there)
        p = SourceParams(mean_photon=0.1, eta_t=0.8, eta_d=0.9, eta_b=0.7)
        base = spin_spin_dm(p, (1, 0, 1, 1, 0, 0, 1, 0)).entries
        flipped = spin_spin_dm(p, (0, 1, 1, 1, 0, 0, 1, 0)).entries
        x_a = np.kron(np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2))
        np.testing.assert_allclose(flipped, x_a @ base @ x_a, atol=1e-15)
        hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        frame_a = np.kron(hadamard, np.eye(2))
        base_logical = frame_a @ base @ frame_a
        flipped_logical = frame_a @ flipped @ frame_a
        signs = np.array([[1.0, 1.0, -1.0, -1.0]] * 2 + [[-1.0, -1.0, 1.0, 1.0]] * 2)
        np.testing.assert_allclose(flipped_logical, signs * base_logical, atol=1e-15)

    def test_memory_b_click_flip(self):
        p = SourceParams(mean_photon=0.1, eta_t=0.8)
        base = spin_spin_dm(p, (1, 0, 1, 1, 0, 0, 1, 0)).entries
        flipped = spin_spin_dm(p, (1, 0, 1, 1, 0, 0, 0, 1)).entries
        x_b = np.kron(np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(flipped, x_b @ base @ x_b, atol=1e-15)

    def test_single_click_pattern_sum_matches_oracle(self):
        p = SourceParams(mean_photon=0.05, eta_t=0.9)
        patterns = [
            (a1, a2, 1, 1, 0, 0, b1, b2)
            for (a1, a2) in ((1, 0), (0, 1))
            for (b1, b2) in ((1, 0), (0, 1))
        ]
        engine_total = sum(spin_spin_dm(p, pat).trace for pat in patterns)
        oracle_total = sum(np.trace(oracle_spin_spin(0.05, p.eta_vector, pat)).real for pat in patterns)
        np.testing.assert_allclose(engine_total, oracle_total, rtol=1e-5)
        # ideal memories accept the Bell half of the heralded state
        accept_ratio = engine_total / pgen(p)
        assert 0.0 < accept_ratio <= 1.0


class TestSpinSpinDark:
    def test_zero_dark_is_exact_base(self):
        p = SourceParams(mean_photon=0.05, eta_t=0.8, dark_click_prob=0.0)
        np.testing.assert_array_equal(spin_spin_dm_dark(p).entries, spin_spin_dm(p).entries)

    def test_sigma_pattern_counts(self):
        assert tuple(len(SIGMA_PATTERNS[k]) for k in (1, 2, 3, 4)) == (4, 6, 4, 1)

    def test_sigma_patterns_match_generator(self):
        gen = dark_attributions(DEFAULT_CLICK_PATTERN)
        for k in (1, 2, 3, 4):
            assert sorted(SIGMA_PATTERNS[k]) == sorted(gen[k])

    def test_sigma_patterns_remove_k_base_clicks(self):
        for k, patterns in SIGMA_PATTERNS.items():
            assert len(set(patterns)) == len(patterns)
            for pattern in patterns:
                removed = [b - n for b, n in zip(DEFAULT_CLICK_PATTERN, pattern)]
                assert set(removed) <= {0, 1} and sum(removed) == k

    def test_dark_mixture_stays_physical(self):
        p = SourceParams(mean_photon=0.1, eta_t=0.8, dark_click_prob=1e-4)
        dm = spin_spin_dm_dark(p)
        assert dm.hermiticity_defect() < 1e-10
        assert 0.0 <= dm.trace <= 1.0
        assert dm.min_eigenvalue() > -1e-9

    @pytest.mark.parametrize(
        "click", [(0, 1, 1, 1, 0, 0, 0, 1), (1, 0, 2, 1, 0, 0, 0, 1)], ids=lambda c: "".join(map(str, c))
    )
    def test_any_pattern_matches_oracle_mixture(self, click):
        # the referee's matrices, mixed here over each clicked detector's dark or photon choice
        mu, pd = 0.05, 1e-2
        p = SourceParams(mean_photon=mu, eta_b=0.8, eta_t=0.9, dark_click_prob=pd)
        ref = np.zeros((4, 4), dtype=complex)
        for dark in itertools.product(*[(0, 1) if n else (0,) for n in click]):
            photons = tuple(n - d for n, d in zip(click, dark))
            ref += pd ** sum(dark) * (1 - pd) ** (8 - sum(dark)) * oracle_spin_spin(mu, p.eta_vector, photons)
        got = spin_spin_dm_dark(p, click).entries
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-9 * np.max(np.abs(ref)))

    def test_dark_mixture_adds_probability(self):
        p0 = SourceParams(mean_photon=0.1, eta_t=0.8, dark_click_prob=0.0)
        p1 = SourceParams(mean_photon=0.1, eta_t=0.8, dark_click_prob=1e-3)
        assert spin_spin_dm_dark(p1).trace > (1.0 - 1e-3) ** 8 * spin_spin_dm(p0).trace


class TestBellFidelitySpin:
    def test_pure_target_scores_one(self):
        vec = BELL_TARGETS["psi_minus"]
        dm = SpinSpinDM(np.outer(vec, vec.conj()) * 0.37)
        assert abs(bell_fidelity_spin(dm, "psi_minus") - 1.0) < 1e-12

    def test_maximally_mixed_scores_quarter(self):
        dm = SpinSpinDM(np.eye(4) / 4.0)
        for target in BELL_TARGETS:
            np.testing.assert_allclose(bell_fidelity_spin(dm, target), 0.25, rtol=1e-12)

    def test_matches_oracle_conditional_fidelity(self):
        p = SourceParams(mean_photon=0.05)
        dm = spin_spin_dm(p)
        ref = oracle_spin_spin(0.05, p.eta_vector)
        target = BELL_TARGETS["phi_minus"]
        ref_fid = float(np.real(target @ ref @ target) / np.trace(ref).real)
        assert abs(bell_fidelity_spin(dm, "phi_minus") - ref_fid) < 1e-5

    def test_zero_trace_is_undefined(self):
        with pytest.raises(UndefinedFidelityError):
            bell_fidelity_spin(SpinSpinDM(np.zeros((4, 4))), "psi_minus")

    def test_unknown_target_rejected(self):
        dm = SpinSpinDM(np.eye(4))
        with pytest.raises(ValueError):
            bell_fidelity_spin(dm, "sigma_plus")

    def test_explicit_vector_rejected(self):
        # the target is a Bell label only, so even BELL_TARGETS' own vector is refused with a one-line ValueError
        dm = SpinSpinDM(np.eye(4))
        with pytest.raises(ValueError, match="unknown Bell target"):
            bell_fidelity_spin(dm, BELL_TARGETS["phi_minus"])
