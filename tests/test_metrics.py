import itertools
from math import factorial, sqrt
from unittest import mock

import numpy as np
import pytest

from zalmsim import (
    SourceParams,
    UndefinedFidelityError,
    fidelity,
    fock_element,
    oracle_fidelity,
    oracle_fock_element,
    oracle_pgen,
    oracle_pgen_dark,
    pgen,
    pgen_with_dark,
    photonic_trace,
)
from zalmsim import metrics
from zalmsim.moments import MAX_REQUEST_CARDINALITY


class TestElementInputs:
    """The Fock weight and the efficiency list, bit for bit against the arithmetic they replace."""

    def test_weight_matches_the_factorial_formula(self):
        eta = [0.3, 0.9, 0.5, 1.0, 0.7, 0.0, 0.25, 0.8]
        for dj, gj in itertools.product(range(metrics.MAX_TOTAL_FOCK + 1), repeat=2):
            if dj + gj > metrics.MAX_TOTAL_FOCK:
                continue
            for mode in range(8):
                d, g = [0] * 8, [0] * 8
                d[mode], g[mode] = dj, gj
                d[(mode + 3) % 8] += 1  # a second photon mode, so the weight is a product
                g[(mode + 3) % 8] += 1
                expected, kets, bras = 1.0, [], []
                for m, e, dm, gm in zip(range(1, 9), eta, d, g):
                    if dm or gm:
                        expected *= e ** ((dm + gm) / 2) / sqrt(factorial(dm) * factorial(gm))
                        kets.extend([m] * dm)
                        bras.extend([m] * gm)
                assert metrics._weight(eta, d, g) == (expected, kets, bras), (d, g)

    @pytest.mark.parametrize(
        "fields",
        [{}, {"eta_b": 0.8, "eta_t": 0.9, "eta_d": 0.7}, {"eta_b": 1, "eta_t": 1, "eta_d": 0}, {"eta_t": 0.1, "eta_d": 0.3}],
    )
    def test_efficiencies_are_the_eta_vector_list(self, fields):
        params = SourceParams(mean_photon=0.1, **fields)
        got, expected = params.etas, params.eta_vector.tolist()
        assert got == expected and all(type(e) is float for e in got)


class TestPhotonicTrace:
    def test_unit_efficiency(self):
        assert abs(photonic_trace(SourceParams(mean_photon=0.1)) - 1.0) < 1e-9

    def test_lossy_high_gain(self):
        assert abs(photonic_trace(SourceParams(mean_photon=2.0, eta_b=0.5, eta_t=0.7, eta_d=0.9)) - 1.0) < 1e-9

    def test_vacuum(self):
        assert abs(photonic_trace(SourceParams(mean_photon=0.0)) - 1.0) < 1e-12

    def test_random_grid(self):
        rng = np.random.default_rng(123)
        for _ in range(20):
            p = SourceParams(
                mean_photon=float(rng.uniform(0.0, 5.0)),
                eta_b=float(rng.uniform(0.2, 1.0)),
                eta_t=float(rng.uniform(0.2, 1.0)),
                eta_d=float(rng.uniform(0.2, 1.0)),
            )
            assert abs(photonic_trace(p) - 1.0) < 1e-9


class TestPgen:
    def test_vacuum_never_heralds(self):
        assert pgen(SourceParams(mean_photon=0.0)) == 0.0

    def test_matches_oracle_unit_efficiency(self):
        p = SourceParams(mean_photon=0.05)
        got = pgen(p)
        ref = oracle_pgen(0.05, 1.0)
        assert abs(got - ref) / ref < 1e-6

    def test_matches_oracle_lossy(self):
        p = SourceParams(mean_photon=0.1, eta_b=0.6, eta_t=0.7, eta_d=0.8)
        got = pgen(p)
        ref = oracle_pgen(0.1, 0.6)
        assert abs(got - ref) / ref < 1e-6

    def test_pattern_relabeling(self):
        a = pgen(SourceParams(mean_photon=0.1, eta_b=0.8, herald_pattern=(1, 1, 0, 0)))
        b = pgen(SourceParams(mean_photon=0.1, eta_b=0.8, herald_pattern=(0, 0, 1, 1)))
        np.testing.assert_allclose(a, b, rtol=1e-12)

    @pytest.mark.parametrize("pattern", [(2, 0, 0, 0), (1, 0, 1, 0), (2, 1, 1, 0)])
    def test_general_patterns_match_oracle(self, pattern):
        p = SourceParams(mean_photon=0.15, eta_b=0.75, herald_pattern=pattern)
        got = pgen(p)
        ref = oracle_pgen(0.15, 0.75, pattern)
        assert abs(got - ref) / ref < 1e-6

    def test_small_mu_quadratic_scaling(self):
        lo = pgen(SourceParams(mean_photon=1e-4))
        hi = pgen(SourceParams(mean_photon=1e-3))
        slope = (np.log(hi) - np.log(lo)) / np.log(10.0)
        assert abs(slope - 2.0) < 0.05

    def test_each_scalar_metric_is_a_float(self):
        # every engine quantity is real, so each scalar metric is a plain float
        p = SourceParams(mean_photon=0.3, eta_b=0.5, dark_click_prob=1e-3)
        for metric in (pgen, pgen_with_dark, photonic_trace, fidelity):
            assert type(metric(p)) is float, metric.__name__

    @pytest.mark.parametrize("mu", [0.05, 0.5, 2.0, 20.0])
    def test_closed_form_at_unit_efficiency(self, mu):
        # with number-resolved heralding and no loss only single pairs can
        # satisfy (1,1,0,0): four configurations of amplitude c0^2 c1^2 / 2
        got = pgen(SourceParams(mean_photon=mu))
        np.testing.assert_allclose(got, mu**2 / (1.0 + mu) ** 6, rtol=1e-12)


class TestPeakShift:
    def test_peak_moves_to_higher_mu_with_heralding_loss(self):
        mus = np.geomspace(1e-3, 20.0, 200)
        argmaxes = []
        for eta_b in (1.0, 10 ** (-3 / 10), 10 ** (-6 / 10)):
            values = [pgen(SourceParams(mean_photon=float(m), eta_b=eta_b)) for m in mus]
            assert all(v >= 0.0 for v in values)
            argmaxes.append(float(mus[int(np.argmax(values))]))
        assert argmaxes[0] < argmaxes[1] < argmaxes[2]

    def test_single_interior_maximum_at_unit_efficiency(self):
        mus = np.geomspace(1e-3, 20.0, 120)
        values = np.array([pgen(SourceParams(mean_photon=float(m))) for m in mus])
        peak = int(np.argmax(values))
        assert 0 < peak < len(mus) - 1
        assert np.all(np.diff(values[: peak + 1]) > 0.0)
        assert np.all(np.diff(values[peak:]) < 0.0)


class TestPgenWithDark:
    def test_zero_dark_reduces_exactly(self):
        p = SourceParams(mean_photon=0.05, eta_b=0.8, dark_click_prob=0.0)
        assert pgen_with_dark(p) == pgen(p)

    def test_vacuum_limit_is_two_dark_clicks(self):
        # both clicks dark and both silent detectors quiet
        p = SourceParams(mean_photon=0.0, dark_click_prob=1e-4)
        np.testing.assert_allclose(pgen_with_dark(p), 1e-8 * (1 - 1e-4) ** 2, rtol=1e-12)

    def test_perturbative_bound(self):
        p = SourceParams(mean_photon=0.05, dark_click_prob=1e-6)
        base = pgen(p)
        assert abs(pgen_with_dark(p) - base) < 1e-4 * base

    def test_multi_click_pattern_removes_one_count(self):
        # a detector reading two counts saw two photons, or one photon and a dark count
        mu, pd = 0.1, 0.1
        dark = pgen_with_dark(SourceParams(mean_photon=mu, herald_pattern=(2, 0, 0, 0), dark_click_prob=pd))

        def pg(pattern):
            return pgen(SourceParams(mean_photon=mu, herald_pattern=pattern))

        mixture = (1 - pd) ** 4 * pg((2, 0, 0, 0)) + pd * (1 - pd) ** 3 * pg((1, 0, 0, 0))
        np.testing.assert_allclose(dark, mixture, rtol=1e-13)

    @pytest.mark.parametrize(
        "pattern", [(1, 1, 0, 0), (0, 0, 1, 1), (0, 1, 0, 1)], ids=lambda p: "".join(map(str, p))
    )
    def test_equals_reduced_pattern_mixture(self, pattern):
        # each dark-attribution term is the heralding probability of the
        # pattern with that click removed, so the whole formula is a
        # classical mixture over reduced patterns, in which the two silent
        # detectors stay quiet too
        mu, eta_b, pd = 0.15, 0.7, 1e-3
        dark = pgen_with_dark(
            SourceParams(mean_photon=mu, eta_b=eta_b, dark_click_prob=pd, herald_pattern=pattern)
        )

        def pg(pattern):
            return pgen(SourceParams(mean_photon=mu, eta_b=eta_b, herald_pattern=pattern))

        first, second = [tuple(int(i == k) for i in range(4)) for k, n in enumerate(pattern) if n]
        mixture = (
            (1 - pd) ** 4 * pg(pattern)
            + pd * (1 - pd) ** 3 * (pg(first) + pg(second))
            + pd**2 * (1 - pd) ** 2 * pg((0, 0, 0, 0))
        )
        np.testing.assert_allclose(dark, mixture, rtol=1e-13)

    @pytest.mark.parametrize("mu", [0.05, 0.15])
    @pytest.mark.parametrize("pd", [1e-4, 1e-3, 1e-2])
    @pytest.mark.parametrize(
        "pattern",
        [(1, 1, 0, 0), (0, 0, 1, 1), (0, 1, 0, 1), (1, 0, 0, 0), (2, 1, 0, 0), (1, 1, 1, 0)],
        ids=lambda p: "".join(map(str, p)),
    )
    def test_matches_oracle_dark_model(self, pattern, pd, mu):
        # the referee enumerates the dark choices on its own, from the same rule
        eta_b = 0.7
        engine = pgen_with_dark(
            SourceParams(mean_photon=mu, eta_b=eta_b, dark_click_prob=pd, herald_pattern=pattern)
        )
        ref = oracle_pgen_dark(mu, eta_b, pd, pattern)
        assert abs(engine - ref) <= 1e-9 * ref


class TestFidelity:
    def test_matches_oracle_small_mu(self):
        p = SourceParams(mean_photon=1e-3)
        got = fidelity(p)
        ref = oracle_fidelity(1e-3, p.eta_vector)
        assert abs(got - ref) < 1e-6
        # the heralded state splits evenly between the Bell pair and the
        # two-photons-one-side terms, pinning the lossless limit at one half
        assert abs(got - 0.5) < 1e-9

    def test_matches_oracle_lossy(self):
        p = SourceParams(mean_photon=0.05, eta_t=0.8, eta_d=0.9, eta_b=0.7)
        got = fidelity(p)
        ref = oracle_fidelity(0.05, p.eta_vector)
        assert abs(got - ref) < 1e-5

    def test_other_pattern_maps_modes(self):
        p = SourceParams(mean_photon=0.1, eta_b=0.8, herald_pattern=(0, 0, 1, 1))
        got = fidelity(p)
        ref = oracle_fidelity(0.1, p.eta_vector, (0, 0, 1, 1))
        assert abs(got - ref) < 1e-6

    @pytest.mark.parametrize("pattern", [(1, 1, 0, 0), (0, 0, 1, 1)])
    @pytest.mark.parametrize("target, sign", [("psi_minus", 1.0), ("psi_plus", -1.0)])
    def test_is_fock_elements_over_pgen(self, pattern, target, sign):
        # F = (rho11 + rho22 +- (rho12 + rho21)) / (2 pgen) over the heralded
        # kets e1 = |1,0;pattern;0,1> and e2 = |0,1;pattern;1,0>
        p = SourceParams(mean_photon=0.15, eta_b=0.7, eta_t=0.9, eta_d=0.8, herald_pattern=pattern)
        e1 = (1, 0) + pattern + (0, 1)
        e2 = (0, 1) + pattern + (1, 0)
        rho = {(d, g): fock_element(p, d, g) for d in (e1, e2) for g in (e1, e2)}
        coherent = rho[e1, e1] + rho[e2, e2] + sign * (rho[e1, e2] + rho[e2, e1])
        np.testing.assert_allclose(fidelity(p, target), 0.5 * coherent.real / pgen(p), rtol=1e-13)

    @pytest.mark.parametrize("eta_b", [0.0, 1e-300])
    def test_vanishing_herald_efficiency_gives_the_limit(self, eta_b):
        # the herald weight eta_b^2 is common to every element and to pgen,
        # so the fidelity keeps its eta_b -> 0 limit instead of 0/0.  Then a
        # herald click is a_h applied to the chain, which leaves one photon in
        # (a_1^dag +- a_4^dag) on two thermal outer modes, and the limit is
        # 0.5 / (1 + mu)^6.
        for pattern in ((1, 1, 0, 0), (0, 0, 1, 1)):
            got = fidelity(SourceParams(mean_photon=0.1, eta_b=eta_b, herald_pattern=pattern))
            np.testing.assert_allclose(got, 0.5 / 1.1**6, rtol=5e-15)

    def test_coherence_terms_conjugate_pair(self):
        # W(a1 a3 a4 a8; b2* b3* b4* b7*) and W(a2 a3 a4 a7; b1* b3* b4* b8*)
        from zalmsim.metrics import _a_variant, _detected, _moment

        p = SourceParams(mean_photon=0.2, eta_b=0.6, eta_t=0.9, eta_d=0.8)
        a = _a_variant(p.mean_photon, *_detected(p))

        def w(alphas, betas):
            return _moment(a, alphas, betas)

        t12 = w((1, 3, 4, 8), (2, 3, 4, 7))
        t21 = w((2, 3, 4, 7), (1, 3, 4, 8))
        np.testing.assert_allclose(t12, np.conj(t21), rtol=1e-10)

    def test_constant_one_half_without_loss(self):
        for mu in (0.01, 0.3, 1.0):
            assert abs(fidelity(SourceParams(mean_photon=mu)) - 0.5) < 1e-9

    def test_monotone_nonincreasing_in_mu(self):
        mus = np.geomspace(1e-3, 1.0, 10)
        unit = [fidelity(SourceParams(mean_photon=float(m))) for m in mus]
        assert all(b <= a + 1e-9 for a, b in zip(unit, unit[1:]))
        lossy = [
            fidelity(SourceParams(mean_photon=float(m), eta_b=0.9, eta_t=0.95)) for m in mus
        ]
        assert all(b < a for a, b in zip(lossy, lossy[1:]))

    def test_orthogonal_target_complements(self):
        p = SourceParams(mean_photon=0.05, eta_b=0.8)
        f_minus = fidelity(p, bell_target="psi_minus")
        f_plus = fidelity(p, bell_target="psi_plus")
        assert f_minus > f_plus >= 0.0

    def test_vacuum_is_undefined(self):
        with pytest.raises(UndefinedFidelityError):
            fidelity(SourceParams(mean_photon=0.0))

    def test_rejects_unsupported_patterns(self):
        with pytest.raises(ValueError):
            fidelity(SourceParams(mean_photon=0.1, herald_pattern=(1, 0, 1, 0)))


class TestFockElement:
    @pytest.mark.parametrize("d, g", [((0,) * 8, (0,) * 8), ((1, 0, 1, 1, 0, 0, 0, 1), (0, 1, 1, 1, 0, 0, 1, 0))],
                             ids=["vacuum", "coherence"])
    def test_returns_a_python_float(self, d, g):
        assert type(fock_element(SourceParams(mean_photon=0.1, eta_b=0.6, eta_t=0.9), d, g)) is float

    def test_hermiticity(self):
        p = SourceParams(mean_photon=0.1, eta_b=0.6, eta_t=0.9)
        d = (1, 0, 1, 1, 0, 0, 0, 1)
        g = (0, 1, 1, 1, 0, 0, 1, 0)
        np.testing.assert_allclose(
            fock_element(p, d, g), np.conj(fock_element(p, g, d)), rtol=1e-10
        )

    def test_diagonal_nonnegative(self):
        p = SourceParams(mean_photon=0.2, eta_b=0.7, eta_t=0.8)
        rng = np.random.default_rng(9)
        for _ in range(5):
            d = tuple(int(x) for x in rng.integers(0, 2, size=8))
            value = fock_element(p, d, d)
            assert abs(value.imag) < 1e-12
            assert value.real >= -1e-12

    def test_vacuum_element_matches_oracle(self):
        p = SourceParams(mean_photon=0.1)
        got = fock_element(p, (0,) * 8, (0,) * 8)
        ref = oracle_fock_element(0.1, p.eta_vector, (0,) * 8, (0,) * 8)
        assert abs(got - ref) < 1e-8
        np.testing.assert_allclose(got.real, 1.1**-4, rtol=1e-10)

    def test_off_diagonal_matches_oracle(self):
        p = SourceParams(mean_photon=0.1, eta_b=0.6, eta_t=0.7, eta_d=0.95)
        d = (1, 0, 1, 0, 0, 1, 0, 1)
        g = (0, 1, 1, 0, 0, 1, 1, 0)
        got = fock_element(p, d, g)
        ref = oracle_fock_element(0.1, p.eta_vector, d, g)
        assert abs(got - ref) < 1e-9

    def test_diagonal_mass_approaches_one(self):
        p = SourceParams(mean_photon=0.05)

        def mass(cap: int) -> float:
            total = 0.0
            for d in itertools.product(range(cap + 1), repeat=8):
                if sum(d) <= cap:
                    total += fock_element(p, d, d).real
            return total

        masses = [mass(cap) for cap in (0, 2, 4)]
        assert all(b > a for a, b in zip(masses, masses[1:]))
        assert masses[-1] <= 1.0 + 1e-12
        assert masses[-1] > 0.99

    def test_largest_allowed_request_matches_oracle(self):
        # 16 forms, the full 2 027 025-matching hafnian
        p = SourceParams(mean_photon=0.2, eta_b=0.6, eta_t=0.9, eta_d=0.95)
        d = (2, 1, 1, 1, 0, 0, 1, 2)
        got = fock_element(p, d, d)
        ref = oracle_fock_element(0.2, p.eta_vector, d, d)
        assert abs(got - ref) / abs(ref) < 1e-7

    def test_cap_enforced(self):
        p = SourceParams(mean_photon=0.1)
        with pytest.raises(ValueError):
            fock_element(p, (3,) * 8, (0,) * 8)
        # At exactly MAX_TOTAL_FOCK, all on chain A, the chain-moment core gets requests within its bounds.
        d = (2, 0, 0, 2, 0, 2, 2, 0)
        assert sum(d) * 2 == metrics.MAX_TOTAL_FOCK
        with mock.patch.object(metrics, "wick_moment", wraps=metrics.wick_moment) as wick:
            fock_element(p, d, d)
        forms = [req.forms for (_, req), _ in wick.call_args_list]
        assert max(map(len, forms)) == MAX_REQUEST_CARDINALITY
        assert all(len(f) <= MAX_REQUEST_CARDINALITY and all(0 <= i < 8 for i in f) for f in forms), forms

    def test_rejects_fractional_counts(self):
        p = SourceParams(mean_photon=0.1)
        with pytest.raises(ValueError, match=r"^Fock index g must be 8 nonnegative integer counts, got \(0\.5, 0,"):
            fock_element(p, (0,) * 8, (0.5,) + (0,) * 7)


class TestEfficiencyLimits:
    def test_dead_heralding_arm_never_clicks(self):
        assert pgen(SourceParams(mean_photon=0.5, eta_b=0.0)) == 0.0

    def test_dead_outcoupling_blocks_memory_loading(self):
        from zalmsim import spin_spin_dm

        dm = spin_spin_dm(SourceParams(mean_photon=0.5, eta_t=0.0))
        assert dm.trace == 0.0

    def test_trace_survives_total_loss(self):
        p = SourceParams(mean_photon=0.5, eta_b=0.0, eta_t=0.0)
        assert abs(photonic_trace(p) - 1.0) < 1e-9
