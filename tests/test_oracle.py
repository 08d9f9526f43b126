import ast
import itertools
import warnings
from math import sqrt
from pathlib import Path

import numpy as np
import pytest

from zalmsim import (
    UndefinedFidelityError,
    build_cascaded_cov,
    oracle_covariance,
    oracle_fidelity,
    oracle_fock_element,
    oracle_pgen,
    oracle_pgen_dark,
    oracle_pgen_filtered,
    oracle_spin_spin,
)
from zalmsim import oracle
from zalmsim.oracle import (
    _bs_sector,
    _bs_table,
    _chain_state,
    _chain_value,
    _element,
    _kernel_vec,
    _tmsv_amps,
    apply_beamsplitter,
    build_pre_bsm_state,
    oracle_apply_loss,
    oracle_build_cascaded,
    pattern_probability,
)

from oracle_reference import (
    apply_beamsplitter_dict,
    apply_loss_dict,
    as_dicts,
    build_pre_bsm_state_dict,
    chain_value_loop,
    pattern_probability_dict,
    per_kraus_index_loss,
)


class TestBuildCascaded:
    def test_vacuum_is_single_amplitude(self):
        state = oracle_build_cascaded(0.0, 3)
        ((occ, amp),) = state.branches
        assert occ.tolist() == [[0] * 8]
        assert amp.tolist() == [1.0]
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

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            oracle_build_cascaded(0.1, 0)
        with pytest.raises(ValueError):
            oracle_build_cascaded(-0.1, 3)

    def test_high_mu_small_cutoff_flagged(self):
        state = oracle_build_cascaded(0.5, 2)
        assert state.norm_deficit > 1e-3


class TestApplyLoss:
    def test_unit_efficiency_is_identity(self):
        state = oracle_build_cascaded(0.1, 2)
        out = oracle_apply_loss(state, 3, 1.0)
        assert len(out.branches) == 1
        ((occ_before, before),) = state.branches
        ((occ_after, after),) = out.branches
        assert occ_after.tolist() == occ_before.tolist()
        worst = np.max(np.abs(before - after))
        assert worst < 1e-15

    def test_full_loss_empties_the_mode(self):
        state = oracle_build_cascaded(0.2, 2)
        out = oracle_apply_loss(state, 1, 0.0)
        assert all(not occ[:, 0].any() for occ, _ in out.branches)
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


class TestPerModeEfficiencies:
    """Every oracle quantity puts each herald mode's own efficiency on that mode."""

    OUTER = 0.8

    @pytest.mark.parametrize("cross_sign", [1.0, -1.0])
    @pytest.mark.parametrize(
        "heralds, swapped",
        [((0.9, 0.5, 0.5, 0.5), (0.5, 0.9, 0.5, 0.5)), ((0.5, 0.5, 0.9, 0.5), (0.5, 0.5, 0.5, 0.9))],
    )
    def test_fidelity_invariant_under_chain_swap(self, heralds, swapped, cross_sign):
        # swapping chains A and B exchanges modes 3<->4 and 5<->6 and maps e1 to e2
        etas = [(self.OUTER,) * 2 + h + (self.OUTER,) * 2 for h in (heralds, swapped)]
        a, b = (oracle_fidelity(0.1, e, cross_sign=cross_sign) for e in etas)
        np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_silent_herald_efficiency_lowers_spin_trace(self):
        # a silent herald at higher efficiency vetoes more of the lossy state
        traces = [
            np.trace(oracle_spin_spin(0.1, [0.9, 0.9, 0.7, 0.7, e, e, 0.9, 0.9], cutoff=6)).real
            for e in (0.0, 0.5, 1.0)
        ]
        assert traces[0] > traces[1] > traces[2]

    def test_only_a_blind_clicked_herald_makes_fidelity_undefined(self):
        etas = np.ones(8)
        etas[2] = 0.0  # mode 3 never clicks
        with pytest.raises(UndefinedFidelityError):
            oracle_fidelity(0.1, etas, (1, 1, 0, 0))
        assert 0.0 < oracle_fidelity(0.1, etas, (0, 0, 1, 1)) < 1.0

    @pytest.mark.parametrize("pattern", [(1, 1, 0, 0), (0, 1, 1, 0), (2, 0, 0, 1)])
    def test_heralding_element_matches_kraus_route(self, pattern):
        mu, cutoff = 0.1, 3
        # modes 1, 2, 7 and 8 traced: vacuum detections at efficiency 0
        etas = (0.0, 0.0, 0.9, 0.5, 0.7, 0.6, 0.0, 0.0)
        state = oracle_build_cascaded(mu, cutoff)
        for mode in (3, 4, 5, 6):
            state = oracle_apply_loss(state, mode, etas[mode - 1])
        herald = (0, 0) + pattern + (0, 0)
        got = _element(oracle._chain_table(mu, cutoff), etas, herald, herald)
        np.testing.assert_allclose(got, pattern_probability(state, pattern), rtol=1e-13)


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
            p1 = pattern_probability(after, pattern)
            p2 = pattern_probability(before, pattern)
            assert abs(p1 - p2) < 1e-10


def items(branches):
    """Every branch's (occupation, amplitude) pairs in order; == compares the amplitudes exactly."""
    return [list(b.items()) for b in branches]


class TestProjectedFilter:
    @pytest.mark.parametrize("eta_b", [0.0, 0.6, 1.0])
    @pytest.mark.parametrize("pattern", [(1, 1, 0, 0), (2, 0, 1, 0), (0, 0, 0, 0)])
    def test_equals_unprojected_composition(self, pattern, eta_b):
        state = oracle_build_cascaded(0.1, 3)
        for mode in (3, 4, 5, 6):
            state = oracle_apply_loss(state, mode, eta_b)
        unprojected = pattern_probability(state, pattern)
        assert oracle_pgen_filtered(0.1, eta_b, pattern, cutoff=3) == unprojected

    def test_loss_branches_keep_order_and_amplitudes(self):
        state = oracle_apply_loss(oracle_build_cascaded(0.1, 3), 3, 0.6)
        got = as_dicts(oracle_apply_loss(state, 4, 0.6))
        expected = per_kraus_index_loss(as_dicts(state), 4, 0.6)
        assert items(got) == items(expected)


class TestArrayStateMatchesDictPath:
    """The array TruncatedState against the dict-of-occupations path it replaced: same entries, same order, same bits."""

    @pytest.mark.parametrize("mu", [0.0, 0.1, 0.3])
    @pytest.mark.parametrize("cutoff", [2, 3, 4])
    def test_build_and_each_splitter(self, cutoff, mu):
        pre = build_pre_bsm_state(mu, cutoff)
        ref = build_pre_bsm_state_dict(mu, cutoff)
        assert items(as_dicts(pre)) == items(ref)
        first = apply_beamsplitter(pre, 3, 5)
        ref = apply_beamsplitter_dict(ref, 3, 5)
        assert items(as_dicts(first)) == items(ref)
        assert items(as_dicts(apply_beamsplitter(first, 4, 6))) == items(apply_beamsplitter_dict(ref, 4, 6))
        # the other order, and a splitter on a pair the cascade's first splitter filled
        assert items(as_dicts(apply_beamsplitter(pre, 4, 6))) == items(apply_beamsplitter_dict(as_dicts(pre), 4, 6))
        assert items(as_dicts(apply_beamsplitter(first, 3, 4))) == items(apply_beamsplitter_dict(ref, 3, 4))

    @pytest.mark.parametrize("eta", [0.0, 0.6, 1.0])
    @pytest.mark.parametrize("cutoff", [2, 3, 4])
    def test_loss_on_each_mode(self, cutoff, eta):
        state = oracle_build_cascaded(0.1, cutoff)
        ref = as_dicts(state)
        for mode in range(1, 9):
            assert items(as_dicts(oracle_apply_loss(state, mode, eta))) == items(apply_loss_dict(ref, mode, eta))

    @pytest.mark.parametrize("eta", [0.0, 0.6, 1.0])
    @pytest.mark.parametrize("cutoff", [2, 3, 4])
    def test_pattern_sums_over_branches(self, cutoff, eta):
        state = oracle_build_cascaded(0.1, cutoff)
        ref = as_dicts(state)
        # Loss on all four herald modes at cutoff 4 makes 2025 branches, on
        # which the dict reference alone takes about 15 s; two modes, one per
        # chain, still give every sum many branches.
        for mode in (3, 4, 5, 6) if cutoff < 4 else (3, 5):
            state = oracle_apply_loss(state, mode, eta)
            ref = apply_loss_dict(ref, mode, eta)
        assert items(as_dicts(state)) == items(ref)
        for pattern in ((1, 1, 0, 0), (1, 0, 1, 0), (2, 0, 0, 1), (0, 0, 0, 0), (9, 0, 0, 0)):
            got = pattern_probability(state, pattern)
            assert got == pattern_probability_dict(ref, (3, 4, 5, 6), pattern)


class TestBeamsplitterSectors:
    def test_unitary(self):
        for total in range(61):
            u = _bs_sector(total)
            np.testing.assert_allclose(u @ u.T, np.eye(total + 1), rtol=0, atol=1e-13)

    def test_single_photon_sector(self):
        # basis index within a sector is the first mode's count
        u = _bs_sector(1)
        r = 1.0 / np.sqrt(2.0)
        # |1,0> -> (|1,0> - |0,1>)/sqrt(2) under the covariance-stage convention
        np.testing.assert_allclose(u[:, 1], [-r, r], atol=1e-12)
        np.testing.assert_allclose(u[:, 0], [r, r], atol=1e-12)

    def test_angles_compose(self):
        # two 50:50 splitters make the pi/2 rotation a1^dag -> -a2^dag, a2^dag -> a1^dag: |a, t-a> -> (-1)^a |t-a, a>
        for total in (1, 4, 17, 40):
            u = _bs_sector(total) @ _bs_sector(total)
            swap = np.flipud(np.diag((-1.0) ** np.arange(total + 1)))
            np.testing.assert_allclose(u, swap, rtol=0, atol=1e-13)

    def test_matches_matrix_exponential(self):
        linalg = pytest.importorskip("scipy.linalg")
        for total in range(61):
            g = np.zeros((total + 1, total + 1))
            for a in range(total):
                g[a + 1, a] = sqrt((a + 1) * (total - a))
                g[a, a + 1] = -g[a + 1, a]
            np.testing.assert_allclose(_bs_sector(total), linalg.expm(oracle.BS_THETA * g), rtol=0, atol=1e-12)

    def test_covariance_consistency(self):
        engine = build_cascaded_cov(0.05)
        oracle = oracle_covariance(0.05, cutoff=10)
        assert np.max(np.abs(engine - oracle)) < 1e-9


# Kernel shifts (du, dv, s1, s2) of one chain's four modes in -2..2 that the splitter can balance.
CHAIN_SHIFTS = [
    (du, dv, s1, du + dv - s1) for du, dv, s1 in itertools.product(range(-2, 3), repeat=3) if abs(du + dv - s1) <= 2
]


class TestChainContraction:
    """The array contraction against the explicit (u, v, a) loop it replaced."""

    def test_table_holds_the_sector_unitaries(self):
        cutoff = 5
        table = _bs_table(cutoff)
        assert table.shape == (2 * cutoff + 1, 2 * cutoff + 1, cutoff + 1)
        for t in range(2 * cutoff + 1):
            cols = min(t, cutoff) + 1
            assert np.array_equal(table[t, : t + 1, :cols], _bs_sector(t)[:, :cols])
            assert not table[t, t + 1 :].any() and not table[t, :, cols:].any()

    @pytest.mark.parametrize("traced", [False, True], ids=["kernels", "traced"])
    @pytest.mark.parametrize("mu", [0.0, 1e-3, 0.1, 0.5])
    @pytest.mark.parametrize("cutoff", range(2, 13))
    def test_matches_loop(self, cutoff, mu, traced):
        amps = _tmsv_amps(mu, cutoff)
        sizes = (cutoff, cutoff, 2 * cutoff, 2 * cutoff)
        for shifts in CHAIN_SHIFTS:
            kernels = []
            for nmax, shift, eta, lowest in zip(sizes, shifts, (0.9, 0.8, 0.7, 0.6), (0, 1, 1, 0)):
                if traced and shift == 0:
                    kernels.append(_kernel_vec(nmax, 0, 0, 0.0))
                else:
                    d = lowest + max(0, -shift)
                    kernels.append(_kernel_vec(nmax, d, d + shift, eta))
            got = _chain_value(mu, cutoff, *kernels)
            ref = chain_value_loop(mu, cutoff, *kernels)
            # Some shift combinations vanish by symmetry and then hold only
            # rounding, so the tolerance also scales with a bound on the sum
            # of the terms' magnitudes (a sector unitary's columns are unit vectors).
            (_, vec_u), (_, vec_v), (_, w1), (_, w2) = kernels
            bound = np.sum(amps * amps[0] * np.abs(vec_u)) * np.sum(amps * amps[0] * np.abs(vec_v))
            bound *= np.max(np.abs(w1)) * np.max(np.abs(w2))
            assert abs(got - ref) <= 1e-13 * (abs(ref) + bound), (shifts, got, ref)


@pytest.fixture
def contractions(monkeypatch):
    """Every oracle._chain_value call as (mu, cutoff, kernels), each kernel as (shift, bytes of its vector)."""
    calls, chain_value = [], oracle._chain_value

    def counted(mu, cutoff, *kernels):
        calls.append((mu, cutoff, tuple((shift, vec.tobytes()) for shift, vec in kernels)))
        return chain_value(mu, cutoff, *kernels)

    monkeypatch.setattr(oracle, "_chain_value", counted)
    return calls


class TestChainTable:
    """A caller takes each distinct chain contraction once per cutoff."""

    ETAS = (0.72, 0.72, 0.8, 0.8, 0.8, 0.8, 0.72, 0.72)

    def test_symmetric_pattern_contracts_one_chain(self, contractions):
        # herald (1, 1, 0, 0) puts one photon on mode 3 of chain B and on mode 4 of chain A: the same contraction
        oracle_pgen(0.1, 0.8, (1, 1, 0, 0), cutoff=4)
        assert len(contractions) == 1

    @pytest.mark.parametrize("entry", ["fidelity", "spin_spin"])
    def test_each_contraction_once_per_cutoff(self, contractions, entry):
        if entry == "fidelity":
            oracle_fidelity(0.05, self.ETAS)
        else:
            oracle_spin_spin(0.05, self.ETAS)
        assert len({call[1] for call in contractions}) >= 2  # converged over several cutoffs
        assert len(contractions) == len(set(contractions))

    def test_shared_table_changes_no_value(self):
        # every element of a spin matrix at one cutoff, with its own table and with the shared one
        mu, cutoff = 0.05, 6
        click = (1, 0, 1, 1, 0, 0, 1, 0)
        chain = oracle._chain_table(mu, cutoff)
        for k12, b12, k78, b78 in itertools.product(((1, 0), (0, 1)), repeat=4):
            d, g = k12 + click[2:6] + k78, b12 + click[2:6] + b78
            assert _element(chain, self.ETAS, d, g) == _element(oracle._chain_table(mu, cutoff), self.ETAS, d, g)


class TestChainState:
    """One chain's explicit truncated state psi[u, v, a] and the efficiency-0 kernel that traces a mode."""

    @pytest.mark.parametrize("mu", [0.0, 1e-3, 0.1, 3.0])
    @pytest.mark.parametrize("cutoff", range(2, 31))
    def test_squared_norm_is_two_truncated_ladders(self, cutoff, mu):
        # each TMSV ladder keeps 1 - lambda^(cutoff + 1) of its weight and the splitter is unitary
        psi, rest = _chain_state(mu, cutoff)
        assert psi.shape == rest.shape == (cutoff + 1, cutoff + 1, 2 * cutoff + 1)
        ratio = mu / (1.0 + mu)
        assert abs(np.sum(psi**2) - (1.0 - ratio ** (cutoff + 1)) ** 2) <= 1e-14

    def test_holds_the_splitter_amplitudes_and_second_output(self):
        mu, cutoff = 0.3, 4
        psi, rest = _chain_state(mu, cutoff)
        amps = _tmsv_amps(mu, cutoff)
        for u, v in itertools.product(range(cutoff + 1), repeat=2):
            np.testing.assert_array_equal(psi[u, v, : u + v + 1], amps[u] * amps[v] * _bs_sector(u + v)[:, u])
            assert not psi[u, v, u + v + 1 :].any()
            assert rest[u, v, : u + v + 1].tolist() == list(range(u + v, -1, -1))

    def test_vacuum_kernel_at_efficiency_zero_is_one(self):
        # a traced mode is a vacuum detection at efficiency 0: every occupation passes with weight 1
        nmax = 2 * oracle.CUTOFF_CAP
        shift, vec = _kernel_vec(nmax, 0, 0, 0.0)
        assert shift == 0 and vec.shape == (nmax + 1,)
        assert np.max(np.abs(vec - 1.0)) <= 1e-15


class TestReturnTypes:
    ETAS = (0.9, 0.9, 0.8, 0.8, 0.8, 0.8, 0.9, 0.9)

    @pytest.mark.parametrize("cutoff", [4, None], ids=["fixed", "converged"])
    def test_python_scalars_on_every_path(self, cutoff):
        assert type(oracle_pgen(0.1, 0.8, cutoff=cutoff)) is float
        assert type(oracle_fidelity(0.1, self.ETAS, cutoff=cutoff)) is float
        assert type(oracle_pgen_dark(0.1, 0.8, 1e-2, cutoff=cutoff)) is float
        element = oracle_fock_element(0.1, self.ETAS, (1, 0, 1, 1, 0, 0, 0, 1), (0, 1, 1, 1, 0, 0, 1, 0), cutoff=cutoff)
        assert type(element) is float
        assert oracle_spin_spin(0.1, self.ETAS, cutoff=cutoff).dtype == np.float64

    @pytest.mark.parametrize("pattern", [(1, 1, 0, 0), (5, 0, 0, 0)], ids=["inside", "outside-support"])
    def test_filtered_path_is_float(self, pattern):
        assert type(oracle_pgen_filtered(0.1, 0.8, pattern, cutoff=2)) is float


class TestHeraldPatternValidation:
    ENTRY_POINTS = {
        "pgen": lambda p: oracle_pgen(0.1, 0.8, p, cutoff=2),
        "pgen_dark": lambda p: oracle_pgen_dark(0.1, 0.8, 1e-2, p, cutoff=2),
        "pgen_filtered": lambda p: oracle_pgen_filtered(0.1, 0.8, p, cutoff=2),
    }

    @pytest.mark.parametrize("pattern", [(-1, 1, 0, 0), (1, 1, 0), (1, 1, 0, 0, 0), (1.0, 1, 0, 0), "1100", 7, None])
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_rejects_bad_pattern_in_one_line(self, entry, pattern):
        with pytest.raises(ValueError, match="^herald pattern must be 4 nonnegative ints") as info:
            self.ENTRY_POINTS[entry](pattern)
        assert "\n" not in str(info.value)

    def test_accepts_numpy_ints(self):
        pattern = np.array([1, 1, 0, 0])
        assert oracle_pgen(0.1, 0.8, pattern, cutoff=2) == oracle_pgen(0.1, 0.8, (1, 1, 0, 0), cutoff=2)
        assert oracle_pgen_filtered(0.1, 0.8, pattern, cutoff=2) == oracle_pgen_filtered(0.1, 0.8, cutoff=2)

    @pytest.mark.parametrize("eta_b", [-0.1, 1.5, float("nan")])
    def test_filtered_checks_efficiency_before_building(self, eta_b, monkeypatch):
        def build(*args):
            raise AssertionError("the 8-mode state was built")

        monkeypatch.setattr(oracle, "oracle_build_cascaded", build)
        with pytest.raises(ValueError, match="eta must lie in"):
            oracle_pgen_filtered(0.1, eta_b, cutoff=2)


class TestPhysicalInputChecks:
    """Every public oracle entry point rejects an unphysical input with a one-line ValueError."""

    ETAS = (0.9, 0.9, 0.8, 0.8, 0.8, 0.8, 0.9, 0.9)
    D = (1, 0, 1, 1, 0, 0, 0, 1)
    G = (0, 1, 1, 1, 0, 0, 1, 0)
    BY_MU = {
        "pgen": lambda mu: oracle_pgen(mu, 0.8, cutoff=4),
        "fidelity": lambda mu: oracle_fidelity(mu, TestPhysicalInputChecks.ETAS, cutoff=4),
        "fock_element": lambda mu: oracle_fock_element(mu, TestPhysicalInputChecks.ETAS, (0,) * 8, (0,) * 8, cutoff=4),
        "spin_spin": lambda mu: oracle_spin_spin(mu, TestPhysicalInputChecks.ETAS, cutoff=4),
        "pgen_dark": lambda mu: oracle_pgen_dark(mu, 0.8, 1e-3, cutoff=4),
        "pgen_filtered": lambda mu: oracle_pgen_filtered(mu, 0.8, cutoff=2),
        "covariance": lambda mu: oracle_covariance(mu, 4),
        "build_cascaded": lambda mu: oracle_build_cascaded(mu, 2),
    }
    BY_ETAS = {
        "fidelity": lambda etas: oracle_fidelity(0.1, etas, cutoff=4),
        "fock_element": lambda etas: oracle_fock_element(
            0.1, etas, TestPhysicalInputChecks.D, TestPhysicalInputChecks.G, cutoff=4
        ),
        "spin_spin": lambda etas: oracle_spin_spin(0.1, etas, cutoff=4),
    }

    @staticmethod
    def rejects(call, match):
        # numpy warnings become errors, so a check that comes too late fails here too
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=match) as info:
                call()
        assert "\n" not in str(info.value)

    @pytest.mark.parametrize("mu", [float("nan"), float("inf"), -0.1])
    @pytest.mark.parametrize("entry", sorted(BY_MU))
    def test_mean_photon(self, entry, mu):
        self.rejects(lambda: self.BY_MU[entry](mu), "^mean photon number must be finite and >= 0")

    @pytest.mark.parametrize(
        "etas",
        [[1.5] * 8, [-0.5] * 8, [0.8] * 7, [0.8] * 9, [0.8] * 7 + [float("nan")]],
        ids=["above-1", "negative", "seven", "nine", "nan"],
    )
    @pytest.mark.parametrize("entry", sorted(BY_ETAS))
    def test_mode_efficiencies(self, entry, etas):
        self.rejects(lambda: self.BY_ETAS[entry](etas), "^etas must be 8 efficiencies in")

    @pytest.mark.parametrize("eta_b", [1.5, -0.1, float("nan")])
    def test_herald_efficiency(self, eta_b):
        self.rejects(lambda: oracle_pgen(0.1, eta_b, cutoff=4), "^eta must lie in")
        self.rejects(lambda: oracle_pgen_dark(0.1, eta_b, 1e-3, cutoff=4), "^eta must lie in")

    @pytest.mark.parametrize("pd", [2.0, -0.1, float("nan")])
    def test_dark_click_probability(self, pd):
        self.rejects(lambda: oracle_pgen_dark(0.1, 0.8, pd, cutoff=4), "^dark click probability must lie in")

    @pytest.mark.parametrize(
        "click",
        [(1.5, 0, 1, 1, 0, 0, 1, 0), (1, 0, 1, 1, 0, 0, 1), (1, 0, 1, 1, 0, 0, 1, 0, 0), (1, 0, -1, 1, 0, 0, 1, 0)],
        ids=["float", "seven", "nine", "negative"],
    )
    def test_spin_click_pattern(self, click):
        self.rejects(lambda: oracle_spin_spin(0.1, self.ETAS, click, cutoff=4), "^click pattern must be 8 nonnegative")

    @pytest.mark.parametrize("index", [(1.0, 0, 1, 1, 0, 0, 0, 1), (1, 0, 1, 1, 0, 0, 0), (1, 0, -1, 1, 0, 0, 0, 1)])
    def test_fock_indices(self, index):
        self.rejects(lambda: oracle_fock_element(0.1, self.ETAS, index, self.G, cutoff=4), "^Fock index d must be 8")
        self.rejects(lambda: oracle_fock_element(0.1, self.ETAS, self.D, index, cutoff=4), "^Fock index g must be 8")

    def test_valid_edges_still_evaluate(self):
        # mu = 0 and efficiencies 0 and 1 are physical
        assert oracle_pgen(0.0, 1.0, cutoff=4) == 0.0
        assert oracle_pgen(0.1, 0.0, (0, 0, 0, 0), cutoff=4) > 0.0
        assert oracle_pgen_dark(0.1, 1.0, 1.0, cutoff=4) == 0.0
        spin = oracle_spin_spin(0.1, np.array([1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 1.0, 1.0]), np.array([1, 0, 1, 1, 0, 0, 1, 0]))
        assert np.trace(spin).real > 0.0


def test_referee_imports_nothing_from_the_engine():
    # The oracle is the independent referee: it shares the package's error types and no engine code.
    imported = set()
    for node in ast.walk(ast.parse(Path(oracle.__file__).read_text())):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            modules = [("zalmsim." if node.level else "") + node.module]
        elif isinstance(node, ast.ImportFrom):
            modules = [f"zalmsim.{alias.name}" for alias in node.names]
        else:
            continue
        imported.update(m for m in modules if m.split(".")[0] == "zalmsim")
    assert imported == {"zalmsim.errors"}
