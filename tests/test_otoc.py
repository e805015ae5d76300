import warnings

import numpy as np
import pytest

from irrevkit import (
    OPTIMIZE,
    AssumptionError,
    ExtractionConfig,
    Label,
    Observable,
    ScramblingScenario,
    KrausChannel,
    check_conservation,
    conserving_otoc_implementation,
    heisenberg,
    ising_chain_scenario,
    maximally_mixed,
    otoc_direct,
    otoc_iep,
    otoc_iep_cp,
    pauli_string,
    pure_state,
    variance,
    way_bound_otoc,
)
import irrevkit.otoc as otoc_module
from irrevkit.comb import Q_LABEL, extract
from conftest import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    rand_herm,
    rand_state,
    rand_unitary,
    ref_choi_gaps,
    ref_grid,
    ref_recovery_ops,
)

S = Label("S", 2)
ANALYTIC = ExtractionConfig(method="analytic")


def qubit_scenario(tau=0.0):
    zero = Observable((S,), np.zeros((2, 2), dtype=complex))
    return ScramblingScenario(zero, Observable((S,), SIGMA_X), Observable((S,), SIGMA_Z), tau)


def rand_self_adjoint_unitary(rng, d):
    """Random W with W = W' and W^2 = I (random +-1 spectrum, random basis)."""
    u = rand_unitary(rng, d)
    signs = rng.choice([-1.0, 1.0], size=d)
    if np.all(signs == signs[0]):
        signs[0] = -signs[0]
    return u @ np.diag(signs) @ u.conj().T


class TestHeisenberg:
    def test_zero_time_is_identity_map(self):
        w = Observable((S,), SIGMA_X)
        h = Observable((S,), rand_herm(np.random.default_rng(0), 2))
        assert np.max(np.abs(heisenberg(w, h, 0.0).data - SIGMA_X)) < 1e-12

    def test_commuting_hamiltonian_freezes(self):
        w = Observable((S,), SIGMA_Z)
        h = Observable((S,), 3.0 * SIGMA_Z)
        assert np.max(np.abs(heisenberg(w, h, 2.7).data - SIGMA_Z)) < 1e-12

    def test_quarter_turn_rotation(self):
        w = heisenberg(Observable((S,), SIGMA_X), Observable((S,), SIGMA_Z), np.pi / 4)
        assert np.max(np.abs(w.data + SIGMA_Y)) < 1e-12


class TestDirect:
    def test_exact_qubit_value(self):
        assert abs(otoc_direct(qubit_scenario()) - 4.0) < 1e-12

    def test_commuting_pair_vanishes(self):
        zero = Observable((S,), np.zeros((2, 2), dtype=complex))
        s = ScramblingScenario(zero, Observable((S,), SIGMA_Z), Observable((S,), SIGMA_Z), 0.0)
        assert abs(otoc_direct(s)) < 1e-12

    def test_chain_frozen_value(self):
        assert abs(otoc_direct(ising_chain_scenario(1.0)) - 0.5318542611700483) < 1e-9

    def test_nonnegative_for_unitary_self_adjoint_w(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            d = int(rng.integers(2, 6))
            lab = Label("S", d)
            s = ScramblingScenario(
                Observable((lab,), rand_herm(rng, d)),
                Observable((lab,), rand_self_adjoint_unitary(rng, d)),
                Observable((lab,), rand_herm(rng, d)),
                float(rng.uniform(0, 2)),
            )
            assert otoc_direct(s) >= -1e-12

    def test_sign_and_offset_invariance(self):
        rng = np.random.default_rng(8)
        h = Observable((S,), rand_herm(rng, 2))
        w = Observable((S,), rand_self_adjoint_unitary(rng, 2))
        v = Observable((S,), rand_herm(rng, 2))
        base = otoc_direct(ScramblingScenario(h, w, v, 0.9))
        flipped = otoc_direct(ScramblingScenario(h, Observable((S,), -w.data), v, 0.9))
        shifted = otoc_direct(
            ScramblingScenario(h, w, Observable((S,), v.data + 2.5 * np.eye(2)), 0.9)
        )
        assert abs(base - flipped) < 1e-10
        assert abs(base - shifted) < 1e-10


class TestIep:
    def test_exact_qubit_analytic(self):
        rep = otoc_iep(qubit_scenario(), ANALYTIC)
        assert abs(rep.value - 4.0) < 1e-9

    def test_exact_qubit_extrapolated(self):
        rep = otoc_iep(qubit_scenario())
        assert abs(rep.value - 4.0) < 1e-6

    def test_chain_matches_direct(self):
        s = ising_chain_scenario(1.0)
        rep = otoc_iep(s)
        assert abs(rep.value - otoc_direct(s)) < 1e-6

    def test_chain_near_zero_tau_matches_direct(self):
        # delta^2 is a sum of non-negative amplitude terms: no 1 - F^2 floor near zero
        assert abs(otoc_iep(ising_chain_scenario(0.0)).value) <= 1e-20
        s = ising_chain_scenario(0.05)
        assert abs(otoc_iep(s).value - otoc_direct(s)) <= 1e-6 * otoc_direct(s)

    def test_non_unitary_w_rejected(self):
        zero = Observable((S,), np.zeros((2, 2), dtype=complex))
        s = ScramblingScenario(
            zero, Observable((S,), np.diag([2.0, 0.0])), Observable((S,), SIGMA_Z), 0.0
        )
        with pytest.raises(AssumptionError):
            otoc_iep(s)

    def test_random_state_still_agrees(self):
        rng = np.random.default_rng(11)
        s = ScramblingScenario(
            Observable((S,), rand_herm(rng, 2)),
            Observable((S,), SIGMA_X),
            Observable((S,), rand_herm(rng, 2)),
            0.7,
            rand_state(rng, 2, S),
        )
        rep = otoc_iep(s, ANALYTIC)
        assert abs(rep.value - otoc_direct(s)) < 1e-9


class TestIepRecovery:
    def test_fixed_kraus_recovery_is_honoured(self):
        # dephasing Q alone never undoes the V coupling: c2 = <V^2> - <V>^2
        s = ising_chain_scenario(0.4, 2)
        full = tuple(s.rho.space) + (Q_LABEL,)
        fixed = KrausChannel(full, (Q_LABEL,), ref_recovery_ops(s.v0, s.rho.space, 0.0))
        rep = otoc_iep(s, recovery=fixed)
        assert abs(rep.value - variance(s.rho, s.v0)) < 1e-6
        assert abs(rep.value - 1.0) < 1e-6
        assert abs(otoc_iep(s).value - otoc_direct(s)) < 1e-6

    def test_unknown_recovery_rejected(self):
        s = ising_chain_scenario(0.4, 2)
        with pytest.raises(TypeError):
            otoc_iep(s, recovery="petz")
        with pytest.raises(TypeError):
            otoc_iep(s, ANALYTIC, recovery="petz")

    def test_optimize_rejected(self):
        # a free recovery on the whole system undoes W: the value would be ~0 for every W
        s = ising_chain_scenario(0.4, 2)
        for cfg in (None, ANALYTIC):
            with pytest.raises(ValueError):
                otoc_iep(s, cfg, recovery=OPTIMIZE)


def spied_comb(monkeypatch, protocol, s, **kwargs):
    """(report, comb) of one protocol call: the comb it hands to extract."""
    combs = []

    def spy(comb, recovery="canonical", cfg=None):
        combs.append(comb)
        return extract(comb, recovery, cfg)

    monkeypatch.setattr(otoc_module, "extract", spy)
    return protocol(s, **kwargs), combs[0]


class TestStackedGrid:
    """The theta-stacked grid against one channel pipeline per theta."""

    THETAS = ExtractionConfig().thetas

    def test_otoc_iep_grid_matches_per_theta_reference(self, monkeypatch):
        rng = np.random.default_rng(41)
        lab = Label("S", 3)
        scenarios = [
            ising_chain_scenario(0.3, 3),
            ScramblingScenario(
                Observable((lab,), rand_herm(rng, 3)),
                Observable((lab,), rand_self_adjoint_unitary(rng, 3)),
                Observable((lab,), rand_herm(rng, 3)),
                0.6,
                rand_state(rng, 3, lab),
            ),
        ]
        for s in scenarios:
            full = tuple(s.rho.space) + (Q_LABEL,)
            fixed = KrausChannel(full, (Q_LABEL,), ref_recovery_ops(s.v0, s.rho.space, 0.0))
            for recovery in ("canonical", fixed):
                rep, comb = spied_comb(monkeypatch, otoc_iep, s, recovery=recovery)
                got = [v for _, v in rep.theta_grid]
                assert np.max(np.abs(np.subtract(got, ref_grid(comb, recovery, self.THETAS)))) <= 1e-13

    def test_otoc_iep_cp_grid_matches_per_theta_reference(self, monkeypatch):
        rng = np.random.default_rng(42)
        for d in (2, 3):
            lab = Label("S", d)
            s = ScramblingScenario(
                Observable((lab,), rand_herm(rng, d)),
                Observable((lab,), rand_herm(rng, d)),
                Observable((lab,), rand_herm(rng, d)),
                0.4,
            )
            rep, comb = spied_comb(monkeypatch, otoc_iep_cp, s)
            assert comb.branch_scale is not None
            got = [v for _, v in rep.theta_grid]
            assert np.max(np.abs(np.subtract(got, ref_grid(comb, "canonical", self.THETAS)))) <= 1e-13

    def test_loss_and_recovery_channels_match_dense_reference(self, monkeypatch):
        rng = np.random.default_rng(43)
        lab = Label("S", 3)
        h, v0 = Observable((lab,), rand_herm(rng, 3)), Observable((lab,), rand_herm(rng, 3))
        unitary_w = Observable((lab,), rand_self_adjoint_unitary(rng, 3))
        s = ScramblingScenario(h, unitary_w, v0, 0.6, rand_state(rng, 3, lab))
        s_cp = ScramblingScenario(h, Observable((lab,), rand_herm(rng, 3)), v0, 0.4)
        for protocol, scenario in ((otoc_iep, s), (otoc_iep_cp, s_cp)):
            _, comb = spied_comb(monkeypatch, protocol, scenario)
            for theta in (0.0, 0.05, 0.3):
                loss_gap, recovery_gap = ref_choi_gaps(comb, theta)
                assert loss_gap <= 1e-13 and recovery_gap <= 1e-13, (protocol.__name__, theta)


class TestIepCp:
    def test_frozen_qubit_case(self):
        zero = Observable((S,), np.zeros((2, 2), dtype=complex))
        s = ScramblingScenario(
            zero, Observable((S,), np.diag([2.0, 0.0])), Observable((S,), SIGMA_X), 0.0
        )
        rep = otoc_iep_cp(s)
        assert abs(rep.value - 2.0) < 1e-6
        assert abs(rep.branch_probability - 1.0) < 1e-9
        assert abs(rep.rescale - 2.0) < 1e-12
        assert abs(rep.rescale * rep.value - otoc_direct(s)) < 1e-5

    def test_unitary_w_reduces_to_plain_iep(self):
        # rms of a self-adjoint unitary is 1, so no rescaling happens
        s = qubit_scenario()
        cp = otoc_iep_cp(s, ANALYTIC)
        plain = otoc_iep(s, ANALYTIC)
        assert abs(cp.rescale - 1.0) < 1e-12
        assert abs(cp.value - plain.value) < 1e-9

    def test_vanishing_w_warns_and_returns_zero(self):
        zero = Observable((S,), np.zeros((2, 2), dtype=complex))
        s = ScramblingScenario(zero, zero, Observable((S,), SIGMA_X), 0.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rep = otoc_iep_cp(s)
        assert rep.value == 0.0
        assert any("degenerate" in str(w.message) for w in caught)

    def test_non_maximally_mixed_state_rejected(self):
        zero = Observable((S,), np.zeros((2, 2), dtype=complex))
        s = ScramblingScenario(
            zero,
            Observable((S,), np.diag([2.0, 0.0])),
            Observable((S,), SIGMA_X),
            0.0,
            pure_state([1, 0], (S,)),
        )
        with pytest.raises(AssumptionError):
            otoc_iep_cp(s)


class TestWayOtoc:
    def build(self, seed=0, lam=0.4, tau=0.0):
        s = qubit_scenario(tau)
        rng = np.random.default_rng(seed)
        b_label = Label("B", 3)
        x_beta = Observable((b_label,), rand_herm(rng, 3))
        chi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        impl = conserving_otoc_implementation(
            s, Observable((S,), SIGMA_Z), x_beta, pure_state(chi, (b_label,)), rng, lam=lam
        )
        return s, impl

    def test_frozen_qubit_bound(self):
        s, impl = self.build()
        assert check_conservation(impl) < 1e-9
        rep = way_bound_otoc(s, None, impl)
        assert abs(rep.lhs - 2.0) < 1e-12
        assert rep.slack >= -1e-9

    def test_seeded_sweep_positive_slack(self):
        for seed in range(5):
            s, impl = self.build(seed=seed, lam=0.1 * seed)
            rep = way_bound_otoc(s, None, impl)
            assert rep.slack >= -1e-9

    def test_tampered_charge_rejected(self):
        from irrevkit import ConservationError

        s, impl = self.build()
        bad = dict(impl.charges)
        bad["alpha"] = Observable(impl.charges["alpha"].space, SIGMA_X)
        with pytest.raises(ConservationError):
            way_bound_otoc(s, bad, impl)


class TestPauliStrings:
    def test_matrix_spot_checks(self):
        xz = pauli_string("XZ")
        assert xz.data.shape == (4, 4)
        assert abs(xz.data[0, 2] - 1.0) < 1e-12
        assert abs(xz.data[1, 3] + 1.0) < 1e-12

    def test_invalid_characters_rejected(self):
        with pytest.raises(ValueError):
            pauli_string("XQ")
        with pytest.raises(ValueError):
            pauli_string("")

    def test_chain_scenario_shape(self):
        s = ising_chain_scenario(0.5, n=2)
        assert s.h.data.shape == (4, 4)
        assert np.max(np.abs(s.rho.data - maximally_mixed(s.h.space).data)) < 1e-12

    def test_chain_too_short_rejected(self):
        with pytest.raises(ValueError):
            ising_chain_scenario(0.5, n=1)
