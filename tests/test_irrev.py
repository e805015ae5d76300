import numpy as np
import pytest

from irrevkit import (
    BranchProbabilityError,
    DensityMatrix,
    KrausChannel,
    Label,
    OptimizerConfig,
    ShapeError,
    TestEnsemble,
    apply,
    choi,
    delta_min,
    delta_with_recovery,
    identity_channel,
    instrument_channel,
    maximally_mixed,
    omega_pm,
    petz_recovery,
    purified_distance,
    unitary_channel,
    validate_channel,
)
from irrevkit.irrev import _Objective, _qr_retract
from conftest import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    rand_instrument,
    rand_kraus,
    rand_pure,
    rand_state,
    rand_unitary,
)

S = Label("S", 2)
Q = Label("Q", 2)


def depolarizing(label: Label) -> KrausChannel:
    sp = (label,)
    ops = (np.eye(2) / 2, SIGMA_X / 2, SIGMA_Y / 2, SIGMA_Z / 2)
    return KrausChannel(sp, sp, ops)


def two_state_ensemble(rng, d: int, label: Label) -> TestEnsemble:
    return TestEnsemble(((0.5, rand_state(rng, d, label)), (0.5, rand_state(rng, d, label))))


class TestDeltaWithRecovery:
    def test_identity_loss_is_reversible(self):
        rep = delta_with_recovery(identity_channel((Q,)), identity_channel((Q,)), omega_pm(Q))
        # fidelity rounds to 1 - eps, so the distance floor is sqrt-machine-eps
        assert rep.delta < 1e-7

    def test_unitary_loss_reversed_by_inverse(self):
        rng = np.random.default_rng(2)
        u = rand_unitary(rng, 2)
        rep = delta_with_recovery(
            unitary_channel(u, (Q,)), unitary_channel(u.conj().T, (Q,)), omega_pm(Q)
        )
        assert rep.delta < 1e-7

    def test_depolarizing_with_identity_recovery(self):
        # output is I/2 regardless of input: D_F(|+/-><+/-|, I/2) = 1/sqrt(2)
        rep = delta_with_recovery(depolarizing(Q), identity_channel((Q,)), omega_pm(Q))
        assert abs(rep.delta - 1 / np.sqrt(2)) < 1e-12

    def test_per_state_decomposition(self):
        rep = delta_with_recovery(depolarizing(Q), identity_channel((Q,)), omega_pm(Q))
        acc = sum(0.5 * d * d for _, d in rep.per_state)
        assert abs(rep.delta**2 - acc) < 1e-12

    def test_pure_amplitude_form_matches_closed_forms(self):
        # pure members use sum ||(1 - |psi><psi|) R_j L_i psi||^2 = 1 - <psi|R(L(psi))|psi>,
        # mixed ones the purified distance itself
        rng = np.random.default_rng(5)
        for d_in, d_out in ((2, 2), (3, 2), (2, 4)):
            a, b = Label("A", d_in), Label("B", d_out)
            loss = KrausChannel((a,), (b,), rand_kraus(rng, d_in, d_out, 3)[0])
            rec = KrausChannel((b,), (a,), rand_kraus(rng, d_out, d_in, 2)[0])
            pure, mixed = rand_pure(rng, d_in, a), rand_state(rng, d_in, a)
            rep = delta_with_recovery(loss, rec, TestEnsemble(((0.3, pure), (0.7, mixed))))
            psi = np.linalg.eigh(pure.data)[1][:, -1]
            back = apply(rec, apply(loss, pure)).data
            assert abs(rep.per_state[0][1] ** 2 - (1 - np.real(psi.conj() @ back @ psi))) < 1e-14
            assert rep.per_state[1][1] == purified_distance(mixed, apply(rec, apply(loss, mixed)))

    def test_exact_recovery_has_no_fidelity_floor(self):
        u = rand_unitary(np.random.default_rng(6), 2)
        rep = delta_with_recovery(
            unitary_channel(u, (Q,)), unitary_channel(u.conj().T, (Q,)), omega_pm(Q)
        )
        assert rep.delta < 1e-15


class TestPetz:
    def test_petz_inverts_unitary_channels(self):
        rng = np.random.default_rng(4)
        u = rand_unitary(rng, 2)
        loss = unitary_channel(u, (S,))
        rec = petz_recovery(loss, maximally_mixed((S,)))
        assert np.max(np.abs(choi(compose_id(rec, loss)) - choi(identity_channel((S,))))) < 1e-9

    def test_petz_is_cptp(self):
        rng = np.random.default_rng(6)
        loss = instrument_channel(rand_instrument(rng, 3, 3, Label("S", 3)))
        rec = petz_recovery(loss, rand_state(rng, 3, Label("S", 3)))
        assert validate_channel(rec)["ok"]

    def test_petz_fixes_the_reference_state(self):
        rng = np.random.default_rng(8)
        loss = instrument_channel(rand_instrument(rng, 2, 2, S))
        sigma = rand_state(rng, 2, S)
        rec = petz_recovery(loss, sigma)
        from irrevkit import apply

        back = apply(rec, apply(loss, sigma))
        assert np.max(np.abs(back.data - sigma.data)) < 1e-9


def compose_id(second, first):
    from irrevkit import compose

    return compose(second, first)


class TestDeltaMin:
    def test_full_depolarizing_floor(self):
        # no recovery can beat 1/sqrt(2): the loss output carries no signal
        cfg = OptimizerConfig(max_iters=200, restarts=1)
        rep = delta_min(depolarizing(Q), omega_pm(Q), cfg)
        assert abs(rep.delta - 0.7071067811865476) < 1e-9
        assert rep.local_optimum

    def test_never_exceeds_petz(self):
        rng = np.random.default_rng(10)
        for d in (2, 3):
            lab = Label("S", d)
            loss = instrument_channel(rand_instrument(rng, d, 2, lab))
            omega = two_state_ensemble(rng, d, lab)
            sigma = DeltaHelpers.average(omega)
            petz_rep = delta_with_recovery(loss, petz_recovery(loss, sigma), omega)
            rep = delta_min(loss, omega, OptimizerConfig(max_iters=100, restarts=1))
            assert rep.delta <= petz_rep.delta + 1e-9

    def test_unitary_loss_fully_recovered(self):
        rng = np.random.default_rng(12)
        loss = unitary_channel(rand_unitary(rng, 2), (Q,))
        rep = delta_min(loss, omega_pm(Q), OptimizerConfig(max_iters=100, restarts=0))
        assert rep.delta < 1e-7

    def test_recovery_used_is_cptp(self):
        rep = delta_min(depolarizing(Q), omega_pm(Q), OptimizerConfig(max_iters=50, restarts=0))
        assert validate_channel(rep.recovery_used)["ok"]

    def test_pure_full_rank_and_rank_two_members(self):
        # the rank-2 member takes the mixed path with a singular sqrt(rho)
        rng = np.random.default_rng(21)
        d = 4
        lab = Label("S", d)
        u = rand_unitary(rng, d)
        rank2 = DensityMatrix((lab,), u @ np.diag([0.7, 0.3, 0.0, 0.0]) @ u.conj().T)
        omega = _ensemble(rng, [rand_pure(rng, d, lab), rand_state(rng, d, lab), rank2])
        loss = instrument_channel(rand_instrument(rng, d, 3, lab))
        petz = delta_with_recovery(loss, petz_recovery(loss, DeltaHelpers.average(omega)), omega)
        rep = delta_min(loss, omega, OptimizerConfig(max_iters=40, restarts=0))
        assert rep.delta <= petz.delta + 1e-9
        assert 0.0 <= rep.delta <= 1.0
        assert validate_channel(rep.recovery_used)["ok"]


def _ensemble(rng, members) -> TestEnsemble:
    p = rng.random(len(members)) + 0.1
    return TestEnsemble(tuple(zip((p / p.sum()).tolist(), members)))


class TestObjectiveGradient:
    @pytest.mark.parametrize("d", (2, 4, 6))
    # one character per member: p pure, m full-rank mixed
    @pytest.mark.parametrize("kinds", ("pp", "mm", "pmm"))
    def test_gradient_matches_central_difference(self, d, kinds):
        rng = np.random.default_rng(100 + d)
        lab = Label("S", d)
        loss = instrument_channel(rand_instrument(rng, d, 3, lab))
        members = [(rand_pure if c == "p" else rand_state)(rng, d, lab) for c in kinds]
        omega = _ensemble(rng, members)
        sigmas = [apply(loss, rho) for rho in members]
        obj = _Objective(omega, sigmas, d * d)
        shape = (d * d * d, d)
        v = _qr_retract(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        dv = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        j, g = obj.value_and_grad(v)
        # per-member reference from the Kraus operators K_e[j, o] = V[j * d_env + e, o]:
        # F^2 = tr(rho tau) for pure rho, (tr sqrt(sqrt(rho) tau sqrt(rho)))^2 otherwise
        kraus = v.reshape(d, d * d, d).transpose(1, 0, 2)
        ref = 0.0
        for c, (p, rho), sig in zip(kinds, omega.entries, sigmas):
            tau = sum(k @ sig.data @ k.conj().T for k in kraus)
            if c == "p":
                ref += p * np.trace(rho.data @ tau).real
            else:
                vals, vecs = np.linalg.eigh(rho.data)
                rh = (vecs * np.sqrt(vals)) @ vecs.conj().T
                ref += p * np.sum(np.sqrt(np.linalg.eigvalsh(rh @ tau @ rh))) ** 2
        assert abs(j - ref) <= 1e-12
        h = 1e-5
        fd = (obj.value_and_grad(v + h * dv)[0] - obj.value_and_grad(v - h * dv)[0]) / (2 * h)
        # G = dJ/d(conj V), so the directional derivative is 2 Re <G, dV>
        analytic = 2 * np.real(np.vdot(g, dv))
        assert abs(analytic - fd) <= 1e-6 * abs(fd)


class DeltaHelpers:
    @staticmethod
    def average(omega: TestEnsemble):
        from irrevkit import DensityMatrix

        acc = sum(p * rho.data for p, rho in omega.entries)
        return DensityMatrix(omega.space, acc / np.trace(acc).real)


class TestDeltaCp:
    """A CP-branch loss through delta_with_recovery: renormalised per member."""

    def test_vanishing_branch_probability_raises(self):
        zero = KrausChannel((Q,), (Q,), (1e-9 * np.eye(2),), trace_preserving=False)
        with pytest.raises(BranchProbabilityError):
            delta_with_recovery(zero, identity_channel((Q,)), omega_pm(Q))

    def test_scaled_unitary_branch_matches_unscaled(self):
        # renormalization divides the scale back out of the branch state
        rng = np.random.default_rng(14)
        u = rand_unitary(rng, 2)
        rec = unitary_channel(u.conj().T, (Q,))
        full = delta_with_recovery(unitary_channel(u, (Q,)), rec, omega_pm(Q))
        half = delta_with_recovery(
            KrausChannel((Q,), (Q,), (0.5 * u,), trace_preserving=False), rec, omega_pm(Q)
        )
        assert abs(full.delta - half.delta) < 1e-12
        assert abs(half.branch_probabilities[0] - 0.25) < 1e-12

    def test_branch_probabilities_recorded(self):
        proj = KrausChannel((Q,), (Q,), (np.diag([1.0, 0.0]),), trace_preserving=False)
        rep = delta_with_recovery(proj, identity_channel((Q,)), omega_pm(Q))
        assert len(rep.branch_probabilities) == 2
        assert all(abs(p - 0.5) < 1e-12 for p in rep.branch_probabilities)

    def test_members_match_renormalised_round_trip(self):
        # pure members score 1 - <psi|R(L(psi)/q)|psi> without forming it, mixed ones the purified distance
        rng = np.random.default_rng(15)
        a, b = Label("A", 3), Label("B", 2)
        ops, tp = rand_kraus(rng, 3, 2, 1)
        assert not tp
        loss = KrausChannel((a,), (b,), ops, trace_preserving=False)
        rec = KrausChannel((b,), (a,), rand_kraus(rng, 2, 3, 2)[0])
        pure, mixed = rand_pure(rng, 3, a), rand_state(rng, 3, a)
        rep = delta_with_recovery(loss, rec, TestEnsemble(((0.3, pure), (0.7, mixed))))
        psi = np.linalg.eigh(pure.data)[1][:, -1]
        for (_, dk), rho, q in zip(rep.per_state, (pure, mixed), rep.branch_probabilities):
            raw = sum(op @ rho.data @ op.conj().T for op in ops)
            assert abs(q - np.trace(raw).real) < 1e-14
            back = apply(rec, DensityMatrix((b,), raw / q))
            want = 1 - np.real(psi.conj() @ back.data @ psi) if rho is pure else purified_distance(rho, back) ** 2
            assert abs(dk**2 - want) < 1e-14

    def test_non_trace_preserving_recovery_rejected(self):
        half = KrausChannel((Q,), (Q,), (0.5 * np.eye(2),), trace_preserving=False)
        with pytest.raises(ShapeError):
            delta_with_recovery(identity_channel((Q,)), half, omega_pm(Q))


class TestReports:
    def test_delta_report_json_keys(self):
        rep = delta_with_recovery(depolarizing(Q), identity_channel((Q,)), omega_pm(Q))
        d = rep.to_json()
        assert set(d) >= {"delta", "per_state", "converged", "local_optimum"}

    def test_optimizer_config_roundtrip(self):
        cfg = OptimizerConfig(seed=7, max_iters=11, step=0.3, restarts=2, tol=1e-8)
        assert OptimizerConfig.from_json(cfg.to_json()) == cfg

    def test_optimizer_config_defaults(self):
        assert OptimizerConfig.from_json({}) == OptimizerConfig()
