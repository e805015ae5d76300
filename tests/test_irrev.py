import re
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from irrevkit import (
    OPTIMIZE,
    BranchProbabilityError,
    DensityMatrix,
    ExtractionConfig,
    KrausChannel,
    Label,
    Observable,
    OptimizerConfig,
    ShapeError,
    TestEnsemble,
    apply,
    choi,
    delta_min,
    delta_with_recovery,
    extract_epsilon,
    extract_eta,
    identity_channel,
    instrument_channel,
    maximally_mixed,
    omega_pm,
    petz_recovery,
    purified_distance,
    unitary_channel,
    validate_channel,
)
from irrevkit import irrev, qcore
from irrevkit.irrev import _Objective, _qr_retract
from conftest import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    rand_herm,
    rand_instrument,
    rand_kraus,
    rand_low_rank,
    rand_pure,
    rand_state,
    rand_unitary,
    ref_apply_raw,
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
        # mixed ones (full rank, and rank d_in - 1) the purified distance itself, to 1e-14 in D^2;
        # a CP branch of the loss renormalises each output by its trace first
        rng = np.random.default_rng(5)
        for d_in, d_out in ((2, 2), (3, 2), (2, 4), (3, 3)):
            a, b = Label("A", d_in), Label("B", d_out)
            ops = rand_kraus(rng, d_in, d_out, 3)[0]
            loss = KrausChannel((a,), (b,), ops)
            rec = KrausChannel((b,), (a,), rand_kraus(rng, d_out, d_in, 2)[0])
            pure, mixed = rand_pure(rng, d_in, a), rand_state(rng, d_in, a)
            low = rand_low_rank(rng, d_in, d_in - 1, a)
            omega = TestEnsemble(((0.3, pure), (0.5, mixed), (0.2, low)))
            rep = delta_with_recovery(loss, rec, omega)
            psi = np.linalg.eigh(pure.data)[1][:, -1]
            back = apply(rec, apply(loss, pure)).data
            assert abs(rep.per_state[0][1] ** 2 - (1 - np.real(psi.conj() @ back @ psi))) < 1e-14
            acc = 0.0  # delta adds p_k D_k^2 in member order
            for (w, _), (_, dk) in zip(omega.entries, rep.per_state):
                acc += w * dk * dk
            assert rep.delta == np.sqrt(acc)
            checked = [(1, mixed), (2, low)] if d_in > 2 else [(1, mixed)]  # low is pure at d_in = 2
            for k, rho in checked:
                assert abs(rep.per_state[k][1] ** 2 - purified_distance(rho, apply(rec, apply(loss, rho))) ** 2) < 1e-14
            branch = KrausChannel((a,), (b,), 0.8 * ops, trace_preserving=False)
            rep = delta_with_recovery(branch, rec, omega)
            for k, rho in checked:
                raw = ref_apply_raw(branch.kraus, rho.data)
                q = rep.branch_probabilities[k]
                assert q == np.trace(raw).real
                renormalised = DensityMatrix((b,), (raw + raw.conj().T) / (2 * q))
                assert abs(rep.per_state[k][1] ** 2 - purified_distance(rho, apply(rec, renormalised)) ** 2) < 1e-14

    def test_exact_recovery_has_no_fidelity_floor(self):
        u = rand_unitary(np.random.default_rng(6), 2)
        rep = delta_with_recovery(
            unitary_channel(u, (Q,)), unitary_channel(u.conj().T, (Q,)), omega_pm(Q)
        )
        assert rep.delta < 1e-15

    @pytest.mark.parametrize("d", (2, 4, 6))
    def test_petz_on_its_own_mixed_member_has_no_fidelity_floor(self, d):
        # the Petz recovery with respect to sigma returns L(sigma) to sigma exactly; 1 - F^2
        # formed from F would read ~1e-8 here
        rng = np.random.default_rng(70 + d)
        lab = Label("S", d)
        for _ in range(6):
            loss = instrument_channel(rand_instrument(rng, d, 3, lab))
            sigma = rand_state(rng, d, lab)
            rep = delta_with_recovery(loss, petz_recovery(loss, sigma), TestEnsemble(((1.0, sigma),)))
            assert rep.delta <= 1e-14

    def test_isometry_with_its_inverse_has_no_fidelity_floor(self):
        # a 2 -> 4 isometry V undone by V^dag, plus branches |0><e| on the complement of its
        # range, on six full-rank mixed members and a pure one
        rng = np.random.default_rng(71)
        a, b = Label("A", 2), Label("B", 4)
        q = rand_unitary(rng, 4)
        v, rest = q[:, :2], q[:, 2:]
        loss = KrausChannel((a,), (b,), (v,))
        back = [v.conj().T] + [np.outer([1.0, 0.0], e.conj()) for e in rest.T]
        recovery = KrausChannel((b,), (a,), back)
        omega = TestEnsemble(((0.1, rand_pure(rng, 2, a)), *((0.15, rand_state(rng, 2, a)) for _ in range(6))))
        rep = delta_with_recovery(loss, recovery, omega)
        assert all(dk <= 1e-14 for _, dk in rep.per_state)
        rep = delta_min(loss, omega, OptimizerConfig(max_iters=20, restarts=0), warm_starts=(recovery,))
        assert all(dk <= 1e-14 for _, dk in rep.per_state)


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

    def test_sigma_ref_is_decomposed_once(self, monkeypatch):
        # a 2 -> 3 isometry leaves a kernel in the output, so the repair kets are needed;
        # they come from the decomposition that gives sqrt(sigma_ref)
        a, b = Label("A", 2), Label("B", 3)
        loss = KrausChannel((a,), (b,), (rand_kraus(np.random.default_rng(9), 2, 3, 1)[0][0],))
        sigma = DensityMatrix((a,), np.array([[0.6, 0.2 - 0.1j], [0.2 + 0.1j, 0.4]]))
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda x, *args, **kw: calls.append(np.array(x)) or eigh(x, *args, **kw))
        rec = petz_recovery(loss, sigma)
        assert sum(x.shape == sigma.data.shape and np.array_equal(x, sigma.data) for x in calls) == 1
        assert len(rec.kraus) > 1  # the kernel repair added its branches


class TestStackedPetz:
    def test_kernel_repair_matches_petz_recovery_at_each_loss(self):
        # an isometry A -> B (padded with a zero operator) leaves half of B unreached, so
        # its Petz recovery needs the kernel repair; the full-rank loss beside it does
        # not, and has the smaller Petz rank, padded with zero operators in the stack
        rng = np.random.default_rng(50)
        a, b = Label("A", 2), Label("B", 4)
        iso = rand_kraus(rng, 2, 4, 1)[0]
        kraus = np.stack([np.concatenate([iso, np.zeros_like(iso)]), rand_kraus(rng, 2, 4, 2)[0]])
        sigma = rand_state(rng, 2, a)
        stacked = irrev._petz(kraus, sigma.data, irrev._outputs(kraus, sigma.data[None])[:, 0])
        ranks = []
        for ops, petz_ops in zip(kraus, stacked):
            loss = KrausChannel((a,), (b,), ops)
            ranks.append(np.linalg.matrix_rank(apply(loss, sigma).data, tol=1e-12))
            want = choi(petz_recovery(loss, sigma))
            assert np.max(np.abs(choi(KrausChannel((b,), (a,), petz_ops)) - want)) <= 1e-12
        assert ranks == [2, 4]


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


class TestDeltaMinWork:
    """What a mixed-ensemble delta_min computes and builds."""

    @staticmethod
    def _counting(counts: Counter, key: str, fn):
        def counted(*args):
            counts[key] += 1
            return fn(*args)

        return counted

    def _mixed_case(self, rng):
        lab = Label("S", 3)
        loss = instrument_channel(rand_instrument(rng, 3, 2, lab))
        return loss, _ensemble(rng, [rand_state(rng, 3, lab), rand_low_rank(rng, 3, 2, lab)])

    def test_one_value_per_trial_and_one_gradient_per_accepted_step(self, monkeypatch):
        # tol=0 never stops on improvement, and 25 trials cannot halve 0.1 below 1e-12,
        # so the one ascent (from Petz, no restarts) takes exactly 25 trial steps
        loss, omega = self._mixed_case(np.random.default_rng(61))
        counts, traces = Counter(), []
        monkeypatch.setattr(_Objective, "value", self._counting(counts, "value", _Objective.value))
        monkeypatch.setattr(_Objective, "grad", self._counting(counts, "grad", _Objective.grad))
        ascend = irrev._ascend

        def recorded(*args):
            out = ascend(*args)
            traces.append(out[2])
            return out

        monkeypatch.setattr(irrev, "_ascend", recorded)
        delta_min(loss, omega, OptimizerConfig(max_iters=25, restarts=0, tol=0.0))
        (trace,) = traces
        assert counts["value"] == 1 + 25
        assert counts["grad"] == len(trace)  # the start and each accepted step
        assert len(trace) < 1 + 25  # some trial was rejected, and took no gradient

    def test_builds_no_state_and_only_the_returned_channel(self, monkeypatch):
        rng = np.random.default_rng(62)
        loss, omega = self._mixed_case(rng)
        warm = KrausChannel(loss.out_space, loss.in_space, rand_kraus(rng, 3, 3, 2)[0])
        counts = Counter()
        for cls in (DensityMatrix, KrausChannel):
            monkeypatch.setattr(cls, "__post_init__", self._counting(counts, cls.__name__, cls.__post_init__))
        # a value built from validated ones skips __post_init__: count those builds as well
        trusted = qcore._trusted
        counted = lambda cls, **fields: counts.update([cls.__name__]) or trusted(cls, **fields)
        for module in (qcore, irrev):
            monkeypatch.setattr(module, "_trusted", counted)
        rep = delta_min(loss, omega, OptimizerConfig(max_iters=20, restarts=1), (warm,))
        assert counts == Counter(KrausChannel=1)
        assert validate_channel(rep.recovery_used)["ok"]


class TestOutputs:
    """delta_min forms each output sigma_k = L(rho_k) from the amplitude or factor
    columns it scores with, and the Petz reference output as their average."""

    @pytest.fixture
    def calls(self, monkeypatch) -> Counter:
        counts = Counter()
        counted = TestDeltaMinWork._counting(counts, "_outputs", qcore._outputs)
        for module in (qcore, irrev):
            monkeypatch.setattr(module, "_outputs", counted)
        return counts

    def test_optimize_extractions_form_no_output(self, calls):
        rng = np.random.default_rng(90)
        lab = Label("S", 3)
        rho, meas = rand_state(rng, 3, lab), rand_instrument(rng, 3, 2, lab)
        cfg = ExtractionConfig(optimizer=OptimizerConfig(max_iters=20, restarts=0))
        extract_epsilon(rho, Observable((lab,), rand_herm(rng, 3)), meas, OPTIMIZE, cfg)
        extract_eta(rho, Observable((lab,), rand_herm(rng, 3)), meas, OPTIMIZE, cfg)
        assert calls["_outputs"] == 0

    @pytest.mark.parametrize("mixed", [False, True], ids=["pure", "mixed"])
    def test_delta_min_forms_no_output(self, calls, mixed):
        rng = np.random.default_rng(91)
        lab = Label("S", 3)
        member = rand_state if mixed else rand_pure
        omega = _ensemble(rng, [member(rng, 3, lab) for _ in range(2)])
        delta_min(instrument_channel(rand_instrument(rng, 3, 2, lab)), omega, OptimizerConfig(max_iters=20, restarts=0))
        assert calls["_outputs"] == 0

    def test_petz_recovery_forms_one_output(self, calls):
        rng = np.random.default_rng(92)
        petz_recovery(instrument_channel(rand_instrument(rng, 3, 2, Label("S", 3))), rand_state(rng, 3))
        assert calls["_outputs"] == 1

    @pytest.mark.parametrize("d", range(2, 7))
    def test_column_outputs_match_outputs(self, d):
        # a stack of two losses A -> B on a pure, a full-rank and (from d = 3) a
        # rank-deficient member, whose rounding-level eigenvalues the factor drops
        rng = np.random.default_rng(93 + d)
        a = Label("A", d)
        kraus = np.stack([rand_kraus(rng, d, d + 1, 2)[0] for _ in range(2)])
        omega = _ensemble(rng, [rand_pure(rng, d, a), rand_state(rng, d, a), rand_low_rank(rng, d, max(d - 1, 1), a)])
        members = irrev._members(omega, omega.space)
        assert members[3].tolist() == [True, False, d == 2]
        sigmas = irrev._sigmas(irrev._amplitudes(kraus, members), members)
        assert np.max(np.abs(sigmas - qcore._outputs(kraus, members[1]))) <= 1e-14


def _ensemble(rng, members) -> TestEnsemble:
    p = rng.random(len(members)) + 0.1
    return TestEnsemble(tuple(zip((p / p.sum()).tolist(), members)))


class TestObjectiveGradient:
    # one character per member: p pure, m full-rank mixed, r mixed of rank 2
    @pytest.mark.parametrize(
        "kinds, d", [(k, d) for k in ("pp", "mm", "pmm") for d in (2, 4, 6)] + [("rm", 4), ("rm", 6)]
    )
    def test_gradient_matches_central_difference(self, d, kinds):
        rng = np.random.default_rng(100 + d)
        lab = Label("S", d)
        loss = instrument_channel(rand_instrument(rng, d, 3, lab))
        make = {"p": rand_pure, "m": rand_state, "r": lambda rng, d, lab: rand_low_rank(rng, d, 2, lab)}
        members = [make[c](rng, d, lab) for c in kinds]
        omega = _ensemble(rng, members)
        sigmas = [apply(loss, rho) for rho in members]
        obj = _Objective(irrev._members(omega, omega.space), np.stack([s.data for s in sigmas]))
        shape = (d * d * d, d)
        v = _qr_retract(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        dv = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        j, parts = obj.value(v)
        g = obj.grad(parts)
        # per-member reference from the Kraus operators K_e[j, o] = V[j * d_env + e, o]:
        # F^2 = tr(rho tau) for pure rho, (tr sqrt(sqrt(rho) tau sqrt(rho)))^2 otherwise. At
        # rank 2 the root's kernel is rounding, whose square roots in tr sqrt(.) reach ~1e-9,
        # so that trace is taken over the support: the spectrum of k^H tau k for the top
        # two eigenpairs, k = vecs sqrt(vals), which is that of sqrt(rho) tau sqrt(rho) less zeros
        kraus = v.reshape(d, d * d, d).transpose(1, 0, 2)
        ref = 0.0
        for c, (p, rho), sig in zip(kinds, omega.entries, sigmas):
            tau = sum(k @ sig.data @ k.conj().T for k in kraus)
            vals, vecs = np.linalg.eigh(rho.data)
            if c == "p":
                ref += p * np.trace(rho.data @ tau).real
            elif c == "r":
                k = vecs[:, -2:] * np.sqrt(vals[-2:])
                ref += p * np.sum(np.sqrt(np.linalg.eigvalsh(k.conj().T @ tau @ k))) ** 2
            else:
                rh = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T
                ref += p * np.sum(np.sqrt(np.linalg.eigvalsh(rh @ tau @ rh))) ** 2
        assert abs(j - ref) <= 1e-12
        # V e^{i phi} is the same recovery: J must not move beyond rounding, rank-deficient
        # members included (their off-support rows of M_k are exact zeros)
        assert abs(j - obj.value(v * np.exp(0.3j))[0]) <= 1e-14
        h = 1e-5
        fd = (obj.value(v + h * dv)[0] - obj.value(v - h * dv)[0]) / (2 * h)
        # G = dJ/d(conj V), so the directional derivative is 2 Re <G, dV>
        analytic = 2 * np.real(np.vdot(g, dv))
        assert abs(analytic - fd) <= 1e-6 * abs(fd)

    def test_construction_runs_no_eigh(self, monkeypatch):
        # the mixed group reads the factors _members formed, so building J decomposes nothing
        rng = np.random.default_rng(7)
        lab = Label("S", 4)
        members = [rand_pure(rng, 4, lab), rand_state(rng, 4, lab), rand_low_rank(rng, 4, 2, lab)]
        omega = _ensemble(rng, members)
        ens = irrev._members(omega, omega.space)
        sigmas = irrev._outputs(instrument_channel(rand_instrument(rng, 4, 3, lab)).kraus, ens[1])
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda x, *args, **kw: calls.append(x) or eigh(x, *args, **kw))
        _Objective(ens, sigmas)
        assert calls == []


class TestStepRetract:
    """_step_retract is _qr_retract by Cholesky QR, with a Householder fallback."""

    @staticmethod
    def _step(rng, d_out: int, rank_one: bool):
        """An isometry V of the ascent's shape and a unit tangent direction G at V."""
        shape = (d_out**3, d_out)
        v = _qr_retract(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        if rank_one:  # a column off the range of V times a row: tangent as it is
            x = np.outer(x[:, 0] - v @ (v.conj().T @ x[:, 0]), x[0])
        g = irrev._tangent_part(v, x)
        return v, g / np.linalg.norm(g)

    @pytest.mark.parametrize("d_out", (2, 4, 6))
    @pytest.mark.parametrize("rank_one", (False, True), ids=("full-rank", "rank-one"))
    def test_matches_householder_at_every_step_size(self, monkeypatch, d_out, rank_one):
        v, g = self._step(np.random.default_rng(200 + d_out), d_out, rank_one)
        fallbacks = Counter()

        def counted(a):
            fallbacks["qr"] += 1
            return _qr_retract(a)

        monkeypatch.setattr(irrev, "_qr_retract", counted)
        sizes = np.logspace(-3, 8, 23)  # s ||G||_F
        for s in sizes:
            a = v + s * g
            q = irrev._step_retract(a)
            assert np.abs(q.conj().T @ q - np.eye(d_out)).max() <= 1e-12
            assert np.abs(q - _qr_retract(a)).max() <= 1e-11
        # the small steps take Cholesky QR and the large ones Householder
        assert 0 < fallbacks["qr"] < len(sizes)

    @pytest.mark.parametrize("s", (np.nan, np.inf))
    def test_non_finite_step_takes_householder_once(self, monkeypatch, s):
        v, g = self._step(np.random.default_rng(210), 2, False)
        calls = []
        monkeypatch.setattr(irrev, "_qr_retract", lambda a: calls.append(a) or a)
        with np.errstate(invalid="ignore"):
            irrev._step_retract(v + s * g)
        assert len(calls) == 1

    @pytest.mark.parametrize("seed, d", [(0, 2), (1, 4), (2, 6), (3, 3)])
    def test_ascent_follows_the_householder_trajectory(self, monkeypatch, seed, d):
        # the criterion-2 budget on seeded mixed cases, once as is and once with Householder steps
        rng = np.random.default_rng(220 + seed)
        lab = Label("S", d)
        loss = KrausChannel((lab,), (lab,), rand_kraus(rng, d, d, 3)[0])
        omega = _ensemble(rng, [rand_state(rng, d, lab), rand_state(rng, d, lab)])
        cfg = OptimizerConfig(seed=seed, max_iters=40, restarts=0)
        chol = delta_min(loss, omega, cfg)
        monkeypatch.setattr(irrev, "_step_retract", _qr_retract)
        house = delta_min(loss, omega, cfg)
        assert len(chol.optimizer_trace) > 1
        assert [i for i, _ in chol.optimizer_trace] == [i for i, _ in house.optimizer_trace]
        for (_, a), (_, b) in zip(chol.optimizer_trace, house.optimizer_trace):
            assert abs(a - b) <= 1e-10 * abs(b)
        assert abs(chol.delta - house.delta) <= 1e-10 * house.delta


class TestAscentRank:
    """The ascent runs on its start's own Kraus operators; random restarts on d_in * d_out."""

    @pytest.mark.parametrize("kinds", ("mr", "pp"), ids=("mixed", "pure"))
    @pytest.mark.parametrize("d", (2, 4, 6))
    def test_padded_blocks_stay_zero(self, d, kinds):
        # the same Petz start once with zero operators up to d_in * d_out, once without
        rng = np.random.default_rng(300 + d)
        lab = Label("S", d)
        loss = KrausChannel((lab,), (lab,), rand_kraus(rng, d, d, 3)[0])
        make = {"p": rand_pure, "m": rand_state, "r": lambda rng, d, lab: rand_low_rank(rng, d, 2, lab)}
        omega = _ensemble(rng, [make[c](rng, d, lab) for c in kinds])
        members = irrev._members(omega, omega.space)
        obj = _Objective(members, irrev._outputs(loss.kraus, members[1]))
        avg = DensityMatrix((lab,), sum(p * rho.data for p, rho in omega.entries))
        ops = petz_recovery(loss, avg).kraus
        r = len(ops)
        padded = np.zeros((d, d * d, d), dtype=complex)
        padded[:, :r] = ops.transpose(1, 0, 2)
        cfg = OptimizerConfig(max_iters=40, restarts=0)
        v, j, trace, conv = irrev._ascend(obj, padded.reshape(-1, d), cfg)
        v_r, j_r, trace_r, conv_r = irrev._ascend(obj, irrev._isometry(ops), cfg)
        assert r < d * d and len(trace) > 1
        assert np.all(v.reshape(d, d * d, d)[:, r:] == 0.0)
        assert v_r.shape == (d * r, d)
        assert [i for i, _ in trace] == [i for i, _ in trace_r] and conv == conv_r
        assert abs(j - j_r) <= 1e-12 * abs(j)

    def test_objective_sees_the_start_rank(self, monkeypatch):
        rng = np.random.default_rng(310)
        a, b = Label("A", 3), Label("B", 2)
        loss = KrausChannel((a,), (b,), rand_kraus(rng, 3, 2, 2)[0])
        omega = _ensemble(rng, [rand_state(rng, 3, a), rand_low_rank(rng, 3, 2, a)])
        avg = DensityMatrix((a,), sum(p * rho.data for p, rho in omega.entries))
        r = len(petz_recovery(loss, avg).kraus)
        shapes = []
        value = _Objective.value
        monkeypatch.setattr(_Objective, "value", lambda obj, v: shapes.append(v.shape) or value(obj, v))
        delta_min(loss, omega, OptimizerConfig(max_iters=5, restarts=1))
        # the Petz ascent, then the random restart
        assert r < 3 * 2
        assert list(dict.fromkeys(shapes)) == [(3 * r, 2), (3 * 3 * 2, 2)]
        assert shapes == sorted(shapes, key=lambda s: s != (3 * r, 2))


def _pure_case(rng, d_in: int, d_out: int):
    """A random trace-preserving loss A -> B and two or three pure members."""
    a, b = Label("A", d_in), Label("B", d_out)
    r = -(-d_in // d_out) + int(rng.integers(0, 2))
    loss = KrausChannel((a,), (b,), rand_kraus(rng, d_in, d_out, r)[0])
    members = [rand_pure(rng, d_in, a) for _ in range(int(rng.integers(2, 4)))]
    return loss, _ensemble(rng, members)


def _gap(loss, omega, value: float, recovery) -> float:
    """The certified gap of recovery, whose delta^2 is value, on a pure ensemble."""
    p, rho, vecs, _, _ = irrev._members(omega, omega.space)
    sigmas = irrev._outputs(loss.kraus[None], rho)
    return float(irrev._certified_gap(p, vecs, sigmas, irrev._choi(recovery.kraus)[None], np.array([value]))[0])


class TestCertificate:
    """The dual bound of the SDP over CP maps on pure ensembles."""

    def test_dual_bound_is_sound(self):
        # delta^2(R) - certified_gap(R) is the dual bound built from R, rounding
        # allowance subtracted: it may not exceed delta^2 of any CPTP recovery
        rng = np.random.default_rng(30)
        for d_in in (2, 3):
            for d_out in (2, 3, 4):
                loss, omega = _pure_case(rng, d_in, d_out)
                recs = [petz_recovery(loss, DeltaHelpers.average(omega))]
                for extra in range(4):
                    ops = rand_kraus(rng, d_out, d_in, -(-d_out // d_in) + extra)[0]
                    recs.append(KrausChannel(loss.out_space, loss.in_space, ops))
                values = [delta_with_recovery(loss, rec, omega).delta ** 2 for rec in recs]
                for rec, v in zip(recs, values):
                    gap = _gap(loss, omega, v, rec)
                    assert gap >= 0.0
                    assert v - gap <= min(values)

    def test_mixed_ensemble_is_not_certified(self):
        rng = np.random.default_rng(31)
        loss = instrument_channel(rand_instrument(rng, 2, 2, S))
        rep = delta_min(loss, two_state_ensemble(rng, 2, S), OptimizerConfig(max_iters=20, restarts=0))
        assert rep.certified_gap is None
        assert "certified_gap" not in rep.to_json()

    def test_certified_petz_skips_the_ascent(self, monkeypatch):
        # every recovery of the fully depolarized qubit scores 1/2, so Petz is optimal
        monkeypatch.setattr(irrev, "_ascend", lambda *args: pytest.fail("ascent ran"))
        rep = delta_min(depolarizing(Q), omega_pm(Q))
        assert 0.0 <= rep.certified_gap <= OptimizerConfig().tol
        assert rep.to_json()["certified_gap"] == rep.certified_gap
        assert rep.optimizer_trace == ((0, rep.delta**2),)

    @pytest.mark.parametrize("seed", range(4))
    def test_ascent_reaches_the_certified_optimum(self, seed):
        # the ascent steps along the gradient's tangent part at the isometry; along the
        # raw gradient these cases stall 1e-2 to 7e-2 above the dual bound
        rng = np.random.default_rng(seed)
        loss = KrausChannel((S,), (S,), rand_kraus(rng, 2, 2, 2)[0])
        omega = TestEnsemble(((0.5, rand_pure(rng, 2, S)), (0.5, rand_pure(rng, 2, S))))
        petz = petz_recovery(loss, DeltaHelpers.average(omega))
        # Petz alone is far from certified, so the gradient search decides the value
        petz_value = delta_with_recovery(loss, petz, omega).delta ** 2
        assert _gap(loss, omega, petz_value, petz) > 1e-2
        rep = delta_min(loss, omega)
        assert rep.certified_gap <= 1e-4


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

    def test_petz_needs_trace_preserving_loss(self):
        proj = KrausChannel((Q,), (Q,), (np.diag([1.0, 0.0]),), trace_preserving=False)
        with pytest.raises(ShapeError, match="petz_recovery needs a trace-preserving loss"):
            petz_recovery(proj, maximally_mixed((Q,)))

    def test_delta_min_needs_trace_preserving_loss(self):
        proj = KrausChannel((Q,), (Q,), (np.diag([1.0, 0.0]),), trace_preserving=False)
        with pytest.raises(ShapeError, match="delta_min needs a trace-preserving loss"):
            delta_min(proj, omega_pm(Q))

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

    @pytest.mark.parametrize("build", (OptimizerConfig.from_json, lambda d: OptimizerConfig(**d)), ids=("json", "init"))
    @pytest.mark.parametrize("field", ("seed", "max_iters", "restarts"))
    @pytest.mark.parametrize("value", (2.9, 1.5, np.nan, np.inf, np.float32(2.5), Fraction(5, 2)))
    def test_optimizer_config_rejects_non_integral_counts(self, build, field, value):
        with pytest.raises(ValueError, match=f"must be integers, not {{'{field}'"):
            build({field: value})

    @pytest.mark.parametrize("build", (OptimizerConfig.from_json, lambda d: OptimizerConfig(**d)), ids=("json", "init"))
    def test_optimizer_config_reads_integral_floats_as_ints(self, build):
        cfg = build({"seed": 3.0, "max_iters": 2.0, "restarts": 1.0, "step": 1})
        assert cfg == OptimizerConfig(seed=3, max_iters=2, restarts=1, step=1.0)
        assert [type(x) for x in (cfg.seed, cfg.max_iters, cfg.restarts, cfg.step)] == [int, int, int, float]
        # the counts reach range() and default_rng as ints
        assert delta_min(depolarizing(Q), omega_pm(Q), cfg).delta > 0

    @pytest.mark.parametrize(
        "field, value",
        [
            ("max_iters", 0),
            ("max_iters", -3),
            ("step", 0.0),
            ("step", -1.0),
            ("step", np.nan),
            ("step", np.inf),
            ("restarts", -1),
            ("tol", -1e-12),
            ("tol", np.nan),
            ("tol", np.inf),
        ],
    )
    def test_optimizer_config_rejects_out_of_range_fields(self, field, value):
        with pytest.raises(ValueError, match=re.escape(f"{field}={value!r}")):
            OptimizerConfig(**{field: value})

    def test_optimizer_config_admits_zero_tol_and_restarts(self):
        assert OptimizerConfig(max_iters=1, restarts=0, tol=0.0).tol == 0.0
