import dataclasses

import numpy as np
import pytest

from irrevkit import (
    OPTIMIZE,
    BranchProbabilityError,
    CanonicalRecovery,
    Comb,
    DensityMatrix,
    ExtractionConfig,
    ExtractionError,
    Instrument,
    KrausChannel,
    Label,
    Observable,
    OptimizerConfig,
    OutcomeFunctionError,
    CompositeSpaceError,
    ShapeError,
    canonical_recovery,
    delta_min,
    delta_with_recovery,
    disturbance_comb,
    error_comb,
    extract,
    extract_epsilon,
    extract_eta,
    extract_two_copy,
    ising_chain_scenario,
    lt_disturbance,
    lt_error,
    omega_pm,
    ozawa_disturbance,
    ozawa_error,
    otoc_iep,
    otoc_iep_cp,
    pointer_channel,
    pure_state,
    two_copy_comb,
    validate_channel,
)
from irrevkit import comb as comb_module, irrev, qcore
from irrevkit.comb import Q_LABEL, _fit_c2, _fit_operator
from conftest import (
    SIGMA_X,
    SIGMA_Z,
    obs,
    proj_instrument,
    proj_z,
    rand_herm,
    rand_instrument,
    rand_kraus,
    rand_low_rank,
    rand_pure,
    rand_state,
    rand_unitary,
    ref_analytic_c2,
    ref_choi,
    ref_choi_gaps,
    ref_embed,
    ref_embed_matrix,
    ref_grid,
    ref_loss_ops,
)

S = Label("S", 2)
P = Label("P", 2)
F_PM = {"0": 1.0, "1": -1.0}
RHO0 = pure_state([1, 0], (S,))
ANALYTIC = ExtractionConfig(method="analytic")


def pm_pointer() -> CanonicalRecovery:
    return canonical_recovery(Observable((P,), SIGMA_Z), (P,), 0.0)


class TestAncilla:
    def test_omega_pm_states(self):
        omega = omega_pm()
        assert len(omega.entries) == 2
        plus = omega.entries[0][1].data
        assert abs(plus[0, 1] - 0.5) < 1e-12 or abs(plus[0, 1] + 0.5) < 1e-12

    def test_canonical_recovery_is_cptp(self):
        for theta in (0.0, 1e-2, 0.3):
            rec = canonical_recovery(Observable((P,), SIGMA_Z), (P,), theta)
            assert validate_channel(rec.channel)["ok"]
            assert rec.channel.trace_preserving

    def test_canonical_recovery_targets_ancilla(self):
        rec = canonical_recovery(Observable((P,), SIGMA_Z), (P,), 0.1)
        assert tuple(rec.channel.out_space) == (Q_LABEL,)

    def test_canonical_recovery_refuses_a_target_with_the_ancilla_label(self):
        # its channel is built unchecked on target + Q, so a second Q must be refused up front
        with pytest.raises(CompositeSpaceError, match="duplicate labels"):
            canonical_recovery(Observable((P,), SIGMA_Z), (P, Q_LABEL), 0.1)


class TestEpsilonExtraction:
    def test_frozen_qubit_value_extrapolated(self):
        rep = extract_epsilon(RHO0, obs(SIGMA_X, S), proj_z(S), pm_pointer())
        assert abs(rep.value - 2.0) < 1e-6
        assert rep.fit_residual < 1e-6
        assert len(rep.theta_grid) == 4

    def test_frozen_qubit_value_analytic(self):
        cfg = ExtractionConfig(method="analytic")
        rep = extract_epsilon(RHO0, obs(SIGMA_X, S), proj_z(S), pm_pointer(), cfg)
        assert abs(rep.value - 2.0) < 1e-12
        assert rep.method == "analytic"

    def test_matches_squared_ozawa_error(self):
        rng = np.random.default_rng(21)
        cfg = ExtractionConfig(method="analytic")
        for _ in range(5):
            d = int(rng.integers(2, 5))
            lab = Label("S", d)
            rho = rand_state(rng, d, lab)
            a = Observable((lab,), rand_herm(rng, d, norm=1.0))
            meas = rand_instrument(rng, d, int(rng.integers(2, 5)), lab)
            f = {m: float(v) for m, v in zip(meas.outcomes, rng.standard_normal(len(meas.outcomes)))}
            p_label = Label("P", len(meas.branches))
            x = Observable((p_label,), np.diag([f[m] for m in meas.outcomes]).astype(complex))
            rec = canonical_recovery(x, (p_label,), 0.0)
            rep = extract_epsilon(rho, a, meas, rec, cfg)
            assert abs(rep.value - ozawa_error(rho, a, meas, f)) < 1e-9

    def test_pushforward_recovery_reaches_lt(self):
        lt, fstar = lt_error(RHO0, obs(SIGMA_X, S), proj_z(S))
        x = Observable((P,), np.diag([fstar["0"], fstar["1"]]).astype(complex))
        cfg = ExtractionConfig(method="analytic")
        for rec in (canonical_recovery(x, (P,), 0.0), "canonical"):
            rep = extract_epsilon(RHO0, obs(SIGMA_X, S), proj_z(S), rec, cfg)
            assert abs(rep.value - lt) < 1e-9

    def test_unknown_recovery_rejected(self):
        for cfg in (ExtractionConfig(), ExtractionConfig(method="analytic")):
            with pytest.raises(TypeError):
                extract_epsilon(RHO0, obs(SIGMA_X, S), proj_z(S), "petz", cfg)

    @pytest.mark.parametrize("recovery", ["fixed", OPTIMIZE])
    def test_analytic_extraction_needs_a_canonical_recovery(self, recovery):
        comb = error_comb(RHO0, obs(SIGMA_X, S), proj_z(S))
        recovery = pm_pointer().channel if recovery == "fixed" else recovery
        with pytest.raises(ValueError, match="analytic extraction needs a canonical recovery"):
            extract(comb, recovery, ANALYTIC)

    def test_optimize_is_the_recovery_word(self):
        # scenario files and the library name optimization by the same word
        assert OPTIMIZE == "optimize"
        cfg = ExtractionConfig(optimizer=OptimizerConfig(max_iters=60, restarts=0))
        comb = error_comb(RHO0, obs(SIGMA_X, S), proj_z(S))
        assert extract(comb, "optimize", cfg) == extract(comb, OPTIMIZE, cfg)

    def test_optimized_never_exceeds_canonical(self):
        cfg = ExtractionConfig(optimizer=OptimizerConfig(max_iters=120, restarts=1))
        canonical = extract_epsilon(RHO0, obs(SIGMA_X, S), proj_z(S), pm_pointer(), cfg)
        optimized = extract_epsilon(RHO0, obs(SIGMA_X, S), proj_z(S), OPTIMIZE, cfg)
        assert optimized.value <= canonical.value + 1e-6


CRITERION_2 = ExtractionConfig(optimizer=OptimizerConfig(seed=0, max_iters=60, restarts=0))


def _meter(rng, d: int, k: int):
    lab = Label("S", d)
    rho = rand_state(rng, d, lab)
    a = Observable((lab,), rand_herm(rng, d, norm=1.0))
    b = Observable((lab,), rand_herm(rng, d, norm=1.0))
    return rho, a, b, rand_instrument(rng, d, k, lab)


class TestCertifiedOptimize:
    """OPTIMIZE on the pure +/- ensemble: the warm starts close the dual gap."""

    def test_no_gradient_search_at_criterion_2_budget(self, monkeypatch):
        calls = []
        ascend = irrev._ascend
        monkeypatch.setattr(irrev, "_ascend", lambda *args: calls.append(args) or ascend(*args))
        rng = np.random.default_rng(40)
        for d, k in ((2, 2), (3, 3), (4, 2), (2, 4)):
            rho, a, b, meas = _meter(rng, d, k)
            for rep in (
                extract_epsilon(rho, a, meas, OPTIMIZE, CRITERION_2),
                extract_eta(rho, b, meas, OPTIMIZE, CRITERION_2),
            ):
                assert 0.0 <= rep.certified_gap <= CRITERION_2.optimizer.tol
                assert rep.to_json()["certified_gap"] == rep.certified_gap
        assert not calls

    def test_certified_curvature_is_the_lt_value(self):
        # the unified definition: minimized over recoveries, the curvature is the
        # relabeling-optimal error and the generator-optimal disturbance
        rng = np.random.default_rng(41)
        for d, k in ((2, 3), (3, 2), (4, 4)):
            rho, a, b, meas = _meter(rng, d, k)
            eps = extract_epsilon(rho, a, meas, OPTIMIZE, CRITERION_2)
            eta = extract_eta(rho, b, meas, OPTIMIZE, CRITERION_2)
            assert max(eps.certified_gap, eta.certified_gap) <= CRITERION_2.optimizer.tol
            assert abs(eps.value - lt_error(rho, a, meas)[0]) <= 1e-6
            assert abs(eta.value - lt_disturbance(rho, b, meas)[0]) <= 1e-6

    def test_fixed_recovery_reports_no_gap(self):
        rep = extract_epsilon(RHO0, obs(SIGMA_X, S), proj_z(S), pm_pointer())
        assert rep.certified_gap is None
        assert "certified_gap" not in rep.to_json()


class TestStackedOptimize:
    """OPTIMIZE's one pass over the grid against delta_min at each theta on its own."""

    @staticmethod
    def per_theta(comb, cfg: ExtractionConfig):
        reps = []
        for theta in cfg.thetas:
            warm = tuple(canonical_recovery(r.x, r.target, theta).channel for r in comb.recoveries())
            reps.append(delta_min(comb.loss(theta), omega_pm(), cfg.optimizer, warm_starts=warm))
        return [rep.delta**2 for rep in reps], max(rep.certified_gap for rep in reps)

    def test_grid_and_gap_match_per_theta_delta_min(self):
        rng = np.random.default_rng(42)
        for d, k in ((2, 2), (3, 3), (4, 2)):
            rho, a, b, meas = _meter(rng, d, k)
            for comb in (error_comb(rho, a, meas), disturbance_comb(rho, b, meas)):
                rep = extract(comb, OPTIMIZE, CRITERION_2)
                values, gap = self.per_theta(comb, CRITERION_2)
                got = np.array([v for _, v in rep.theta_grid])
                assert np.max(np.abs(got - values) / np.abs(values)) <= 1e-12
                assert abs(rep.certified_gap - gap) <= 1e-12

    def test_zero_tol_ascends_at_every_theta(self, monkeypatch):
        # no gap is <= 0 (the rounding allowance is added), so every theta runs the ascent
        # from Petz and each warm start; the values are those of the per-theta path
        # before the grid was stacked, frozen here
        calls = []
        ascend = irrev._ascend
        monkeypatch.setattr(irrev, "_ascend", lambda *args: calls.append(args) or ascend(*args))
        cfg = ExtractionConfig(optimizer=OptimizerConfig(max_iters=60, restarts=0, tol=0.0))
        rho, a, b, meas = _meter(np.random.default_rng(43), 2, 2)
        frozen = {
            "error": [4.5662664484519204e-05, 1.1415866708650678e-05, 2.8539792137561103e-06, 7.134955869740878e-07],
            "disturbance": [4.851313149542029e-06, 1.212852000587053e-06, 3.032144822327776e-07, 7.580371318871918e-08],
        }
        for (name, comb), starts in zip(
            (("error", error_comb(rho, a, meas)), ("disturbance", disturbance_comb(rho, b, meas))), (2, 3)
        ):
            del calls[:]
            rep = extract(comb, OPTIMIZE, cfg)
            assert len(calls) == starts * len(cfg.thetas)
            got = np.array([v for _, v in rep.theta_grid])
            assert np.max(np.abs(got - frozen[name]) / frozen[name]) <= 1e-12, name
            values, gap = self.per_theta(comb, cfg)
            assert np.max(np.abs(got - values) / np.abs(values)) <= 1e-12, name
            assert abs(rep.certified_gap - gap) <= 1e-12, name


class TestEtaExtraction:
    def test_frozen_qubit_value_extrapolated(self):
        rec = canonical_recovery(obs(SIGMA_X, S), (S,), 0.0)
        rep = extract_eta(RHO0, obs(SIGMA_X, S), proj_z(S), rec)
        assert abs(rep.value - 2.0) < 1e-6

    def test_matches_squared_ozawa_disturbance(self):
        rng = np.random.default_rng(22)
        cfg = ExtractionConfig(method="analytic")
        for _ in range(5):
            d = int(rng.integers(2, 4))
            lab = Label("S", d)
            rho = rand_state(rng, d, lab)
            b = Observable((lab,), rand_herm(rng, d, norm=1.0))
            meas = rand_instrument(rng, d, 2, lab)
            rec = canonical_recovery(b, (lab,), 0.0)
            rep = extract_eta(rho, b, meas, rec, cfg)
            assert abs(rep.value - ozawa_disturbance(rho, b, meas)) < 1e-9

    def test_canonical_is_the_lt_recovery(self):
        rng = np.random.default_rng(24)
        for cfg in (ExtractionConfig(), ExtractionConfig(method="analytic")):
            d = int(rng.integers(2, 4))
            lab = Label("S", d)
            rho = rand_state(rng, d, lab)
            b = Observable((lab,), rand_herm(rng, d, norm=1.0))
            meas = rand_instrument(rng, d, 2, lab)
            _, x_lt = lt_disturbance(rho, b, meas)
            explicit = extract_eta(rho, b, meas, canonical_recovery(x_lt, x_lt.space, 0.0), cfg)
            assert extract_eta(rho, b, meas, "canonical", cfg).value == explicit.value

    def test_loss_process_is_the_comb_loss_of_the_grid(self):
        # scored under the canonical recovery at theta, the loss channel gives extract_eta's grid point
        rng = np.random.default_rng(26)
        for _ in range(6):
            d, k = int(rng.integers(2, 5)), int(rng.integers(2, 4))
            lab = Label("S", d)
            rho, b = rand_state(rng, d, lab), Observable((lab,), rand_herm(rng, d, norm=1.0))
            meas = rand_instrument(rng, d, k, lab)
            x_lt = lt_disturbance(rho, b, meas)[1]
            for theta, d2 in extract_eta(rho, b, meas, "canonical").theta_grid:
                loss = disturbance_comb(rho, b, meas).loss(theta)
                assert validate_channel(loss)["ok"]
                rec = canonical_recovery(x_lt, meas.out_space, theta).channel
                assert abs(delta_with_recovery(loss, rec, omega_pm()).delta ** 2 - d2) <= 1e-12 * d2

    def test_library_built_observables_match_the_checked_constructor(self):
        # the LT minimizer, B on the output, the pointer values and the two-copy readout
        # generator skip the constructor check; each holds what the checked constructor would
        rng = np.random.default_rng(25)
        for d, k in ((2, 2), (3, 2), (2, 4)):
            lab, out = Label("S", d), Label("O", d)
            rho, b = rand_state(rng, d, lab), Observable((lab,), rand_herm(rng, d, norm=1.0))
            meas = Instrument((lab,), (out,), rand_instrument(rng, d, k, lab).branches)
            x_lt = lt_disturbance(rho, b, meas)[1]
            pointer = error_comb(rho, b, meas).recoveries()[0].x
            f = [lt_error(rho, b, meas)[1][m] for m in meas.outcomes]
            cases = [
                (x_lt, Observable((out,), np.array(x_lt.data))),
                (disturbance_comb(rho, b, meas).recoveries()[1].x, Observable((out,), b.data)),
                (pointer, Observable((Label("P", k),), np.diag(f).astype(complex))),
                (two_copy_comb(rho, b, meas, "error", f).recoveries()[0].x, Observable((Label("P", k),), np.diag(f))),
                (two_copy_comb(rho, b, meas, "disturbance").recoveries()[0].x, Observable((Label("S2", d),), b.data)),
            ]
            for trusted, checked in cases:
                assert type(trusted) is type(checked) and trusted.space == checked.space
                assert trusted.data.dtype == np.complex128 and trusted.data.flags.c_contiguous
                assert not trusted.data.flags.writeable
                assert trusted.data.tobytes() == checked.data.tobytes()


class TestTwoCopy:
    def test_frozen_qubit_calibration(self):
        # generator z measured along x: 2 |z . (z - x)| = 2
        rep = extract_two_copy(RHO0, obs(SIGMA_Z, S), proj_x(), "error", f=F_PM)
        assert abs(rep.value - 2.0) < 1e-6

    def test_error_kind_requires_f(self):
        # only the recovery reads the pointer values, so the comb's loss builds and every extraction names f
        comb = two_copy_comb(RHO0, obs(SIGMA_Z, S), proj_x(), "error")
        assert validate_channel(comb.loss(0.05))["ok"]
        cfg = ExtractionConfig(optimizer=OptimizerConfig(max_iters=5, restarts=0))
        for run in (lambda: extract_two_copy(RHO0, obs(SIGMA_Z, S), proj_x(), "error"),
                    lambda: extract(comb, "canonical"), lambda: extract(comb, OPTIMIZE, cfg)):
            with pytest.raises(ValueError, match="two-copy error extraction needs outcome values f"):
                run()

    def test_infinite_outcome_value_names_f(self):
        # the error names f, not the coupling observable built from it
        with pytest.raises(OutcomeFunctionError, match="outcome '1'"):
            extract_two_copy(RHO0, obs(SIGMA_Z, S), proj_x(), "error", f={"0": 1.0, "1": np.inf})

    def test_disturbance_kind(self):
        rep = extract_two_copy(RHO0, obs(SIGMA_Z, S), proj_x(), "disturbance")
        assert rep.value >= -1e-9


def kron_two_copy_comb(comb: Comb, rho, gen: Observable, meas: Instrument, kind: str) -> Comb:
    """comb's two-copy meter as a dense reference builds it: the block rho (x) rho on
    (S2, S1), the coupling gen lifted onto copy 1 by ref_embed_matrix, and the measured
    copy's stage, P_M or I_M on S2, lifted onto both by ref_embed; comb's recoveries."""
    (s1,), out = comb.block.space, comb.stage.out_space[:-1]
    s2 = Label(rho.space[0].name + "2", s1.dim)
    sp = (s2, s1)
    stage = KrausChannel((s2,), out, pointer_channel(meas, out[0]).kraus if kind == "error" else meas.kraus)
    target, ops = ref_embed(stage, sp)
    coupling = Observable(sp, ref_embed_matrix(gen.data, (s1,), sp))
    return Comb(DensityMatrix(sp, np.kron(rho.data, rho.data)), coupling, KrausChannel(sp, target, ops), comb.recoveries)


class TestTwoCopyPreparedReadout:
    """The two-copy comb, copy 1 beside the prepared readout of copy 2, against the dense rho (x) rho comb."""

    def check(self, rho, gen, meas, kind, recovery=None):
        comb = two_copy_comb(rho, gen, meas, kind, list(np.linspace(-1.0, 1.0, len(meas.branches))))
        old = kron_two_copy_comb(comb, rho, gen, meas, kind)
        assert old.out_space == comb.out_space
        rec = recovery or comb.recoveries()[0]
        got = [v for _, v in extract(comb, rec).theta_grid]
        assert np.max(np.abs(np.subtract(got, ref_grid(old, rec, TestStackedGrid.THETAS)))) <= 1e-13
        want = ref_analytic_c2(old, rec.x)
        assert want >= 1e-3 and abs(extract(comb, rec, ANALYTIC).value - want) <= 1e-13 * want
        for theta in (0.0, 0.05, 0.3):
            gap = np.max(np.abs(ref_choi(list(comb.loss(theta).kraus)) - ref_choi(ref_loss_ops(old, theta))))
            assert gap <= 1e-13, theta

    @pytest.mark.parametrize("kind", ["error", "disturbance"])
    @pytest.mark.parametrize("d, k", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_mixed_and_pure_states_match_the_kron_comb(self, kind, d, k):
        rng = np.random.default_rng(50 + 2 * d + k)
        lab = Label("S", d)
        gen, meas = Observable((lab,), rand_herm(rng, d, norm=1.0)), rand_instrument(rng, d, k, lab)
        for rho in (rand_state(rng, d, lab), rand_pure(rng, d, lab)):
            self.check(rho, gen, meas, kind)

    @pytest.mark.parametrize("d, d_out", [(2, 3), (3, 2)])
    def test_non_square_disturbance_instrument_matches_the_kron_comb(self, d, d_out):
        rng = np.random.default_rng(60 + d)
        lab = Label("S", d)
        ops, _ = rand_kraus(rng, d, d_out, 2)
        meas = Instrument((lab,), (Label("O", d_out),), (("a", ops[0]), ("b", ops[1])))
        s2o, s1 = Label("S2o", d_out), Label("S1", d)
        rec = canonical_recovery(Observable((s2o,), rand_herm(rng, d_out, norm=1.0)), (s2o, s1), 0.0)
        gen = Observable((lab,), rand_herm(rng, d, norm=1.0))
        for rho in (rand_state(rng, d, lab), rand_pure(rng, d, lab)):
            assert two_copy_comb(rho, gen, meas, "disturbance").out_space == (s2o, s1, Q_LABEL)
            self.check(rho, gen, meas, "disturbance", rec)

    def test_no_embed_and_no_lift(self, monkeypatch):
        # copy 2 is never coupled, so nothing is lifted onto both copies: the stage and the
        # recovery generator on (readout, S1) are each one broadcast product over 1_S1
        def no_embed(*args):
            raise AssertionError("embed called")

        monkeypatch.setattr(qcore, "embed", no_embed)
        monkeypatch.setattr(comb_module, "embed", no_embed, raising=False)
        fulls, lift = [], qcore._lift
        monkeypatch.setattr(qcore, "_lift", lambda *args: fulls.append(tuple(l.name for l in args[-1])) or lift(*args))
        rng = np.random.default_rng(62)
        rho = rand_state(rng, 2, S)
        for kind in ("error", "disturbance"):
            for cfg in (ExtractionConfig(), ANALYTIC):
                extract_two_copy(rho, obs(rand_herm(rng, 2), S), proj_x(), kind, F_PM, cfg)
                assert fulls == [], (kind, cfg.method)

    @staticmethod
    def signed_zero_herm(rng, d: int) -> np.ndarray:
        """A random Hermitian matrix with some entries 0 and some -0.0, in both parts."""
        x = rand_herm(rng, d)
        for i, j in zip(*np.triu_indices(d)):
            zero = rng.integers(4)
            if zero and i == j:
                x[i, i] = complex(-0.0 if zero == 1 else 0.0, 0.0)
            elif zero:
                x[i, j] = complex(-0.0 if zero == 1 else 0.0, -0.0 if zero == 2 else 0.0)
                x[j, i] = np.conj(x[i, j])
        return x

    def test_recovery_generator_matches_embed_matrix_bitwise(self):
        # x (x) 1_S1 formed directly equals the lifted generator byte for byte, signed zeros included
        rng = np.random.default_rng(64)
        for _ in range(300):
            d_r, d1 = int(rng.integers(1, 6)), int(rng.integers(1, 5))
            readout, s1 = Label(str(rng.choice(["P", "S2", "S2o"])), d_r), Label("S1", d1)
            x = Observable((readout,), self.signed_zero_herm(rng, d_r))
            rec, want = comb_module._two_copy_recovery(x, s1), canonical_recovery(x, (readout, s1), 0.0)
            assert (rec.x, rec.target, rec.theta, rec.in_space) == (want.x, want.target, want.theta, want.in_space)
            assert rec.gen.tobytes() == qcore.embed_matrix(x.data, (readout,), (readout, s1)).tobytes()
            assert rec.gen.tobytes() == want.gen.tobytes() and not rec.gen.flags.writeable
        # both kinds, through the comb: pointer values and generators with signed zeros
        for _ in range(60):
            d, k = int(rng.integers(1, 5)), int(rng.integers(1, 6))
            lab = Label("S", d)
            rho, meas = rand_state(rng, d, lab), rand_instrument(rng, d, k, lab)
            f = [float(v) for v in rng.choice([0.0, -0.0, 1.5, -0.25], size=k)]
            gen = Observable((lab,), self.signed_zero_herm(rng, d))
            for kind, readout in (("error", Label("P", k)), ("disturbance", Label("S2", d))):
                (rec,) = two_copy_comb(rho, gen, meas, kind, f).recoveries()
                assert rec.x.space == (readout,) and rec.target == (readout, Label("S1", d)), kind
                assert rec.gen.tobytes() == qcore.embed_matrix(rec.x.data, (readout,), rec.target).tobytes(), kind

    def test_extraction_builds_the_recovery_from_checked_arrays(self, monkeypatch):
        # no canonical_recovery, embed_matrix, _lift, kron or checking Observable constructor
        rng = np.random.default_rng(65)
        lab = Label("S", 3)
        rho, gen, meas = rand_state(rng, 3, lab), obs(rand_herm(rng, 3), lab), rand_instrument(rng, 3, 2, lab)
        run = lambda: [extract_two_copy(rho, gen, meas, kind, [0.5, -1.0], cfg)
                       for kind in ("error", "disturbance") for cfg in (None, ANALYTIC)]
        want = run()

        def refuse(name):
            def call(*args, **kwargs):
                raise AssertionError(f"{name} called")
            return call

        for owner, name in ((comb_module, "canonical_recovery"), (comb_module, "embed_matrix"), (qcore, "embed_matrix"),
                            (qcore, "_lift"), (np, "kron"), (Observable, "__post_init__")):
            monkeypatch.setattr(owner, name, refuse(name))
        assert run() == want

    def test_canonical_disturbance_needs_an_instrument_that_keeps_the_dimension(self):
        # the canonical recovery couples the readout back through gen, which lives on S:2
        rng = np.random.default_rng(63)
        iso = np.linalg.qr(rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2)))[0]
        meas = Instrument((S,), (Label("O", 3),), (("0", iso),))
        gen = obs(rand_herm(rng, 2), S)
        for cfg in (ExtractionConfig(), ANALYTIC):
            with pytest.raises(ShapeError, match="needs an instrument that keeps the dimension"):
                extract_two_copy(rand_state(rng, 2, S), gen, meas, "disturbance", cfg=cfg)
        # an explicit recovery on (S2o, S1) needs no such generator
        s2o = Label("S2o", 3)
        rec = canonical_recovery(obs(rand_herm(rng, 3), s2o), (s2o, Label("S1", 2)), 0.0)
        assert extract(two_copy_comb(rand_state(rng, 2, S), gen, meas, "disturbance"), rec).value >= 0.0


def old_block_columns(rho: DensityMatrix) -> np.ndarray:
    """The square-root factor as comb formed it for each extraction before states kept theirs."""
    vals, vecs = qcore._eigh_herm(rho.data)
    keep = vals > 1e-14
    return vecs[:, keep] * np.sqrt(vals[keep])


class TestSharedFactor:
    """Each state is decomposed once: every extraction on it reads its cached square-root factor."""

    @staticmethod
    def spy(monkeypatch, rho):
        # count the decompositions of rho's matrix, wherever comb or qcore asks for one
        hits, eigh = [], qcore._eigh_herm

        def counted(h):
            hits.append(h.shape == rho.data.shape and np.array_equal(h, rho.data))
            return eigh(h)

        monkeypatch.setattr(qcore, "_eigh_herm", counted)
        monkeypatch.setattr(comb_module, "_eigh_herm", counted)
        return hits

    def test_one_decomposition_across_the_four_canonical_extractions(self, monkeypatch):
        rng = np.random.default_rng(80)
        lab = Label("S", 3)
        rho, a, b = rand_state(rng, 3, lab), obs(rand_herm(rng, 3), lab), obs(rand_herm(rng, 3), lab)
        meas, f = rand_instrument(rng, 3, 2, lab), [0.5, -1.0]
        x_ptr = Observable((Label("P", 2),), np.diag(f))
        hits = self.spy(monkeypatch, rho)
        for cfg in (ExtractionConfig(), ANALYTIC):
            extract_epsilon(rho, a, meas, canonical_recovery(x_ptr, x_ptr.space, 0.0), cfg)
            extract_eta(rho, b, meas, "canonical", cfg)
        assert sum(hits) == 1

    @pytest.mark.parametrize("kind", ["error", "disturbance"])
    @pytest.mark.parametrize("method", ["extrapolated", "analytic"])
    def test_one_decomposition_per_two_copy_extraction(self, monkeypatch, kind, method):
        rng = np.random.default_rng(81)
        rho = rand_state(rng, 2, S)
        hits = self.spy(monkeypatch, rho)
        extract_two_copy(rho, obs(rand_herm(rng, 2), S), proj_x(), kind, F_PM, ExtractionConfig(method=method))
        assert sum(hits) == 1

    def test_factor_and_grids_equal_the_old_formula_bit_for_bit(self):
        rng = np.random.default_rng(82)
        diagonal = DensityMatrix((S,), np.diag([0.75, 0.25]))
        states = (RHO0, diagonal, rand_state(rng, 2, S), rand_pure(rng, 2, S), rand_low_rank(rng, 2, 1, S))
        for rho in states:
            m = rho.sqrt_factor
            assert np.array_equal(m, old_block_columns(rho)) and not m.flags.writeable
            assert rho.sqrt_factor is m
        for name, comb in rand_combs(83, n=2):
            old = dataclasses.replace(comb, block=qcore._trusted(
                DensityMatrix, space=comb.block.space, data=comb.block.data, sqrt_factor=old_block_columns(comb.block)
            ))
            rec = comb.recoveries()[0]
            for cfg in (ExtractionConfig(), ANALYTIC):
                assert extract(comb, rec, cfg) == extract(old, rec, cfg), (name, cfg.method)
            assert np.array_equal(comb.kraus_stack(TestStackedGrid.THETAS), old.kraus_stack(TestStackedGrid.THETAS)), name

    def test_a_trusted_or_replaced_state_forms_its_own_factor(self):
        rng = np.random.default_rng(84)
        rho, other = rand_state(rng, 2, S), rand_state(rng, 2, S)
        assert np.array_equal(rho.sqrt_factor, old_block_columns(rho))  # cached on rho from here on
        replaced = dataclasses.replace(rho, data=other.data)
        trusted = qcore._trusted(DensityMatrix, space=(S,), data=other.data)
        for state in (replaced, trusted):
            assert np.array_equal(state.sqrt_factor, old_block_columns(other))
        # the two-copy block carries rho's own factor
        assert two_copy_comb(rho, obs(SIGMA_Z, S), proj_x(), "error", F_PM).block.sqrt_factor is rho.sqrt_factor


class TestFitOperator:
    """_fit_c2 reads one cached pseudo-inverse per theta grid in place of a least-squares solve per fit."""

    def test_matches_lstsq_on_random_grids(self):
        rng = np.random.default_rng(85)
        for n in (2, 3, 4, 5, 6):
            for _ in range(20):
                # descending, each theta 1.5-2.5 times the next, as the default grid halves
                th = rng.uniform(5e-3, 5e-2) / np.cumprod(np.r_[1.0, rng.uniform(1.5, 2.5, n - 1)])
                c2, c4 = rng.uniform(0.1, 3.0), rng.standard_normal()
                y = c2 * th**2 + c4 * th**4 + 1e-3 * c2 * th**2 * rng.standard_normal(n)
                design = np.stack([th**2, th**4], axis=1)
                coef = np.linalg.lstsq(design, y, rcond=None)[0]
                want = float(np.max(np.abs(design @ coef - y))) / max(float(np.max(np.abs(y))), 1e-7)
                got, residual = _fit_c2([(float(t), float(v)) for t, v in zip(th, y)], np.inf)
                assert abs(got - coef[0]) <= 1e-14 * abs(coef[0]), (n, got, coef[0])
                assert abs(residual - want) <= 1e-14, (n, residual, want)

    def test_failed_fit_keeps_its_diagnostics(self):
        th = ExtractionConfig().thetas
        grid = [(t, v) for t, v in zip(th, (1e-4, 1e-5, 3e-6, 1e-6))]
        with pytest.raises(ExtractionError, match="quadratic fit residual") as info:
            _fit_c2(grid, 1e-6)
        diag = info.value.diagnostics
        assert set(diag) == {"theta_grid", "coefficients", "residual"}
        assert diag["theta_grid"] == [list(p) for p in grid] and len(diag["coefficients"]) == 2

    def test_each_grid_gets_its_own_operator(self):
        default = _fit_operator(ExtractionConfig().thetas)
        other = _fit_operator((0.04, 0.02, 0.01))
        assert _fit_operator(ExtractionConfig().thetas) is default
        assert other[0].shape == (3, 2) and other[1].shape == (2, 3)
        assert np.allclose(other[1] @ other[0], np.eye(2), atol=1e-12)
        assert not (other[0].flags.writeable or other[1].flags.writeable)
        # a non-default grid after the default one fits its own values exactly
        rng = np.random.default_rng(86)
        rho, b = rand_state(rng, 2, S), obs(rand_herm(rng, 2), S)
        exact = extract_eta(rho, b, proj_x(), "canonical", ANALYTIC).value
        for thetas in (ExtractionConfig().thetas, (0.04, 0.02, 0.01)):
            rep = extract_eta(rho, b, proj_x(), "canonical", ExtractionConfig(thetas=thetas))
            assert [t for t, _ in rep.theta_grid] == list(thetas)
            assert abs(rep.value - exact) <= 1e-5 * exact


def proj_x():
    basis = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    return proj_instrument(basis, S)


def rand_combs(seed: int, n: int = 3):
    """(name, comb) for the error, disturbance and both two-copy combs of n random meters."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        d, k = (int(v) for v in rng.integers(2, 4, size=2))
        lab = Label("S", d)
        rho = rand_state(rng, d, lab)
        a = Observable((lab,), rand_herm(rng, d, norm=1.0))
        meas = rand_instrument(rng, d, k, lab)
        f = list(rng.standard_normal(k))
        yield "error", error_comb(rho, a, meas)
        yield "disturbance", disturbance_comb(rho, a, meas)
        yield "two-copy error", two_copy_comb(rho, a, meas, "error", f)
        yield "two-copy disturbance", two_copy_comb(rho, a, meas, "disturbance")


class TestStackedGrid:
    """The theta-stacked grid against one channel pipeline per theta."""

    THETAS = ExtractionConfig().thetas

    def test_canonical_grid_matches_per_theta_reference(self):
        for name, comb in rand_combs(31):
            got = [v for _, v in extract(comb, "canonical").theta_grid]
            want = ref_grid(comb, "canonical", self.THETAS)
            assert np.max(np.abs(np.subtract(got, want))) <= 1e-13, name

    def test_fixed_kraus_recovery_matches_per_theta_reference(self):
        for name, comb in rand_combs(32, n=2):
            fixed = comb.recoveries()[0].channel
            got = [v for _, v in extract(comb, fixed).theta_grid]
            assert np.max(np.abs(np.subtract(got, ref_grid(comb, fixed, self.THETAS)))) <= 1e-13, name

    def test_random_fixed_recovery_at_large_theta(self):
        # the kernel on the loss stack itself: under a random recovery delta^2 is not
        # O(theta^2), so the fit would reject it
        rng = np.random.default_rng(33)
        thetas = (0.7, 0.3, 1e-2)
        for name, comb in rand_combs(33, n=1):
            d_out = 2 * comb.stage.dim_out
            ops, _ = rand_kraus(rng, d_out, 2, d_out)
            fixed = KrausChannel(comb.out_space, (Q_LABEL,), ops)
            spaces = ((Q_LABEL,), comb.out_space)
            reps = irrev._delta_with_recovery(comb.kraus_stack(thetas), spaces, True, fixed, omega_pm())
            got = [rep.delta**2 for rep in reps]
            assert np.max(np.abs(np.subtract(got, ref_grid(comb, fixed, thetas)))) <= 1e-13, name

    def test_mismatched_recovery_space_rejected(self):
        rng = np.random.default_rng(34)
        rho = rand_state(rng, 2, S)
        pointer = canonical_recovery(Observable((P,), SIGMA_Z), (P,), 0.0)
        with pytest.raises(ShapeError):  # pointer recovery on the disturbance comb's (S, Q)
            extract_eta(rho, obs(SIGMA_X, S), proj_z(S), pointer)
        comb = two_copy_comb(rho, obs(SIGMA_X, S), proj_z(S), "disturbance")
        rec = comb.recoveries()[0]
        with pytest.raises(ShapeError):  # right labels, wrong order
            extract(comb, canonical_recovery(rec.x, tuple(reversed(rec.target)), 0.0))
        on_s = canonical_recovery(obs(SIGMA_X, S), (S,), 0.0).channel
        with pytest.raises(ShapeError):  # a fixed recovery from (S, Q) on the error comb's (P, Q)
            extract_epsilon(rho, obs(SIGMA_X, S), proj_z(S), on_s)

    def test_loss_and_recovery_channels_match_dense_reference(self):
        for name, comb in rand_combs(35, n=2):
            for theta in (0.0, 0.05, 0.3):
                loss_gap, recovery_gap = ref_choi_gaps(comb, theta)
                assert loss_gap <= 1e-13 and recovery_gap <= 1e-13, (name, theta)

    def test_recovery_labels_checked_at_construction(self):
        x = obs(SIGMA_X, S)
        with pytest.raises(CompositeSpaceError):  # x's label is not in the target
            canonical_recovery(x, (P,), 0.0)
        with pytest.raises(ShapeError):  # x's label is in the target with another dimension
            canonical_recovery(x, (Label("S", 3),), 0.0)

    @pytest.mark.parametrize(
        "meter",
        [
            pytest.param(lambda rho, a, meas: extract_epsilon(rho, a, meas, "canonical"), id="error"),
            pytest.param(lambda rho, a, meas: extract_eta(rho, a, meas, "canonical"), id="disturbance"),
            pytest.param(lambda rho, a, meas: extract_two_copy(rho, a, meas, "error", F_PM), id="two-copy-error"),
            pytest.param(lambda rho, a, meas: extract_two_copy(rho, a, meas, "disturbance"), id="two-copy-disturbance"),
        ],
    )
    def test_builders_reject_a_mismatched_observable_or_instrument(self, meter):
        t = Label("T", 2)
        with pytest.raises(ShapeError, match="state and observable live on different spaces"):
            meter(RHO0, obs(SIGMA_X, t), proj_z(S))
        with pytest.raises(ShapeError, match="instrument input space does not match the state"):
            meter(RHO0, obs(SIGMA_X, S), proj_z(t))

    @pytest.mark.parametrize("kind", ["error", "disturbance"])
    def test_two_copy_rejects_a_generator_or_instrument_of_another_dimension(self, kind):
        # same label name, another dimension: the two-copy block, stage and generator would not match
        s3 = Label("S", 3)
        with pytest.raises(ShapeError, match="must act on S:2"):
            extract_two_copy(RHO0, obs(np.eye(3), s3), proj_z(S), kind, F_PM)
        with pytest.raises(ShapeError, match="must act on S:2"):
            extract_two_copy(RHO0, obs(SIGMA_X, S), proj_instrument(np.eye(3, dtype=complex), s3), kind, F_PM)

    @pytest.mark.parametrize("recovery", ["canonical", OPTIMIZE])
    def test_stage_output_may_not_use_the_ancilla_label(self, recovery):
        q = Label(Q_LABEL.name, 2)
        with pytest.raises(CompositeSpaceError, match="ancilla label 'Q'"):
            extract_eta(pure_state([1, 0], (q,)), obs(SIGMA_X, q), proj_z(q), recovery)

    def test_stage_checked_at_construction(self):
        # a state on (A:2, B:3) metered by an instrument on (A:3, B:2): same names, same total dimension
        rng = np.random.default_rng(39)
        block, swapped = (Label("A", 2), Label("B", 3)), (Label("A", 3), Label("B", 2))
        rho = DensityMatrix(block, rand_state(rng, 6).data)
        a = Observable(block, rand_herm(rng, 6, norm=1.0))
        meas = Instrument(swapped, swapped, rand_instrument(rng, 6, 2).branches)
        for extract_meter in (extract_epsilon, extract_eta):
            with pytest.raises(ShapeError, match=r"stage input \(A:3, B:2\) does not match the block \(A:2, B:3\)"):
                extract_meter(rho, a, meas, "canonical")
        branch = KrausChannel((S,), (S,), (0.5 * np.eye(2),), trace_preserving=False)
        with pytest.raises(ShapeError, match="CP branch needs a branch_scale"):
            Comb(RHO0, obs(SIGMA_Z, S), branch, lambda: ())

    def test_zero_probability_branch_rejected(self):
        # the branch keeps |1> only, and the coupling never moves the block off |0>
        keep_one = KrausChannel((S,), (S,), (np.diag([0.0, 1.0]),), trace_preserving=False)
        z = obs(SIGMA_Z, S)
        recoveries = lambda: (canonical_recovery(z, (S,), 0.0),)
        comb = Comb(RHO0, z, keep_one, recoveries, branch_scale=1.0)
        fixed = recoveries()[0].channel
        for recovery, cfg in (("canonical", ExtractionConfig()), ("canonical", ANALYTIC), (fixed, ExtractionConfig())):
            with pytest.raises(BranchProbabilityError):
                extract(comb, recovery, cfg)

    def test_analytic_matches_second_derivative_reference(self):
        # below c2 ~ 1e-3 the reference's own cancellation error dominates
        checked = 0
        for name, comb in rand_combs(36):
            rec = comb.recoveries()[0]
            want = ref_analytic_c2(comb, rec.x)
            if want >= 1e-3:
                assert abs(extract(comb, rec, ANALYTIC).value - want) <= 1e-12 * want, name
                checked += 1
        assert checked == 12

    def test_analytic_branch_comb_matches_grid(self):
        # a non-maximally-mixed block gives state-dependent branch probabilities q_k
        rng = np.random.default_rng(37)
        for d in (2, 2, 3):
            lab = Label("S", d)
            op = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            t = 1.0 / np.linalg.norm(op, 2)
            branch = KrausChannel((lab,), (lab,), (t * op,), trace_preserving=False)
            v = Observable((lab,), rand_herm(rng, d, norm=1.0))
            recoveries = lambda: (canonical_recovery(v, (lab,), 0.0),)
            comb = Comb(rand_state(rng, d, lab), v, branch, recoveries, branch_scale=t)
            grid, exact = extract(comb), extract(comb, "canonical", ANALYTIC)
            assert abs(exact.value - grid.value) <= 1e-6 * grid.value
            assert abs(exact.branch_probability - grid.branch_probability) <= 1e-3 * grid.branch_probability
            # a fixed recovery's grid runs through irrev's kernel, on the same q_k / branch_scale^2
            fixed = extract(comb, comb.recoveries()[0].channel)
            assert abs(fixed.branch_probability - grid.branch_probability) <= 1e-14 * grid.branch_probability


class TestClosedForm:
    """Canonical grids and exact values from the closed forms against the dense references."""

    @pytest.mark.parametrize("seed", range(31, 41))
    def test_grid_and_analytic_match_dense_reference(self, seed):
        kinds = set()
        for name, comb in rand_combs(seed):
            rec = comb.recoveries()[0]
            got = [v for _, v in extract(comb, rec).theta_grid]
            assert np.max(np.abs(np.subtract(got, ref_grid(comb, rec, TestStackedGrid.THETAS)))) <= 1e-13, name
            want = ref_analytic_c2(comb, rec.x)
            assert want >= 1e-3 and abs(extract(comb, rec, ANALYTIC).value - want) <= 1e-12 * want, name
            kinds.add(name)
        assert len(kinds) == 4


def permuted_comb(seed: int, gen_on: tuple, x_on: tuple):
    """A comb on (A, B, C) whose generator lives on the labels gen_on, in that
    order, with a random unitary stage and a canonical recovery through an x on
    the labels x_on of the target (A, B, C)."""
    rng = np.random.default_rng(seed)
    labels = {"A": Label("A", 2), "B": Label("B", 3), "C": Label("C", 2)}
    block = tuple(labels.values())
    on = lambda names: tuple(labels[n] for n in names)
    dim = lambda names: int(np.prod([labels[n].dim for n in names]))
    gen = Observable(on(gen_on), rand_herm(rng, dim(gen_on), norm=1.0))
    x = Observable(on(x_on), rand_herm(rng, dim(x_on), norm=1.0))
    stage = KrausChannel(block, block, (rand_unitary(rng, 12),))
    rec = canonical_recovery(x, block, 0.0)
    return Comb(DensityMatrix(block, rand_state(rng, 12).data), gen, stage, lambda: (rec,)), rec


class TestFactorCoupling:
    """Generators on non-leading and permuted factors against the dense kron(x, sigma_z) references."""

    CASES = ((("B",), ("C", "A")), (("C", "A"), ("B",)), (("C",), ("B", "C")))

    def test_grid_analytic_and_channels_match_dense_reference(self):
        for i, (gen_on, x_on) in enumerate(self.CASES):
            comb, rec = permuted_comb(40 + i, gen_on, x_on)
            got = [v for _, v in extract(comb, rec).theta_grid]
            assert np.max(np.abs(np.subtract(got, ref_grid(comb, rec, TestStackedGrid.THETAS)))) <= 1e-13, x_on
            want = ref_analytic_c2(comb, rec.x)
            assert want >= 1e-3 and abs(extract(comb, rec, ANALYTIC).value - want) <= 1e-13 * want, x_on
            for theta in (0.0, 0.05, 0.3):
                loss_gap, recovery_gap = ref_choi_gaps(comb, theta)
                assert loss_gap <= 1e-13 and recovery_gap <= 1e-13, (x_on, theta)

    def test_one_half_dimension_eigh_per_coupling_generator(self, monkeypatch):
        # sigma_z is diagonal on Q: each coupling is diagonalised once, on the space without Q,
        # and not at all when it is diagonal already (the pointer generators); analytic needs none
        calls, diagonal = [], 0
        eigh = np.linalg.eigh
        same_up_to_sign = lambda a, g: a.shape == g.shape and min(np.max(np.abs(a - g)), np.max(np.abs(a + g))) <= 1e-14
        monkeypatch.setattr(np.linalg, "eigh", lambda a, *args, **kw: calls.append(np.array(a)) or eigh(a, *args, **kw))
        for name, comb in rand_combs(38, n=2):
            rec = comb.recoveries()[0]
            gens = (
                ref_embed_matrix(comb.gen.data, comb.gen.space, comb.block.space),
                ref_embed_matrix(rec.x.data, rec.x.space, rec.target),
            )
            doubled = [np.kron(g, SIGMA_Z) for g in gens] + [np.kron(SIGMA_Z, g) for g in gens]  # coupled onto Q
            grid_want = [int(np.count_nonzero(g - np.diag(np.diag(g))) > 0) for g in gens]
            diagonal += grid_want.count(0)
            for cfg, want in ((ExtractionConfig(), grid_want), (ANALYTIC, [0, 0])):
                calls.clear()
                extract(comb, rec, cfg)
                assert not [a.shape for a in calls for g in doubled if same_up_to_sign(a, g)], (name, cfg.method)
                hits = [sum(same_up_to_sign(a, g) for a in calls) for g in gens]
                assert hits == want, (name, cfg.method)
        assert diagonal == 4

    def test_no_lift_touches_the_ancilla(self, monkeypatch):
        # Q passes through every stage: the stage acts on the block alone, and no
        # embed or embed_matrix (both go through qcore._lift) ever sees Q
        fulls, lift = [], qcore._lift
        monkeypatch.setattr(qcore, "_lift", lambda *args: fulls.append(args[-1]) or lift(*args))
        comb, rec = permuted_comb(39, ("C", "A"), ("B",))
        # a canonical recovery through an x on a strict sub-space of its target lifts x onto the target
        sub = dataclasses.replace(comb, recoveries=lambda: (canonical_recovery(rec.x, rec.target, 0.0),))
        for _, comb in [*rand_combs(39, n=1), ("sub-space recovery", sub)]:
            for recovery, cfg in (("canonical", ExtractionConfig()), ("canonical", ANALYTIC), (OPTIMIZE, None)):
                extract(comb, recovery, cfg)
        assert rec.target in fulls
        for cfg in (ExtractionConfig(), ANALYTIC):
            otoc_iep(ising_chain_scenario(0.3, 3), cfg)
            otoc_iep_cp(ising_chain_scenario(0.3, 3), cfg)
        assert fulls and not [full for full in fulls if Q_LABEL.name in {l.name for l in full}]

    def test_comb_generator_labels_checked(self):
        # a generator whose label names match the block but whose dimension does not
        comb = disturbance_comb(RHO0, obs(SIGMA_X, S), proj_z(S))
        wrong = Comb(comb.block, Observable((Label("S", 3),), np.eye(3)), comb.stage, comb.recoveries)
        with pytest.raises(ShapeError):
            extract(wrong)


class TestConfig:
    def test_extraction_config_roundtrip(self):
        cfg = ExtractionConfig(
            method="analytic",
            thetas=(0.1, 0.05),
            fit_tol=1e-5,
            optimizer=OptimizerConfig(seed=3),
        )
        assert ExtractionConfig.from_json(cfg.to_json()) == cfg

    def test_defaults(self):
        cfg = ExtractionConfig.from_json({})
        assert cfg.method == "extrapolated"
        assert len(cfg.thetas) == 4
        assert cfg == ExtractionConfig()
        assert OptimizerConfig.from_json({}) == OptimizerConfig()

    def test_unknown_method_rejected(self):
        # a misspelt method must not fall through to the extrapolated grid
        for make in (lambda: ExtractionConfig(method="analytical"),
                     lambda: ExtractionConfig.from_json({"method": "analytical"})):
            with pytest.raises(ValueError, match="'extrapolated' nor 'analytic'") as info:
                make()
            assert "'analytical'" in str(info.value)

    @pytest.mark.parametrize(
        "thetas", [(0.01,), (0.3, 0.3, 0.3), (), (0.01, 0.0), (0.01, -0.005), (np.nan, 0.01), (np.inf, 0.01)]
    )
    def test_theta_grid_needs_two_distinct_positive_values(self, thetas):
        # through one distinct theta the theta^2, theta^4 fit is underdetermined: least
        # squares returns its minimum-norm solution and the residual reads 0
        for make in (lambda: ExtractionConfig(thetas=thetas), lambda: ExtractionConfig.from_json({"thetas": thetas})):
            with pytest.raises(ValueError, match="two or more distinct values, all above 0"):
                make()

    @pytest.mark.parametrize("fit_tol", [np.nan, np.inf, 0.0, -1e-6])
    def test_fit_tol_must_be_finite_and_positive(self, fit_tol):
        # nan would switch the fit gate off, and a tolerance <= 0 fails every fit
        for make in (lambda: ExtractionConfig(fit_tol=fit_tol), lambda: ExtractionConfig.from_json({"fit_tol": fit_tol})):
            with pytest.raises(ValueError, match="fit_tol needs a finite value above 0"):
                make()

    def test_iep_result_json(self):
        rep = extract_epsilon(RHO0, obs(SIGMA_X, S), proj_z(S), pm_pointer())
        d = rep.to_json()
        assert set(d) >= {"value", "theta_grid", "fit_residual", "method"}
        assert len(d["theta_grid"]) == 4
