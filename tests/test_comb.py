import numpy as np
import pytest

from irrevkit import (
    OPTIMIZE,
    BranchProbabilityError,
    CanonicalRecovery,
    Comb,
    ExtractionConfig,
    KrausChannel,
    Label,
    Observable,
    OptimizerConfig,
    CompositeSpaceError,
    ShapeError,
    canonical_recovery,
    embed,
    extract,
    extract_epsilon,
    extract_eta,
    extract_two_copy,
    lt_disturbance,
    lt_error,
    omega_pm,
    ozawa_disturbance,
    ozawa_error,
    pure_state,
    validate_channel,
)
from irrevkit.comb import Q_LABEL, _disturbance_comb, _error_comb, _grid, _two_copy_comb
from conftest import (
    SIGMA_X,
    SIGMA_Z,
    obs,
    proj_instrument,
    proj_z,
    rand_herm,
    rand_instrument,
    rand_kraus,
    rand_state,
    ref_choi_gaps,
    ref_grid,
)

S = Label("S", 2)
P = Label("P", 2)
F_PM = {"0": 1.0, "1": -1.0}
RHO0 = pure_state([1, 0], (S,))


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

    def test_optimized_never_exceeds_canonical(self):
        cfg = ExtractionConfig(optimizer=OptimizerConfig(max_iters=120, restarts=1))
        canonical = extract_epsilon(RHO0, obs(SIGMA_X, S), proj_z(S), pm_pointer(), cfg)
        optimized = extract_epsilon(RHO0, obs(SIGMA_X, S), proj_z(S), OPTIMIZE, cfg)
        assert optimized.value <= canonical.value + 1e-6


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


class TestTwoCopy:
    def test_frozen_qubit_calibration(self):
        # generator z measured along x: 2 |z . (z - x)| = 2
        rep = extract_two_copy(RHO0, obs(SIGMA_Z, S), proj_x(), "error", f=F_PM)
        assert abs(rep.value - 2.0) < 1e-6

    def test_error_kind_requires_f(self):
        with pytest.raises((ValueError, TypeError)):
            extract_two_copy(RHO0, obs(SIGMA_Z, S), proj_x(), "error")

    def test_disturbance_kind(self):
        rep = extract_two_copy(RHO0, obs(SIGMA_Z, S), proj_x(), "disturbance")
        assert rep.value >= -1e-9


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
        yield "error", _error_comb(rho, a, meas)
        yield "disturbance", _disturbance_comb(rho, a, meas)
        yield "two-copy error", _two_copy_comb(rho, a, meas, "error", f)
        yield "two-copy disturbance", _two_copy_comb(rho, a, meas, "disturbance")


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
        # _grid itself: under a random recovery delta^2 is not O(theta^2), so the fit would reject it
        rng = np.random.default_rng(33)
        thetas = (0.7, 0.3, 1e-2)
        for name, comb in rand_combs(33, n=1):
            d_out = comb.stage.dim_out
            ops, _ = rand_kraus(rng, d_out, 2, d_out)
            fixed = KrausChannel(comb.stage.out_space, (Q_LABEL,), ops)
            got, _ = _grid(comb, fixed, thetas)
            assert np.max(np.abs(got - ref_grid(comb, fixed, thetas))) <= 1e-13, name

    def test_mismatched_recovery_space_rejected(self):
        rng = np.random.default_rng(34)
        rho = rand_state(rng, 2, S)
        pointer = canonical_recovery(Observable((P,), SIGMA_Z), (P,), 0.0)
        with pytest.raises(ShapeError):  # pointer recovery on the disturbance comb's (S, Q)
            extract_eta(rho, obs(SIGMA_X, S), proj_z(S), pointer)
        comb = _two_copy_comb(rho, obs(SIGMA_X, S), proj_z(S), "disturbance")
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

    def test_zero_probability_branch_rejected(self):
        # the branch keeps |1> only, and the coupling never moves the block off |0>
        keep_one = KrausChannel((S,), (S,), (np.diag([0.0, 1.0]),), trace_preserving=False)
        z = obs(SIGMA_Z, S)
        recoveries = lambda: (canonical_recovery(z, (S,), 0.0),)
        comb = Comb(RHO0, z, embed(keep_one, (S, Q_LABEL)), recoveries, branch_scale=1.0)
        with pytest.raises(BranchProbabilityError):
            extract(comb, "canonical")


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

    def test_iep_result_json(self):
        rep = extract_epsilon(RHO0, obs(SIGMA_X, S), proj_z(S), pm_pointer())
        d = rep.to_json()
        assert set(d) >= {"value", "theta_grid", "fit_residual", "method"}
        assert len(d["theta_grid"]) == 4
