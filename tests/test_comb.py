import numpy as np
import pytest

from irrevkit import (
    OPTIMIZE,
    CanonicalRecovery,
    ExtractionConfig,
    Label,
    Observable,
    OptimizerConfig,
    canonical_recovery,
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
from irrevkit.comb import Q_LABEL
from conftest import (
    SIGMA_X,
    SIGMA_Z,
    obs,
    proj_instrument,
    proj_z,
    rand_herm,
    rand_instrument,
    rand_state,
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
