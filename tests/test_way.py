import numpy as np
import pytest

from irrevkit import (
    ConservationError,
    DensityMatrix,
    Implementation,
    Instrument,
    Label,
    Observable,
    ScramblingScenario,
    ShapeError,
    YanaseConditionError,
    check_conservation,
    choi,
    commutant_projection,
    conserving_disturbance_implementation,
    conserving_error_implementation,
    conserving_otoc_implementation,
    maximally_mixed,
    pointer_channel,
    pure_state,
    realized_channel,
    swap_implementation,
    validate_channel,
    way_bound_disturbance,
    way_bound_error,
    way_bound_error_yanase,
    way_bound_otoc,
    y_operator,
)
from irrevkit import way
from conftest import SIGMA_X, SIGMA_Z, proj_x, rand_herm, rand_state

S = Label("S", 2)
CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
RHO_PLUS_I = pure_state([1, 1j], (S,))


def tight_instance():
    """CNOT pointer coupling saturating the Yanase-form bound exactly."""
    impl, meas = conserving_error_implementation(
        Observable((S,), SIGMA_Z),
        (0.0, 0.0),
        np.array([1.0, 0.0], dtype=complex),
        u_meas=CNOT,
    )
    return impl, meas


def _error_case(bound):
    impl, meas = tight_instance()
    return impl, lambda charges: bound(RHO_PLUS_I, Observable((S,), SIGMA_X), meas, charges, impl)


def _disturbance_case():
    impl, meas = swap_implementation(Observable((S,), SIGMA_Z), maximally_mixed((Label("B1", 2),)))
    return impl, lambda charges: way_bound_disturbance(RHO_PLUS_I, Observable((S,), SIGMA_X), meas, charges, impl)


def _otoc_case():
    zero = Observable((S,), np.zeros((2, 2), dtype=complex))
    s = ScramblingScenario(zero, Observable((S,), SIGMA_X), Observable((S,), SIGMA_Z), 0.0)
    rng = np.random.default_rng(0)
    b = Label("B", 3)
    chi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    impl = conserving_otoc_implementation(
        s, Observable((S,), SIGMA_Z), Observable((b,), rand_herm(rng, 3)), pure_state(chi, (b,)), rng, lam=0.4
    )
    return impl, lambda charges: way_bound_otoc(s, charges, impl)


# each public bound as (implementation, call taking a charges override)
BOUNDS = {
    "way_bound_error": lambda: _error_case(way_bound_error),
    "way_bound_error_yanase": lambda: _error_case(way_bound_error_yanase),
    "way_bound_disturbance": _disturbance_case,
    "way_bound_otoc": _otoc_case,
}


@pytest.mark.parametrize("bound", sorted(BOUNDS))
def test_charges_override_is_checked(bound):
    impl, run = BOUNDS[bound]()
    assert run(dict(impl.charges)).slack >= -1e-9
    bad = dict(impl.charges)
    bad["alpha"] = Observable(impl.charges["alpha"].space, SIGMA_X)
    with pytest.raises(ConservationError):
        run(bad)


@pytest.mark.parametrize("bound", sorted(BOUNDS))
def test_charges_override_dimension_is_checked(bound):
    impl, run = BOUNDS[bound]()
    bad = dict(impl.charges)
    bad["alpha"] = Observable((Label("S", 3),), np.eye(3))
    with pytest.raises(ShapeError, match="'alpha' has dimension 3, but in_alpha has dimension 2"):
        run(bad)


@pytest.mark.parametrize(
    "slot, part", [("alpha", "in_alpha"), ("beta", "in_beta"), ("alpha_out", "out_alpha"), ("beta_out", "out_beta")]
)
@pytest.mark.parametrize("bound", sorted(BOUNDS))
def test_charges_override_missing_slot_is_named(bound, slot, part):
    impl, run = BOUNDS[bound]()
    bad = {k: v for k, v in impl.charges.items() if k != slot}
    with pytest.raises(ShapeError, match=f"charges have no '{slot}' slot; {part} needs one"):
        run(bad)


class TestImplementation:
    def test_conservation_exact_for_generated_error_impl(self):
        rng = np.random.default_rng(1)
        impl, _ = conserving_error_implementation(
            Observable((S,), SIGMA_Z),
            (0.3, -0.7),
            np.array([0.6, 0.8], dtype=complex),
            rng=rng,
        )
        assert check_conservation(impl) < 1e-9

    def test_non_unitary_rejected(self):
        impl, _ = tight_instance()
        with pytest.raises(ConservationError):
            Implementation(
                impl.rho_beta,
                impl.u * 1.5,
                impl.charges,
                impl.in_alpha,
                impl.in_beta,
                impl.out_alpha,
                impl.out_beta,
            )

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    def test_non_finite_unitary_rejected(self, entry):
        # a NaN fails every comparison, so the unitarity defect must be required to be small
        impl, _ = swap_implementation(Observable((S,), SIGMA_Z), maximally_mixed((Label("B1", 2),)))
        u = impl.u.copy()
        u[0, 0] = entry
        with pytest.raises(ConservationError, match="U is not unitary"):
            Implementation(impl.rho_beta, u, impl.charges, impl.in_alpha, impl.in_beta, impl.out_alpha, impl.out_beta)

    @pytest.mark.parametrize("slot", ["alpha", "beta", "alpha_out", "beta_out"])
    def test_charge_dimension_checked_per_slot(self, slot):
        impl, _ = tight_instance()
        bad = dict(impl.charges)
        bad[slot] = Observable((Label("X", 3),), np.eye(3))
        with pytest.raises(ShapeError, match=f"charge '{slot}' has dimension 3"):
            Implementation(
                impl.rho_beta, impl.u, bad, impl.in_alpha, impl.in_beta, impl.out_alpha, impl.out_beta
            )

    def test_missing_charge_slot_is_named(self):
        impl, _ = tight_instance()
        only_alpha = {"alpha": impl.charges["alpha"]}
        with pytest.raises(ShapeError, match="charges have no 'beta' slot; in_beta needs one"):
            Implementation(
                impl.rho_beta, impl.u, only_alpha, impl.in_alpha, impl.in_beta, impl.out_alpha, impl.out_beta
            )

    def test_realized_channel_is_the_dephased_pointer(self):
        impl, meas = tight_instance()
        got = realized_channel(impl)
        want = pointer_channel(meas, Label("P", 2))
        assert np.max(np.abs(choi(got) - choi(want))) < 1e-10
        assert validate_channel(got)["ok"]

    def test_y_operator_with_zero_pointer_charge(self):
        impl, meas = tight_instance()
        y = y_operator(pointer_channel(meas, Label("P", 2)), impl.charges)
        # pointer carries no charge here, so nothing is subtracted from X_S
        assert np.max(np.abs(y.data - SIGMA_Z)) < 1e-10

    def test_y_operator_refuses_a_charge_of_another_dimension(self):
        # Y is built unchecked, so a 1-dim X_alpha must not broadcast against the 2-dim pull-back
        impl, meas = tight_instance()
        charges = {**impl.charges, "alpha": Observable((Label("A", 1),), [[1.0]])}
        with pytest.raises(ShapeError, match="charge 'alpha' has dimension 1"):
            y_operator(pointer_channel(meas, Label("P", 2)), charges)


class TestErrorBound:
    def test_tight_instance_saturates(self):
        impl, meas = tight_instance()
        rep = way_bound_error_yanase(
            RHO_PLUS_I, Observable((S,), SIGMA_X), meas, None, impl
        )
        assert abs(rep.lhs - 1.0) < 1e-12
        assert abs(rep.rhs - 1.0) < 1e-12
        assert rep.slack >= -1e-9
        assert abs(rep.terms["commutator_expectation"] - 2.0) < 1e-12
        assert abs(rep.terms["qfi_state"] - 4.0) < 1e-12
        assert rep.terms["fisher_cost_upper"] < 1e-12

    def test_full_bound_holds_on_tight_instance(self):
        impl, meas = tight_instance()
        rep = way_bound_error(RHO_PLUS_I, Observable((S,), SIGMA_X), meas, None, impl)
        assert rep.slack >= -1e-9
        # 2 / (sqrt(0) + sqrt(4) + 2 sqrt(0)): the full bound is tight here too
        assert abs(rep.rhs - 1.0) < 1e-12
        want = {"commutator_expectation": 2.0, "qfi_state": 4.0, "fisher_cost_upper": 0.0, "variance_out": 0.0}
        assert set(rep.terms) == set(want)
        for key, value in want.items():
            assert abs(rep.terms[key] - value) < 1e-12, key

    def test_seeded_corpus_positive_slack(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            shifts = tuple(rng.standard_normal(2))
            chi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            impl, meas = conserving_error_implementation(
                Observable((S,), SIGMA_Z), shifts, chi, rng=rng
            )
            rho = rand_state(rng, 2, S)
            a = Observable((S,), rand_herm(rng, 2))
            rep = way_bound_error(rho, a, meas, None, impl)
            assert rep.slack >= -1e-9

    def test_wrong_target_instrument_rejected(self):
        impl, _ = tight_instance()
        with pytest.raises(ConservationError):
            way_bound_error(RHO_PLUS_I, Observable((S,), SIGMA_X), proj_x(S), None, impl)

    def test_realized_channel_of_other_dimensions_rejected(self):
        # the qubit implementation cannot realize the pointer channel of a qutrit measurement
        impl, _ = tight_instance()
        s3 = Label("S", 3)
        meas = Instrument((s3,), (s3,), tuple((str(i), np.diag(np.eye(3)[i]).astype(complex)) for i in range(3)))
        with pytest.raises(ConservationError, match="implementation and measurement channel dimensions differ"):
            way_bound_error(pure_state([1, 0, 0], (s3,)), Observable((s3,), np.eye(3)), meas, None, impl)

    def test_yanase_condition_gate(self):
        impl, meas = tight_instance()
        skew = dict(impl.charges)
        skew["alpha_out"] = Observable(impl.charges["alpha_out"].space, SIGMA_X)
        # the Yanase condition is checked before conservation, which skew also breaks
        with pytest.raises(YanaseConditionError):
            way_bound_error_yanase(RHO_PLUS_I, Observable((S,), SIGMA_X), meas, skew, impl)


class TestDisturbanceBound:
    def test_seeded_corpus_positive_slack(self):
        b_label = Label("B1", 2)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            chi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            impl, meas = conserving_disturbance_implementation(
                Observable((S,), SIGMA_Z),
                Observable((b_label,), SIGMA_Z.astype(complex)),
                pure_state(chi, (b_label,)),
                rng,
            )
            rho = rand_state(rng, 2, S)
            b = Observable((S,), rand_herm(rng, 2))
            rep = way_bound_disturbance(rho, b, meas, None, impl)
            assert rep.slack >= -1e-9

    def test_resonant_charge_gives_nontrivial_bound(self):
        b_label = Label("B1", 2)
        rng = np.random.default_rng(5)
        chi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        impl, meas = conserving_disturbance_implementation(
            Observable((S,), SIGMA_Z),
            Observable((b_label,), SIGMA_Z.astype(complex)),
            pure_state(chi, (b_label,)),
            rng,
        )
        rep = way_bound_disturbance(RHO_PLUS_I, Observable((S,), SIGMA_X), meas, None, impl)
        assert rep.rhs > 0.01
        assert rep.slack >= -1e-9

    def test_instrument_is_the_realized_channel(self, monkeypatch):
        # the branches are realized_channel's Kraus operators, read from rho_beta's cached
        # square-root factor: one decomposition of a pure, non-diagonal ancilla, and for it
        # the induced instrument (I (x) <m|) U (I (x) |chi>), chi its eigenvector
        b_label = Label("B1", 2)
        rho_beta = pure_state([0.6, 0.3 + 0.7j], (b_label,))
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a, *args, **kw: calls.append(np.array(a)) or eigh(a, *args, **kw))
        impl, meas = conserving_disturbance_implementation(
            Observable((S,), SIGMA_Z), Observable((b_label,), SIGMA_Z.astype(complex)), rho_beta, np.random.default_rng(3)
        )
        realized_channel(impl)
        assert sum(a.shape == rho_beta.data.shape and np.array_equal(a, rho_beta.data) for a in calls) == 1
        chi = eigh(rho_beta.data)[1][:, -1]
        induced = way._induced_instrument(impl.u, chi, 2, 2, (S,))
        assert meas.outcomes == induced.outcomes
        assert np.max(np.abs(meas.kraus - induced.kraus)) <= 1e-15


class TestSwap:
    def test_swap_measures_by_reprepare(self):
        sigma = maximally_mixed((Label("B1", 2),))
        impl, meas = swap_implementation(Observable((S,), SIGMA_Z), sigma)
        assert check_conservation(impl) < 1e-9
        rep = way_bound_disturbance(RHO_PLUS_I, Observable((S,), SIGMA_X), meas, None, impl)
        assert rep.slack >= -1e-9

    def test_sigma_is_decomposed_once(self, monkeypatch):
        # the ancilla state carries sigma's square-root factor into realized_channel
        s3 = Label("S", 3)
        sigma = DensityMatrix((Label("B", 3),), np.array([[0.5, 0.1j, 0.05], [-0.1j, 0.3, 0.0], [0.05, 0.0, 0.2]]))
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a, *args, **kw: calls.append(np.array(a)) or eigh(a, *args, **kw))
        impl, _ = swap_implementation(Observable((s3,), np.diag([1.0, 0.0, -1.0])), sigma)
        realized_channel(impl)
        assert sum(a.shape == sigma.data.shape and np.array_equal(a, sigma.data) for a in calls) == 1

    def test_ancilla_of_another_dimension_is_refused(self):
        with pytest.raises(ShapeError, match="ancilla state has dimension 3, but the system has dimension 2"):
            swap_implementation(Observable((S,), SIGMA_Z), maximally_mixed((Label("B", 3),)))


class TestCommutantProjection:
    def test_projected_matrix_commutes(self):
        rng = np.random.default_rng(9)
        x_tot = np.kron(SIGMA_Z, np.eye(2)) + np.kron(np.eye(2), SIGMA_Z)
        h = rand_herm(rng, 4)
        p = commutant_projection(h, x_tot)
        assert np.max(np.abs(p @ x_tot - x_tot @ p)) < 1e-12

    def test_commuting_input_is_fixed(self):
        x_tot = np.kron(SIGMA_Z, np.eye(2)) + np.kron(np.eye(2), SIGMA_Z)
        assert np.max(np.abs(commutant_projection(x_tot, x_tot) - x_tot)) < 1e-12


class TestReport:
    def test_way_report_json(self):
        impl, meas = tight_instance()
        rep = way_bound_error(RHO_PLUS_I, Observable((S,), SIGMA_X), meas, None, impl)
        d = rep.to_json()
        assert set(d) >= {"lhs", "rhs", "slack", "terms"}
        assert isinstance(d["terms"], dict)
