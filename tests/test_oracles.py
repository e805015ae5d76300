import math
from fractions import Fraction

import numpy as np
import pytest

from irrevkit import (
    BlochError,
    DistributionError,
    ExtractionConfig,
    Instrument,
    Label,
    Observable,
    OutcomeFunctionError,
    ShapeError,
    akg_unbiasedness_check,
    blw_calibration_error_qubit,
    bloch_from_state,
    extract_epsilon,
    extract_eta,
    lt_disturbance,
    lt_error,
    maximally_mixed,
    outcome_values,
    ozawa_disturbance,
    ozawa_error,
    pure_state,
    state_from_bloch,
    wasserstein2_discrete,
)
from irrevkit.errors import IrrevkitError
from conftest import (
    SIGMA_X,
    SIGMA_Z,
    proj_z,
    rand_herm,
    rand_instrument,
    rand_pure,
    rand_state,
    ref_lt_disturbance,
    ref_lt_error,
    ref_ozawa_disturbance,
    ref_ozawa_error,
)

S = Label("S", 2)
F_PM = {"0": 1.0, "1": -1.0}


class TestOutcomeValues:
    def test_mapping_form(self):
        vals = outcome_values(proj_z(S), F_PM)
        assert np.allclose(vals, [1.0, -1.0])

    def test_sequence_form(self):
        vals = outcome_values(proj_z(S), [2.0, 3.0])
        assert np.allclose(vals, [2.0, 3.0])

    def test_missing_outcome_rejected(self):
        with pytest.raises((OutcomeFunctionError, IrrevkitError)):
            outcome_values(proj_z(S), {"0": 1.0})

    @pytest.mark.parametrize("f", [{"0": 1.0, "1": np.nan}, [1.0, np.inf], [1.0, -np.inf]])
    def test_non_finite_value_names_its_outcome(self, f):
        with pytest.raises(OutcomeFunctionError, match="outcome '1'"):
            outcome_values(proj_z(S), f)


class TestSystemCheck:
    @pytest.mark.parametrize(
        "meter",
        [
            pytest.param(lambda rho, a, meas: ozawa_error(rho, a, meas, F_PM), id="ozawa_error"),
            pytest.param(ozawa_disturbance, id="ozawa_disturbance"),
            pytest.param(lt_error, id="lt_error"),
            pytest.param(lt_disturbance, id="lt_disturbance"),
            pytest.param(lambda rho, a, meas: extract_epsilon(rho, a, meas, "canonical"), id="extract_epsilon"),
        ],
    )
    def test_observable_of_another_dimension_is_refused(self, meter):
        # the state's label name at another dimension: the whole spaces differ, not only their names
        s3 = Label("S", 3)
        with pytest.raises(ShapeError, match="state and observable live on different spaces"):
            meter(maximally_mixed((S,)), Observable((s3,), np.eye(3)), proj_z(S))


class TestOzawa:
    def test_sharp_measurement_of_its_own_observable(self):
        rng = np.random.default_rng(0)
        rho = rand_state(rng, 2, S)
        a = Observable((S,), SIGMA_Z)
        assert ozawa_error(rho, a, proj_z(S), F_PM) < 1e-9

    def test_conjugate_observable_error(self):
        # squared error convention: <A^2> + <f^2> - 2 Re<f A> = 1 + 1 - 0
        rho = pure_state([1, 0], (S,))
        a = Observable((S,), SIGMA_X)
        assert abs(ozawa_error(rho, a, proj_z(S), F_PM) - 2.0) < 1e-12

    def test_nan_outcome_value_rejected(self):
        rho = pure_state([1, 0], (S,))
        with pytest.raises(OutcomeFunctionError, match="outcome '0'"):
            ozawa_error(rho, Observable((S,), SIGMA_X), proj_z(S), {"0": np.nan, "1": 1.0})

    def test_disturbance_of_conjugate_observable(self):
        rho = pure_state([1, 0], (S,))
        b = Observable((S,), SIGMA_X)
        assert abs(ozawa_disturbance(rho, b, proj_z(S)) - 2.0) < 1e-12

    def test_commuting_observable_undisturbed(self):
        rho = pure_state([1, 0], (S,))
        assert ozawa_disturbance(rho, Observable((S,), SIGMA_Z), proj_z(S)) < 1e-9


class TestUnbiasedness:
    def test_projective_at_eigenvalues_unbiased(self):
        ok, dev = akg_unbiasedness_check(proj_z(S), Observable((S,), SIGMA_Z), F_PM)
        assert ok and dev < 1e-12

    def test_conjugate_readout_biased(self):
        ok, dev = akg_unbiasedness_check(proj_z(S), Observable((S,), SIGMA_X), F_PM)
        assert not ok and dev > 0.5


class TestLt:
    def test_frozen_qubit_case(self):
        rho = pure_state([1, 0], (S,))
        value, fstar = lt_error(rho, Observable((S,), SIGMA_X), proj_z(S))
        assert abs(value - 1.0) < 1e-12
        assert all(abs(v) < 1e-12 for v in fstar.values())

    def test_disturbance_frozen_qubit_case(self):
        rho = pure_state([1, 0], (S,))
        value, x = lt_disturbance(rho, Observable((S,), SIGMA_X), proj_z(S))
        assert abs(value - 1.0) < 1e-12
        assert np.max(np.abs(x.data)) < 1e-9

    def test_lt_never_exceeds_ozawa(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            d = int(rng.integers(2, 4))
            lab = Label("S", d)
            rho = rand_state(rng, d, lab)
            a = Observable((lab,), rand_herm(rng, d))
            meas = rand_instrument(rng, d, 3, lab)
            lt, fstar = lt_error(rho, a, meas)
            f_rand = {m: float(v) for m, v in zip(meas.outcomes, rng.standard_normal(3))}
            assert ozawa_error(rho, a, meas, f_rand) >= lt - 1e-10
            assert abs(ozawa_error(rho, a, meas, fstar) - lt) < 1e-8

    def test_lt_disturbance_never_exceeds_ozawa(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            rho = rand_state(rng, 2, S)
            b = Observable((S,), rand_herm(rng, 2))
            meas = rand_instrument(rng, 2, 2, S)
            lt, _ = lt_disturbance(rho, b, meas)
            assert ozawa_disturbance(rho, b, meas) >= lt - 1e-10


def _blocked(rng, d: int):
    """A pure state psi and an instrument of d - 1 random branches on psi plus the
    projector onto its complement: that outcome has probability 0, and I_M(rho) has
    rank at most d - 1, so lt_disturbance drops eigenvalue pairs."""
    lab = Label("S", d)
    rho = rand_pure(rng, d, lab)
    perp = np.eye(d) - rho.data
    ops = [op @ rho.data for _, op in rand_instrument(rng, d, d - 1, lab).branches] + [perp]
    return rho, Instrument((lab,), (lab,), tuple((str(i), op) for i, op in enumerate(ops)))


def _full(rng, d: int):
    lab = Label("S", d)
    return rand_state(rng, d, lab), rand_instrument(rng, d, int(rng.integers(2, 5)), lab)


class TestStackedOracles:
    """The closed forms, one product over the Kraus stack and the Ozawa pair through the
    state's square-root factor, against one loop per branch through the full square root
    (the blocked case's state is pure, so its factor has one column)."""

    @staticmethod
    def _close(got: float, want: float):
        assert abs(got - want) <= 1e-13 * abs(want)

    @pytest.mark.parametrize("make", [_full, _blocked], ids=["full-rank", "blocked"])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_match_the_branch_loops(self, make, d):
        rng = np.random.default_rng(40 + d)
        for _ in range(4):
            rho, meas = make(rng, d)
            lab = meas.in_space
            a, b = (Observable(lab, rand_herm(rng, d)) for _ in range(2))
            f = {m: float(v) for m, v in zip(meas.outcomes, rng.standard_normal(len(meas.outcomes)))}
            self._close(ozawa_error(rho, a, meas, f), ref_ozawa_error(rho, a, meas, f))
            self._close(ozawa_disturbance(rho, b, meas), ref_ozawa_disturbance(rho, b, meas))
            (value, fstar), (ref_value, ref_f) = lt_error(rho, a, meas), ref_lt_error(rho, a, meas)
            assert fstar == ref_f  # bit for bit
            self._close(value, ref_value)
            (value, x), (ref_value, ref_x) = lt_disturbance(rho, b, meas), ref_lt_disturbance(rho, b, meas)
            self._close(value, ref_value)
            assert np.max(np.abs(x.data - ref_x)) <= 1e-13 * np.max(np.abs(ref_x))

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_blocked_case_reaches_both_guards(self, d):
        # the zero-probability outcome gets f(m) = 0, and I_M(rho) is rank deficient
        rho, meas = _blocked(np.random.default_rng(50 + d), d)
        _, fstar = lt_error(rho, Observable(meas.in_space, rand_herm(np.random.default_rng(0), d)), meas)
        assert fstar[str(d - 1)] == 0.0
        out = sum(op @ rho.data @ op.conj().T for _, op in meas.branches)
        assert np.linalg.matrix_rank(out, tol=1e-12) < d


def _weak_meter(rng, d: int, eps: float) -> Instrument:
    """M_+- = sqrt((1 +- eps G) / 2) for a random Hermitian G of operator norm 1."""
    lab = Label("S", d)
    g, v = np.linalg.eigh(rand_herm(rng, d, norm=1.0))
    ops = [(v * np.sqrt((1 + s * eps * g) / 2)) @ v.conj().T for s in (1, -1)]
    return Instrument((lab,), (lab,), (("+", ops[0]), ("-", ops[1])))


class TestWeakMeter:
    """A weak meter barely disturbs B, so an objective expanded as <B^2> - 2<B o I'(X)> + <I'(X^2)>
    cancels terms of size <B^2>; the Ozawa form at X keeps its relative accuracy, and meets the
    analytic extraction under the comb's canonical recovery, which is generated by that X."""

    @pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-6])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_lt_disturbance_meets_the_analytic_extraction(self, d, eps):
        rng = np.random.default_rng(60 + d)
        for _ in range(5):
            meas = _weak_meter(rng, d, eps)
            rho, b = rand_state(rng, d, Label("S", d)), Observable(meas.in_space, rand_herm(rng, d))
            value = lt_disturbance(rho, b, meas)[0]
            want = extract_eta(rho, b, meas, "canonical", ExtractionConfig(method="analytic")).value
            assert abs(value - want) <= 1e-13 * want


class TestBlwQubit:
    def test_orthogonal_directions(self):
        assert abs(blw_calibration_error_qubit([0, 0, 1], [1, 0, 0]) - np.sqrt(2)) < 1e-12

    def test_aligned_directions_vanish(self):
        assert blw_calibration_error_qubit([0, 0, 1], [0, 0, 1]) < 1e-12

    def test_antiparallel_directions(self):
        assert abs(blw_calibration_error_qubit([0, 0, 1], [0, 0, -1]) - 2.0) < 1e-12


class TestWasserstein:
    def test_identical_distributions(self):
        assert wasserstein2_discrete([0, 1], [0.5, 0.5], [0, 1], [0.5, 0.5]) < 1e-12

    def test_point_masses(self):
        assert abs(wasserstein2_discrete([0.0], [1.0], [3.0], [1.0]) - 3.0) < 1e-12

    def test_mass_rebalancing(self):
        # monotone coupling moves half the mass across distance 1
        w = wasserstein2_discrete([0.0, 1.0], [0.25, 0.75], [0.0, 1.0], [0.75, 0.25])
        assert abs(w - 0.7071067811865476) < 1e-12

    def test_unsorted_support_handled(self):
        a = wasserstein2_discrete([1.0, 0.0], [0.75, 0.25], [0.0, 1.0], [0.75, 0.25])
        b = wasserstein2_discrete([0.0, 1.0], [0.25, 0.75], [0.0, 1.0], [0.75, 0.25])
        assert abs(a - b) < 1e-12

    def test_bad_weights_rejected(self):
        with pytest.raises(DistributionError):
            wasserstein2_discrete([0, 1], [0.9, 0.3], [0, 1], [0.5, 0.5])


def _exact_w2(xs, px, ys, py) -> float:
    """The monotone coupling in rational arithmetic, up to the lighter total."""
    a, b = (sorted(zip(map(Fraction, v), map(Fraction, p))) for v, p in ((xs, px), (ys, py)))
    i = j = 0
    cost, mx, my = Fraction(0), a[0][1], b[0][1]
    while i < len(a) and j < len(b):
        step = min(mx, my)
        cost, mx, my = cost + step * (a[i][0] - b[j][0]) ** 2, mx - step, my - step
        if not mx:
            i += 1
            mx = a[i][1] if i < len(a) else 0
        if not my:
            j += 1
            my = b[j][1] if j < len(b) else 0
    return math.sqrt(cost)


class TestQuantileMerge:
    def test_meets_the_exact_coupling(self):
        # ties (integer support), zero-mass atoms and a mass mismatch below 1e-9 among the draws
        rng = np.random.default_rng(8)
        for i in range(300):
            n, m = rng.integers(1, 7, size=2)
            xs, ys = rng.standard_normal(n), rng.standard_normal(m)
            if i % 3 == 0:
                xs, ys = np.round(xs), np.round(ys)
            px, py = rng.random(n), rng.random(m)
            if i % 5 == 0 and n > 1:
                px[0] = 0.0
            px, py = px / px.sum(), py / py.sum() * (1 + rng.uniform(-9e-10, 9e-10) * (i % 2))
            got, want = wasserstein2_discrete(xs, px, ys, py), _exact_w2(xs, px, ys, py)
            assert abs(got - want) <= 1e-13 * want or got == want, (i, got, want)

    def test_heavier_side_surplus_stays_uncoupled(self):
        # the 1e-10 of extra mass at 5 would add 1e-10 * 25 to the cost if it were coupled
        assert wasserstein2_discrete([0.0], [1.0], [0.0, 5.0], [1.0, 1e-10]) == 0.0


class TestBloch:
    def test_roundtrip(self):
        rng = np.random.default_rng(3)
        rho = rand_state(rng, 2, S)
        back = state_from_bloch(bloch_from_state(rho), S)
        assert np.max(np.abs(back.data - rho.data)) < 1e-12

    def test_center_is_maximally_mixed(self):
        assert np.max(np.abs(state_from_bloch([0, 0, 0], S).data - maximally_mixed((S,)).data)) < 1e-12

    def test_outside_ball_rejected(self):
        with pytest.raises(BlochError):
            state_from_bloch([0.9, 0.9, 0.9], S)

    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda: state_from_bloch([0, 1]), id="state_from_bloch"),
            pytest.param(lambda: blw_calibration_error_qubit([0, 0, 1], [1, 0]), id="blw-comparison"),
            pytest.param(lambda: blw_calibration_error_qubit([0, 0, 0, 1], [0, 0, 1]), id="blw-reference"),
        ],
    )
    def test_wrong_length_rejected(self, call):
        with pytest.raises(BlochError, match="three entries"):
            call()
