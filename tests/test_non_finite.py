"""Public entries that take raw numbers refuse NaN and ±inf with their documented error, and none hangs."""

import numpy as np
import pytest

from irrevkit import (
    BlochError,
    DistributionError,
    Instrument,
    Label,
    Observable,
    StateValidityError,
    blw_calibration_error_qubit,
    canonical_recovery,
    commutant_projection,
    conserving_error_implementation,
    error_comb,
    maximally_mixed,
    state_from_bloch,
    wasserstein2_discrete,
)
from conftest import deadline

S = Label("S", 2)
Z = Observable((S,), np.diag([1.0, -1.0]))
PROJ_Z = Instrument((S,), (S,), (("0", np.diag([1.0, 0.0])), ("1", np.diag([0.0, 1.0]))))
COMB = error_comb(maximally_mixed((S,)), Z, PROJ_Z)
CNOT = np.eye(4)[[0, 1, 3, 2]]

# entry -> (call with the bad number x, documented error)
TABLE = {
    "wasserstein2_discrete-weight": (lambda x: wasserstein2_discrete([0, 1], [0.5, x], [0], [1]), DistributionError),
    "wasserstein2_discrete-value": (lambda x: wasserstein2_discrete([0, x], [0.5, 0.5], [0], [1]), DistributionError),
    "blw_calibration_error_qubit-reference": (lambda x: blw_calibration_error_qubit([x, 0, 0], [0, 0, 1]), BlochError),
    "blw_calibration_error_qubit-comparison": (lambda x: blw_calibration_error_qubit([0, 0, 1], [x, 0, 0]), BlochError),
    "state_from_bloch": (lambda x: state_from_bloch([x, 0, 0]), BlochError),
    "CanonicalRecovery": (lambda x: canonical_recovery(Z, (S,), x), ValueError),
    "Comb.loss": (lambda x: COMB.loss(x), ValueError),
    "Comb.kraus_stack": (lambda x: COMB.kraus_stack((1e-2, x)), ValueError),
    "commutant_projection-h": (lambda x: commutant_projection(np.diag([1.0, x]), Z.data), ValueError),
    "commutant_projection-x_tot": (lambda x: commutant_projection(Z.data, np.diag([1.0, x])), ValueError),
    "conserving_error_implementation-pointer_values": (
        lambda x: conserving_error_implementation(Z, [0.0, x], [1.0, 0.0], u_meas=CNOT),
        ValueError,
    ),
    "conserving_error_implementation-chi": (
        lambda x: conserving_error_implementation(Z, [0.0, 1.0], [1.0, x], u_meas=CNOT),
        StateValidityError,
    ),
}


@pytest.mark.parametrize("x", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("entry", sorted(TABLE))
def test_non_finite_input_is_refused(entry, x):
    call, error = TABLE[entry]
    with deadline(5), pytest.raises(error, match="finite"):
        call(x)


def test_error_implementation_needs_rng_or_u_meas():
    # without either there is no measurement unitary to build, so the call stops before any arithmetic
    with deadline(5), pytest.raises(ValueError, match="needs rng or u_meas"):
        conserving_error_implementation(Z, [0.0, 1.0], [1.0, 0.0])
