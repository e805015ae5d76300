"""Documented refusals of the public entries: each malformed call raises its error class with its message."""

import numpy as np
import pytest

from irrevkit import (
    BlochError,
    CompositeSpaceError,
    ConservationError,
    DensityMatrix,
    DistributionError,
    Implementation,
    Instrument,
    KrausChannel,
    Label,
    Observable,
    OutcomeFunctionError,
    ShapeError,
    StateValidityError,
    TestEnsemble,
    bloch_from_state,
    blw_calibration_error_qubit,
    build_fixture,
    conserving_error_implementation,
    identity_channel,
    maximally_mixed,
    outcome_values,
    ozawa_disturbance,
    partial_trace,
    petz_recovery,
    pointer_channel,
    tensor,
    two_copy_comb,
    wasserstein2_discrete,
)
from irrevkit.serialize import decode_matrix
from conftest import deadline

S, T, B = Label("S", 2), Label("T", 3), Label("B", 2)
MIXED = maximally_mixed((S,))
Z = Observable((S,), np.diag([1.0, -1.0]))
PROJ_Z = Instrument((S,), (S,), (("0", np.diag([1.0, 0.0])), ("1", np.diag([0.0, 1.0]))))
CNOT = np.eye(4)[[0, 1, 3, 2]]

# name -> (call, error class, message fragment)
TABLE = {
    "Label-name": (lambda: Label("", 2), CompositeSpaceError, "non-empty string"),
    "matrix-not-square": (lambda: DensityMatrix((S,), np.ones(2)), ShapeError, "square matrix"),
    "matrix-dimension": (lambda: Observable((S,), np.eye(3)), ShapeError, "does not match space dimension 2"),
    "DensityMatrix-hermitian": (
        lambda: DensityMatrix((S,), [[0.5, 0.5], [0.0, 0.5]]),
        StateValidityError,
        "state not Hermitian",
    ),
    "Observable-hermitian": (lambda: Observable((S,), [[1.0, 1.0], [0.0, 1.0]]), StateValidityError, "not Hermitian"),
    "KrausChannel-empty": (
        lambda: KrausChannel((S,), (S,), np.zeros((0, 2, 2))),
        ShapeError,
        "at least one Kraus operator",
    ),
    "TestEnsemble-empty": (lambda: TestEnsemble(()), StateValidityError, "non-empty"),
    "TestEnsemble-spaces": (
        lambda: TestEnsemble(((0.5, MIXED), (0.5, maximally_mixed((T,))))),
        CompositeSpaceError,
        "share one space",
    ),
    "tensor-kinds": (lambda: tensor(MIXED, Z), ShapeError, "unsupported operand kinds"),
    "tensor-collision": (lambda: tensor(MIXED, MIXED), CompositeSpaceError, "label collision"),
    "partial_trace-label": (lambda: partial_trace(MIXED, ["T"]), CompositeSpaceError, "unknown label 'T'"),
    "pointer_channel-dimension": (lambda: pointer_channel(PROJ_Z, Label("P", 3)), ShapeError, "pointer dim 3"),
    "petz_recovery-reference": (
        lambda: petz_recovery(identity_channel((S,)), np.eye(2) / 2),
        StateValidityError,
        "must be a DensityMatrix",
    ),
    "two_copy_comb-factors": (
        lambda: two_copy_comb(maximally_mixed((S, B)), Z, PROJ_Z, "error"),
        ValueError,
        "single-factor",
    ),
    "two_copy_comb-kind": (lambda: two_copy_comb(MIXED, Z, PROJ_Z, "both"), ValueError, "unknown two-copy kind"),
    "outcome_values-count": (lambda: outcome_values(PROJ_Z, [1.0]), OutcomeFunctionError, "1 values for 2"),
    "ozawa_disturbance-square": (
        lambda: ozawa_disturbance(MIXED, Z, Instrument((S,), (T,), (("0", np.eye(3)[:, :2]),))),
        ShapeError,
        "square Kraus operators",
    ),
    "blw-reference-unit": (lambda: blw_calibration_error_qubit([0, 0, 0.5], [0, 0, 1]), BlochError, "must be unit"),
    "blw-comparison-ball": (lambda: blw_calibration_error_qubit([0, 0, 1], [0, 0, 2]), BlochError, "Bloch ball"),
    "wasserstein2-lengths": (
        lambda: wasserstein2_discrete([0, 1], [1], [0], [1]),
        DistributionError,
        "matching lengths",
    ),
    "wasserstein2-negative": (
        lambda: wasserstein2_discrete([0, 1], [1.5, -0.5], [0], [1]),
        DistributionError,
        "negative probability mass",
    ),
    "wasserstein2-empty": (lambda: wasserstein2_discrete([], [], [], []), DistributionError, "at least one point"),
    "wasserstein2-one-empty": (lambda: wasserstein2_discrete([0], [0], [], []), DistributionError, "at least one point"),
    "bloch_from_state-qutrit": (lambda: bloch_from_state(maximally_mixed((T,))), BlochError, "qubit states only"),
    "Implementation-shape": (
        lambda: Implementation(MIXED, np.eye(3), {}, (S,), (B,), (S,), (B,)),
        ConservationError,
        "U must be square",
    ),
    "conserving_error_implementation-zero-chi": (
        lambda: conserving_error_implementation(Z, [0.0, 1.0], [0.0, 0.0], u_meas=CNOT),
        StateValidityError,
        "nonzero norm",
    ),
    "conserving_error_implementation-chi-length": (
        lambda: conserving_error_implementation(Z, [0.0, 1.0], [1.0, 0.0, 0.0], u_meas=CNOT),
        StateValidityError,
        "one amplitude per pointer value: 3 for 2",
    ),
    "build_fixture-name": (lambda: build_fixture("no-such-fixture"), KeyError, "unknown fixture"),
    "decode_matrix-entry": (lambda: decode_matrix([[1.0, "x"]]), ShapeError, r"a number or \[re, im\]"),
    "decode_matrix-rank": (lambda: decode_matrix([]), ShapeError, "two-dimensional"),
}


@pytest.mark.parametrize("entry", sorted(TABLE))
def test_malformed_call_is_refused(entry):
    call, error, fragment = TABLE[entry]
    with deadline(5), pytest.raises(error, match=fragment):
        call()
