"""irrevkit: irreversibility of finite-dimensional quantum channels.

Measures how well a channel acting on a test ensemble can be undone, and
builds on that single quantity the standard error/disturbance functionals
for quantum measurements, conservation-law lower bounds, and regularized
out-of-time-order correlators.
"""

from .errors import (
    AssumptionError,
    BlochError,
    BranchProbabilityError,
    CompositeSpaceError,
    ConservationError,
    DistributionError,
    ExtractionError,
    IrrevkitError,
    OutcomeFunctionError,
    ShapeError,
    StateValidityError,
    YanaseConditionError,
)
from .qcore import (
    DensityMatrix,
    Instrument,
    KrausChannel,
    Label,
    Observable,
    TestEnsemble,
    apply,
    apply_instrument,
    choi,
    compose,
    dual,
    embed,
    expectation,
    identity_channel,
    instrument_channel,
    kraus_from_choi,
    maximally_mixed,
    minimal_kraus,
    partial_trace,
    pointer_channel,
    pure_state,
    purified_distance,
    qfi,
    space,
    tensor,
    uhlmann_fidelity,
    unitary_channel,
    validate_channel,
    variance,
)
from .irrev import (
    DeltaReport,
    OptimizerConfig,
    delta_min,
    delta_with_recovery,
    petz_recovery,
)
from .comb import (
    OPTIMIZE,
    CanonicalRecovery,
    Comb,
    ExtractionConfig,
    IepResult,
    LossProcess,
    build_loss_disturbance,
    build_loss_error,
    build_loss_two_copy,
    canonical_recovery,
    extract,
    extract_epsilon,
    extract_eta,
    extract_two_copy,
    omega_pm,
)
from .oracles import (
    akg_unbiasedness_check,
    blw_calibration_error_qubit,
    bloch_from_state,
    lt_disturbance,
    lt_error,
    outcome_values,
    ozawa_disturbance,
    ozawa_error,
    state_from_bloch,
    wasserstein2_discrete,
)
from .way import (
    Implementation,
    WayReport,
    check_conservation,
    commutant_projection,
    conserving_disturbance_implementation,
    conserving_error_implementation,
    realized_channel,
    swap_implementation,
    way_bound_disturbance,
    way_bound_error,
    way_bound_error_yanase,
    y_operator,
)
from .otoc import (
    ScramblingScenario,
    conserving_otoc_implementation,
    heisenberg,
    ising_chain_scenario,
    otoc_direct,
    otoc_iep,
    otoc_iep_cp,
    pauli_string,
    way_bound_otoc,
)
from .serialize import canonical_json
from .fixtures import build_fixture, fixture_names, write_fixtures

__version__ = "0.1.0"
