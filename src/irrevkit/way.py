"""Conservation-law lower bounds on measurement error and disturbance.

An Implementation dilates a measurement channel to a unitary U on system +
ancilla obeying an additive charge conservation law. The bounds divide a
commutator expectation by Fisher-information and variance terms; using the
concrete implementation's ancilla Fisher information (instead of the
unreachable minimum over all implementations) only enlarges the denominator,
so every check stays a valid inequality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .comb import CanonicalRecovery, ExtractionConfig, _pointer, extract_epsilon, extract_eta
from .errors import ConservationError, ShapeError, StateValidityError, YanaseConditionError
from .irrev import _json_fields
from .qcore import (
    DensityMatrix,
    Instrument,
    KrausChannel,
    Label,
    Observable,
    _as_space,
    _expm_herm,
    _reorder,
    _trusted,
    _unit_vector,
    apply,
    choi,
    dual,
    instrument_channel,
    ket,
    pointer_channel,
    qfi,
    space_dim,
    variance,
)

__all__ = [
    "Implementation",
    "WayReport",
    "check_conservation",
    "realized_channel",
    "y_operator",
    "way_bound_error",
    "way_bound_disturbance",
    "way_bound_error_yanase",
    "commutant_projection",
    "conserving_error_implementation",
    "conserving_disturbance_implementation",
    "swap_implementation",
]


@dataclass(frozen=True, eq=False)
class Implementation:
    """Unitary dilation U: alpha + beta -> alpha' + beta' with charges.

    rho_beta is the ancilla input on in_beta. charges maps the four slots
    "alpha", "beta", "alpha_out", "beta_out" to Observables on the matching
    (possibly composite) spaces. U is laid out with rows on
    out_alpha (x) out_beta and columns on in_alpha (x) in_beta. It compares and hashes by identity.
    """

    rho_beta: DensityMatrix
    u: np.ndarray = field(repr=False)
    charges: dict
    in_alpha: tuple
    in_beta: tuple
    out_alpha: tuple
    out_beta: tuple

    def __post_init__(self):
        for part in _PARTS:
            object.__setattr__(self, part, _as_space(getattr(self, part)))
        d_in = space_dim(self.in_alpha) * space_dim(self.in_beta)
        d_out = space_dim(self.out_alpha) * space_dim(self.out_beta)
        u = np.asarray(self.u, dtype=complex)
        if u.shape != (d_out, d_in) or d_in != d_out:
            raise ConservationError(
                f"U must be square over matching partitions, got {u.shape} for {d_out}x{d_in}"
            )
        if not (np.isfinite(u).all() and np.max(np.abs(u.conj().T @ u - np.eye(d_in))) <= 1e-9):
            raise ConservationError("U is not unitary within 1e-9")
        if self.rho_beta.space != self.in_beta:
            raise ConservationError("rho_beta must live on the in_beta space")
        object.__setattr__(self, "u", u)
        _checked_charges(self)


# each charge slot and the partition its operator acts on
_SLOTS = ("alpha", "beta", "alpha_out", "beta_out")
_PARTS = ("in_alpha", "in_beta", "out_alpha", "out_beta")


def _implementation(rho_beta: DensityMatrix, u: np.ndarray, charges: dict) -> Implementation:
    """The Implementation whose partitions are the spaces of the matching charges."""
    return Implementation(rho_beta, u, charges, **{part: charges[slot].space for slot, part in zip(_SLOTS, _PARTS)})


def _checked_charges(impl: Implementation, charges: dict | None = None) -> dict:
    """charges (or impl's own), each slot present and its dimension checked against its partition."""
    charges = charges or impl.charges
    for slot, part in zip(_SLOTS, _PARTS):
        if slot not in charges:
            raise ShapeError(f"charges have no {slot!r} slot; {part} needs one")
        got, want = charges[slot].dim, space_dim(getattr(impl, part))
        if got != want:
            raise ShapeError(f"charge {slot!r} has dimension {got}, but {part} has dimension {want}")
    return charges


def _total_charge(xa: np.ndarray, xb: np.ndarray) -> np.ndarray:
    """X_a (x) 1 + 1 (x) X_b."""
    return np.kron(xa, np.eye(len(xb))) + np.kron(np.eye(len(xa)), xb)


def check_conservation(impl: Implementation, charges: dict | None = None) -> float:
    """Max-abs deviation of U'(X_out_total)U from X_in_total."""
    c = _checked_charges(impl, charges)
    x_out = _total_charge(c["alpha_out"].data, c["beta_out"].data)
    lhs = impl.u.conj().T @ x_out @ impl.u
    return float(np.max(np.abs(lhs - _total_charge(c["alpha"].data, c["beta"].data))))


def realized_channel(impl: Implementation) -> KrausChannel:
    """The channel in_alpha -> out_alpha obtained by tracing out beta'."""
    da = space_dim(impl.in_alpha)
    db = space_dim(impl.in_beta)
    da_o = space_dim(impl.out_alpha)
    db_o = space_dim(impl.out_beta)
    ur = impl.u.reshape(da_o, db_o, da, db)
    # (1 (x) <j|) U (1 (x) m) for each column m of the ancilla state's square-root factor (outer)
    # and j; one tensordot per column, since a matrix tensordot signs zero entries differently
    blocks = [np.tensordot(ur, m, axes=([3], [0])) for m in impl.rho_beta.sqrt_factor.T]
    ops = np.stack(blocks).transpose(0, 2, 1, 3).reshape(-1, da_o, da)
    # sum K'K = tr_beta[(1 (x) rho_beta) U'U], trace preserving as U is unitary and rho_beta a state
    return _trusted(KrausChannel, in_space=impl.in_alpha, out_space=impl.out_alpha, kraus=ops, trace_preserving=True)


def y_operator(meas_channel: KrausChannel, charges: dict) -> Observable:
    """Y = X_alpha - dual(meas_channel)(X_alpha_out), Hermitian on the input."""
    x = charges["alpha"]
    if x.dim != meas_channel.dim_in:
        raise ShapeError(f"charge 'alpha' has dimension {x.dim}, but the channel input has {meas_channel.dim_in}")
    y = x.data - dual(meas_channel)(charges["alpha_out"]).data
    return _trusted(Observable, space=x.space, data=(y + y.conj().T) / 2)


_TOL_CONS = 1e-9  # max-abs conservation deviation
_TOL_CHOI = 1e-8  # max-abs Choi gap to the target channel


@dataclass(frozen=True)
class WayReport:
    lhs: float
    rhs: float
    slack: float
    terms: dict

    def to_json(self) -> dict:
        return _json_fields(self)


def _commutator_expectation(rho: DensityMatrix, y: Observable, a: Observable) -> float:
    c = y.data @ a.data - a.data @ y.data
    return abs(complex(np.trace(rho.data @ c)))


def _bound_inputs(impl: Implementation, target: KrausChannel, charges: dict | None):
    """The checked charges of a valid implementation of target, and F_beta of its ancilla.

    Every bound goes through here: the charges are the override or impl's own,
    U must conserve them and realize target.
    """
    charges = _checked_charges(impl, charges)
    dev = check_conservation(impl, charges)
    if not dev <= _TOL_CONS:
        raise ConservationError(f"conservation violated by {dev:.3e} (> {_TOL_CONS:.0e})")
    realized = realized_channel(impl)
    if realized.dim_in != target.dim_in or realized.dim_out != target.dim_out:
        raise ConservationError("implementation and measurement channel dimensions differ")
    gap = float(np.max(np.abs(choi(realized) - choi(target))))
    if not gap <= _TOL_CHOI:
        raise ConservationError(
            f"implementation realizes a different channel (Choi gap {gap:.3e} > {_TOL_CHOI:.0e})"
        )
    return charges, qfi(impl.rho_beta, charges["beta"])


def _report(lhs: float, num: float, den: float, **terms) -> WayReport:
    """lhs against the bound num / den (0 or inf at a vanishing den), with the
    commutator expectation among the terms."""
    if den < 1e-15:
        rhs = 0.0 if num < 1e-12 else math.inf
    else:
        rhs = num / den
    return WayReport(lhs, rhs, lhs - rhs, {"commutator_expectation": num, **terms})


def _lhs(extract, rho, obs, meas, lhs, cfg) -> float:
    """sqrt of the extracted error or disturbance; canonical recoveries go analytic."""
    if cfg is None:
        canonical = lhs == "canonical" or isinstance(lhs, CanonicalRecovery)
        cfg = ExtractionConfig(method="analytic" if canonical else "extrapolated")
    return math.sqrt(max(extract(rho, obs, meas, lhs, cfg).value, 0.0))


def _way_bound(rho, obs, meas, charges, impl, target, extract, lhs, cfg) -> WayReport:
    """|<[Y,O]>| / (sqrt(F_beta) + sqrt(F_rho(X)) + 2 sqrt(V_out)) against the extracted lhs."""
    charges, fisher_beta = _bound_inputs(impl, target, charges)
    num = _commutator_expectation(rho, y_operator(target, charges), obs)
    fisher_state = qfi(rho, charges["alpha"])
    out_state = apply(target, rho)
    var_out = variance(out_state, _trusted(Observable, space=out_state.space, data=charges["alpha_out"].data))
    den = math.sqrt(max(fisher_beta, 0.0)) + math.sqrt(max(fisher_state, 0.0)) + 2 * math.sqrt(
        max(var_out, 0.0)
    )
    return _report(
        _lhs(extract, rho, obs, meas, lhs, cfg),
        num,
        den,
        fisher_cost_upper=fisher_beta,
        qfi_state=fisher_state,
        variance_out=var_out,
    )


def way_bound_error(
    rho: DensityMatrix,
    a: Observable,
    meas: Instrument,
    charges: dict | None,
    impl: Implementation,
    lhs="canonical",
    cfg: ExtractionConfig | None = None,
) -> WayReport:
    """Error bound: eps >= |<[Y,A]>| / (sqrt(F_beta) + sqrt(F_rho(X)) + 2 sqrt(V_out)).

    lhs defaults to the pushforward canonical recovery evaluated analytically,
    which can only overestimate the optimized error, keeping the check valid.
    Pass OPTIMIZE (with a cfg) to evaluate the minimized error instead.
    """
    target = pointer_channel(meas, _pointer(meas))
    return _way_bound(rho, a, meas, charges, impl, target, extract_epsilon, lhs, cfg)


def way_bound_disturbance(
    rho: DensityMatrix,
    b: Observable,
    meas: Instrument,
    charges: dict | None,
    impl: Implementation,
    lhs="canonical",
    cfg: ExtractionConfig | None = None,
) -> WayReport:
    """Disturbance bound with Y' = X - I'(X_out) and the disturbed-state variance."""
    target = instrument_channel(meas)
    return _way_bound(rho, b, meas, charges, impl, target, extract_eta, lhs, cfg)


def way_bound_error_yanase(
    rho: DensityMatrix,
    a: Observable,
    meas: Instrument,
    charges: dict | None,
    impl: Implementation,
) -> WayReport:
    """Simplified error bound |<[X,A]>| / sqrt(F_beta + F_rho(X)) against the analytic canonical error.

    Requires the pointer charge to commute with every pointer projector,
    i.e. to be diagonal in the outcome basis.
    """
    x_p = _checked_charges(impl, charges)["alpha_out"].data
    if np.max(np.abs(x_p - np.diag(np.diag(x_p)))) > 1e-10:
        raise YanaseConditionError("pointer charge is not diagonal in the outcome basis")
    target = pointer_channel(meas, _pointer(meas))
    charges, fisher_beta = _bound_inputs(impl, target, charges)
    num = _commutator_expectation(rho, charges["alpha"], a)
    fisher_state = qfi(rho, charges["alpha"])
    den = math.sqrt(max(fisher_beta + fisher_state, 0.0))
    lhs_val = _lhs(extract_epsilon, rho, a, meas, "canonical", None)
    return _report(lhs_val, num, den, fisher_cost_upper=fisher_beta, qfi_state=fisher_state)


# ---------------------------------------------------------------------------
# implementation templates


def commutant_projection(h: np.ndarray, x_tot: np.ndarray) -> np.ndarray:
    """Project a Hermitian onto the commutant of x_tot (block-diagonal part)."""
    if not (np.isfinite(h).all() and np.isfinite(x_tot).all()):
        raise ValueError("h and x_tot must be finite")
    vals, vecs = np.linalg.eigh(x_tot)
    hm = vecs.conj().T @ h @ vecs
    mask = np.abs(vals[:, None] - vals[None, :]) <= 1e-9  # eigenvalues within 1e-9 share a block
    hm = hm * mask
    out = vecs @ hm @ vecs.conj().T
    return (out + out.conj().T) / 2


def _conserving_unitary(rng, x_tot: np.ndarray) -> np.ndarray:
    """exp(-iH) for a random Hermitian H projected onto the commutant of x_tot."""
    n = len(x_tot)
    h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return _expm_herm(commutant_projection((h + h.conj().T) / 2, x_tot))


def _induced_instrument(u_meas: np.ndarray, chi: np.ndarray, d: int, n: int, sp) -> Instrument:
    """Kraus M_m = (I (x) <m|) U (I (x) |chi>), one branch per ancilla basis state."""
    ur = u_meas.reshape(d, n, d, n)
    amp = np.tensordot(ur, chi, axes=([3], [0]))  # (d, n, d)
    branches = tuple((str(m), amp[:, m, :]) for m in range(n))
    return Instrument(sp, sp, branches)


def conserving_error_implementation(
    x_s: Observable,
    pointer_values,
    chi,
    rng=None,
    u_meas: np.ndarray | None = None,
):
    """Doubled-pointer dilation of a pointer measurement.

    The ancilla is a pointer register P1 (charge diagonal with the given
    values, state chi) plus a copy register P2 of charge zero. A
    charge-conserving unitary entangles S with P1 (random in the commutant
    unless u_meas is given), then a controlled cyclic shift copies the
    pointer onto P2; tracing out (S, P1) leaves exactly the
    dephased pointer channel. Returns (Implementation, Instrument).
    """
    if rng is None and u_meas is None:
        raise ValueError("conserving_error_implementation needs rng or u_meas")
    sp = x_s.space
    d = x_s.dim
    vals = np.asarray(pointer_values, dtype=float).reshape(-1)
    if not np.isfinite(vals).all():
        raise ValueError("pointer_values must be finite")
    n = vals.size
    chi = np.asarray(chi, dtype=complex).reshape(-1)
    if chi.size != n:
        raise StateValidityError(f"chi needs one amplitude per pointer value: {chi.size} for {n}")
    chi = _unit_vector(chi)

    b1 = Label("B1", n)
    b2 = Label("B2", n)
    p_label = Label("P", n)

    x_p1 = np.diag(vals).astype(complex)
    x_tot = _total_charge(x_s.data, x_p1)
    if u_meas is None:
        u_meas = _conserving_unitary(rng, x_tot)
    else:
        u_meas = np.asarray(u_meas, dtype=complex)

    # controlled cyclic shift |m, j> -> |m, j + m mod n> on (B1, B2)
    m, j = np.divmod(np.arange(n * n), n)
    u_copy = np.zeros((n * n, n * n), dtype=complex)
    u_copy[m * n + (j + m) % n, m * n + j] = 1.0
    u_total = np.kron(np.eye(d), u_copy) @ np.kron(u_meas, np.eye(n))

    # reorder output rows from (S, B1, B2) to (P=B2, S, B1)
    u_out = _reorder(u_total, (d, n, n), (2, 0, 1), 0)

    rho_beta = DensityMatrix(
        (b1, b2), np.kron(np.outer(chi, chi.conj()), np.outer(ket(0, n), ket(0, n).conj()))
    )
    out_beta = tuple(Label(l.name + "r", l.dim) for l in sp) + (Label("B1r", n),)
    charges = {
        "alpha": x_s,
        "beta": Observable((b1, b2), _total_charge(x_p1, np.zeros((n, n)))),
        "alpha_out": Observable((p_label,), np.zeros((n, n), dtype=complex)),
        "beta_out": Observable(out_beta, x_tot),
    }
    impl = _implementation(rho_beta, u_out, charges)
    meas = _induced_instrument(u_meas, chi, d, n, sp)
    return impl, meas


def conserving_disturbance_implementation(
    x_s: Observable,
    x_beta: Observable,
    rho_beta: DensityMatrix,
    rng,
):
    """Charge-conserving dilation of an instrument on the system itself.

    U is a random unitary commuting with X_S + X_beta, and the output charges
    coincide with the input ones. The instrument's branches are the Kraus
    operators of realized_channel, one per column of rho_beta's square-root
    factor and ancilla basis state, so a mixed ancilla gives extra branches.
    """
    sp = x_s.space
    if rho_beta.space != x_beta.space:
        raise ConservationError("rho_beta and x_beta must share a space")
    u = _conserving_unitary(rng, _total_charge(x_s.data, x_beta.data))

    charges = {
        "alpha": x_s,
        "beta": x_beta,
        "alpha_out": Observable(sp, x_s.data),
        "beta_out": x_beta,
    }
    impl = _implementation(rho_beta, u, charges)
    ops = realized_channel(impl).kraus
    meas = Instrument(sp, sp, tuple((str(k), op) for k, op in enumerate(ops)))
    return impl, meas


def swap_implementation(x: Observable, sigma: DensityMatrix):
    """Swap system and an isodimensional ancilla carrying the same charge."""
    sp = x.space
    d = x.dim
    if sigma.dim != d:
        raise ShapeError(f"ancilla state has dimension {sigma.dim}, but the system has dimension {d}")
    b = tuple(Label(l.name + "b", l.dim) for l in sp)
    swap = _reorder(np.eye(d * d), (d, d), (1, 0), 0)
    charges = {
        "alpha": x,
        "beta": Observable(b, x.data),
        "alpha_out": Observable(sp, x.data),
        "beta_out": Observable(b, x.data),
    }
    beta = _trusted(DensityMatrix, space=b, data=sigma.data, sqrt_factor=sigma.sqrt_factor)
    impl = _implementation(beta, swap, charges)
    # |m><j| for each column m of sigma's square-root factor (outer) and j
    m = sigma.sqrt_factor
    branches = tuple((str(k), np.outer(m[:, k // d], ket(k % d, d).conj())) for k in range(m.shape[1] * d))
    meas = Instrument(sp, sp, branches)
    return impl, meas
