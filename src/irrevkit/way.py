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

from .comb import CanonicalRecovery, ExtractionConfig, extract_epsilon, extract_eta
from .errors import ConservationError, YanaseConditionError
from .qcore import (
    DensityMatrix,
    Instrument,
    KrausChannel,
    Label,
    Observable,
    _as_space,
    _expm_herm,
    _names,
    _reorder,
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


@dataclass(frozen=True)
class Implementation:
    """Unitary dilation U: alpha + beta -> alpha' + beta' with charges.

    rho_beta is the ancilla input on in_beta. charges maps the four slots
    "alpha", "beta", "alpha_out", "beta_out" to Observables on the matching
    (possibly composite) spaces. U is laid out with rows on
    out_alpha (x) out_beta and columns on in_alpha (x) in_beta.
    """

    rho_beta: DensityMatrix
    u: np.ndarray = field(repr=False)
    charges: dict
    in_alpha: tuple
    in_beta: tuple
    out_alpha: tuple
    out_beta: tuple

    def __post_init__(self):
        object.__setattr__(self, "in_alpha", _as_space(self.in_alpha))
        object.__setattr__(self, "in_beta", _as_space(self.in_beta))
        object.__setattr__(self, "out_alpha", _as_space(self.out_alpha))
        object.__setattr__(self, "out_beta", _as_space(self.out_beta))
        d_in = space_dim(self.in_alpha) * space_dim(self.in_beta)
        d_out = space_dim(self.out_alpha) * space_dim(self.out_beta)
        u = np.asarray(self.u, dtype=complex)
        if u.shape != (d_out, d_in) or d_in != d_out:
            raise ConservationError(
                f"U must be square over matching partitions, got {u.shape} for {d_out}x{d_in}"
            )
        if np.max(np.abs(u.conj().T @ u - np.eye(d_in))) > 1e-9:
            raise ConservationError("U is not unitary within 1e-9")
        if _names(self.rho_beta.space) != _names(self.in_beta):
            raise ConservationError("rho_beta must live on the in_beta space")
        object.__setattr__(self, "u", u)

    def total_charge_in(self, charges: dict | None = None) -> np.ndarray:
        charges = charges or self.charges
        xa = charges["alpha"].data
        xb = charges["beta"].data
        return np.kron(xa, np.eye(space_dim(self.in_beta))) + np.kron(
            np.eye(space_dim(self.in_alpha)), xb
        )

    def total_charge_out(self, charges: dict | None = None) -> np.ndarray:
        charges = charges or self.charges
        xa = charges["alpha_out"].data
        xb = charges["beta_out"].data
        return np.kron(xa, np.eye(space_dim(self.out_beta))) + np.kron(
            np.eye(space_dim(self.out_alpha)), xb
        )


def check_conservation(impl: Implementation, charges: dict | None = None) -> float:
    """Max-abs deviation of U'(X_out_total)U from X_in_total."""
    lhs = impl.u.conj().T @ impl.total_charge_out(charges) @ impl.u
    return float(np.max(np.abs(lhs - impl.total_charge_in(charges))))


def realized_channel(impl: Implementation) -> KrausChannel:
    """The channel in_alpha -> out_alpha obtained by tracing out beta'."""
    da = space_dim(impl.in_alpha)
    db = space_dim(impl.in_beta)
    da_o = space_dim(impl.out_alpha)
    db_o = space_dim(impl.out_beta)
    ur = impl.u.reshape(da_o, db_o, da, db)
    vals, vecs = np.linalg.eigh(impl.rho_beta.data)
    keep = vals > 1e-14
    # sqrt(lam) (1 (x) <j|) U (1 (x) |v>) for each kept ancilla eigenpair (outer) and j;
    # one tensordot per vector, since a matrix tensordot signs zero entries differently
    blocks = [
        math.sqrt(lam) * np.tensordot(ur, v, axes=([3], [0])) for lam, v in zip(vals[keep], vecs.T[keep])
    ]
    ops = np.stack(blocks).transpose(0, 2, 1, 3).reshape(-1, da_o, da)
    return KrausChannel(impl.in_alpha, impl.out_alpha, ops)


def y_operator(meas_channel: KrausChannel, charges: dict) -> Observable:
    """Y = X_alpha - dual(meas_channel)(X_alpha_out), Hermitian on the input."""
    pulled = dual(meas_channel)(charges["alpha_out"])
    y = charges["alpha"].data - pulled.data
    return Observable(charges["alpha"].space, (y + y.conj().T) / 2)


def _require_valid(impl: Implementation, target: KrausChannel, charges=None, tol_cons=1e-9, tol_choi=1e-8):
    dev = check_conservation(impl, charges)
    if dev > tol_cons:
        raise ConservationError(f"conservation violated by {dev:.3e} (> {tol_cons:.0e})")
    realized = realized_channel(impl)
    if realized.dim_in != target.dim_in or realized.dim_out != target.dim_out:
        raise ConservationError("implementation and measurement channel dimensions differ")
    gap = float(np.max(np.abs(choi(realized) - choi(target))))
    if gap > tol_choi:
        raise ConservationError(
            f"implementation realizes a different channel (Choi gap {gap:.3e} > {tol_choi:.0e})"
        )
    return dev, gap


@dataclass(frozen=True)
class WayReport:
    lhs: float
    rhs: float
    slack: float
    terms: dict

    def to_json(self) -> dict:
        return {"lhs": self.lhs, "rhs": self.rhs, "slack": self.slack, "terms": dict(self.terms)}


def _commutator_expectation(rho: DensityMatrix, y: Observable, a: Observable) -> float:
    c = y.data @ a.data - a.data @ y.data
    return abs(complex(np.trace(rho.data @ c)))


def _ratio(num: float, den: float) -> float:
    if den < 1e-15:
        return 0.0 if num < 1e-12 else math.inf
    return num / den


def _lhs(extract, rho, obs, meas, lhs, cfg) -> float:
    """sqrt of the extracted error or disturbance; canonical recoveries go analytic."""
    if cfg is None:
        canonical = lhs == "canonical" or isinstance(lhs, CanonicalRecovery)
        cfg = ExtractionConfig(method="analytic" if canonical else "extrapolated")
    return math.sqrt(max(extract(rho, obs, meas, lhs, cfg).value, 0.0))


def _way_bound(rho, obs, meas, charges, impl, target, extract, lhs, cfg) -> WayReport:
    """|<[Y,O]>| / (sqrt(F_beta) + sqrt(F_rho(X)) + 2 sqrt(V_out)) against the extracted lhs."""
    charges = charges or impl.charges
    _require_valid(impl, target, charges)

    y = y_operator(target, charges)
    num = _commutator_expectation(rho, y, obs)
    fisher_beta = qfi(impl.rho_beta, charges["beta"])
    fisher_state = qfi(rho, charges["alpha"])
    out_state = apply(target, rho)
    x_out = Observable(out_state.space, charges["alpha_out"].data)
    var_out = variance(out_state, x_out)
    den = math.sqrt(max(fisher_beta, 0.0)) + math.sqrt(max(fisher_state, 0.0)) + 2 * math.sqrt(
        max(var_out, 0.0)
    )
    rhs = _ratio(num, den)
    lhs_val = _lhs(extract, rho, obs, meas, lhs, cfg)
    return WayReport(
        lhs_val,
        rhs,
        lhs_val - rhs,
        {
            "commutator_expectation": num,
            "fisher_cost_upper": fisher_beta,
            "qfi_state": fisher_state,
            "variance_out": var_out,
        },
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
    target = pointer_channel(meas, Label("P", len(meas.branches)))
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
    lhs="canonical",
    cfg: ExtractionConfig | None = None,
) -> WayReport:
    """Simplified error bound |<[X,A]>| / sqrt(F_beta + F_rho(X)).

    Requires the pointer charge to commute with every pointer projector,
    i.e. to be diagonal in the outcome basis.
    """
    charges = charges or impl.charges
    x_p = charges["alpha_out"].data
    off = x_p - np.diag(np.diag(x_p))
    if np.max(np.abs(off)) > 1e-10:
        raise YanaseConditionError(
            "pointer charge is not diagonal in the outcome basis"
        )
    p_label = Label("P", len(meas.branches))
    target = pointer_channel(meas, p_label)
    _require_valid(impl, target, charges)

    num = _commutator_expectation(rho, charges["alpha"], a)
    fisher_beta = qfi(impl.rho_beta, charges["beta"])
    fisher_state = qfi(rho, charges["alpha"])
    den = math.sqrt(max(fisher_beta + fisher_state, 0.0))
    rhs = _ratio(num, den)
    lhs_val = _lhs(extract_epsilon, rho, a, meas, lhs, cfg)
    return WayReport(
        lhs_val,
        rhs,
        lhs_val - rhs,
        {
            "commutator_expectation": num,
            "fisher_cost_upper": fisher_beta,
            "qfi_state": fisher_state,
        },
    )


# ---------------------------------------------------------------------------
# implementation templates


def commutant_projection(h: np.ndarray, x_tot: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Project a Hermitian onto the commutant of x_tot (block-diagonal part)."""
    vals, vecs = np.linalg.eigh(x_tot)
    hm = vecs.conj().T @ h @ vecs
    mask = np.abs(vals[:, None] - vals[None, :]) <= tol
    hm = hm * mask
    out = vecs @ hm @ vecs.conj().T
    return (out + out.conj().T) / 2


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
    pointer_shift: float = 0.0,
    u_meas: np.ndarray | None = None,
):
    """Doubled-pointer dilation of a pointer measurement.

    The ancilla is a pointer register P1 (charge diagonal with the given
    values, state chi) plus a copy register P2 (constant charge
    pointer_shift). A charge-conserving unitary entangles S with P1 (random
    in the commutant unless u_meas is given), then a controlled cyclic shift
    copies the pointer onto P2; tracing out (S, P1) leaves exactly the
    dephased pointer channel. Returns (Implementation, Instrument).
    """
    sp = x_s.space
    d = x_s.dim
    vals = np.asarray(pointer_values, dtype=float).reshape(-1)
    n = vals.size
    chi = np.asarray(chi, dtype=complex).reshape(n)
    chi = chi / np.linalg.norm(chi)

    b1 = Label("B1", n)
    b2 = Label("B2", n)
    p_label = Label("P", n)

    x_p1 = np.diag(vals).astype(complex)
    x_tot = np.kron(x_s.data, np.eye(n)) + np.kron(np.eye(d), x_p1)
    if u_meas is None:
        h = rng.standard_normal((d * n, d * n)) + 1j * rng.standard_normal((d * n, d * n))
        h = commutant_projection((h + h.conj().T) / 2, x_tot)
        u_meas = _expm_herm(h)
    else:
        u_meas = np.asarray(u_meas, dtype=complex)

    shift = np.zeros((n, n, n), dtype=complex)
    for m in range(n):
        for j in range(n):
            shift[m, (j + m) % n, j] = 1.0
    u_copy = sum(
        np.kron(np.outer(ket(m, n), ket(m, n).conj()), shift[m]) for m in range(n)
    )
    u_total = np.kron(np.eye(d), u_copy) @ np.kron(u_meas, np.eye(n))

    # reorder output rows from (S, B1, B2) to (P=B2, S, B1)
    u_out = _reorder(u_total, (d, n, n), (2, 0, 1), 0)

    rho_beta = DensityMatrix(
        (b1, b2), np.kron(np.outer(chi, chi.conj()), np.outer(ket(0, n), ket(0, n).conj()))
    )
    s_out = tuple(Label(l.name + "r", l.dim) for l in sp)
    charges = {
        "alpha": x_s,
        "beta": Observable(
            (b1, b2),
            np.kron(x_p1, np.eye(n)) + pointer_shift * np.eye(n * n),
        ),
        "alpha_out": Observable((p_label,), pointer_shift * np.eye(n, dtype=complex)),
        "beta_out": Observable(
            s_out + (Label("B1r", n),),
            np.kron(x_s.data, np.eye(n)) + np.kron(np.eye(d), x_p1),
        ),
    }
    impl = Implementation(
        rho_beta,
        u_out,
        charges,
        in_alpha=sp,
        in_beta=(b1, b2),
        out_alpha=(p_label,),
        out_beta=s_out + (Label("B1r", n),),
    )
    meas = _induced_instrument(u_meas, chi, d, n, sp)
    return impl, meas


def conserving_disturbance_implementation(
    x_s: Observable,
    x_beta: Observable,
    rho_beta: DensityMatrix,
    rng,
):
    """Charge-conserving dilation of an instrument on the system itself.

    U is a random unitary commuting with X_S + X_beta; tracing out the
    ancilla realizes the induced instrument channel exactly, and the output
    charges coincide with the input ones. rho_beta must be pure for the
    induced instrument to be branch-per-basis-state; mixed ancillas still
    give a valid Implementation (extra Kraus terms).
    """
    sp = x_s.space
    d = x_s.dim
    n = x_beta.dim
    if _names(rho_beta.space) != _names(x_beta.space):
        raise ConservationError("rho_beta and x_beta must share a space")
    x_tot = np.kron(x_s.data, np.eye(n)) + np.kron(np.eye(d), x_beta.data)
    h = rng.standard_normal((d * n, d * n)) + 1j * rng.standard_normal((d * n, d * n))
    h = commutant_projection((h + h.conj().T) / 2, x_tot)
    u = _expm_herm(h)

    charges = {
        "alpha": x_s,
        "beta": x_beta,
        "alpha_out": Observable(sp, x_s.data),
        "beta_out": x_beta,
    }
    impl = Implementation(
        rho_beta,
        u,
        charges,
        in_alpha=sp,
        in_beta=tuple(x_beta.space),
        out_alpha=sp,
        out_beta=tuple(x_beta.space),
    )
    vals, vecs = np.linalg.eigh(rho_beta.data)
    order = int(np.argmax(vals))
    if vals[order] < 1.0 - 1e-12:
        ops = realized_channel(impl).kraus
        meas = Instrument(sp, sp, tuple((str(k), op) for k, op in enumerate(ops)))
    else:
        meas = _induced_instrument(u, vecs[:, order], d, n, sp)
    return impl, meas


def swap_implementation(x: Observable, sigma: DensityMatrix):
    """Swap system and an isodimensional ancilla carrying the same charge."""
    sp = x.space
    d = x.dim
    b = tuple(Label(l.name + "b", l.dim) for l in sp)
    swap = _reorder(np.eye(d * d), (d, d), (1, 0), 0)
    charges = {
        "alpha": x,
        "beta": Observable(b, x.data),
        "alpha_out": Observable(sp, x.data),
        "beta_out": Observable(b, x.data),
    }
    impl = Implementation(
        DensityMatrix(b, sigma.data),
        swap,
        charges,
        in_alpha=sp,
        in_beta=b,
        out_alpha=sp,
        out_beta=b,
    )
    vals, vecs = np.linalg.eigh(sigma.data)
    branches = []
    k = 0
    for lam, v in zip(vals, vecs.T):
        if lam <= 1e-14:
            continue
        for j in range(d):
            branches.append((str(k), math.sqrt(lam) * np.outer(v, ket(j, d).conj())))
            k += 1
    meas = Instrument(sp, sp, tuple(branches))
    return impl, meas
