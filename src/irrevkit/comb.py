"""Measurement combs and the theta -> 0 extraction of error and disturbance.

A comb appends a block state to an ancilla qubit Q, couples them weakly
(strength theta) through a generator, then measures or conjugates the
block. A canonical recovery uncouples with a generator on the stage output
and dephases Q. The squared irreversibility of the pair vanishes as
c2 * theta^2, and c2 is the squared error, disturbance or OTOC. `extract`
gets c2 for any comb, either from a least-squares fit on a theta grid or
from the exact second derivative (canonical recoveries only). The grid of a
fixed or canonical recovery is one stacked evaluation over every theta, with
delta^2 a sum of non-negative amplitude terms; only OPTIMIZE builds the loss
and recoveries per theta.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import BranchProbabilityError, ExtractionError, ShapeError
from .irrev import OptimizerConfig, delta_min
from .oracles import lt_disturbance, lt_error, outcome_values
from .qcore import (
    SIGMA_Z,
    TOL_PROB,
    DensityMatrix,
    Instrument,
    KrausChannel,
    Label,
    Observable,
    TestEnsemble,
    _as_space,
    _expm_herm,
    _names,
    _reorder,
    apply_raw,
    compose,
    embed,
    embed_matrix,
    instrument_channel,
    pointer_channel,
    pure_state,
    space_dim,
)

__all__ = [
    "Q_LABEL",
    "OPTIMIZE",
    "Comb",
    "LossProcess",
    "CanonicalRecovery",
    "IepResult",
    "ExtractionConfig",
    "omega_pm",
    "append_channel",
    "weak_coupling",
    "dephase_pm",
    "trace_out_channel",
    "build_loss_error",
    "build_loss_disturbance",
    "build_loss_two_copy",
    "canonical_recovery",
    "extract",
    "extract_epsilon",
    "extract_eta",
    "extract_two_copy",
]

Q_LABEL = Label("Q", 2)

KETS = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)  # |+>, |->


class _OptimizeType:
    """Sentinel selecting recovery optimization instead of a fixed recovery."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "OPTIMIZE"


OPTIMIZE = _OptimizeType()


def omega_pm(q: Label = Q_LABEL) -> TestEnsemble:
    """The fixed test ensemble {(1/2, |+>), (1/2, |->)} on the ancilla."""
    return TestEnsemble(tuple((0.5, pure_state(v, (q,))) for v in KETS))


@dataclass(frozen=True)
class LossProcess:
    kind: str  # "error" | "disturbance"
    rho: DensityMatrix
    generator: Observable
    theta: float
    meas: Instrument
    channel: KrausChannel = field(repr=False)


@dataclass(frozen=True)
class CanonicalRecovery:
    """R_{X,target} = dephase Q in {|+>,|->} after undoing the X coupling.

    x lives on some output factor(s); target lists every non-Q output label,
    all of which are traced out. The stored channel is built at this theta;
    extraction evaluates the family member at each grid theta from one
    eigendecomposition of x (x) sigma_z, without building its channel.
    """

    x: Observable
    target: tuple
    theta: float
    channel: KrausChannel = field(repr=False)


@dataclass(frozen=True)
class IepResult:
    value: float
    theta_grid: tuple
    fit_residual: float
    method: str
    rescale: float | None = None
    branch_probability: float | None = None

    def to_json(self) -> dict:
        d = {
            "value": self.value,
            "theta_grid": [[t, v] for t, v in self.theta_grid],
            "fit_residual": self.fit_residual,
            "method": self.method,
        }
        if self.rescale is not None:
            d["rescale"] = self.rescale
        if self.branch_probability is not None:
            d["branch_probability"] = self.branch_probability
        return d


@dataclass(frozen=True)
class ExtractionConfig:
    method: str = "extrapolated"  # or "analytic"
    thetas: tuple = (1e-2, 5e-3, 2.5e-3, 1.25e-3)
    fit_tol: float = 1e-6
    optimizer: OptimizerConfig = OptimizerConfig()

    def to_json(self) -> dict:
        return {
            "method": self.method,
            "thetas": list(self.thetas),
            "fit_tol": self.fit_tol,
            "optimizer": self.optimizer.to_json(),
        }

    @classmethod
    def from_json(cls, d: dict) -> "ExtractionConfig":
        return cls(
            method=str(d.get("method", "extrapolated")),
            thetas=tuple(float(t) for t in d.get("thetas", (1e-2, 5e-3, 2.5e-3, 1.25e-3))),
            fit_tol=float(d.get("fit_tol", 1e-6)),
            optimizer=OptimizerConfig.from_json(d.get("optimizer", {})),
        )


def append_channel(rho: DensityMatrix) -> KrausChannel:
    """A_rho: X_Q -> rho (x) X_Q, as a CPTP map from Q into system + Q."""
    vals, vecs = np.linalg.eigh(rho.data)
    keep = vals > 1e-14
    iq = np.eye(Q_LABEL.dim, dtype=complex)
    # sqrt(lam) kron(|v>, 1_Q) for each kept eigenpair
    ops = (vecs.T[keep][:, :, None, None] * iq).reshape(-1, rho.dim * Q_LABEL.dim, Q_LABEL.dim)
    ops = np.sqrt(vals[keep])[:, None, None] * ops
    return KrausChannel((Q_LABEL,), tuple(rho.space) + (Q_LABEL,), ops)


def weak_coupling(gen: Observable, theta: float, dagger: bool = False) -> KrausChannel:
    """Unitary conjugation by exp(-i theta gen (x) sigma_z) on gen's space + Q."""
    u = _expm_herm(np.kron(gen.data, SIGMA_Z), -theta if dagger else theta)
    sp = tuple(gen.space) + (Q_LABEL,)
    return KrausChannel(sp, sp, (u,))


def dephase_pm() -> KrausChannel:
    return KrausChannel((Q_LABEL,), (Q_LABEL,), KETS[:, :, None] * KETS.conj()[:, None, :])


def trace_out_channel(sp, drop) -> KrausChannel:
    """Trace out the labels in `drop`, keeping the remaining factors in order."""
    sp = _as_space(sp)
    drop_names = {l.name if isinstance(l, Label) else str(l) for l in drop}
    keep = tuple(l for l in sp if l.name not in drop_names)
    dropped = tuple(l for l in sp if l.name in drop_names)
    if len(dropped) != len(drop_names):
        raise ValueError(f"labels {drop_names} not all present in {_names(sp)}")
    names = _names(sp)
    order = [names.index(l.name) for l in dropped] + [names.index(l.name) for l in keep]
    d = space_dim(sp)
    # rows of the identity reordered to (dropped, kept); K_t = (<t| (x) 1) P
    perm = _reorder(np.eye(d, dtype=complex), [l.dim for l in sp], order, 0)
    return KrausChannel(sp, keep, perm.reshape(space_dim(dropped), space_dim(keep), d))


def canonical_recovery(x: Observable, target, theta: float) -> CanonicalRecovery:
    """Build R_{X,target} on target + Q: undo the X coupling, trace out target, dephase Q."""
    target = _as_space(target)
    sp = tuple(target) + (Q_LABEL,)
    undo = embed(weak_coupling(x, theta, dagger=True), sp)
    j = compose(dephase_pm(), trace_out_channel(sp, target))
    return CanonicalRecovery(x, tuple(target), float(theta), compose(j, undo))


@dataclass(frozen=True)
class Comb:
    """Q -> stage(U_{gen,theta}(block (x) Q)), with its canonical recoveries.

    block is the appended state (everything but Q), gen the coupling
    generator on some of its factors, stage the measurement or conjugation,
    already embedded on block + Q (once per comb). recoveries() returns the
    canonical (x, target) pairs: the first is the "canonical" recovery and
    every pair warm-starts OPTIMIZE, in order. It is called only by those
    two modes, since some pairs cost an oracle solve. A sub-normalised
    stage, whose Kraus operator was scaled by branch_scale, is renormalised
    per state and its curvature divided by branch_scale^2.
    """

    block: DensityMatrix
    gen: Observable
    stage: KrausChannel = field(repr=False)
    recoveries: Callable[[], tuple] = field(repr=False)
    branch_scale: float | None = None

    @property
    def full(self) -> tuple:
        return tuple(self.block.space) + (Q_LABEL,)

    def loss(self, theta: float) -> KrausChannel:
        u = embed(weak_coupling(self.gen, theta), self.full)
        return compose(self.stage, compose(u, append_channel(self.block)))


def _check_meas(rho: DensityMatrix, gen: Observable, meas: Instrument):
    if _names(gen.space) != _names(rho.space):
        raise ValueError("generator and state must share a space")
    if _names(meas.in_space) != _names(rho.space):
        raise ValueError("instrument input must match the state space")


def _pointer(meas: Instrument) -> Label:
    return Label("P", len(meas.branches))


def _pointer_observable(meas: Instrument, f) -> Observable:
    """sum_m f(m) |m><m| on the pointer P."""
    return Observable((_pointer(meas),), np.diag(outcome_values(meas, f)).astype(complex))


def _error_comb(rho: DensityMatrix, a: Observable, meas: Instrument) -> Comb:
    """P_M o U_{A,theta} o A_rho from Q to (P, Q); recovery at the pushforward values."""
    _check_meas(rho, a, meas)
    p_label = _pointer(meas)
    stage = embed(pointer_channel(meas, p_label), tuple(rho.space) + (Q_LABEL,))
    pushforward = lambda: ((_pointer_observable(meas, lt_error(rho, a, meas)[1]), (p_label,)),)
    return Comb(rho, a, stage, pushforward)


def _disturbance_comb(rho: DensityMatrix, b: Observable, meas: Instrument) -> Comb:
    """I_M o U_{B,theta} o A_rho from Q to (S', Q); LT recovery, then B itself."""
    _check_meas(rho, b, meas)
    out_sp = meas.out_space

    def recoveries():
        pairs = [(lt_disturbance(rho, b, meas)[1], out_sp)]
        if meas.dim_in == space_dim(out_sp):
            pairs.append((Observable(out_sp, b.data), out_sp))
        return tuple(pairs)

    stage = embed(instrument_channel(meas), tuple(rho.space) + (Q_LABEL,))
    return Comb(rho, b, stage, recoveries)


def _two_copy_labels(rho: DensityMatrix):
    if len(rho.space) != 1:
        raise ValueError("two-copy comb supports single-factor system spaces")
    base = rho.space[0]
    return Label(base.name + "2", base.dim), Label(base.name + "1", base.dim)


def _relabel_instrument(meas: Instrument, new_in: Label) -> Instrument:
    d_out = len(meas.branches[0][1])
    if d_out == meas.dim_in:
        out = (new_in,)
    else:
        out = (Label(new_in.name + "o", d_out),)
    return Instrument((new_in,), out, meas.branches)


def _two_copy_comb(rho: DensityMatrix, gen: Observable, meas: Instrument, kind: str, f=None) -> Comb:
    """Calibration comb on two copies: couple copy 1, measure copy 2.

    error: P_M on copy 2 -> (P, S1, Q), recovered through the pointer values
    f; disturbance: I_M on copy 2 -> (S2, S1, Q), recovered through gen.
    """
    _check_meas(rho, gen, meas)
    s2, s1 = _two_copy_labels(rho)
    block = DensityMatrix((s2, s1), np.kron(rho.data, rho.data))
    meas2 = _relabel_instrument(meas, s2)
    if kind == "error":
        p_label = _pointer(meas)
        stage = pointer_channel(meas2, p_label)
        recoveries = lambda: ((_pointer_observable(meas, f), (p_label, s1)),)
    elif kind == "disturbance":
        stage = instrument_channel(meas2)
        out2 = meas2.out_space
        recoveries = lambda: ((Observable(out2, gen.data), tuple(out2) + (s1,)),)
    else:
        raise ValueError(f"unknown two-copy kind {kind!r}")
    return Comb(block, Observable((s1,), gen.data), embed(stage, (s2, s1, Q_LABEL)), recoveries)


def build_loss_error(rho: DensityMatrix, a: Observable, theta: float, meas: Instrument) -> LossProcess:
    """P_M o U_{A,theta} o A_rho from Q to (P, Q)."""
    channel = _error_comb(rho, a, meas).loss(theta)
    return LossProcess("error", rho, a, float(theta), meas, channel)


def build_loss_disturbance(
    rho: DensityMatrix, b: Observable, theta: float, meas: Instrument
) -> LossProcess:
    """I_M o U_{B,theta} o A_rho from Q to (S', Q)."""
    channel = _disturbance_comb(rho, b, meas).loss(theta)
    return LossProcess("disturbance", rho, b, float(theta), meas, channel)


def build_loss_two_copy(
    rho: DensityMatrix, gen: Observable, theta: float, meas: Instrument, kind: str
) -> LossProcess:
    """Two-copy calibration comb: (P, S1, Q) for error, (S2, S1, Q) for disturbance."""
    channel = _two_copy_comb(rho, gen, meas, kind).loss(theta)
    return LossProcess(kind, rho, gen, float(theta), meas, channel)


# ---------------------------------------------------------------------------
# theta^2 extraction


def _fit_c2(grid: list, fit_tol: float):
    th = np.array([t for t, _ in grid])
    y = np.array([v for _, v in grid])
    design = np.stack([th**2, th**4], axis=1)
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    pred = design @ coef
    scale = max(float(np.max(np.abs(y))), 1e-7)
    residual = float(np.max(np.abs(pred - y))) / scale
    if residual > fit_tol:
        raise ExtractionError(
            f"quadratic fit residual {residual:.3e} exceeds tolerance {fit_tol:.1e}",
            diagnostics={
                "theta_grid": [list(p) for p in grid],
                "coefficients": [float(c) for c in coef],
                "residual": residual,
            },
        )
    return float(coef[0]), residual


def _check_value(value: float, grid, method: str) -> None:
    if value < -1e-9:
        raise ExtractionError(
            f"extracted value {value} is negative beyond tolerance",
            diagnostics={"theta_grid": [list(p) for p in grid], "method": method},
        )


def _analytic_c2(comb: Comb, x: Observable) -> float:
    """Exact lim delta^2/theta^2 for the canonical recovery through x.

    g1/g2 are the full coupling generators on the stage's input/output
    spaces. Only the +/- diagonal matrix elements on Q survive the final
    dephasing, which gives c2 = -(a+'' + a-'')/4 with a_k'' the second
    derivative of the recovered overlap.
    """
    phi = comb.stage
    g1 = _coupling(comb.gen, comb.full)
    g2 = _coupling(x, phi.out_space)
    total = 0.0
    for vec in KETS:
        kk = np.outer(vec, vec.conj())
        rho_t = np.kron(comb.block.data, kk)
        m0 = apply_raw(phi, rho_t)
        c1 = g1 @ rho_t - rho_t @ g1
        m1 = apply_raw(phi, c1)
        c11 = g1 @ c1 - c1 @ g1
        m2 = apply_raw(phi, c11)
        inner = g2 @ m0 - m0 @ g2
        gpp = -(g2 @ inner - inner @ g2) + 2 * (g2 @ m1 - m1 @ g2) - m2
        e = embed_matrix(kk, (Q_LABEL,), phi.out_space)
        total += float(np.real(np.trace(e @ gpp)))
    return -total / 4.0


def _coupling(x: Observable, sp) -> np.ndarray:
    """The coupling generator x (x) sigma_z, embedded on sp."""
    return embed_matrix(np.kron(x.data, SIGMA_Z), tuple(x.space) + (Q_LABEL,), sp)


def _loss_amplitudes(comb: Comb, thetas: np.ndarray) -> np.ndarray:
    """(t, 2, r, d_out) amplitudes L_i(theta) psi_k = stage U(theta) append_i psi_k.

    U(theta) comes from one eigendecomposition of the embedded generator,
    for every grid theta at once; psi_k runs over |+>, |->.
    """
    u = _expm_herm(_coupling(comb.gen, comb.full), thetas)
    cols = (append_channel(comb.block).kraus @ KETS.T).transpose(2, 1, 0)  # (2, d, r_A)
    amp = comb.stage.kraus @ (u[:, None] @ cols)[:, :, None]  # (t, 2, r_S, d_out, r_A)
    return amp.swapaxes(-1, -2).reshape(len(thetas), 2, -1, comb.stage.dim_out)


def _recovery_bras(comb: Comb, pair, recovery, thetas: np.ndarray) -> np.ndarray:
    """(t or 1, 2, m, d_out) bras <psi_k^perp| R_j of the recovery, row m over j.

    A fixed recovery uses its Kraus stack. The canonical one undoes the x
    coupling, traces out the target and dephases Q in the +/- basis; the
    dephasing keeps <psi_k^perp|.|psi_k^perp>, so its rows are
    (<t| (x) <psi_k^perp|) W(theta)^dag over the target basis t.
    """
    out = comb.stage.out_space
    perp = KETS[::-1].conj()
    if pair is None:
        if (recovery.in_space, recovery.out_space) != (out, (Q_LABEL,)) or not recovery.trace_preserving:
            raise ShapeError(f"a fixed recovery must be a trace-preserving channel {_names(out)} -> ('Q',)")
        return (recovery.kraus.swapaxes(1, 2) @ perp.T).transpose(2, 0, 1)[None]
    x, target = pair
    rec_in = _as_space(target) + (Q_LABEL,)
    g2 = _coupling(x, rec_in)
    if rec_in != out:
        raise ShapeError(f"recovery input space {_names(rec_in)} does not match the loss output {_names(out)}")
    w_dag = _expm_herm(g2, -thetas).reshape(len(thetas), -1, 2, len(g2))  # Q is the last factor
    return (w_dag.swapaxes(2, 3) @ perp.T).transpose(0, 3, 1, 2)


def _grid(comb: Comb, pair, recovery, thetas: tuple):
    """delta^2 at every grid theta, and the (t, 2) branch probabilities.

    For the pure states psi_k of omega_pm, D_k^2 = sum_ij |<psi_k^perp| R_j
    L_i |psi_k>|^2, a sum of non-negative terms; a branch comb divides it by
    q_k = ||L psi_k||^2 first. delta^2 = sum_k D_k^2 / 2.
    """
    th = np.asarray(thetas, dtype=float)
    amp = _loss_amplitudes(comb, th)
    rows = _recovery_bras(comb, pair, recovery, th)
    d2 = np.sum(np.abs(amp @ rows.swapaxes(-1, -2)) ** 2, axis=(-2, -1))
    q = np.sum(np.abs(amp) ** 2, axis=(-2, -1))
    if comb.branch_scale is None:
        if not comb.stage.trace_preserving:
            raise ShapeError("a comb whose stage is a CP branch needs a branch_scale")
    else:
        t, k = np.unravel_index(np.argmin(q), q.shape)
        if q[t, k] <= TOL_PROB:
            raise BranchProbabilityError(f"branch probability {q[t, k]} for state {k} below 1e-12")
        d2 = d2 / q
    return d2.sum(axis=1) / 2, q


def extract(comb: Comb, recovery="canonical", cfg: ExtractionConfig | None = None) -> IepResult:
    """lim delta^2/theta^2 of a comb under a recovery.

    recovery: "canonical" (the comb's first canonical recovery) or a
    CanonicalRecovery, both evaluated at each grid theta; an explicit
    KrausChannel held fixed across the grid, or OPTIMIZE to minimize over
    recoveries at each theta, warm-started from every canonical recovery of
    the comb. Every grid but OPTIMIZE's is one stacked amplitude evaluation
    over all theta. cfg.method="analytic" differentiates exactly and needs a
    canonical recovery.
    """
    cfg = cfg or ExtractionConfig()
    if isinstance(recovery, CanonicalRecovery):
        pair = (recovery.x, recovery.target)
    elif isinstance(recovery, str) and recovery == "canonical":
        pair = comb.recoveries()[0]
    elif recovery is OPTIMIZE or isinstance(recovery, KrausChannel):
        pair = None
    else:
        raise TypeError(f"unsupported recovery {recovery!r}")
    scale = comb.branch_scale

    if cfg.method == "analytic":
        if pair is None:
            raise ValueError("analytic extraction needs a canonical recovery")
        c2 = _analytic_c2(comb, pair[0])
        if scale is not None:
            c2 = c2 / (scale * scale)
        _check_value(c2, (), "analytic")
        return IepResult(c2, (), 0.0, "analytic")

    branch = None
    if recovery is OPTIMIZE:
        omega = omega_pm()
        warm_pairs = comb.recoveries()
        values = []
        for theta in cfg.thetas:
            warm = tuple(canonical_recovery(x, target, theta).channel for x, target in warm_pairs)
            values.append(delta_min(comb.loss(theta), omega, cfg.optimizer, warm_starts=warm).delta ** 2)
    else:
        values, q = _grid(comb, pair, recovery, cfg.thetas)
        if scale is not None:
            branch = float(np.mean(q / (scale * scale)))
    grid = [(float(t), float(v)) for t, v in zip(cfg.thetas, values)]
    c2, residual = _fit_c2(grid, cfg.fit_tol)
    _check_value(c2, grid, "extrapolated")
    return IepResult(c2, tuple(grid), residual, "extrapolated", branch_probability=branch)


def extract_epsilon(
    rho: DensityMatrix,
    a: Observable,
    meas: Instrument,
    recovery,
    cfg: ExtractionConfig | None = None,
) -> IepResult:
    """Squared error: lim delta^2/theta^2 of the error comb.

    recovery is as in `extract`; "canonical" and the OPTIMIZE warm start are
    the recovery at the pushforward (least-squares) pointer values.
    """
    return extract(_error_comb(rho, a, meas), recovery, cfg)


def extract_eta(
    rho: DensityMatrix,
    b: Observable,
    meas: Instrument,
    recovery,
    cfg: ExtractionConfig | None = None,
) -> IepResult:
    """Squared disturbance: lim delta^2/theta^2 of the disturbance comb.

    recovery is as in `extract`; "canonical" is the LT-optimal recovery
    generator, and OPTIMIZE is warm-started from it and, when the
    instrument keeps the dimension, from B itself.
    """
    return extract(_disturbance_comb(rho, b, meas), recovery, cfg)


def extract_two_copy(
    rho: DensityMatrix,
    gen: Observable,
    meas: Instrument,
    kind: str,
    f=None,
    cfg: ExtractionConfig | None = None,
) -> IepResult:
    """Squared calibration error/disturbance from the two-copy comb.

    error kind: f gives the pointer values (defaults required); disturbance
    kind: the recovery couples the measured copy back through `gen`.
    """
    if kind == "error" and f is None:
        raise ValueError("two-copy error extraction needs outcome values f")
    return extract(_two_copy_comb(rho, gen, meas, kind, f), "canonical", cfg)
