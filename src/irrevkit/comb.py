"""Measurement combs and the theta -> 0 extraction of error and disturbance.

A comb appends a block state to an ancilla qubit Q, couples them weakly
(strength theta) through a generator x, then measures or conjugates the
block. A canonical recovery uncouples with a generator x' on the stage
output and dephases Q. The squared irreversibility of the pair vanishes as
c2 * theta^2, and c2 is the squared error, disturbance or OTOC. `extract`
gets c2 for any comb, either from a least-squares fit on a theta grid or
exactly (canonical recoveries only).

sigma_z is diagonal on Q, so exp(-i theta x (x) sigma_z) is exp(-i theta s_q x)
on the Q = q half, s_q = +1, -1, with x on the space without Q. Under a
canonical recovery the test states |+>, |-> weigh the two halves by +-1/2,
so with S_s the stage's Kraus operators, m the block's sqrt(rho) columns and
x = V diag(l) V^dag, x' = V' diag(l') V'^dag, every recovered amplitude is
i sin(theta (l'_a - l_b)) (V'^dag S_s V)_ab. The grid is the closed form
delta^2(theta) = sum_s ||(sin(theta Delta) o V'^dag S_s V) V^dag m||_F^2, and
its theta^2 coefficient the commutator form c2 = sum_s ||(x' S_s - S_s x) m||_F^2,
which needs no decomposition at all. Every term is a product, so nothing
cancels however small the value. Only canonical recoveries are scored here:
a fixed KrausChannel recovery and OPTIMIZE pass the loss's Kraus stack over
the grid, built from the blocks exp(-i theta s_q x) of one eigendecomposition
of x, to irrev's stacked delta_with_recovery and delta_min kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cache, cached_property
from typing import Callable

import numpy as np

from .errors import BranchProbabilityError, CompositeSpaceError, ExtractionError, ShapeError
from .irrev import OptimizerConfig, _delta_min, _delta_with_recovery, _json_fields
from .oracles import _check_system, lt_disturbance, lt_error, outcome_values
from .qcore import (
    ID2,
    TOL_PROB,
    DensityMatrix,
    Instrument,
    KrausChannel,
    Label,
    Observable,
    TestEnsemble,
    _as_space,
    _eigh_herm,
    _expm_herm,
    _names,
    _trusted,
    embed_matrix,
    instrument_channel,
    pointer_channel,
    pure_state,
    space_dim,
)

__all__ = [
    "OPTIMIZE",
    "Comb",
    "CanonicalRecovery",
    "IepResult",
    "ExtractionConfig",
    "omega_pm",
    "canonical_recovery",
    "error_comb",
    "disturbance_comb",
    "two_copy_comb",
    "extract",
    "extract_epsilon",
    "extract_eta",
    "extract_two_copy",
]

Q_LABEL = Label("Q", 2)

KETS = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)  # |+>, |->
SIGNS = np.array([1.0, -1.0])  # sigma_z = diag(s_q) on Q


OPTIMIZE = "optimize"  # the recovery word selecting optimization instead of a fixed recovery


@cache
def omega_pm(q: Label = Q_LABEL) -> TestEnsemble:
    """The fixed test ensemble {(1/2, |+>), (1/2, |->)} on the ancilla, built once per label."""
    return TestEnsemble(tuple((0.5, pure_state(v, (q,))) for v in KETS))


@dataclass(frozen=True)
class CanonicalRecovery:
    """R_{X,target} = dephase Q in {|+>,|->} after undoing the X coupling.

    x lives on some input factor(s); target lists every non-Q input label,
    all of which are traced out. Construction only embeds x on the target
    (gen, x itself when it already lives on the whole target), checking x's
    labels; the two-copy combs form gen directly (see _two_copy_recovery).
    The uncoupling exp(i theta x (x) sigma_z) is exp(i theta s_q gen)
    on the Q = q half, s_q = +1, -1, so `kraus_stack` serves every grid theta
    from one eigendecomposition of gen; `channel`, the member at this theta,
    is built when it is first read. Extraction reads gen alone.
    """

    x: Observable
    target: tuple
    theta: float
    gen: np.ndarray = field(init=False, repr=False, compare=False)  # x embedded on target, without Q

    def __post_init__(self):
        object.__setattr__(self, "target", _as_space(self.target))
        _as_space(self.in_space)  # the target may not use the ancilla's label
        object.__setattr__(self, "theta", float(_thetas(self.theta)))
        object.__setattr__(self, "gen", _coupling(self.x, self.target))

    @property
    def in_space(self) -> tuple:
        return self.target + (Q_LABEL,)

    def kraus_stack(self, thetas) -> np.ndarray:
        """(t, 2 n_t, 2, 2 n_t) Kraus stack of the member at each theta: |psi_k><t, psi_k| W(theta)^dag,
        psi_k outer. The row <t, psi_k| W^dag is psi_k[q]^* times row t of exp(i theta s_q gen), the
        block of W^dag on the Q = q half (Q is the last factor)."""
        w_dag = _flow(thetas)(-self.gen)
        rows = w_dag.transpose(0, 2, 3, 1)[:, None] * KETS.conj()[:, None, None, :]  # (t, k, n_t, n_t, 2)
        ops = KETS[:, None, :, None] * rows.reshape(len(w_dag), len(KETS), len(self.gen), 1, -1)
        return ops.reshape(len(ops), -1, Q_LABEL.dim, ops.shape[-1])

    @cached_property
    def channel(self) -> KrausChannel:
        ops = self.kraus_stack((self.theta,))[0]
        return _trusted(KrausChannel, in_space=self.in_space, out_space=(Q_LABEL,), kraus=ops, trace_preserving=True)


@dataclass(frozen=True)
class IepResult:
    value: float
    theta_grid: tuple
    fit_residual: float
    method: str
    rescale: float | None = None
    branch_probability: float | None = None
    certified_gap: float | None = None

    def to_json(self) -> dict:
        return _json_fields(self)


@dataclass(frozen=True)
class ExtractionConfig:
    method: str = "extrapolated"
    thetas: tuple = (1e-2, 5e-3, 2.5e-3, 1.25e-3)
    fit_tol: float = 1e-6
    optimizer: OptimizerConfig = OptimizerConfig()

    def __post_init__(self):
        object.__setattr__(self, "thetas", tuple(map(float, self.thetas)))
        object.__setattr__(self, "fit_tol", float(self.fit_tol))
        if self.method not in ("extrapolated", "analytic"):
            raise ValueError(f"extraction method {self.method!r} is neither 'extrapolated' nor 'analytic'")
        if len(set(self.thetas)) < 2 or not all(0 < t < np.inf for t in self.thetas):
            raise ValueError(f"the theta grid {self.thetas!r} needs two or more distinct values, all above 0 and finite")
        if not 0 < self.fit_tol < np.inf:
            raise ValueError(f"fit_tol needs a finite value above 0, not {self.fit_tol!r}")

    def to_json(self) -> dict:
        return _json_fields(self)

    @classmethod
    def from_json(cls, d: dict) -> "ExtractionConfig":
        given = {f.name: d[f.name] for f in fields(cls) if f.name in d}
        return cls(**given | {"optimizer": OptimizerConfig.from_json(d.get("optimizer", {}))})


_DEFAULT_CFG = ExtractionConfig()


def canonical_recovery(x: Observable, target, theta: float) -> CanonicalRecovery:
    """R_{X,target} on target + Q: undo the X coupling, trace out target, dephase Q."""
    return CanonicalRecovery(x, target, theta)


@dataclass(frozen=True)
class Comb:
    """Q -> stage(U_{gen,theta}(block (x) Q)), with its canonical recoveries.

    block is the appended state (everything but Q), gen the coupling
    generator on some of its factors, stage the measurement or conjugation
    on the block alone: Q passes through it, and the loss maps Q to
    out_space, (stage output, Q). recoveries() returns CanonicalRecovery
    values: the first is the "canonical" recovery and every one
    warm-starts OPTIMIZE, in order. It is called only by those two modes,
    since some recoveries cost an oracle solve. A sub-normalised stage,
    whose Kraus operator was scaled by branch_scale, is renormalised per
    state by its branch probability, on the grid and in the exact value
    alike; branch_scale only rescales the reported mean probability.
    """

    block: DensityMatrix
    gen: Observable
    stage: KrausChannel = field(repr=False)
    recoveries: Callable[[], tuple] = field(repr=False)
    branch_scale: float | None = None

    def __post_init__(self):
        if self.stage.in_space != self.block.space:
            sp = [", ".join(f"{l.name}:{l.dim}" for l in s) for s in (self.stage.in_space, self.block.space)]
            raise ShapeError("stage input ({}) does not match the block ({})".format(*sp))
        if self.branch_scale is None and not self.stage.trace_preserving:
            raise ShapeError("a comb whose stage is a CP branch needs a branch_scale")
        if Q_LABEL.name in _names(self.stage.out_space):
            raise CompositeSpaceError(f"the stage output may not use the ancilla label {Q_LABEL.name!r}")

    @property
    def out_space(self) -> tuple:
        return self.stage.out_space + (Q_LABEL,)

    def kraus_stack(self, thetas) -> np.ndarray:
        """(t, r, d_out, 2) Kraus stack of the loss at each theta: its operators
        S_s U(theta) A_a, column by column the images of the Q basis states |k>.

        Appending maps |k> to m_a (x) |k> over the block's columns m, and the
        coupling acts on the Q = q half as the block E_q of flow(x), so column
        k is sum_q delta_kq (S_s E_q m_a) (x) |q>: the stage acts on each half,
        and Q, the last output factor, passes through.
        """
        em = _flow(thetas)(_coupling(self.gen, self.block.space)) @ self.block.sqrt_factor  # (t, 2, d, r_A)
        amp = self.stage.kraus @ (em[:, None] * ID2[:, :, None, None])[:, :, :, None]  # (t, k, 2, r_S, d_S, r_A)
        cols = amp.transpose(0, 1, 3, 5, 4, 2).reshape(len(em), len(ID2), -1, 2 * self.stage.dim_out)
        return cols.transpose(0, 2, 3, 1)

    def loss(self, theta: float) -> KrausChannel:
        ops, tp = self.kraus_stack((theta,))[0], self.stage.trace_preserving
        return _trusted(KrausChannel, in_space=(Q_LABEL,), out_space=self.out_space, kraus=ops, trace_preserving=tp)


def _pointer(meas: Instrument) -> Label:
    return Label("P", len(meas.branches))


def _pointer_observable(meas: Instrument, f) -> Observable:
    """sum_m f(m) |m><m| on the pointer P; outcome_values checks f, and a real diagonal is Hermitian."""
    return _trusted(Observable, space=(_pointer(meas),), data=np.diag(outcome_values(meas, f)))


def _meter_comb(rho: DensityMatrix, x: Observable, meas: Instrument, stage: KrausChannel, recoveries) -> Comb:
    """Comb(rho, x, stage, recoveries) for a stage on meas.in_space, after _check_system; an instrument
    with the state's names at other dimensions meets the Comb's stage check first, which names both."""
    if _names(meas.in_space) == _names(rho.space):
        comb = Comb(rho, x, stage, recoveries)
    _check_system(rho, x, meas)
    return comb


def error_comb(rho: DensityMatrix, a: Observable, meas: Instrument) -> Comb:
    """P_M o U_{A,theta} o A_rho from Q to (P, Q); recovery at the pushforward values."""
    p_label = _pointer(meas)
    pushforward = lambda: (canonical_recovery(_pointer_observable(meas, lt_error(rho, a, meas)[1]), (p_label,), 0.0),)
    return _meter_comb(rho, a, meas, pointer_channel(meas, p_label), pushforward)


def disturbance_comb(rho: DensityMatrix, b: Observable, meas: Instrument) -> Comb:
    """I_M o U_{B,theta} o A_rho from Q to (S', Q); LT recovery, then B itself."""
    out_sp = meas.out_space

    def recoveries():
        recs = [canonical_recovery(lt_disturbance(rho, b, meas)[1], out_sp, 0.0)]
        if meas.dim_in == space_dim(out_sp):
            recs.append(canonical_recovery(_trusted(Observable, space=out_sp, data=b.data), out_sp, 0.0))
        return tuple(recs)

    return _meter_comb(rho, b, meas, instrument_channel(meas), recoveries)


def _two_copy_labels(rho: DensityMatrix):
    if len(rho.space) != 1:
        raise ValueError("two-copy comb supports single-factor system spaces")
    base = rho.space[0]
    return Label(base.name + "2", base.dim), Label(base.name + "1", base.dim)


def _two_copy_recovery(x: Observable, s1: Label) -> CanonicalRecovery:
    """The canonical recovery through x on the readout, on (readout, S1), from checked arrays: its
    generator x (x) 1_S1 is the one broadcast product _lift forms for a leading label, and the
    readout name (P, S2 or S2o) differs from S1's by construction."""
    d = x.dim * s1.dim
    gen = (x.data[:, None, :, None] * np.eye(s1.dim)[:, None]).reshape(d, d) + 0.0
    return _trusted(CanonicalRecovery, x=x, target=x.space + (s1,), theta=0.0, gen=gen)


def two_copy_comb(rho: DensityMatrix, gen: Observable, meas: Instrument, kind: str, f=None) -> Comb:
    """Calibration comb on two copies: couple copy 1, measure copy 2.

    error: P_M on copy 2 -> (P, S1, Q), recovered through the pointer values
    f, which only recoveries() reads (ValueError without them); disturbance:
    I_M on copy 2 -> (S2, S1, Q), recovered through gen.
    Copy 2 is never coupled, so measuring it only prepares the readout K rho K^dag
    beside copy 1: the block is copy 1 alone, and the stage's Kraus operators
    are (K c) (x) 1_S1 over the readout's operators K and the columns c of
    rho = sum c c^dag, trace preserving since sum c^dag K^dag K c = tr rho = 1.
    Neither the stage nor the recovery lifts an operator onto both copies: each is one
    broadcast product over 1_S1, built from the arrays checked here.
    """
    s2, s1 = _two_copy_labels(rho)
    if gen.dim != s1.dim or meas.dim_in != s1.dim:  # before _check_system, whose messages cover the names
        raise ShapeError(f"two-copy comb: the generator and the instrument must act on {rho.space[0].name}:{s1.dim}")
    _check_system(rho, gen, meas)
    if kind == "error":
        p_label = _pointer(meas)
        readout, out = pointer_channel(meas, p_label).kraus, (p_label,)

        def recoveries():
            if f is None:
                raise ValueError("two-copy error extraction needs outcome values f")
            return (_two_copy_recovery(_pointer_observable(meas, f), s1),)
    elif kind == "disturbance":
        readout = meas.kraus
        d_out = readout.shape[1]
        out = (s2,) if d_out == s2.dim else (Label(s2.name + "o", d_out),)

        def recoveries():
            if d_out != s2.dim:
                raise ShapeError(
                    "the canonical two-copy disturbance recovery couples the readout back through the generator,"
                    f" so it needs an instrument that keeps the dimension, not {s1.dim} -> {d_out}"
                )
            return (_two_copy_recovery(_trusted(Observable, space=out, data=gen.data), s1),)
    else:
        raise ValueError(f"unknown two-copy kind {kind!r}")
    kc = (readout @ rho.sqrt_factor).transpose(0, 2, 1)  # (r_K, r_c, d_out): the prepared vectors K c
    ops = (kc[..., None, None] * np.eye(s1.dim)).reshape(-1, kc.shape[-1] * s1.dim, s1.dim) + 0.0
    stage = _trusted(KrausChannel, in_space=(s1,), out_space=out + (s1,), kraus=ops, trace_preserving=True)
    block = _trusted(DensityMatrix, space=(s1,), data=rho.data, sqrt_factor=rho.sqrt_factor)
    return Comb(block, _trusted(Observable, space=(s1,), data=gen.data), stage, recoveries)


# ---------------------------------------------------------------------------
# theta^2 extraction


@cache
def _fit_operator(thetas: tuple):
    """The design matrix [theta^2, theta^4] of a theta grid and its pseudo-inverse, formed
    once per grid. Row 0 of the pseudo-inverse gives c2, so the sum of its absolute values
    bounds how far an absolute error in each grid value moves c2."""
    th = np.array(thetas)
    design = np.stack([th**2, th**4], axis=1)
    pinv = np.linalg.pinv(design)
    design.setflags(write=False)
    pinv.setflags(write=False)
    return design, pinv


def _fit_c2(grid: list, fit_tol: float):
    design, pinv = _fit_operator(tuple(t for t, _ in grid))
    y = np.array([v for _, v in grid])
    coef = pinv @ y
    pred = design @ coef
    scale = max(float(np.abs(y).max()), 1e-7)
    residual = float(np.abs(pred - y).max()) / scale
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


def _coupling(x: Observable, sp) -> np.ndarray:
    """The coupling generator: x embedded on sp, the space without Q."""
    return x.data if tuple(x.space) == tuple(sp) else embed_matrix(x.data, x.space, sp)


def _thetas(thetas) -> np.ndarray:
    """A theta or a grid of them as a float array; a non-finite theta raises ValueError."""
    th = np.asarray(thetas, dtype=float)
    for t in th.ravel().tolist():  # math.isfinite: faster than numpy on a few values
        if not math.isfinite(t):
            raise ValueError(f"theta must be finite, got {t}")
    return th


def _flow(thetas):
    """g -> the (t, 2, d, d) stack exp(-i theta s_q g) over the grid thetas and s_q = +1, -1, from one eigh."""
    th = np.multiply.outer(_thetas(thetas), SIGNS)
    return lambda g: _expm_herm(g, th)


def _renormalised(comb: Comb, d2: np.ndarray, q: Callable[[], np.ndarray]):
    """The (t,) array d2 and the mean branch probability (None for a trace-preserving stage).

    A branch comb divides d2 by its branch probability, the array q() of d2's
    shape, which only a branch comb computes; q <= 1e-12 raises
    BranchProbabilityError, and q / branch_scale^2 is the reported mean.
    """
    if comb.branch_scale is None:
        return d2, None
    q = q()
    if np.min(q) <= TOL_PROB:
        raise BranchProbabilityError(f"branch probability {np.min(q)} below 1e-12")
    return d2 / q, float(np.mean(q / (comb.branch_scale * comb.branch_scale)))


def _sq_norms(z: np.ndarray) -> np.ndarray:
    """(t,) squared Frobenius norms of the t leading slices of z."""
    z = z.reshape(len(z), -1)
    return np.einsum("ij,ij->i", z.conj(), z).real


def _canonical(comb: Comb, recovery: CanonicalRecovery, thetas=None):
    """delta^2 at each theta of thetas under a canonical recovery, or its theta^2 coefficient
    c2 when thetas is None, by the closed forms above, and the mean branch probability.

    Both test states give the same D^2, and the same branch probability q = ||L psi_k||^2
    by which a branch comb divides it: 1/2 sum_q ||S~ D_q B||^2 with S~ = V'^dag S V,
    B = V^dag m and D_q = diag(exp(-i theta s_q l)) on the grid, sum_s ||S_s m||^2 at 0.
    """
    if recovery.in_space != (out := comb.out_space):
        raise ShapeError(f"recovery input space {_names(recovery.in_space)} does not match the loss output {_names(out)}")
    s, m, x = comb.stage.kraus, comb.block.sqrt_factor, _coupling(comb.gen, comb.block.space)
    if thetas is None:
        d2 = _sq_norms(((recovery.gen @ s - s @ x) @ m)[None])
        return _renormalised(comb, d2, lambda: _sq_norms((s @ m)[None]))
    lam, v = _eigh_herm(x)
    lam_r, v_r = (lam, v) if np.array_equal(recovery.gen, x) else _eigh_herm(recovery.gen)  # x' = x: share
    st, b = v_r.conj().T @ s @ v, v.conj().T @ m  # S~ (r_S, d_out, d), B (d, r_A)
    th = np.asarray(thetas, dtype=float)
    sines = np.sin(th[:, None, None, None] * (lam_r[:, None] - lam))  # (t, 1, d_out, d)
    d2 = _sq_norms((sines * st) @ b)

    def q():
        db = np.exp(-1j * np.multiply.outer(np.multiply.outer(th, SIGNS), lam))[..., None] * b  # (t, 2, d, r_A)
        return _sq_norms((st[:, None, None] @ db).swapaxes(0, 1)) / 2

    return _renormalised(comb, d2, q)


def extract(comb: Comb, recovery="canonical", cfg: ExtractionConfig | None = None) -> IepResult:
    """lim delta^2/theta^2 of a comb under a recovery.

    recovery: "canonical" (the comb's first canonical recovery) or a
    CanonicalRecovery, both evaluated at each grid theta; an explicit
    KrausChannel held fixed across the grid, or OPTIMIZE to minimize over
    recoveries at each theta, warm-started from every canonical recovery of
    the comb. A canonical grid is the closed form sum_s ||(sin(theta Delta) o
    S~_s) B||^2 of the module docstring, every theta from one
    eigendecomposition of each generator. A fixed recovery and OPTIMIZE pass
    the loss's Kraus stack over the grid through delta_with_recovery's and
    delta_min's kernels in one pass, OPTIMIZE with a gradient search only at
    a theta whose gap stays open. The test ensemble is pure, so each OPTIMIZE
    grid value is certified by the dual bound, and certified_gap is the worst
    gap over theta: every grid value lies within it of the minimum over all
    CPTP recoveries. cfg.method="analytic" needs a canonical recovery and
    returns the commutator form c2 = sum_s ||(x' S_s - S_s x) m||^2 exactly.
    """
    cfg = cfg or _DEFAULT_CFG
    words = ("canonical", OPTIMIZE)
    if not (isinstance(recovery, (CanonicalRecovery, KrausChannel)) or isinstance(recovery, str) and recovery in words):
        raise TypeError(f"unsupported recovery {recovery!r}")
    if recovery == "canonical":
        recovery = comb.recoveries()[0]

    if cfg.method == "analytic":
        if not isinstance(recovery, CanonicalRecovery):
            raise ValueError("analytic extraction needs a canonical recovery")
        c2, branch = _canonical(comb, recovery)
        return IepResult(float(c2[0]), (), 0.0, "analytic", branch_probability=branch)

    branch = gap = None
    if isinstance(recovery, CanonicalRecovery):
        values, branch = _canonical(comb, recovery, cfg.thetas)
    else:
        loss = (comb.kraus_stack(cfg.thetas), ((Q_LABEL,), comb.out_space), comb.stage.trace_preserving)
        if recovery == OPTIMIZE:
            warm = [rec.kraus_stack(cfg.thetas) for rec in comb.recoveries()]
            reps = _delta_min(*loss, omega_pm(), cfg.optimizer, warm)
            gap = max(rep.certified_gap for rep in reps)  # omega_pm is pure, so every gap is set
        else:
            reps = _delta_with_recovery(*loss, recovery, omega_pm())
            if comb.branch_scale is not None:
                branch = float(np.mean([rep.branch_probabilities for rep in reps])) / comb.branch_scale**2
        values = [rep.delta**2 for rep in reps]
    grid = [(float(t), float(v)) for t, v in zip(cfg.thetas, values)]
    c2, residual = _fit_c2(grid, cfg.fit_tol)
    if c2 < -1e-9:
        raise ExtractionError(
            f"extracted value {c2} is negative beyond tolerance",
            diagnostics={"theta_grid": [list(p) for p in grid], "method": "extrapolated"},
        )
    return IepResult(c2, tuple(grid), residual, "extrapolated", branch_probability=branch, certified_gap=gap)


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
    return extract(error_comb(rho, a, meas), recovery, cfg)


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
    return extract(disturbance_comb(rho, b, meas), recovery, cfg)


def extract_two_copy(
    rho: DensityMatrix,
    gen: Observable,
    meas: Instrument,
    kind: str,
    f=None,
    cfg: ExtractionConfig | None = None,
) -> IepResult:
    """Squared calibration error/disturbance from the two-copy comb.

    error kind: f gives the pointer values (required); disturbance kind: the
    recovery couples the measured copy back through `gen`.
    """
    return extract(two_copy_comb(rho, gen, meas, kind, f), "canonical", cfg)
