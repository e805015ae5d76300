"""Irreversibility of a channel with respect to a test ensemble.

delta(L, R, Omega) = sqrt(sum_k p_k D_F(rho_k, R(L(rho_k)))^2) for a fixed
recovery R, and delta_min minimizes that quantity over CPTP recoveries. A
sub-normalised CP branch L enters through its renormalised outputs
L(rho_k) / tr L(rho_k). The Petz transpose channel is always scored, so the
optimized value never exceeds the Petz value.

For an ensemble of pure states delta^2(R) = tr(C_R Q_perp) is linear in the
recovery's Choi matrix C_R, and any Hermitian Y with 1 (x) Y <= Q_perp bounds
the minimum from below by tr Y (the dual of the SDP over CP maps). delta_min
builds such a Y from its best candidate and reports the certified gap between
the value and that bound; when the Petz recovery or a warm start already
closes the gap, it returns without any gradient search. For mixed members
the value comes from projected gradient ascent on a Stinespring isometry and
is only a local optimum. An ascent from Petz or a warm start runs on that
start's Kraus rank; a random restart has d_in * d_out Kraus operators.

delta_with_recovery and delta_min are the one-loss cases of two kernels over
a stack of losses, such as the theta grid of a comb: the outputs, the Petz
recovery, the scores and the dual certificate each take one array pass over
the stack. The kernels check the ensemble, the loss and the recovery, so a
stacked caller gets the same checks as the public functions.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import BranchProbabilityError, ShapeError, StateValidityError
from .qcore import (
    TOL_EIG_SKIP,
    TOL_FACTOR,
    TOL_PROB,
    DensityMatrix,
    KrausChannel,
    TestEnsemble,
    _as_int,
    _herm_eigh,
    _infidelity,
    _outputs,
    _trusted,
    kraus_from_choi,
)

__all__ = [
    "OptimizerConfig",
    "DeltaReport",
    "delta_with_recovery",
    "delta_min",
    "petz_recovery",
]


def _json_fields(obj, *skip: str) -> dict:
    """A report or config dataclass as JSON: every field but skip under its own name,
    None fields left out, a nested config through its own to_json."""
    return {
        f.name: v.to_json() if hasattr(v, "to_json") else v
        for f in fields(obj)
        if f.name not in skip and (v := getattr(obj, f.name)) is not None
    }


@dataclass(frozen=True)
class OptimizerConfig:
    seed: int = 0
    max_iters: int = 2000
    step: float = 0.1
    restarts: int = 4
    tol: float = 1e-10

    def __post_init__(self):
        """A seed or count must be an integral real (2.0 is stored as 2): ValueError otherwise.
        Every real field is stored as its default's type."""
        given = {f.name: (type(f.default), getattr(self, f.name)) for f in fields(self)}
        if bad := {k: x for k, (t, x) in given.items() if t is int and _as_int(x) is None}:
            raise ValueError(f"optimizer seed, max_iters and restarts must be integers, not {bad}")
        for k, (t, x) in given.items():
            if isinstance(x, numbers.Real):  # a step or tol that is not real is left for the range check to refuse
                object.__setattr__(self, k, t(x))
        if not (self.max_iters >= 1 and self.restarts >= 0 and 0 < self.step < np.inf and 0 <= self.tol < np.inf):
            raise ValueError(
                f"optimizer needs max_iters >= 1, restarts >= 0, a finite step > 0 and a finite tol >= 0, "
                f"not max_iters={self.max_iters!r}, restarts={self.restarts!r}, step={self.step!r}, tol={self.tol!r}"
            )

    def to_json(self) -> dict:
        return _json_fields(self)

    @classmethod
    def from_json(cls, d: dict) -> "OptimizerConfig":
        """Missing fields keep their defaults."""
        return cls(**{f.name: d[f.name] for f in fields(cls) if f.name in d})


@dataclass(frozen=True)
class DeltaReport:
    """Result of an irreversibility evaluation.

    per_state pairs each ensemble index with its distance contribution;
    delta**2 == sum_k p_k per_state[k]**2 up to rounding. local_optimum is
    True whenever the value came out of delta_min; converged is False when
    the iteration budget ran out before the objective settled.
    certified_gap, set by delta_min for an ensemble of pure states (None
    otherwise), bounds delta**2 - min_R delta(R)**2 from above, a rounding
    allowance included: the value is the certified optimum within it.
    """

    delta: float
    per_state: tuple
    recovery_used: KrausChannel = field(repr=False)
    optimizer_trace: tuple | None = None
    converged: bool = True
    local_optimum: bool = False
    branch_probabilities: tuple | None = None
    certified_gap: float | None = None

    def to_json(self) -> dict:
        return _json_fields(self, "recovery_used")


def _members(omega: TestEnsemble, space: tuple):
    """The ensemble, which must live on space, as arrays: weights p (n,), states rho (n, d, d),
    their eigenvectors (n, d, d) in ascending order of eigenvalue, which members are pure (one
    eigenvalue above 1e-12), with psi_k the last eigenvector, and the factors m (n_m, d, d) of
    the mixed ones, rho_k = m_k m_k^H, a zero column where sqrt_factor drops an eigenpair (or None)."""
    if omega.space != space:
        raise ShapeError("ensemble space does not match the loss input space")
    p = np.array([w for w, _ in omega.entries])
    rho = np.stack([r.data for _, r in omega.entries])
    vals, vecs = np.linalg.eigh(rho)
    pure = np.count_nonzero(vals > TOL_EIG_SKIP, axis=-1) == 1
    m = None if pure.all() else vecs[~pure] * np.sqrt(np.where(vals > TOL_FACTOR, vals, 0.0))[~pure, None, :]
    return p, rho, vecs, pure, m


def _pure_d2(amp: np.ndarray, vecs: np.ndarray, kraus: np.ndarray) -> np.ndarray:
    """sum_ij ||(1 - |psi><psi|) R_j L_i psi||^2 from the loss amplitudes amp
    (..., r, d_out) = L_i psi, the eigenvectors vecs (..., d, d) of |psi><psi|,
    psi last, and the recovery's Kraus stack (..., r_R, d, d_out): non-negative
    terms that do not cancel near zero as 1 - F^2 does."""
    bras = vecs[..., None, :, :-1].conj().swapaxes(-1, -2) @ kraus  # <psi^perp| R_j
    bras = bras.reshape(*bras.shape[:-3], -1, bras.shape[-1])
    return np.sum(np.abs(amp @ bras.swapaxes(-1, -2)) ** 2, axis=(-2, -1))


def _amplitudes(kraus: np.ndarray, members: tuple) -> tuple:
    """The Kraus stack kraus (t, r, d_out, d_in) on the members as _members gives them: the (t, n,
    r, d_out) amplitudes L_i psi_k, and the (t, n_m, r, d_out, d) columns L_i m_k (or None)."""
    _, _, vecs, _, m = members
    return (kraus[:, None] @ vecs[:, None, :, -1:])[..., 0], None if m is None else kraus[:, None] @ m[:, None]


def _sigmas(amps: tuple, members: tuple) -> np.ndarray:
    """(t, n, d_out, d_out) outputs sigma_k = L(rho_k) at each loss of a stack, from its
    _amplitudes amps and the members as _members gives them: sum_i (L_i psi_k)(L_i psi_k)^H
    for a pure member and sum_i (L_i m_k)(L_i m_k)^H for a mixed one, one product each."""
    (amp, lm), pure = amps, members[3]
    sigmas = amp.swapaxes(-1, -2) @ amp.conj()
    if lm is not None:
        t, n_m, r_l, d_out, d = lm.shape
        cols = lm.transpose(0, 1, 3, 2, 4).reshape(t, n_m, d_out, r_l * d)  # [L_1 m_k, ..., L_r m_k]
        sigmas[:, ~pure] = cols @ cols.conj().swapaxes(-1, -2)
    return sigmas


def _distances(amps: tuple, recovery: np.ndarray, members: tuple, q=1.0) -> np.ndarray:
    """(t, n) distances D_k after each loss of a stack of t losses, whose _amplitudes are
    amps, and the recovery stack recovery (t, r_R, d_in, d_out) at it, for the members
    as _members gives them. A pure member scores _pure_d2 / q, q (t, n) the branch
    probabilities. A mixed one scores 1 - F^2 = h (2 - h), h = qcore._infidelity of its
    factor m_k and its round trip's factor [R_j L_i m_k], which that kernel scales to
    unit trace in place of the division by q: no output state is formed."""
    (amp, lm), (_, _, vecs, pure, m) = amps, members
    # every member in the amplitude form, the mixed ones overwritten: a copied pure
    # subset of vecs would take another BLAS path
    sq = _pure_d2(amp, vecs, recovery[:, None]) / q if pure.any() else np.empty(amp.shape[:2])
    if lm is not None:
        t, n_m, r_l, d_out, d = lm.shape
        # every R_j on every column L_i m_k in one product, then gathered into (t, n_m, d_in, r_R r_L d)
        phi = recovery.reshape(*recovery.shape[:-3], -1, d_out) @ lm.transpose(0, 3, 1, 2, 4).reshape(t, d_out, -1)
        h = _infidelity(m, phi.reshape(t, -1, d, n_m, r_l * d).transpose(0, 3, 2, 1, 4).reshape(t, n_m, d, -1))
        sq[:, ~pure] = h * (2.0 - h)
    return np.sqrt(sq)


def _rms(p: np.ndarray, per: np.ndarray) -> np.ndarray:
    """sqrt(sum_k p_k per_k^2) over the last axis, added in member order."""
    return np.sqrt(np.maximum(np.add.accumulate(p * per * per, axis=-1)[..., -1], 0.0))


def _check_recovery(rec: KrausChannel, spaces: tuple, what: str):
    """ShapeError unless rec is a trace-preserving channel back from a loss on the (input, output) spaces."""
    if (rec.in_space, rec.out_space) != spaces[::-1] or not rec.trace_preserving:
        raise ShapeError(f"{what} must be a trace-preserving channel from the loss output to its input")


def _delta_with_recovery(kraus: np.ndarray, spaces: tuple, tp: bool, recovery: KrausChannel, omega: TestEnsemble) -> list:
    """delta_with_recovery at each loss of the Kraus stack kraus (t, r, d_out, d_in), whose
    (input, output) spaces are spaces and which is trace preserving when tp is: one
    DeltaReport per loss, every loss and member in one array pass."""
    _check_recovery(recovery, spaces, "the recovery")
    members = _members(omega, spaces[0])
    q, probs = 1.0, [None] * len(kraus)
    if not tp:
        q = np.trace(_outputs(kraus, members[1]), axis1=-2, axis2=-1).real
        low = np.argwhere(q <= TOL_PROB)
        if low.size:
            i, k = low[0]
            raise BranchProbabilityError(f"branch probability {q[i, k]} for state {k} below 1e-12")
        probs = [tuple(row) for row in q.tolist()]
    per = _distances(_amplitudes(kraus, members), recovery.kraus[None], members, q)
    return [
        DeltaReport(delta, tuple(enumerate(row)), recovery_used=recovery, branch_probabilities=b)
        for delta, row, b in zip(_rms(members[0], per).tolist(), per.tolist(), probs)
    ]


def delta_with_recovery(
    loss: KrausChannel, recovery: KrausChannel, omega: TestEnsemble
) -> DeltaReport:
    """Root-mean-square purified distance after loss followed by recovery.

    A pure member psi_k contributes sum_ij ||(1 - |psi_k><psi_k|) R_j L_i
    psi_k||^2, non-negative terms that do not cancel near zero as 1 - F^2
    does; a mixed member its round trip's squared purified distance. The
    recovery must be trace preserving. A CP-branch loss is renormalised per
    member by its branch probability q_k = tr L(rho_k), which is reported in
    branch_probabilities; q_k <= 1e-12 raises BranchProbabilityError.
    """
    spaces = (loss.in_space, loss.out_space)
    return _delta_with_recovery(loss.kraus[None], spaces, loss.trace_preserving, recovery, omega)[0]


def petz_recovery(loss: KrausChannel, sigma_ref: DensityMatrix) -> KrausChannel:
    """Petz transpose channel of `loss` with respect to `sigma_ref`.

    Eigenvalues of loss(sigma_ref) below 1e-12 are pseudo-inverted as zero;
    the resulting trace deficiency on the kernel is repaired by branches that
    reprepare sigma_ref, keeping the map exactly CPTP. The loss must be trace
    preserving.
    """
    if not isinstance(sigma_ref, DensityMatrix):
        raise StateValidityError("sigma_ref must be a DensityMatrix")
    if sigma_ref.space != loss.in_space:
        raise ShapeError("sigma_ref must live on the loss input space")
    if not loss.trace_preserving:
        raise ShapeError("petz_recovery needs a trace-preserving loss; a CP-branch loss takes a fixed recovery")
    ops = _petz(loss.kraus[None], sigma_ref.data, _outputs(loss.kraus[None], sigma_ref.data[None])[:, 0])[0]
    return _trusted(KrausChannel, in_space=loss.out_space, out_space=loss.in_space, kraus=ops, trace_preserving=True)


def _choi(kraus: np.ndarray) -> np.ndarray:
    """Choi matrices sum_j vec(K_j) vec(K_j)^H, row-major vec, of each (..., r, a, b) Kraus
    stack, in one matmul (qcore.choi adds in operator order, one channel at a time)."""
    v = kraus.reshape(*kraus.shape[:-2], -1)
    return v.swapaxes(-1, -2) @ v.conj()


def _minimal(kraus: np.ndarray) -> np.ndarray:
    """Each (..., r, a, b) Kraus stack re-extracted from its Choi matrix, padded as kraus_from_choi pads."""
    return kraus_from_choi(_choi(kraus), kraus.shape[-1], kraus.shape[-2])


def _petz(kraus: np.ndarray, sigma_ref: np.ndarray, out_ref: np.ndarray) -> np.ndarray:
    """(t, r, d_in, d_out) minimal Kraus stacks of the Petz recovery of each loss of
    the stack kraus (t, r_L, d_out, d_in) with respect to sigma_ref, whose image under
    each loss is out_ref (t, d_out, d_out), as petz_recovery documents; ranks that
    differ over the stack are padded with zero operators."""
    vals, vecs = np.linalg.eigh(out_ref)
    live = vals > TOL_EIG_SKIP
    inv_half = (vecs * np.where(live, vals, np.inf)[:, None, :] ** -0.5) @ vecs.conj().swapaxes(1, 2)
    svals, svecs = _herm_eigh(sigma_ref)  # one decomposition for the root and the repair kets
    root = (svecs * np.sqrt(np.clip(svals, 0.0, None))) @ svecs.conj().T
    ops = root @ kraus.conj().swapaxes(-1, -2) @ inv_half[:, None]
    if not live.all():
        # sqrt(s) |s><v| for each eigenpair of sigma_ref above 1e-12 (outer) and each
        # eigenvector v of the output, zero unless v spans the output's kernel
        keep = svals > TOL_EIG_SKIP
        kets = (np.sqrt(svals[keep]) * svecs[:, keep]).T
        rows = vecs.conj().swapaxes(1, 2) * ~live[:, :, None]
        rep = kets[None, :, None, :, None] * rows[:, None, :, None, :]
        ops = np.concatenate([ops, rep.reshape(len(ops), -1, *ops.shape[2:])], axis=1)
    return _minimal(ops)


def _isometry(ops: np.ndarray) -> np.ndarray:
    """Stack the r Kraus operators ops (r, d_in, d_out) into V with V[i*r + e, o] = K_e[i, o], no
    zero operators added (the ascent acts on V's input factor only, so a zero environment block
    stays zero); more than d_in * d_out are first re-extracted to at most that many from their Choi matrix."""
    r, d_in, d_out = ops.shape
    return (ops if r <= d_in * d_out else _minimal(ops)).transpose(1, 0, 2).reshape(-1, d_out)


def _qr_retract(a: np.ndarray) -> np.ndarray:
    q, r = np.linalg.qr(a)
    d = np.diagonal(r).copy()
    d[np.abs(d) < 1e-300] = 1.0
    return q * (d / np.abs(d))


def _step_retract(a: np.ndarray) -> np.ndarray:
    """_qr_retract(a) for a trial step a = V + s G off the isometry V along its
    tangent part G, by Cholesky QR: L = chol(A^H A), Q = A L^-H.

    A^H A = 1 + s^2 G^H G >= 1, so tr(A^H A) bounds cond(A)^2, and Cholesky QR
    loses orthogonality as cond(A)^2 eps. A step whose trace is above 1e3 or
    not finite takes the Householder factor instead.
    """
    if not np.vdot(a, a).real <= 1e3:
        return _qr_retract(a)
    return a @ np.linalg.inv(np.linalg.cholesky(a.conj().T @ a)).conj().T


class _Objective:
    """J(V) = sum_k p_k F^2(rho_k, tr_env V sigma_k V^H) and its gradient.

    V has shape (d_in * r, d_out) with V[j * r + e, o] = K_e[j, o], the
    recovery's r Kraus operators stacked as in _isometry, r read from V's
    shape; its row view reshapes it to (d_in, r * d_out). The ensemble is split once,
    at construction, into two stacked groups, each evaluated per call with one
    batched matmul chain:

    - pure members, rho_k = |psi_k><psi_k|: amplitudes psi (n_p, d_in) and
      sigma_k (n_p, d_out, d_out), with F^2 = <psi_k| R(sigma_k) |psi_k>;
    - mixed members: the factors m_k (n_m, d_in, d_in) of _members and sigma_k
      (n_m, d_out, d_out), with F^2 = (tr sqrt M_k)^2 for M_k = m_k^H R(sigma_k) m_k
      (the spectrum of sqrt(rho_k) R(sigma_k) sqrt(rho_k)), all M_k in one stacked eigh.

    members are the ensemble as _members gives it and sigmas the (n, d_out,
    d_out) stack of the loss outputs. value returns J and the products and
    eigendecompositions it formed; grad turns those into G = dJ/d(conj V),
    shaped like V, so that dJ = 2 Re <G, dV> = 2 Re sum(conj(G) * dV).
    """

    def __init__(self, members: tuple, sigmas: np.ndarray):
        p, rho, vecs, pure, m = members
        self.d_in = rho.shape[-1]
        self.d_out = sigmas.shape[-1]
        self.pure = (p[pure], vecs[pure, :, -1], sigmas[pure]) if pure.any() else None
        self.mixed = (p[~pure], m, sigmas[~pure]) if m is not None else None

    def value(self, v: np.ndarray):
        rows = v.reshape(self.d_in, -1)
        total = 0.0
        asig = mixed = None
        if self.pure is not None:
            p, psi, sig = self.pure
            a = (psi.conj() @ rows).reshape(len(p), -1, self.d_out)
            asig = a @ sig
            total += np.vdot(a, p[:, None, None] * asig).real
        if self.mixed is not None:
            p, m, sig = self.mixed
            vs = (v @ sig).reshape(len(p), self.d_in, -1)
            # eigh reads one triangle of the Hermitian M_k, so M_k is not symmetrized
            mv, mw = np.linalg.eigh(m.conj().swapaxes(1, 2) @ (vs @ rows.conj().T) @ m)
            root = np.sqrt(np.maximum(mv, 0.0))
            f = root.sum(axis=1)
            total += p @ (f * f)
            mixed = vs, mv, mw, root, f
        return float(total), (asig, mixed)

    def grad(self, parts) -> np.ndarray:
        asig, mixed = parts
        grad = 0.0
        if asig is not None:
            p, psi, _ = self.pure
            grad = grad + (psi.T * p) @ asig.reshape(len(p), -1)
        if mixed is not None:
            p, m, _ = self.mixed
            vs, mv, mw, root, f = mixed
            # p_k F_k m_k M_k^{-1/2} m_k^H = x s x^H for x = m_k W_k,
            # with M_k's kernel dropped from the inverse square root
            s = np.divide((p * f)[:, None], root, out=np.zeros_like(root), where=mv > TOL_EIG_SKIP)
            x = m @ mw
            w = (x * s[:, None, :]) @ x.conj().swapaxes(1, 2)
            grad = grad + np.sum(w @ vs, axis=0)
        return grad.reshape(-1, self.d_out)


def _certified_gap(p, vecs, sigmas, choi, value) -> np.ndarray:
    """value - tr Y + allowance at each loss of a stack, for pure members.

    p (n,) and vecs (n, d_in, d_in) are the members as _members gives them,
    sigmas (t, n, d_out, d_out) their outputs, choi (t, n_c, n_c) the Choi
    matrix C_R of a recovery at each loss (row-major, n_c = d_in * d_out) and
    value (t,) its delta^2. With Q_perp = sum_k p_k (1 - |psi_k><psi_k|) (x)
    sigma_k^T on (recovery out) (x) (recovery in), delta^2(R) = tr(C_R Q_perp).
    Y0 = Herm tr_out(Q_perp C_R) is the dual point at which C_R would be
    optimal; Y = Y0 + lam 1 with lam = lambda_min(Q_perp - 1 (x) Y0) satisfies
    1 (x) Y <= Q_perp, so tr Y <= delta^2(R') for every CPTP R'. The allowance
    covers the rounding of the eigensolver and the sums.
    """
    t, _, d_out, _ = sigmas.shape
    d_in = vecs.shape[-1]
    n = d_in * d_out
    psi = vecs[..., -1]
    perp = np.eye(d_in) - psi[:, :, None] * psi.conj()[:, None, :]
    q_perp = np.einsum("kab,tkdc->tacbd", p[:, None, None] * perp, sigmas).reshape(t, n, n)
    blocks = (t, d_in, d_out, d_in, d_out)
    y = np.einsum("tacad->tcd", (q_perp @ choi).reshape(blocks))
    y = (y + y.conj().swapaxes(1, 2)) / 2
    shifted = q_perp.reshape(blocks) - np.eye(d_in)[:, None, :, None] * y[:, None, :, None, :]
    lam = np.linalg.eigvalsh(shifted.reshape(t, n, n))[:, 0]  # Q_perp - 1 (x) Y0
    lower = np.trace(y, axis1=1, axis2=2).real + d_out * lam
    return value - lower + 16 * np.finfo(float).eps * n * d_out


def _tangent_part(v: np.ndarray, g: np.ndarray) -> np.ndarray:
    """g - V Herm(V^H g): the ascent direction at the isometry V.

    The normal part V Herm(V^H g) would pass into the QR factor, and a step
    along it can lower J to first order.
    """
    vg = v.conj().T @ g
    return g - v @ ((vg + vg.conj().T) / 2)


def _ascend(obj: _Objective, v0: np.ndarray, cfg: OptimizerConfig):
    """Projected gradient ascent of J from the isometry v0. A trial step takes
    only J; the gradient is formed once a step is accepted."""
    v = v0
    j, parts = obj.value(v)
    g = _tangent_part(v, obj.grad(parts))
    step = cfg.step
    trace = [(0, max(0.0, 1.0 - j))]
    converged = False
    it = 0
    while it < cfg.max_iters:
        it += 1
        cand = _step_retract(v + step * g)
        jc, parts = obj.value(cand)
        if jc > j:
            improved = jc - j
            v, j, g = cand, jc, _tangent_part(cand, obj.grad(parts))
            step *= 1.5
            trace.append((it, max(0.0, 1.0 - j)))
            if improved < cfg.tol:
                converged = True
                break
        else:
            step *= 0.5
            if step < 1e-12:
                converged = True
                break
    return v, j, tuple(trace), converged


def _ascents(obj: _Objective, kraus: list, cfg: OptimizerConfig):
    """(Kraus stack, trace, converged) of the ascent from each recovery Kraus
    stack in kraus, on its own Kraus rank, then from cfg.restarts random
    isometries with d_in * d_out Kraus operators, drawn from cfg.seed."""
    d_in, d_out = obj.d_in, obj.d_out
    rng = np.random.default_rng(cfg.seed)
    shape = (d_in * d_in * d_out, d_out)
    draws = [rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in range(cfg.restarts)]
    for v0 in [*map(_isometry, kraus), *map(_qr_retract, draws)]:
        v, _, trace, conv = _ascend(obj, v0, cfg)
        # contiguous, as the returned channel stores it, so the score is that channel's
        yield np.ascontiguousarray(_minimal(v.reshape(d_in, -1, d_out).transpose(1, 0, 2))), trace, conv


def _delta_min(kraus: np.ndarray, spaces: tuple, tp: bool, omega: TestEnsemble, cfg: OptimizerConfig, warm: list) -> list:
    """delta_min at each loss of the Kraus stack kraus (t, r, d_out, d_in), whose
    (input, output) spaces are spaces and which must be trace preserving (tp):
    one DeltaReport per loss.

    warm holds one (t, r_w, d_in, d_out) Kraus stack per warm start. The
    outputs, the Petz recovery of the ensemble average, the scores of Petz
    and of every warm start over all (loss, member) pairs and, for pure
    members, the dual certificate of the best of them are each one array
    pass over the stack. The gradient search runs only at a loss whose
    certified gap is above cfg.tol, or at every loss when a member is mixed;
    it starts from that loss's Petz and warm starts, and each ascended
    candidate is scored by the same pass. Only the returned recoveries are
    built as channels.
    """
    if not tp:
        raise ShapeError("delta_min needs a trace-preserving loss; a CP-branch loss takes a fixed recovery")
    members = _members(omega, spaces[0])
    p, rho, vecs, pure, _ = members
    amps = _amplitudes(kraus, members)
    sigmas = _sigmas(amps, members)
    # the loss is linear, so the image of the ensemble average is the average output
    rho_avg = (p @ rho.reshape(len(p), -1)).reshape(rho.shape[1:])
    sigma_avg = (p @ sigmas.swapaxes(0, 1).reshape(len(p), -1)).reshape(sigmas[:, 0].shape)
    cands = [_petz(kraus, rho_avg, sigma_avg), *warm]
    per = np.stack([_distances(amps, c, members) for c in cands])  # (candidate, t, n)
    delta = _rms(p, per)
    win = np.argmin(delta, axis=0)  # ties keep the earlier candidate
    at = np.arange(len(kraus))
    gaps = [None] * len(at)
    if pure.all():
        chois = np.stack([_choi(c) for c in cands])[win, at]
        gaps = _certified_gap(p, vecs, sigmas, chois, delta[win, at] ** 2).tolist()
    reports = []
    for i, c, gap in zip(at, win.tolist(), gaps):
        best = start = (float(delta[c, i]), per[c, i], cands[c][i], ((0, float(delta[c, i]) ** 2),), True)
        if gap is None or gap > cfg.tol:
            obj = _Objective(members, sigmas[i])
            for ops, trace, conv in _ascents(obj, [c[i] for c in cands], cfg):
                dk = _distances([a[i : i + 1] if a is not None else a for a in amps], ops[None], members)[0]
                value = float(_rms(p, dk))
                if value < best[0]:
                    best = (value, dk, ops, trace, conv)
            if best is not start and gap is not None:
                gap = float(_certified_gap(p, vecs, sigmas[i : i + 1], _choi(best[2])[None], np.array([best[0] ** 2]))[0])
        value, dk, ops, trace, conv = best
        recovery = _trusted(KrausChannel, in_space=spaces[1], out_space=spaces[0], kraus=ops, trace_preserving=True)
        reports.append(DeltaReport(value, tuple(enumerate(dk.tolist())), recovery, trace, conv, True, certified_gap=gap))
    return reports


def delta_min(
    loss: KrausChannel,
    omega: TestEnsemble,
    cfg: OptimizerConfig | None = None,
    warm_starts: tuple = (),
) -> DeltaReport:
    """Irreversibility minimized over CPTP recoveries.

    Scores the Petz recovery and any caller warm starts. For an ensemble of
    pure states it certifies the best of them with a dual bound, and when
    the certified gap is at most cfg.tol it returns that candidate without a
    gradient search. Otherwise it runs gradient ascent on sum_k p_k F^2 from
    Petz, the warm starts and cfg.restarts random isometries, keeps the best
    of every candidate, and certifies it when the members are pure. The
    returned delta never exceeds the plain Petz value; certified_gap bounds
    its distance to the global minimum (None for mixed members, where only a
    local optimum is found). The loss must be trace preserving, and each warm
    start a trace-preserving channel from its output back to its input.
    """
    spaces = (loss.in_space, loss.out_space)
    for w in warm_starts:
        _check_recovery(w, spaces, "a warm start")
    warm = [w.kraus[None] for w in warm_starts]
    return _delta_min(loss.kraus[None], spaces, loss.trace_preserving, omega, cfg or OptimizerConfig(), warm)[0]
