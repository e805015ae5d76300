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
is only a local optimum.

delta_min is the one-loss case of a kernel over a stack of losses, such as
an OPTIMIZE grid: the outputs, the Petz recovery, the scores and the dual
certificate each take one array pass over the stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cache

import numpy as np

from .errors import BranchProbabilityError, ShapeError, StateValidityError
from .qcore import (
    TOL_EIG_SKIP,
    TOL_PROB,
    DensityMatrix,
    KrausChannel,
    TestEnsemble,
    _names,
    _psd_sqrt,
    apply,
    apply_raw,
    kraus_from_choi,
    purified_distance,
)

__all__ = [
    "OptimizerConfig",
    "DeltaReport",
    "delta_with_recovery",
    "delta_min",
    "petz_recovery",
]


@dataclass(frozen=True)
class OptimizerConfig:
    seed: int = 0
    max_iters: int = 2000
    step: float = 0.1
    restarts: int = 4
    tol: float = 1e-10

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "max_iters": self.max_iters,
            "step": self.step,
            "restarts": self.restarts,
            "tol": self.tol,
        }

    @classmethod
    def from_json(cls, d: dict) -> "OptimizerConfig":
        """Missing fields keep their defaults; given ones take their default's type."""
        return cls(**{f.name: type(f.default)(d[f.name]) for f in fields(cls) if f.name in d})


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
        d = {
            "delta": self.delta,
            "per_state": [[k, v] for k, v in self.per_state],
            "converged": self.converged,
            "local_optimum": self.local_optimum,
        }
        if self.optimizer_trace is not None:
            d["optimizer_trace"] = [[i, v] for i, v in self.optimizer_trace]
        if self.branch_probabilities is not None:
            d["branch_probabilities"] = list(self.branch_probabilities)
        if self.certified_gap is not None:
            d["certified_gap"] = self.certified_gap
        return d


def _members(omega: TestEnsemble):
    """The ensemble as arrays: weights p (n,), states rho (n, d, d), their
    eigenvectors (n, d, d) in ascending order of eigenvalue, and which members
    are pure (one eigenvalue above 1e-12), with psi_k the last eigenvector."""
    p = np.array([w for w, _ in omega.entries])
    rho = np.stack([r.data for _, r in omega.entries])
    vals, vecs = np.linalg.eigh(rho)
    return p, rho, vecs, np.count_nonzero(vals > TOL_EIG_SKIP, axis=-1) == 1


def _pure_d2(amp: np.ndarray, vecs: np.ndarray, kraus: np.ndarray) -> np.ndarray:
    """sum_ij ||(1 - |psi><psi|) R_j L_i psi||^2 from the loss amplitudes amp
    (..., r, d_out) = L_i psi, the eigenvectors vecs (..., d, d) of |psi><psi|,
    psi last, and the recovery's Kraus stack (..., r_R, d, d_out): non-negative
    terms that do not cancel near zero as 1 - F^2 does."""
    bras = vecs[..., None, :, :-1].conj().swapaxes(-1, -2) @ kraus  # <psi^perp| R_j
    bras = bras.reshape(*bras.shape[:-3], -1, bras.shape[-1])
    return np.sum(np.abs(amp @ bras.swapaxes(-1, -2)) ** 2, axis=(-2, -1))


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
    if omega.space != loss.in_space:
        raise ShapeError("ensemble space does not match the loss input space")
    if recovery.in_space != loss.out_space:
        raise ShapeError("recovery input space does not match the loss output space")
    if recovery.out_space != loss.in_space:
        raise ShapeError("recovery output space does not match the loss input space")
    if not recovery.trace_preserving:
        raise ShapeError("delta_with_recovery needs a trace-preserving recovery")
    branch = not loss.trace_preserving
    _, _, vecs, pure = _members(omega)
    per, probs = [], []
    acc = 0.0
    for k, (p, rho) in enumerate(omega.entries):
        q = 1.0
        if branch:
            raw = apply_raw(loss, rho.data)
            q = float(np.real(np.trace(raw)))
            if q <= TOL_PROB:
                raise BranchProbabilityError(f"branch probability {q} for state {k} below 1e-12")
        if pure[k]:
            dk = math.sqrt(float(_pure_d2(loss.kraus @ vecs[k][:, -1], vecs[k], recovery.kraus)) / q)
        elif branch:
            normalized = DensityMatrix(loss.out_space, (raw + raw.conj().T) / (2 * q))
            dk = purified_distance(rho, apply(recovery, normalized))
        else:
            dk = purified_distance(rho, apply(recovery, apply(loss, rho)))
        per.append((k, dk))
        probs.append(q)
        acc += p * dk * dk
    probs = tuple(probs) if branch else None
    return DeltaReport(math.sqrt(max(acc, 0.0)), tuple(per), recovery_used=recovery, branch_probabilities=probs)


def petz_recovery(loss: KrausChannel, sigma_ref: DensityMatrix) -> KrausChannel:
    """Petz transpose channel of `loss` with respect to `sigma_ref`.

    Eigenvalues of loss(sigma_ref) below 1e-12 are pseudo-inverted as zero;
    the resulting trace deficiency on the kernel is repaired by branches that
    reprepare sigma_ref, keeping the map exactly CPTP. The loss must be trace
    preserving.
    """
    if not isinstance(sigma_ref, DensityMatrix):
        raise StateValidityError("sigma_ref must be a DensityMatrix")
    if _names(sigma_ref.space) != _names(loss.in_space):
        raise ShapeError("sigma_ref must live on the loss input space")
    if not loss.trace_preserving:
        raise ShapeError("petz_recovery needs a trace-preserving loss; a CP-branch loss takes a fixed recovery")
    return KrausChannel(loss.out_space, loss.in_space, _petz(loss.kraus[None], sigma_ref.data)[0])


def _outputs(kraus: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """(t, n, d_out, d_out) Hermitian parts of sum_i K_i rho_k K_i^H for each loss of
    the Kraus stack kraus (t, r, d_out, d_in) and each state of rho (n, d_in, d_in)."""
    k = kraus[:, None]
    out = np.sum(k @ rho[:, None] @ k.conj().swapaxes(-1, -2), axis=2)
    return (out + out.conj().swapaxes(-1, -2)) / 2


def _choi(kraus: np.ndarray) -> np.ndarray:
    """Choi matrices sum_j vec(K_j) vec(K_j)^H, row-major vec, of each (..., r, a, b) Kraus
    stack, in one matmul (qcore.choi adds in operator order, one channel at a time)."""
    v = kraus.reshape(*kraus.shape[:-2], -1)
    return v.swapaxes(-1, -2) @ v.conj()


def _minimal(kraus: np.ndarray) -> np.ndarray:
    """Each (..., r, a, b) Kraus stack re-extracted from its Choi matrix, padded as kraus_from_choi pads."""
    return kraus_from_choi(_choi(kraus), kraus.shape[-1], kraus.shape[-2])


def _petz(kraus: np.ndarray, sigma_ref: np.ndarray) -> np.ndarray:
    """(t, r, d_in, d_out) minimal Kraus stacks of the Petz recovery of each loss of
    the stack kraus (t, r_L, d_out, d_in) with respect to sigma_ref, as petz_recovery
    documents; ranks that differ over the stack are padded with zero operators."""
    vals, vecs = np.linalg.eigh(_outputs(kraus, sigma_ref[None])[:, 0])
    live = vals > TOL_EIG_SKIP
    inv_half = (vecs * np.where(live, vals, np.inf)[:, None, :] ** -0.5) @ vecs.conj().swapaxes(1, 2)
    ops = _psd_sqrt(sigma_ref) @ kraus.conj().swapaxes(-1, -2) @ inv_half[:, None]
    if not live.all():
        # sqrt(s) |s><v| for each eigenpair of sigma_ref above 1e-12 (outer) and each
        # eigenvector v of the output, zero unless v spans the output's kernel
        svals, svecs = np.linalg.eigh(sigma_ref)
        keep = svals > TOL_EIG_SKIP
        kets = (np.sqrt(svals[keep]) * svecs[:, keep]).T
        rows = vecs.conj().swapaxes(1, 2) * ~live[:, :, None]
        rep = kets[None, :, None, :, None] * rows[:, None, :, None, :]
        ops = np.concatenate([ops, rep.reshape(len(ops), -1, *ops.shape[2:])], axis=1)
    return _minimal(ops)


def _isometry(ops: np.ndarray, d_env: int) -> np.ndarray:
    """Stack Kraus operators into V with V[i*d_env + e, o] = K_e[i, o].

    More than d_env = dim_in * dim_out operators are first re-extracted to at
    most that many from their Choi matrix.
    """
    ops = ops if len(ops) <= d_env else _minimal(ops)
    r, d_in, d_out = ops.shape
    v = np.zeros((d_in, d_env, d_out), dtype=complex)
    v[:, :r] = ops.transpose(1, 0, 2)
    return v.reshape(-1, d_out)


def _qr_retract(a: np.ndarray) -> np.ndarray:
    q, r = np.linalg.qr(a)
    d = np.diagonal(r).copy()
    d[np.abs(d) < 1e-300] = 1.0
    return q * (d / np.abs(d))


class _Objective:
    """J(V) = sum_k p_k F^2(rho_k, tr_env V sigma_k V^H) and its gradient.

    V has shape (d_in * d_env, d_out) with V[j * d_env + e, o] = K_e[j, o],
    the recovery's Kraus operators stacked as in _isometry; its
    row view reshapes it to (d_in, d_env * d_out). The ensemble is split once,
    at construction, into two stacked groups, each evaluated per call with one
    batched matmul chain:

    - pure members, rho_k = |psi_k><psi_k|: amplitudes psi (n_p, d_in) and
      sigma_k (n_p, d_out, d_out), with F^2 = <psi_k| R(sigma_k) |psi_k>;
    - mixed members: sqrt(rho_k) (n_m, d_in, d_in) and sigma_k
      (n_m, d_out, d_out), with F^2 = (tr sqrt M_k)^2 for
      M_k = sqrt(rho_k) R(sigma_k) sqrt(rho_k), all M_k in one stacked eigh.

    sigmas is the (n, d_out, d_out) stack of the loss outputs. value_and_grad
    returns J and G = dJ/d(conj V), shaped like V, so that
    dJ = 2 Re <G, dV> = 2 Re sum(conj(G) * dV).
    """

    def __init__(self, omega: TestEnsemble, sigmas: np.ndarray, d_env: int):
        p, rho, vecs, pure = _members(omega)
        self.d_env = d_env
        self.d_in = rho.shape[-1]
        self.d_out = sigmas.shape[-1]
        self.pure = (p[pure], vecs[pure, :, -1], sigmas[pure]) if pure.any() else None
        roots = [_psd_sqrt(r) for r in rho[~pure]]
        self.mixed = (p[~pure], np.array(roots), sigmas[~pure]) if roots else None

    def value_and_grad(self, v: np.ndarray):
        rows = v.reshape(self.d_in, -1)
        total = grad = 0.0
        if self.pure is not None:
            p, psi, sig = self.pure
            a = (psi.conj() @ rows).reshape(len(p), self.d_env, self.d_out)
            asig = a @ sig
            total += np.vdot(a, p[:, None, None] * asig).real
            grad = grad + (psi.T * p) @ asig.reshape(len(p), -1)
        if self.mixed is not None:
            p, rh, sig = self.mixed
            vs = (v @ sig).reshape(len(p), self.d_in, -1)
            # eigh reads one triangle of the Hermitian M_k, so M_k is not symmetrized
            mv, mw = np.linalg.eigh(rh @ (vs @ rows.conj().T) @ rh)
            root = np.sqrt(np.maximum(mv, 0.0))
            f = root.sum(axis=1)
            # p_k F_k sqrt(rho_k) M_k^{-1/2} sqrt(rho_k) = x s x^H for x = sqrt(rho_k) W_k,
            # with M_k's kernel dropped from the inverse square root
            s = np.divide((p * f)[:, None], root, out=np.zeros_like(root), where=mv > TOL_EIG_SKIP)
            x = rh @ mw
            w = (x * s[:, None, :]) @ x.conj().swapaxes(1, 2)
            total += p @ (f * f)
            grad = grad + np.sum(w @ vs, axis=0)
        return float(total), grad.reshape(v.shape)


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
    v = v0
    j, g = obj.value_and_grad(v)
    g = _tangent_part(v, g)
    step = cfg.step
    trace = [(0, max(0.0, 1.0 - j))]
    converged = False
    it = 0
    while it < cfg.max_iters:
        it += 1
        cand = _qr_retract(v + step * g)
        jc, gc = obj.value_and_grad(cand)
        if jc > j:
            improved = jc - j
            v, j, g = cand, jc, _tangent_part(cand, gc)
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


def _ascents(obj: _Objective, loss: KrausChannel, kraus: list, cfg: OptimizerConfig):
    """(recovery, trace, converged) of the ascent from each recovery Kraus stack
    in kraus, then from cfg.restarts random isometries drawn from cfg.seed."""
    d_in, d_out, d_env = loss.dim_in, loss.dim_out, obj.d_env
    starts = [_isometry(ops, d_env) for ops in kraus]
    rng = np.random.default_rng(cfg.seed)
    for _ in range(cfg.restarts):
        a = rng.standard_normal((d_in * d_env, d_out)) + 1j * rng.standard_normal((d_in * d_env, d_out))
        starts.append(_qr_retract(a))
    for v0 in starts:
        v, _, trace, conv = _ascend(obj, v0, cfg)
        ops = v.reshape(d_in, d_env, d_out).transpose(1, 0, 2)
        yield KrausChannel(loss.out_space, loss.in_space, _minimal(ops)), trace, conv


def _best(loss: KrausChannel, omega: TestEnsemble, candidates, best) -> tuple:
    """The lowest-delta (report, recovery, trace, converged) over best and
    candidates, each scored once with delta_with_recovery; ties keep the
    earlier one."""
    for ch, trace, conv in candidates:
        rep = delta_with_recovery(loss, ch, omega)
        if rep.delta < best[0].delta:
            best = (rep, ch, trace, conv)
    return best


def _delta_min(kraus: np.ndarray, spaces: tuple, omega: TestEnsemble, cfg: OptimizerConfig, warm: list) -> list:
    """delta_min at each loss of the Kraus stack kraus (t, r, d_out, d_in), whose
    (input, output) spaces are spaces: one DeltaReport per loss.

    warm holds one (t, r_w, d_in, d_out) Kraus stack per warm start. The
    outputs, the Petz recovery of the ensemble average, the scores of Petz
    and of every warm start and, for pure members, the dual certificate of
    the best of them are each one array pass over the stack. The gradient
    search runs only at a loss whose certified gap is above cfg.tol, or at
    every loss when a member is mixed; it starts from that loss's Petz and
    warm starts.
    """
    p, rho, vecs, pure = _members(omega)
    pure = pure.all()
    sigmas = _outputs(kraus, rho)
    cands = [_petz(kraus, np.tensordot(p, rho, 1)), *warm]
    loss_at = cache(lambda i: KrausChannel(*spaces, kraus[i]))
    rec_at = cache(lambda c, i: KrausChannel(spaces[1], spaces[0], cands[c][i]))
    at = np.arange(len(kraus))
    if pure:
        amp = (kraus[:, None] @ vecs[:, None, :, -1:])[..., 0]  # (t, n, r, d_out): L_i psi_k
        per = np.sqrt([_pure_d2(amp, vecs, c[:, None]) for c in cands])
    else:
        scored = [[delta_with_recovery(loss_at(i), rec_at(c, i), omega) for i in at] for c in range(len(cands))]
        per = np.array([[[dk for _, dk in rep.per_state] for rep in row] for row in scored])
    delta = np.sqrt(np.maximum((p * per * per).sum(axis=-1), 0.0))  # (candidate, t)
    win = np.argmin(delta, axis=0)  # ties keep the earlier candidate
    gaps = [None] * len(at)
    if pure:
        chois = np.stack([_choi(c) for c in cands])[win, at]
        gaps = _certified_gap(p, vecs, sigmas, chois, delta[win, at] ** 2).tolist()
    reports = []
    for i, c, gap in zip(at, win.tolist(), gaps):
        rep = DeltaReport(float(delta[c, i]), tuple(enumerate(per[c, i].tolist())), recovery_used=rec_at(c, i))
        best = (rep, rep.recovery_used, ((0, rep.delta**2),), True)
        if gap is None or gap > cfg.tol:
            obj = _Objective(omega, sigmas[i], kraus.shape[-1] * kraus.shape[-2])
            ascended = _best(loss_at(i), omega, _ascents(obj, loss_at(i), [c[i] for c in cands], cfg), best)
            if ascended is not best:
                best = ascended
                if gap is not None:
                    value = np.array([ascended[0].delta ** 2])
                    gap = float(_certified_gap(p, vecs, sigmas[i : i + 1], _choi(ascended[1].kraus)[None], value)[0])
        rep, recovery, trace, conv = best
        reports.append(DeltaReport(rep.delta, rep.per_state, recovery, trace, conv, True, certified_gap=gap))
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
    cfg = cfg or OptimizerConfig()
    if _names(omega.space) != _names(loss.in_space):
        raise ShapeError("ensemble space does not match the loss input space")
    if not loss.trace_preserving:
        raise ShapeError("delta_min needs a trace-preserving loss; a CP-branch loss takes a fixed recovery")
    for w in warm_starts:
        if (w.in_space, w.out_space) != (loss.out_space, loss.in_space) or not w.trace_preserving:
            raise ShapeError("a warm start must be a trace-preserving channel from the loss output to its input")
    warm = [w.kraus[None] for w in warm_starts]
    return _delta_min(loss.kraus[None], (loss.in_space, loss.out_space), omega, cfg, warm)[0]
