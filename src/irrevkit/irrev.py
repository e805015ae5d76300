"""Irreversibility of a channel with respect to a test ensemble.

delta(L, R, Omega) = sqrt(sum_k p_k D_F(rho_k, R(L(rho_k)))^2) for a fixed
recovery R, and delta_min optimizes that quantity over CPTP recoveries via
projected gradient ascent on a Stinespring isometry. A sub-normalised CP
branch L enters through its renormalised outputs L(rho_k) / tr L(rho_k). The
Petz transpose channel is always evaluated as a warm start, so the optimized
value never exceeds the Petz value. Global optimality is not claimed anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

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
    minimal_kraus,
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
    True whenever the value came out of the gradient search (no global
    optimality claim); converged is False when the iteration budget ran out
    before the objective settled.
    """

    delta: float
    per_state: tuple
    recovery_used: KrausChannel = field(repr=False)
    optimizer_trace: tuple | None = None
    converged: bool = True
    local_optimum: bool = False
    branch_probabilities: tuple | None = None

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
        return d


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
    per, probs = [], []
    acc = 0.0
    for k, (p, rho) in enumerate(omega.entries):
        q = 1.0
        if branch:
            raw = apply_raw(loss, rho.data)
            q = float(np.real(np.trace(raw)))
            if q <= TOL_PROB:
                raise BranchProbabilityError(f"branch probability {q} for state {k} below 1e-12")
        vals, vecs = np.linalg.eigh(rho.data)
        if np.count_nonzero(vals > TOL_EIG_SKIP) == 1:
            # bras of the complement of psi_k, then of R_j onto it: (r_R * (d - 1), d_out)
            bras = (vecs[:, :-1].conj().T @ recovery.kraus).reshape(-1, loss.dim_out)
            dk = math.sqrt(float(np.sum(np.abs((loss.kraus @ vecs[:, -1]) @ bras.T) ** 2)) / q)
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
    out = apply(loss, sigma_ref)
    vals, vecs = np.linalg.eigh(out.data)
    inv_half = np.zeros_like(out.data)
    kernel = []
    for lam, v in zip(vals, vecs.T):
        if lam > TOL_EIG_SKIP:
            inv_half += (lam ** -0.5) * np.outer(v, v.conj())
        else:
            kernel.append(v)
    s_half = _psd_sqrt(sigma_ref.data)
    ops = s_half @ loss.kraus.conj().transpose(0, 2, 1) @ inv_half
    if kernel:
        svals, svecs = np.linalg.eigh(sigma_ref.data)
        keep = svals > TOL_EIG_SKIP
        # sqrt(s) |v><kv| for each kept eigenpair of sigma_ref (outer) and kernel vector kv
        kv = np.conj(kernel)
        rep = svecs.T[keep][:, None, :, None] * kv[None, :, None, :]
        rep = np.sqrt(svals[keep])[:, None, None, None] * rep
        ops = np.concatenate([ops, rep.reshape(-1, *ops.shape[1:])])
    ch = KrausChannel(loss.out_space, loss.in_space, ops)
    return minimal_kraus(ch)


def _isometry_from_channel(ch: KrausChannel, d_env: int) -> np.ndarray:
    """Stack Kraus operators into V with V[i*d_env + e, o] = K_e[i, o]."""
    ops = minimal_kraus(ch).kraus
    r, d_in, d_out = ops.shape
    if r > d_env:
        raise ShapeError(f"channel Kraus rank {r} exceeds environment dim {d_env}")
    v = np.zeros((d_in, d_env, d_out), dtype=complex)
    v[:, :r] = ops.transpose(1, 0, 2)
    return v.reshape(-1, d_out)


def _channel_from_isometry(v: np.ndarray, template: KrausChannel) -> KrausChannel:
    d_out_r = v.shape[1]
    d_in_r = template.dim_out  # recovery output dim = loss input dim
    d_env = v.shape[0] // d_in_r
    ops = v.reshape(d_in_r, d_env, d_out_r).transpose(1, 0, 2)
    return minimal_kraus(KrausChannel(template.in_space, template.out_space, ops))


def _qr_retract(a: np.ndarray) -> np.ndarray:
    q, r = np.linalg.qr(a)
    d = np.diagonal(r).copy()
    d[np.abs(d) < 1e-300] = 1.0
    return q * (d / np.abs(d))


class _Objective:
    """J(V) = sum_k p_k F^2(rho_k, tr_env V sigma_k V^H) and its gradient.

    V has shape (d_in * d_env, d_out) with V[j * d_env + e, o] = K_e[j, o],
    the recovery's Kraus operators stacked as in _isometry_from_channel; its
    row view reshapes it to (d_in, d_env * d_out). The ensemble is split once,
    at construction, into two stacked groups, each evaluated per call with one
    batched matmul chain:

    - pure members, rho_k = |psi_k><psi_k|: amplitudes psi (n_p, d_in) and
      sigma_k (n_p, d_out, d_out), with F^2 = <psi_k| R(sigma_k) |psi_k>;
    - mixed members: sqrt(rho_k) (n_m, d_in, d_in) and sigma_k
      (n_m, d_out, d_out), with F^2 = (tr sqrt M_k)^2 for
      M_k = sqrt(rho_k) R(sigma_k) sqrt(rho_k), all M_k in one stacked eigh.

    value_and_grad returns J and G = dJ/d(conj V), shaped like V, so that
    dJ = 2 Re <G, dV> = 2 Re sum(conj(G) * dV).
    """

    def __init__(self, omega: TestEnsemble, sigmas: list, d_env: int):
        self.d_env = d_env
        self.d_in = omega.entries[0][1].dim
        self.d_out = sigmas[0].dim
        pure, mixed = [], []
        for (p, rho), sig in zip(omega.entries, sigmas):
            vals, vecs = np.linalg.eigh(rho.data)
            if np.count_nonzero(vals > 1e-12) == 1:
                pure.append((p, vecs[:, int(np.argmax(vals))], sig.data))
            else:
                mixed.append((p, _psd_sqrt(rho.data), sig.data))
        self.pure = _stack_group(pure)
        self.mixed = _stack_group(mixed)

    def value_and_grad(self, v: np.ndarray):
        rows = v.reshape(self.d_in, -1)
        total = 0.0
        grad = np.zeros_like(rows)
        if self.pure is not None:
            p, psi, sig = self.pure
            a = (psi.conj() @ rows).reshape(len(p), self.d_env, self.d_out)
            asig = a @ sig
            total += float(p @ np.real(np.sum(asig * a.conj(), axis=(1, 2))))
            grad += (psi.T * p) @ asig.reshape(len(p), -1)
        if self.mixed is not None:
            p, rh, sig = self.mixed
            vs = (v @ sig).reshape(len(p), self.d_in, -1)
            m = rh @ (vs @ rows.conj().T) @ rh
            mv, mw = np.linalg.eigh((m + m.conj().swapaxes(1, 2)) / 2)
            mv = np.clip(mv, 0.0, None)
            f = np.sum(np.sqrt(mv), axis=1)
            inv_half = (mw * _safe_inv_sqrt(mv)[:, None, :]) @ mw.conj().swapaxes(1, 2)
            w = (p * f)[:, None, None] * (rh @ inv_half @ rh)
            total += float(p @ (f * f))
            grad += np.sum(w @ vs, axis=0)
        return total, grad.reshape(v.shape)


def _stack_group(group: list):
    """(weights, per-member arrays, sigmas) stacked along a leading axis."""
    if not group:
        return None
    p, x, sig = zip(*group)
    return np.array(p), np.stack(x), np.stack(sig)


def _safe_inv_sqrt(vals: np.ndarray) -> np.ndarray:
    out = np.zeros_like(vals)
    mask = vals > TOL_EIG_SKIP
    out[mask] = vals[mask] ** -0.5
    return out


def _ascend(obj: _Objective, v0: np.ndarray, cfg: OptimizerConfig):
    v = v0
    j, g = obj.value_and_grad(v)
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
            v, j, g = cand, jc, gc
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


def delta_min(
    loss: KrausChannel,
    omega: TestEnsemble,
    cfg: OptimizerConfig | None = None,
    warm_starts: tuple = (),
) -> DeltaReport:
    """Irreversibility minimized over CPTP recoveries (local search).

    Runs gradient ascent on sum_k p_k F^2 from the Petz recovery, any caller
    warm starts, and cfg.restarts random isometries, and keeps the best. The
    returned delta never exceeds the plain Petz value; it is only certified
    as a local optimum. The loss must be trace preserving.
    """
    cfg = cfg or OptimizerConfig()
    if _names(omega.space) != _names(loss.in_space):
        raise ShapeError("ensemble space does not match the loss input space")
    if not loss.trace_preserving:
        raise ShapeError("delta_min needs a trace-preserving loss; a CP-branch loss takes a fixed recovery")
    sigmas = [apply(loss, rho) for _, rho in omega.entries]
    d_in = loss.dim_in
    d_out = loss.dim_out
    d_env = d_in * d_out
    obj = _Objective(omega, sigmas, d_env)
    template = KrausChannel(
        loss.out_space,
        loss.in_space,
        (np.eye(d_in, d_out, dtype=complex),),
        trace_preserving=False,
    )

    sigma_bar = DensityMatrix(omega.space, sum(p * rho.data for p, rho in omega.entries))
    petz = petz_recovery(loss, sigma_bar)
    starts = [_isometry_from_channel(petz, d_env)]
    for ch in warm_starts:
        starts.append(_isometry_from_channel(ch, d_env))
    rng = np.random.default_rng(cfg.seed)
    for _ in range(cfg.restarts):
        a = rng.standard_normal((d_in * d_env, d_out)) + 1j * rng.standard_normal(
            (d_in * d_env, d_out)
        )
        starts.append(_qr_retract(a))

    # every candidate, including raw Petz and warm starts, is scored with the
    # same delta_with_recovery call, so the Petz upper bound holds exactly
    candidates = [(petz, ((0, None),), True)]
    for ch in warm_starts:
        candidates.append((ch, ((0, None),), True))
    for v0 in starts:
        v, _, trace, conv = _ascend(obj, v0, cfg)
        candidates.append((_channel_from_isometry(v, template), trace, conv))

    best = None
    for ch, trace, conv in candidates:
        rep = delta_with_recovery(loss, ch, omega)
        if best is None or rep.delta < best[0].delta:
            if trace and trace[0][1] is None:
                trace = ((0, rep.delta**2),)
            best = (rep, ch, trace, conv)
    rep, recovery, trace, conv = best
    return DeltaReport(
        rep.delta,
        rep.per_state,
        recovery_used=recovery,
        optimizer_trace=trace,
        converged=conv,
        local_optimum=True,
    )
