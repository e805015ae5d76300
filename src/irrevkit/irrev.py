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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cached_property

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
    """Stack Kraus operators into V with V[i*d_env + e, o] = K_e[i, o].

    A channel with more than d_env = dim_in * dim_out operators is first
    re-extracted to at most that many from its Choi matrix.
    """
    ops = ch.kraus if len(ch.kraus) <= d_env else minimal_kraus(ch).kraus
    r, d_in, d_out = ops.shape
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
    dJ = 2 Re <G, dV> = 2 Re sum(conj(G) * dV). When every member is pure,
    certified_gap bounds how far a recovery's delta^2 lies above the minimum.
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

    @cached_property
    def q_perp(self) -> np.ndarray:
        """sum_k p_k (1 - |psi_k><psi_k|) (x) sigma_k^T over the pure members,
        on (recovery out) (x) (recovery in): delta^2(R) = tr(C_R Q_perp)."""
        p, psi, sig = self.pure
        perp = np.eye(self.d_in) - psi[:, :, None] * psi.conj()[:, None, :]
        n = self.d_in * self.d_out
        return np.einsum("kab,kdc->acbd", p[:, None, None] * perp, sig).reshape(n, n)

    def certified_gap(self, value: float, recovery: KrausChannel) -> float | None:
        """value - tr Y + allowance for the dual point Y built from recovery,
        or None unless every member is pure.

        value is delta^2(recovery) and C_R = sum_j vec(R_j) vec(R_j)^H, row
        major. Y0 = Herm tr_out(Q_perp C_R) is the dual point at which C_R
        would be optimal; Y = Y0 + lam 1 with lam = lambda_min(Q_perp - 1 (x) Y0)
        satisfies 1 (x) Y <= Q_perp, so tr Y <= delta^2(R') for every CPTP R'.
        The allowance covers the rounding of the eigensolver and the sums.
        """
        if self.mixed is not None:
            return None
        blocks = (self.d_in, self.d_out, self.d_in, self.d_out)
        x = recovery.kraus.reshape(len(recovery.kraus), -1)
        y = np.einsum("acad->cd", (self.q_perp @ (x.T @ x.conj())).reshape(blocks))
        y = (y + y.conj().T) / 2
        shifted = self.q_perp.reshape(blocks) - np.eye(self.d_in)[:, None, :, None] * y[None, :, None, :]
        lam = np.linalg.eigvalsh(shifted.reshape(self.q_perp.shape))[0]  # Q_perp - 1 (x) Y0
        lower = y.trace().real + self.d_out * lam
        allowance = 16 * np.finfo(float).eps * len(self.q_perp) * self.d_out
        return float(value - lower + allowance)


def _stack_group(group: list):
    """(weights, per-member arrays, sigmas) stacked along a leading axis."""
    if not group:
        return None
    p, x, sig = zip(*group)
    return np.array(p), np.stack(x), np.stack(sig)


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


def _ascents(obj: _Objective, loss: KrausChannel, channels: tuple, cfg: OptimizerConfig):
    """(recovery, trace, converged) of the ascent from each of channels, then
    from cfg.restarts random isometries drawn from cfg.seed."""
    d_in, d_out, d_env = loss.dim_in, loss.dim_out, obj.d_env
    template = KrausChannel(
        loss.out_space,
        loss.in_space,
        (np.eye(d_in, d_out, dtype=complex),),
        trace_preserving=False,
    )
    starts = [_isometry_from_channel(ch, d_env) for ch in channels]
    rng = np.random.default_rng(cfg.seed)
    for _ in range(cfg.restarts):
        a = rng.standard_normal((d_in * d_env, d_out)) + 1j * rng.standard_normal((d_in * d_env, d_out))
        starts.append(_qr_retract(a))
    for v0 in starts:
        v, _, trace, conv = _ascend(obj, v0, cfg)
        yield _channel_from_isometry(v, template), trace, conv


def _best(loss: KrausChannel, omega: TestEnsemble, candidates, best=None) -> tuple:
    """The lowest-delta (report, recovery, trace, converged) over best and
    candidates, each scored once with delta_with_recovery; ties keep the
    earlier one. A trace of None stands for a recovery taken as given."""
    for ch, trace, conv in candidates:
        rep = delta_with_recovery(loss, ch, omega)
        if best is None or rep.delta < best[0].delta:
            best = (rep, ch, trace or ((0, rep.delta**2),), conv)
    return best


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
    local optimum is found). The loss must be trace preserving.
    """
    cfg = cfg or OptimizerConfig()
    if _names(omega.space) != _names(loss.in_space):
        raise ShapeError("ensemble space does not match the loss input space")
    if not loss.trace_preserving:
        raise ShapeError("delta_min needs a trace-preserving loss; a CP-branch loss takes a fixed recovery")
    sigmas = [apply(loss, rho) for _, rho in omega.entries]
    obj = _Objective(omega, sigmas, loss.dim_in * loss.dim_out)

    sigma_bar = DensityMatrix(omega.space, sum(p * rho.data for p, rho in omega.entries))
    petz = petz_recovery(loss, sigma_bar)
    # every candidate, including raw Petz and warm starts, is scored with the
    # same delta_with_recovery call, so the Petz upper bound holds exactly
    best = _best(loss, omega, ((ch, None, True) for ch in (petz, *warm_starts)))
    gap = obj.certified_gap(best[0].delta ** 2, best[1])
    if gap is None or gap > cfg.tol:
        ascended = _best(loss, omega, _ascents(obj, loss, (petz, *warm_starts), cfg), best)
        if ascended is not best:
            best, gap = ascended, obj.certified_gap(ascended[0].delta ** 2, ascended[1])
    rep, recovery, trace, conv = best
    return DeltaReport(
        rep.delta,
        rep.per_state,
        recovery_used=recovery,
        optimizer_trace=trace,
        converged=conv,
        local_optimum=True,
        certified_gap=gap,
    )
