"""Seeded random generators and reference implementations shared across the test modules."""

import math

import numpy as np

from irrevkit import (
    DensityMatrix,
    Instrument,
    KrausChannel,
    Label,
    Observable,
    TestEnsemble,
    canonical_recovery,
    delta_cp,
    delta_with_recovery,
    omega_pm,
    pure_state,
)

# library type whose name matches the pytest collector pattern
TestEnsemble.__test__ = False

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)


def rand_herm(rng, d: int, norm: float | None = None) -> np.ndarray:
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = (a + a.conj().T) / 2
    if norm is not None:
        s = np.linalg.norm(h, 2)
        if s > 0:
            h = h * (norm / s)
    return h


def rand_unitary(rng, d: int) -> np.ndarray:
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(a)
    ph = np.diag(r).copy()
    ph[np.abs(ph) < 1e-12] = 1.0
    return q * (ph / np.abs(ph))


def rand_state(rng, d: int, label: Label | None = None) -> DensityMatrix:
    """Full-rank random density matrix (Wishart, floor 0.02 on eigenvalues)."""
    label = label or Label("S", d)
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = a @ a.conj().T + 0.02 * d * np.eye(d)
    return DensityMatrix((label,), m / np.trace(m).real)


def rand_pure(rng, d: int, label: Label | None = None) -> DensityMatrix:
    label = label or Label("S", d)
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return pure_state(v, (label,))


def rand_instrument(rng, d: int, k: int, label: Label | None = None) -> Instrument:
    """k single-Kraus branches, normalized so the branch sum is TP."""
    label = label or Label("S", d)
    ops = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for _ in range(k)]
    acc = sum(op.conj().T @ op for op in ops)
    vals, vecs = np.linalg.eigh(acc)
    inv_sqrt = (vecs / np.sqrt(vals)) @ vecs.conj().T
    sp = (label,)
    return Instrument(sp, sp, tuple((str(i), op @ inv_sqrt) for i, op in enumerate(ops)))


def proj_instrument(basis: np.ndarray, label: Label) -> Instrument:
    """Rank-1 projective instrument onto the columns of `basis`."""
    d = basis.shape[1]
    sp = (label,)
    brs = []
    for i in range(d):
        v = basis[:, i]
        brs.append((str(i), np.outer(v, v.conj())))
    return Instrument(sp, sp, tuple(brs))


def proj_z(label: Label | None = None) -> Instrument:
    label = label or Label("S", 2)
    return proj_instrument(np.eye(2, dtype=complex), label)


def proj_x(label: Label | None = None) -> Instrument:
    label = label or Label("S", 2)
    basis = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    return proj_instrument(basis, label)


def obs(mat, label: Label | None = None) -> Observable:
    mat = np.asarray(mat, dtype=complex)
    label = label or Label("S", mat.shape[0])
    return Observable((label,), mat)


# ---------------------------------------------------------------------------
# reference channel algebra: dense permutation matrices and one loop per
# Kraus operator, in the operator order the stacked library code must keep


def basis_permutation(dims, order) -> np.ndarray:
    """Permutation matrix P with (P v) the tensor reordering old factors -> old[order]."""
    d = math.prod(dims)
    idx = np.arange(d).reshape(dims).transpose(order).reshape(d)
    p = np.zeros((d, d))
    p[np.arange(d), idx] = 1.0
    return p


def _names(sp) -> tuple:
    return tuple(l.name for l in sp)


def ref_embed(ch: KrausChannel, full) -> tuple:
    """(output space, list of lifted Kraus operators) of embed(ch, full)."""
    full = tuple(full)
    if ch.in_space == full:
        return ch.out_space, list(ch.kraus)
    full_names = _names(full)
    positions = [full_names.index(n) for n in _names(ch.in_space)]
    rest = [i for i in range(len(full)) if i not in positions]
    dims = [l.dim for l in full]
    d_rest = math.prod(dims[i] for i in rest)
    p_in = basis_permutation(dims, positions + rest)
    pre_out = tuple(ch.out_space) + tuple(full[i] for i in rest)
    if ch.out_space == ch.in_space:
        target = full
    else:
        kept = [full[i] for i in rest]
        cut = sum(1 for i in rest if i < min(positions))
        target = tuple(kept[:cut]) + tuple(ch.out_space) + tuple(kept[cut:])
    order_out = [_names(pre_out).index(n) for n in _names(target)]
    p_out = basis_permutation([l.dim for l in pre_out], order_out)
    return target, [p_out @ np.kron(k, np.eye(d_rest)) @ p_in for k in ch.kraus]


def ref_embed_matrix(mat, sub, full) -> np.ndarray:
    full_names = _names(full)
    positions = [full_names.index(l.name) for l in sub]
    rest = [i for i in range(len(full)) if i not in positions]
    dims = [l.dim for l in full]
    d_rest = math.prod(dims[i] for i in rest)
    p = basis_permutation(dims, positions + rest)
    return p.T @ np.kron(np.asarray(mat, dtype=complex), np.eye(d_rest)) @ p


def ref_choi(ops) -> np.ndarray:
    d = ops[0].size
    c = np.zeros((d, d), dtype=complex)
    for k in ops:
        v = k.reshape(-1)
        c += np.outer(v, v.conj())
    return c


def ref_kraus_from_choi(c, dim_in: int, dim_out: int, tol: float = 1e-14) -> list:
    vals, vecs = np.linalg.eigh((c + c.conj().T) / 2)
    ops = [np.sqrt(lam) * v.reshape(dim_out, dim_in) for lam, v in zip(vals, vecs.T) if lam > tol]
    return ops or [np.zeros((dim_out, dim_in), dtype=complex)]


def ref_compose(second: KrausChannel, first: KrausChannel) -> list:
    ops = [k2 @ k1 for k2 in second.kraus for k1 in first.kraus]
    if len(ops) > first.dim_in * second.dim_out:
        ops = ref_kraus_from_choi(ref_choi(ops), first.dim_in, second.dim_out)
    return ops


def ref_tensor(a: KrausChannel, b: KrausChannel) -> list:
    return [np.kron(ka, kb) for ka in a.kraus for kb in b.kraus]


def ref_apply_raw(ops, mat) -> np.ndarray:
    return sum(k @ mat @ k.conj().T for k in ops)


def ref_dual(ops, obs: np.ndarray) -> np.ndarray:
    acc = sum(k.conj().T @ obs @ k for k in ops)
    return (acc + acc.conj().T) / 2


def ref_apply_instrument(inst: Instrument, rho: DensityMatrix) -> list:
    results = []
    for m, op in inst.branches:
        branch = KrausChannel(inst.in_space, inst.out_space, (op,), trace_preserving=False)
        out_space, lifted = ref_embed(branch, rho.space)
        raw = ref_apply_raw(lifted, rho.data)
        p = float(np.real(raw.trace()))
        if p > 1e-12:
            results.append((m, p, out_space, (raw + raw.conj().T) / (2 * p)))
        else:
            results.append((m, max(p, 0.0), None, None))
    return results


def ref_trace_out(sp, drop) -> list:
    drop_names = {l.name for l in drop}
    keep = [l for l in sp if l.name not in drop_names]
    dropped = [l for l in sp if l.name in drop_names]
    d_drop = math.prod(l.dim for l in dropped)
    d_keep = math.prod(l.dim for l in keep)
    names = _names(sp)
    order = [names.index(l.name) for l in dropped] + [names.index(l.name) for l in keep]
    perm = basis_permutation([l.dim for l in sp], order)
    ket = np.eye(d_drop, dtype=complex)
    return [np.kron(ket[t].conj().reshape(1, -1), np.eye(d_keep)) @ perm for t in range(d_drop)]


def rand_kraus(rng, d_in: int, d_out: int, r: int) -> tuple:
    """r random Kraus operators: trace preserving when r * d_out >= d_in, else a
    sub-normalised CP branch. Returns (ops, trace_preserving)."""
    m = rng.standard_normal((r * d_out, d_in)) + 1j * rng.standard_normal((r * d_out, d_in))
    if r * d_out >= d_in:
        m, _ = np.linalg.qr(m)
        return m.reshape(r, d_out, d_in), True
    return m.reshape(r, d_out, d_in) / (1.01 * np.linalg.norm(m, 2)), False


def ref_grid(comb, recovery, thetas) -> list:
    """delta^2 at each theta, one channel pipeline per point: Comb.loss, the
    canonical recovery rebuilt at theta ("canonical" or an (x, target) pair)
    or a fixed KrausChannel, then delta_with_recovery, or delta_cp for a
    branch comb."""
    if isinstance(recovery, str):
        recovery = comb.recoveries()[0]
    out = []
    for theta in thetas:
        loss = comb.loss(theta)
        rec = recovery if isinstance(recovery, KrausChannel) else canonical_recovery(*recovery, theta).channel
        if comb.branch_scale is None:
            out.append(delta_with_recovery(loss, rec, omega_pm()).delta ** 2)
        else:
            out.append(delta_cp(loss, omega_pm(), rec).delta ** 2)
    return out
