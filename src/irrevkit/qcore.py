"""Dense quantum primitives: labeled spaces, states, observables, channels.

Everything is a plain complex numpy array plus an ordered tuple of labels
describing the tensor factors. Objects are immutable after construction;
operations are pure functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import (
    CompositeSpaceError,
    ShapeError,
    StateValidityError,
)

TOL_HERM = 1e-10
TOL_TRACE = 1e-10
TOL_TP = 1e-9
TOL_CHOI = 1e-9
TOL_EIG_NEG = 1e-10
TOL_EIG_SKIP = 1e-12
TOL_PROB = 1e-12

__all__ = [
    "Label",
    "Space",
    "DensityMatrix",
    "Observable",
    "KrausChannel",
    "Instrument",
    "TestEnsemble",
    "space",
    "space_dim",
    "tensor",
    "partial_trace",
    "embed",
    "embed_matrix",
    "compose",
    "apply",
    "apply_raw",
    "apply_instrument",
    "dual",
    "choi",
    "kraus_from_choi",
    "minimal_kraus",
    "validate_channel",
    "identity_channel",
    "unitary_channel",
    "instrument_channel",
    "pointer_channel",
    "expectation",
    "uhlmann_fidelity",
    "purified_distance",
    "variance",
    "qfi",
    "pure_state",
    "maximally_mixed",
    "ket",
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "ID2",
]

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
ID2 = np.eye(2, dtype=complex)


@dataclass(frozen=True)
class Label:
    """One tensor factor: a name and its dimension."""

    name: str
    dim: int

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name:
            raise CompositeSpaceError("label name must be a non-empty string")
        object.__setattr__(self, "dim", int(self.dim))
        if self.dim < 1:
            raise CompositeSpaceError(f"label {self.name!r}: dim must be a positive integer")


Space = tuple  # tuple[Label, ...]


def space(*factors) -> Space:
    """Build a Space from Labels or (name, dim) pairs; names must be unique."""
    labels = []
    for f in factors:
        if isinstance(f, Label):
            labels.append(f)
        else:
            name, dim = f
            labels.append(Label(name, int(dim)))
    _check_unique(labels)
    return tuple(labels)


def _check_unique(labels: Sequence[Label]):
    names = [l.name for l in labels]
    if len(set(names)) != len(names):
        raise CompositeSpaceError(f"duplicate labels in space: {names}")


def space_dim(sp: Space) -> int:
    return math.prod(l.dim for l in sp)


def _names(sp: Space) -> tuple:
    return tuple(l.name for l in sp)


def _as_space(sp) -> Space:
    if isinstance(sp, Label):
        return (sp,)
    return space(*sp)


def _as_matrix(data, dim: int | None = None) -> np.ndarray:
    a = np.asarray(data, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {a.shape}")
    if dim is not None and a.shape[0] != dim:
        raise ShapeError(f"matrix dimension {a.shape[0]} does not match space dimension {dim}")
    return a


def _freeze(a: np.ndarray, src) -> np.ndarray:
    """Read-only contiguous `a`, copied first while it is still the caller's
    writable `src` (np.asarray hands such an array back unchanged)."""
    a = np.ascontiguousarray(a)
    if a.flags.writeable and isinstance(src, np.ndarray) and np.may_share_memory(a, src):
        a = a.copy()
    a.setflags(write=False)
    return a


def _herm_defect(a: np.ndarray) -> float:
    return float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0


@dataclass(frozen=True)
class DensityMatrix:
    """Trace-one positive-semidefinite matrix on a labeled space."""

    space: Space
    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        sp = _as_space(self.space)
        a = _as_matrix(self.data, space_dim(sp))
        if not _herm_defect(a) <= TOL_HERM:
            raise StateValidityError(f"state not Hermitian within {TOL_HERM}")
        tr = a.trace()
        if not abs(tr - 1.0) <= TOL_TRACE:
            raise StateValidityError(f"state trace {tr} differs from 1 beyond {TOL_TRACE}")
        lo = float(np.linalg.eigvalsh(a)[0])
        if not lo >= -TOL_EIG_NEG:
            raise StateValidityError(f"state has eigenvalue {lo} below -{TOL_EIG_NEG}")
        object.__setattr__(self, "space", sp)
        object.__setattr__(self, "data", _freeze(a, self.data))

    @property
    def dim(self) -> int:
        return space_dim(self.space)


@dataclass(frozen=True)
class Observable:
    """Hermitian matrix on a labeled space."""

    space: Space
    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        sp = _as_space(self.space)
        a = _as_matrix(self.data, space_dim(sp))
        if not _herm_defect(a) <= TOL_HERM:
            raise StateValidityError(f"observable not Hermitian within {TOL_HERM}")
        object.__setattr__(self, "space", sp)
        object.__setattr__(self, "data", _freeze(a, self.data))

    @property
    def dim(self) -> int:
        return space_dim(self.space)


def _kraus_stack(ops, din: int, dout: int, trace_preserving: bool = True) -> np.ndarray:
    """Frozen (r, dout, din) stack of Kraus operators, checked as KrausChannel documents."""
    try:
        k = np.asarray(ops, dtype=complex)
    except ValueError as exc:  # ragged, or not numbers
        raise ShapeError(f"Kraus operators do not form one stack: {exc}") from None
    if k.ndim != 3 or k.shape[1:] != (dout, din):
        raise ShapeError(f"Kraus stack shape {k.shape} != (r, {dout}, {din})")
    if not len(k):
        raise ShapeError("at least one Kraus operator is needed")
    m = k.reshape(-1, din)
    gram = m.conj().T @ m
    if trace_preserving:
        if not np.max(np.abs(gram - np.eye(din))) <= TOL_TP:
            raise ShapeError(f"Kraus operators not trace preserving within {TOL_TP}")
    else:
        # non-finite iff some Kraus entry is; eigvalsh returns finite garbage on NaN input
        tr = gram.trace().real
        hi = float(np.linalg.eigvalsh((gram + gram.conj().T) / 2)[-1]) if np.isfinite(tr) else tr
        if not hi <= 1.0 + TOL_TP:
            raise ShapeError(f"CP branch exceeds trace preservation: max eig {hi}")
    return _freeze(k, ops)


@dataclass(frozen=True)
class KrausChannel:
    """CP map given by Kraus operators K_i: in_space -> out_space.

    kraus (a sequence of (d_out, d_in) operators, or one array) is stored as
    one read-only (r, d_out, d_in) stack. trace_preserving=True enforces
    sum K'K = 1 within 1e-9; False allows a sub-normalized CP branch
    (sum K'K <= 1 + 1e-9).
    """

    in_space: Space
    out_space: Space
    kraus: np.ndarray = field(repr=False)
    trace_preserving: bool = True

    def __post_init__(self):
        sin = _as_space(self.in_space)
        sout = _as_space(self.out_space)
        ops = _kraus_stack(self.kraus, space_dim(sin), space_dim(sout), self.trace_preserving)
        object.__setattr__(self, "in_space", sin)
        object.__setattr__(self, "out_space", sout)
        object.__setattr__(self, "kraus", ops)

    @property
    def dim_in(self) -> int:
        return space_dim(self.in_space)

    @property
    def dim_out(self) -> int:
        return space_dim(self.out_space)


@dataclass(frozen=True)
class Instrument:
    """Outcome-labeled measurement {M_m}, one Kraus operator per outcome.

    Each M_m in branches is a read-only view into one (n, d_out, d_in) stack.
    """

    in_space: Space
    out_space: Space
    branches: tuple = field(repr=False)  # tuple[(outcome, M_m), ...]
    _kraus: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        sin = _as_space(self.in_space)
        sout = _as_space(self.out_space)
        brs = tuple(self.branches)
        outcomes = tuple(m for m, _ in brs)
        if len(set(outcomes)) != len(outcomes):
            raise ShapeError(f"duplicate outcome labels in {list(outcomes)}")
        ops = _kraus_stack([op for _, op in brs], space_dim(sin), space_dim(sout))
        object.__setattr__(self, "in_space", sin)
        object.__setattr__(self, "out_space", sout)
        object.__setattr__(self, "branches", tuple(zip(outcomes, ops)))
        object.__setattr__(self, "_kraus", ops)

    @property
    def outcomes(self) -> tuple:
        return tuple(m for m, _ in self.branches)

    @property
    def dim_in(self) -> int:
        return space_dim(self.in_space)


@dataclass(frozen=True)
class TestEnsemble:
    """Weighted list of states {(p_k, rho_k)} on a common space."""

    entries: tuple

    def __post_init__(self):
        ents = tuple((float(p), rho) for p, rho in self.entries)
        if not ents:
            raise StateValidityError("ensemble must be non-empty")
        total = sum(p for p, _ in ents)
        if not (all(p >= -TOL_PROB for p, _ in ents) and abs(total - 1.0) <= TOL_PROB):
            raise StateValidityError("ensemble weights must be >= 0 and sum to 1 within 1e-12")
        sp = ents[0][1].space
        for _, rho in ents:
            if rho.space != sp:
                raise CompositeSpaceError("all ensemble states must share one space")
        object.__setattr__(self, "entries", ents)

    @property
    def space(self) -> Space:
        return self.entries[0][1].space


def ket(i: int, dim: int) -> np.ndarray:
    v = np.zeros(dim, dtype=complex)
    v[i] = 1.0
    return v


def pure_state(vec, sp) -> DensityMatrix:
    v = np.asarray(vec, dtype=complex).reshape(-1)
    v = v / np.linalg.norm(v)
    return DensityMatrix(_as_space(sp), np.outer(v, v.conj()))


def maximally_mixed(sp) -> DensityMatrix:
    sp = _as_space(sp)
    d = space_dim(sp)
    return DensityMatrix(sp, np.eye(d) / d)


def tensor(a, b):
    """Kronecker product with concatenated labels; operand order is kept."""
    if isinstance(a, DensityMatrix) and isinstance(b, DensityMatrix):
        sp = _joined_space(a.space, b.space)
        return DensityMatrix(sp, np.kron(a.data, b.data))
    if isinstance(a, Observable) and isinstance(b, Observable):
        sp = _joined_space(a.space, b.space)
        return Observable(sp, np.kron(a.data, b.data))
    if isinstance(a, KrausChannel) and isinstance(b, KrausChannel):
        sin = _joined_space(a.in_space, b.in_space)
        sout = _joined_space(a.out_space, b.out_space)
        ka, kb = a.kraus, b.kraus
        # kron of every pair, a's operator outer: (ra, rb, oa, ob, ia, ib)
        ops = ka[:, None, :, None, :, None] * kb[None, :, None, :, None, :]
        ops = ops.reshape(len(ka) * len(kb), a.dim_out * b.dim_out, a.dim_in * b.dim_in)
        return KrausChannel(sin, sout, ops, a.trace_preserving and b.trace_preserving)
    raise ShapeError(f"tensor: unsupported operand kinds {type(a).__name__}, {type(b).__name__}")


def _joined_space(sa: Space, sb: Space) -> Space:
    names = set(_names(sa)) & set(_names(sb))
    if names:
        raise CompositeSpaceError(f"label collision in tensor product: {sorted(names)}")
    return tuple(sa) + tuple(sb)


def _resolve_names(sp: Space, labels) -> list:
    out = []
    for l in labels:
        out.append(l.name if isinstance(l, Label) else str(l))
    known = _names(sp)
    for n in out:
        if n not in known:
            raise CompositeSpaceError(f"unknown label {n!r}; space has {list(known)}")
    return out


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Reduced state on the kept labels, in rho's label order."""
    keep_names = set(_resolve_names(rho.space, keep))
    dims = [l.dim for l in rho.space]
    n = len(dims)
    t = rho.data.reshape(dims + dims)
    # contract traced row/column axis pairs, rightmost first to keep axis numbers stable
    for i in reversed(range(n)):
        if rho.space[i].name not in keep_names:
            t = np.trace(t, axis1=i, axis2=i + (t.ndim // 2))
    new_space = tuple(l for l in rho.space if l.name in keep_names)
    d = space_dim(new_space)
    return DensityMatrix(new_space, t.reshape(d, d))


def _reorder(a: np.ndarray, dims: Sequence[int], order: Sequence[int], axis: int) -> np.ndarray:
    """Reorder the tensor factors of one axis of `a`: factors `dims` -> dims[order]."""
    t = a.reshape(a.shape[:axis] + tuple(dims) + a.shape[axis + 1 :])
    n = len(dims)
    perm = [*range(axis), *(axis + o for o in order), *range(axis + n, t.ndim)]
    return t.transpose(perm).reshape(a.shape)


def _expm_herm(h: np.ndarray, t: float | np.ndarray = 1.0) -> np.ndarray:
    """exp(-i t H) for Hermitian H via one eigendecomposition; an array of
    times gives the (len(t), d, d) stack of exponentials."""
    vals, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(-1j * np.asarray(t)[..., None, None] * vals)) @ vecs.conj().T


def _lift(ops: np.ndarray, sub_in: Space, sub_out: Space, full: Space):
    """(output space, stack) of (r, d_out, d_in) operators sub_in -> sub_out
    tensored with the identity on the other labels of `full`; see embed."""
    full_names = _names(full)
    for l in sub_in:
        if l.name not in full_names:
            raise CompositeSpaceError(f"label {l.name!r} missing from space {list(full_names)}")
        if full[full_names.index(l.name)].dim != l.dim:
            raise ShapeError(f"label {l.name!r}: dimension mismatch with the space")
    in_names = _names(sub_in)
    rest = tuple(l for l in full if l.name not in in_names)
    if sub_out == sub_in:
        target = full
    else:
        first = min(full_names.index(n) for n in in_names)
        cut = sum(1 for l in full[:first] if l.name not in in_names)
        target = rest[:cut] + tuple(sub_out) + rest[cut:]
        _check_unique(target)
    r, d_out, d_in = ops.shape
    d_rest = space_dim(rest)
    # kron(K, 1_rest) for each operator: rows (sub_out, rest), columns (sub_in, rest)
    big = ops[:, :, None, :, None] * np.eye(d_rest)[:, None, :]
    big = big.reshape(r, d_out * d_rest, d_in * d_rest)
    rows = _names(sub_out) + _names(rest)
    cols = in_names + _names(rest)
    big = _reorder(big, [l.dim for l in sub_out + rest], [rows.index(n) for n in _names(target)], 1)
    big = _reorder(big, [l.dim for l in sub_in + rest], [cols.index(n) for n in full_names], 2)
    # + 0.0 turns -0.0 into 0.0: zero entries carry no sign, as in a product with permutation matrices
    return target, big + 0.0


def embed_matrix(mat: np.ndarray, sub, full) -> np.ndarray:
    """Operator acting as `mat` on the sub labels and identity elsewhere."""
    sub = _as_space(sub)
    _, lifted = _lift(np.asarray(mat, dtype=complex)[None], sub, sub, _as_space(full))
    return lifted[0]


def embed(ch: KrausChannel, full_space) -> KrausChannel:
    """Lift a channel acting on a subset of labels to the full space.

    Untouched factors keep their relative order; the output labels replace the
    input labels as a block at the position of the first input label.
    """
    full = _as_space(full_space)
    if ch.in_space == full:
        return ch
    target, ops = _lift(ch.kraus, ch.in_space, ch.out_space, full)
    return KrausChannel(full, target, ops, ch.trace_preserving)


def compose(second: KrausChannel, first: KrausChannel) -> KrausChannel:
    """Channel second o first; spaces must match label for label."""
    if _names(second.in_space) != _names(first.out_space) or [
        l.dim for l in second.in_space
    ] != [l.dim for l in first.out_space]:
        raise ShapeError(
            f"cannot compose: {_names(first.out_space)} -> {_names(second.in_space)}"
        )
    # every product K2 K1, second's operator outer
    ops = second.kraus[:, None] @ first.kraus
    ops = ops.reshape(-1, second.dim_out, first.dim_in)
    tp = second.trace_preserving and first.trace_preserving
    ch = KrausChannel(first.in_space, second.out_space, ops, tp)
    if len(ops) > ch.dim_in * ch.dim_out:
        ch = minimal_kraus(ch)
    return ch


def apply_raw(ch: KrausChannel, mat: np.ndarray) -> np.ndarray:
    """sum_i K_i M K_i' on a bare matrix already laid out on ch.in_space."""
    # streamed in operator order: a stacked (r, d_out, d_out) sum holds r outputs at once
    return sum(t @ k.conj().T for t, k in zip(ch.kraus @ mat, ch.kraus))


def apply(ch, rho: DensityMatrix):
    """Apply a channel or instrument to a state; identity on untouched labels.

    KrausChannel: returns the output DensityMatrix (the channel must be trace
    preserving). Instrument: returns a list of (outcome, probability, state)
    with state None when the probability is below 1e-12.
    """
    if isinstance(ch, Instrument):
        return apply_instrument(ch, rho)
    lifted = embed(ch, rho.space)
    if not lifted.trace_preserving:
        raise ShapeError("apply requires a trace-preserving channel; use apply_raw for CP branches")
    out = apply_raw(lifted, rho.data)
    out = (out + out.conj().T) / 2
    return DensityMatrix(lifted.out_space, out)


def apply_instrument(inst: Instrument, rho: DensityMatrix):
    lifted = embed(instrument_channel(inst), rho.space)
    k = lifted.kraus
    raws = k @ rho.data @ k.conj().transpose(0, 2, 1)
    probs = np.real(np.trace(raws, axis1=1, axis2=2))
    results = []
    for m, p, raw in zip(inst.outcomes, probs.tolist(), raws):
        if p > TOL_PROB:
            results.append((m, p, DensityMatrix(lifted.out_space, (raw + raw.conj().T) / (2 * p))))
        else:
            results.append((m, max(p, 0.0), None))
    return results


def dual(ch: KrausChannel) -> Callable[[Observable], Observable]:
    """Heisenberg-picture map O -> sum K' O K, from out_space back to in_space."""

    def adjoint(obs: Observable) -> Observable:
        if _names(obs.space) != _names(ch.out_space):
            raise CompositeSpaceError("observable must live on the channel output space")
        acc = sum(ch.kraus.conj().transpose(0, 2, 1) @ obs.data @ ch.kraus)
        return Observable(ch.in_space, (acc + acc.conj().T) / 2)

    return adjoint


def choi(ch: KrausChannel) -> np.ndarray:
    """Choi matrix sum_i vec(K_i) vec(K_i)' with row-major vec, shape (do*di, do*di)."""
    v = ch.kraus.reshape(len(ch.kraus), -1)
    # the builtin sum adds in operator order; np.add.reduce goes pairwise on 1x1 items
    return sum(v[:, :, None] * v.conj()[:, None, :])


def kraus_from_choi(c: np.ndarray, dim_in: int, dim_out: int, tol: float = 1e-14) -> np.ndarray:
    """(r, dim_out, dim_in) Kraus stack from the eigenvectors of c above tol."""
    vals, vecs = np.linalg.eigh((c + c.conj().T) / 2)
    keep = vals > tol
    if not keep.any():
        return np.zeros((1, dim_out, dim_in), dtype=complex)
    return (np.sqrt(vals[keep]) * vecs[:, keep]).T.reshape(-1, dim_out, dim_in)


def minimal_kraus(ch: KrausChannel) -> KrausChannel:
    """Re-extract at most dim_in*dim_out Kraus operators from the Choi matrix."""
    ops = kraus_from_choi(choi(ch), ch.dim_in, ch.dim_out)
    return KrausChannel(ch.in_space, ch.out_space, ops, ch.trace_preserving)


def validate_channel(ch: KrausChannel) -> dict:
    """Trace-preservation and Choi positivity diagnostics for tests and reports."""
    acc = sum(ch.kraus.conj().transpose(0, 2, 1) @ ch.kraus)
    tp_defect = float(np.max(np.abs(acc - np.eye(ch.dim_in))))
    c = choi(ch)
    lo = float(np.linalg.eigvalsh((c + c.conj().T) / 2)[0])
    ok = (tp_defect <= TOL_TP if ch.trace_preserving else True) and lo >= -TOL_CHOI
    return {"tp_defect": tp_defect, "choi_min_eig": lo, "ok": bool(ok)}


def identity_channel(sp) -> KrausChannel:
    sp = _as_space(sp)
    return KrausChannel(sp, sp, (np.eye(space_dim(sp)),))


def unitary_channel(u: np.ndarray, in_space, out_space=None) -> KrausChannel:
    sin = _as_space(in_space)
    sout = _as_space(out_space) if out_space is not None else sin
    return KrausChannel(sin, sout, (np.asarray(u, dtype=complex),))


def instrument_channel(inst: Instrument) -> KrausChannel:
    """Sum over branches: the CPTP map rho -> sum_m M_m rho M_m'."""
    return KrausChannel(inst.in_space, inst.out_space, inst._kraus)


def pointer_channel(inst: Instrument, pointer: Label) -> KrausChannel:
    """Classical readout rho -> sum_m tr[M_m rho M_m'] |m><m| on the pointer space."""
    n = len(inst.branches)
    if pointer.dim != n:
        raise ShapeError(f"pointer dim {pointer.dim} != number of outcomes {n}")
    dout = space_dim(inst.out_space)
    # |m><s| M_m for every outcome slot m and output basis state s, slot outer
    kets = np.eye(n * dout, dtype=complex).reshape(n, dout, n, dout)
    ops = (kets @ inst._kraus[:, None]).reshape(n * dout, n, inst.dim_in)
    return KrausChannel(inst.in_space, (pointer,), ops)


def expectation(rho: DensityMatrix, obs: Observable) -> float:
    if _names(rho.space) != _names(obs.space):
        raise CompositeSpaceError("state and observable live on different spaces")
    return float(np.real(np.trace(rho.data @ obs.data)))


def _clipped_psd(a: np.ndarray) -> np.ndarray:
    """Clip eigenvalues in [-1e-10, 0) to zero and renormalize the trace."""
    vals, vecs = np.linalg.eigh((a + a.conj().T) / 2)
    if vals[0] < -TOL_EIG_NEG:
        raise StateValidityError(f"eigenvalue {vals[0]} below -{TOL_EIG_NEG}")
    vals = np.clip(vals, 0.0, None)
    out = (vecs * vals) @ vecs.conj().T
    tr = out.trace().real
    return out / tr if tr > 0 else out


def _psd_sqrt(a: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh((a + a.conj().T) / 2)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def uhlmann_fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """F = tr sqrt(sqrt(rho) sigma sqrt(rho)), computed as the nuclear norm of
    sqrt(rho) sqrt(sigma), or as sqrt(<psi| other |psi>) when either state is
    pure (one eigenvalue above 1e-12), whose rounding-level ones it skips."""
    if _names(rho.space) != _names(sigma.space):
        raise CompositeSpaceError("states live on different spaces")
    a = _clipped_psd(rho.data)
    b = _clipped_psd(sigma.data)
    roots = []
    for x, other in ((a, b), (b, a)):
        vals, vecs = np.linalg.eigh((x + x.conj().T) / 2)
        if np.count_nonzero(vals > TOL_EIG_SKIP) == 1:
            return min(math.sqrt(max(float(np.real(vecs[:, -1].conj() @ other @ vecs[:, -1])), 0.0)), 1.0)
        roots.append((vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T)
    f = float(np.sum(np.linalg.svd(roots[0] @ roots[1], compute_uv=False)))
    return min(max(f, 0.0), 1.0)


def purified_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    f = uhlmann_fidelity(rho, sigma)
    return math.sqrt(max(0.0, 1.0 - f * f))


def variance(rho: DensityMatrix, z: Observable) -> float:
    if _names(rho.space) != _names(z.space):
        raise CompositeSpaceError("state and observable live on different spaces")
    m1 = np.real(np.trace(rho.data @ z.data))
    m2 = np.real(np.trace(rho.data @ z.data @ z.data))
    return float(max(0.0, m2 - m1 * m1))


def qfi(rho: DensityMatrix, x: Observable) -> float:
    """SLD quantum Fisher information of the family exp(-i t X) rho exp(i t X).

    Spectral form 2 sum_{ij} (li - lj)^2 / (li + lj) |<i|X|j>|^2 over eigenpairs
    of rho, skipping pairs with li + lj <= 1e-12.
    """
    if _names(rho.space) != _names(x.space):
        raise CompositeSpaceError("state and observable live on different spaces")
    a = _clipped_psd(rho.data)
    vals, vecs = np.linalg.eigh(a)
    xm = vecs.conj().T @ x.data @ vecs
    li = vals[:, None]
    lj = vals[None, :]
    s = li + lj
    mask = s > TOL_EIG_SKIP
    num = np.zeros_like(s)
    np.divide((li - lj) ** 2, s, out=num, where=mask)
    return float(2.0 * np.sum(num * np.abs(xm) ** 2))
