"""Dense quantum primitives: labeled spaces, states, observables, channels.

Everything is a plain complex numpy array plus an ordered tuple of labels
describing the tensor factors. Objects are immutable after construction;
operations are pure functions. A value that holds arrays compares and hashes
by identity.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property
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
TOL_FACTOR = 1e-14  # eigenpairs above it span a square-root factor m, rho = m m^dag

__all__ = [
    "Label",
    "DensityMatrix",
    "Observable",
    "KrausChannel",
    "Instrument",
    "TestEnsemble",
    "space",
    "tensor",
    "partial_trace",
    "embed",
    "compose",
    "apply",
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
        dim = _as_int(self.dim)
        if dim is None or dim < 1:
            raise CompositeSpaceError(f"label {self.name!r}: dim must be a positive integer, not {self.dim!r}")
        object.__setattr__(self, "dim", dim)


def _as_int(x) -> int | None:
    """x as an int when it is an integral real number (2.0 reads as 2, as jsonschema passes
    "dim": 2.0 as an integer); None otherwise, for the caller to refuse in its own words."""
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, numbers.Real) and math.isfinite(x) and x == int(x):
        return int(x)
    return None


Space = tuple  # tuple[Label, ...]


def space(*factors) -> Space:
    """Build a Space from Labels or (name, dim) pairs; names must be unique."""
    labels = []
    for f in factors:
        if isinstance(f, Label):
            labels.append(f)
        else:
            name, dim = f
            labels.append(Label(name, dim))
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
    if not np.isfinite(a).all():  # before any arithmetic, where inf - inf would warn
        raise StateValidityError("matrix entries must be finite")
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


@dataclass(frozen=True, eq=False)
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

    @cached_property
    def sqrt_factor(self) -> np.ndarray:
        """Read-only, C-contiguous (d, r) columns m = sqrt(lam_a) |v_a> over the eigenpairs
        above TOL_FACTOR, so rho = m m^dag: the one square root of a state the library
        reads; formed once per state (cached_property writes the instance dict)."""
        vals, vecs = _eigh_herm(self.data)
        keep = vals > TOL_FACTOR
        m = np.ascontiguousarray(vecs[:, keep] * np.sqrt(vals[keep]))
        m.setflags(write=False)
        return m


@dataclass(frozen=True, eq=False)
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
    if not np.isfinite(k).all():
        raise ShapeError("Kraus operator entries must be finite")
    m = k.reshape(-1, din)
    with np.errstate(over="ignore", invalid="ignore"):  # huge entries overflow; the checks below refuse them
        gram = m.conj().T @ m
    if trace_preserving:
        if not np.max(np.abs(gram - np.eye(din))) <= TOL_TP:
            raise ShapeError(f"Kraus operators not trace preserving within {TOL_TP}")
    else:
        # non-finite only where the products overflow; eigvalsh returns finite garbage on NaN input
        tr = gram.trace().real
        hi = float(np.linalg.eigvalsh((gram + gram.conj().T) / 2)[-1]) if np.isfinite(tr) else tr
        if not hi <= 1.0 + TOL_TP:
            raise ShapeError(f"CP branch exceeds trace preservation: max eig {hi}")
    return _freeze(k, ops)


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
class Instrument:
    """Outcome-labeled measurement {M_m}, one Kraus operator per outcome.

    Each M_m in branches is a read-only view into kraus, the (n, d_out, d_in) stack.
    """

    in_space: Space
    out_space: Space
    branches: tuple = field(repr=False)  # tuple[(outcome, M_m), ...]
    kraus: np.ndarray = field(init=False, repr=False)

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
        object.__setattr__(self, "kraus", ops)

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


def _trusted(cls, **fields):
    """A cls instance holding fields as given, without __post_init__.

    The one validation rule: the public constructors check what comes from
    outside (user arrays, decoded documents), and every value the library
    derives from values it has already checked is built here and not checked
    again, so it carries the defects its inputs were allowed and no tolerance
    is compounded by a second check. Three kinds of build stay checked: every
    decode of a document; the builders that take user input (pure_state,
    unitary_channel, identity_channel, the Implementation templates); and
    apply_instrument, whose renormalised branch divides rounding by p.

    Spaces must already be tuples of Labels. Each ndarray is stored as the
    public constructors store it: C-contiguous, complex128 and read-only; any
    other field, a tuple of arrays included, is stored as given."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            value = np.ascontiguousarray(value, dtype=complex)
            value.setflags(write=False)
        object.__setattr__(obj, name, value)
    return obj


def ket(i: int, dim: int) -> np.ndarray:
    v = np.zeros(dim, dtype=complex)
    v[i] = 1.0
    return v


def _unit_vector(vec) -> np.ndarray:
    """vec / ||vec|| as a flat complex array; StateValidityError unless finite and nonzero."""
    v = np.asarray(vec, dtype=complex).reshape(-1)
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(v) if np.isfinite(v).all() else 0.0
    if norm == math.inf:  # huge finite entries: scaled by the largest component first
        v = v / max(np.max(np.abs(v.real)), np.max(np.abs(v.imag)))
        norm = np.linalg.norm(v)
    if not norm > 0.0:
        raise StateValidityError("a state vector needs finite entries and a nonzero norm")
    return v / norm


def pure_state(vec, sp) -> DensityMatrix:
    v = _unit_vector(vec)
    return DensityMatrix(_as_space(sp), np.outer(v, v.conj()))


def maximally_mixed(sp) -> DensityMatrix:
    sp = _as_space(sp)
    d = space_dim(sp)
    return _trusted(DensityMatrix, space=sp, data=np.eye(d) / d)


def tensor(a, b):
    """Kronecker product with concatenated labels; operand order is kept."""
    if type(a) is type(b) and type(a) in (DensityMatrix, Observable):
        return _trusted(type(a), space=_joined_space(a.space, b.space), data=np.kron(a.data, b.data))
    if isinstance(a, KrausChannel) and isinstance(b, KrausChannel):
        sin = _joined_space(a.in_space, b.in_space)
        sout = _joined_space(a.out_space, b.out_space)
        ka, kb = a.kraus, b.kraus
        # kron of every pair, a's operator outer: (ra, rb, oa, ob, ia, ib)
        ops = ka[:, None, :, None, :, None] * kb[None, :, None, :, None, :]
        ops = ops.reshape(len(ka) * len(kb), a.dim_out * b.dim_out, a.dim_in * b.dim_in)
        tp = a.trace_preserving and b.trace_preserving
        return _trusted(KrausChannel, in_space=sin, out_space=sout, kraus=ops, trace_preserving=tp)
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
    return _trusted(DensityMatrix, space=new_space, data=t.reshape(d, d))


def _reorder(a: np.ndarray, dims: Sequence[int], order: Sequence[int], axis: int) -> np.ndarray:
    """Reorder the tensor factors of one axis of `a`: factors `dims` -> dims[order]."""
    t = a.reshape(a.shape[:axis] + tuple(dims) + a.shape[axis + 1 :])
    n = len(dims)
    perm = [*range(axis), *(axis + o for o in order), *range(axis + n, t.ndim)]
    return t.transpose(perm).reshape(a.shape)


def _eigh_herm(h: np.ndarray):
    """(eigenvalues, eigenvectors) of Hermitian h. A diagonal h (off-diagonal
    entries exactly zero) returns its real diagonal, unsorted, and the
    identity, without a decomposition."""
    diag = h.diagonal()
    if np.count_nonzero(h) == np.count_nonzero(diag):
        return diag.real.copy(), np.eye(len(h), dtype=h.dtype)
    return np.linalg.eigh(h)


def _expm_herm(h: np.ndarray, t: float | np.ndarray = 1.0) -> np.ndarray:
    """exp(-i t H) for Hermitian H via one eigendecomposition; an array of
    times gives the (len(t), d, d) stack of exponentials."""
    vals, vecs = _eigh_herm(h)
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
    # K (x) 1 keeps ch's sum K'K (x) 1, so the lift needs no re-check
    return _trusted(KrausChannel, in_space=full, out_space=target, kraus=ops, trace_preserving=ch.trace_preserving)


def compose(second: KrausChannel, first: KrausChannel) -> KrausChannel:
    """Channel second o first; spaces must match label for label."""
    if second.in_space != first.out_space:
        raise ShapeError(f"cannot compose: {_names(first.out_space)} -> {_names(second.in_space)}")
    # every product K2 K1, second's operator outer
    ops = second.kraus[:, None] @ first.kraus
    ops = ops.reshape(-1, second.dim_out, first.dim_in)
    tp = second.trace_preserving and first.trace_preserving
    ch = _trusted(KrausChannel, in_space=first.in_space, out_space=second.out_space, kraus=ops, trace_preserving=tp)
    if len(ops) > ch.dim_in * ch.dim_out:
        ch = minimal_kraus(ch)
    return ch


def _outputs(kraus: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """(..., n, a, a) Hermitian parts of sum_i K_i rho_k K_i^H for the Kraus stack
    kraus (..., r, a, b) and each state of rho (..., n, b, b), the leading axes
    broadcast; the operators are added in order."""
    k = kraus[..., None, :, :, :]
    out = np.sum(k @ rho[..., None, :, :] @ k.conj().swapaxes(-1, -2), axis=-3)
    return (out + out.conj().swapaxes(-1, -2)) / 2


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
        raise ShapeError("apply requires a trace-preserving channel; a CP branch is applied through its Instrument")
    return _trusted(DensityMatrix, space=lifted.out_space, data=_outputs(lifted.kraus, rho.data[None])[0])


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
        if obs.space != ch.out_space:
            raise CompositeSpaceError("observable must live on the channel output space")
        acc = sum(ch.kraus.conj().transpose(0, 2, 1) @ obs.data @ ch.kraus)
        return _trusted(Observable, space=ch.in_space, data=(acc + acc.conj().T) / 2)

    return adjoint


def choi(ch: KrausChannel) -> np.ndarray:
    """Choi matrix sum_i vec(K_i) vec(K_i)' with row-major vec, shape (do*di, do*di)."""
    v = ch.kraus.reshape(len(ch.kraus), -1)
    # the builtin sum adds in operator order; np.add.reduce goes pairwise on 1x1 items
    return sum(v[:, :, None] * v.conj()[:, None, :])


def kraus_from_choi(c: np.ndarray, dim_in: int, dim_out: int) -> np.ndarray:
    """(r, dim_out, dim_in) Kraus stack from the eigenvectors of c above TOL_FACTOR.

    A (..., n, n) stack of Choi matrices gives a (..., r, dim_out, dim_in)
    stack, r the largest count kept, the smaller ranks padded with zero
    operators.
    """
    vals, vecs = _herm_eigh(c)
    r = int(np.max(np.count_nonzero(vals > TOL_FACTOR, axis=-1)))
    if not r:
        return np.zeros((*c.shape[:-2], 1, dim_out, dim_in), dtype=complex)
    # eigh sorts ascending, so the kept eigenpairs are the last r of the largest rank
    w = np.sqrt(np.where(vals > TOL_FACTOR, vals, 0.0))[..., None, -r:]
    return (w * vecs[..., -r:]).swapaxes(-1, -2).reshape(*c.shape[:-2], r, dim_out, dim_in)


def minimal_kraus(ch: KrausChannel) -> KrausChannel:
    """Re-extract at most dim_in*dim_out Kraus operators from the Choi matrix."""
    ops, tp = kraus_from_choi(choi(ch), ch.dim_in, ch.dim_out), ch.trace_preserving
    return _trusted(KrausChannel, in_space=ch.in_space, out_space=ch.out_space, kraus=ops, trace_preserving=tp)


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


def unitary_channel(u: np.ndarray, in_space) -> KrausChannel:
    sp = _as_space(in_space)
    return KrausChannel(sp, sp, (np.asarray(u, dtype=complex),))


def instrument_channel(inst: Instrument) -> KrausChannel:
    """Sum over branches: the CPTP map rho -> sum_m M_m rho M_m'."""
    return _trusted(KrausChannel, in_space=inst.in_space, out_space=inst.out_space, kraus=inst.kraus, trace_preserving=True)


def pointer_channel(inst: Instrument, pointer: Label) -> KrausChannel:
    """Classical readout rho -> sum_m tr[M_m rho M_m'] |m><m| on the pointer space."""
    n = len(inst.branches)
    if pointer.dim != n:
        raise ShapeError(f"pointer dim {pointer.dim} != number of outcomes {n}")
    dout = space_dim(inst.out_space)
    # |m><s| M_m for every outcome slot m and output basis state s, slot outer
    kets = np.eye(n * dout, dtype=complex).reshape(n, dout, n, dout)
    ops = (kets @ inst.kraus[:, None]).reshape(n * dout, n, inst.dim_in)
    # sum_{m,s} M_m'|s><m|m><s|M_m = sum_m M_m'M_m, the instrument's own
    return _trusted(KrausChannel, in_space=inst.in_space, out_space=(pointer,), kraus=ops, trace_preserving=True)


def expectation(rho: DensityMatrix, obs: Observable) -> float:
    if rho.space != obs.space:
        raise CompositeSpaceError("state and observable live on different spaces")
    return float(np.real(np.trace(rho.data @ obs.data)))


def _herm_eigh(a: np.ndarray):
    """eigh of the Hermitian part of each matrix of the (..., d, d) stack a."""
    return np.linalg.eigh((a + a.conj().swapaxes(-1, -2)) / 2)


def _clipped_psd(a: np.ndarray) -> np.ndarray:
    """Clip eigenvalues in [-1e-10, 0) to zero and renormalize the trace, for
    each matrix of the (..., d, d) stack a."""
    vals, vecs = _herm_eigh(a)
    lo = vals[..., 0].min()
    if lo < -TOL_EIG_NEG:
        raise StateValidityError(f"eigenvalue {lo} below -{TOL_EIG_NEG}")
    vals = np.clip(vals, 0.0, None)
    out = (vecs * vals[..., None, :]) @ vecs.conj().swapaxes(-1, -2)
    tr = np.trace(out, axis1=-2, axis2=-1).real[..., None, None]
    return np.divide(out, tr, out=out, where=tr > 0)


def _unit_square(x: np.ndarray) -> np.ndarray:
    """Each (..., d, c) factor x brought to d columns with x x^H kept (R^H of the QR of
    x^H when c > d, zero columns appended when c < d) and scaled to unit Frobenius norm."""
    d, c = x.shape[-2:]
    if c > d:
        x = np.linalg.qr(x.conj().swapaxes(-1, -2), mode="r").conj().swapaxes(-1, -2)
    elif c < d:
        x = np.concatenate([x, np.zeros((*x.shape[:-1], d - c), dtype=x.dtype)], axis=-1)
    return x / np.linalg.norm(x, axis=(-2, -1), keepdims=True)


def _infidelity(m: np.ndarray, n: np.ndarray) -> np.ndarray:
    """1 - F for each pair of the (..., d, a) and (..., d, b) stacks of factors m and n
    of the states m m^H and n n^H scaled to unit trace, F being the largest overlap of
    two purifications (Uhlmann): with both factors squared by _unit_square and n^H m =
    W S P^H, F = tr S, and B^2 / 2 is returned, at most 1, for the squared Bures distance
    B^2 = ||m - n W P^H||_F^2 = 2 (1 - F): a sum of squares, which does not cancel."""
    m, n = _unit_square(m), _unit_square(n)
    w, _, ph = np.linalg.svd(n.conj().swapaxes(-1, -2) @ m)
    return np.minimum(np.linalg.norm(m - n @ (w @ ph), axis=(-2, -1)) ** 2 / 2, 1.0)


def _state_infidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    if rho.space != sigma.space:
        raise CompositeSpaceError("states live on different spaces")
    return float(_infidelity(rho.sqrt_factor, sigma.sqrt_factor))


def uhlmann_fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """F = tr sqrt(sqrt(rho) sigma sqrt(rho)) = ||m^H n||_1 for the states' square-root
    factors m and n (sqrt_factor), as 1 - B^2 / 2 from their Bures residual (_infidelity)."""
    return 1.0 - _state_infidelity(rho, sigma)


def purified_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """sqrt(1 - F^2), with 1 - F^2 = h (2 - h) for h = 1 - F as _infidelity forms it."""
    h = _state_infidelity(rho, sigma)
    return math.sqrt(h * (2.0 - h))


def variance(rho: DensityMatrix, z: Observable) -> float:
    if rho.space != z.space:
        raise CompositeSpaceError("state and observable live on different spaces")
    m1 = np.real(np.trace(rho.data @ z.data))
    m2 = np.real(np.trace(rho.data @ z.data @ z.data))
    return float(max(0.0, m2 - m1 * m1))


def qfi(rho: DensityMatrix, x: Observable) -> float:
    """SLD quantum Fisher information of the family exp(-i t X) rho exp(i t X).

    Spectral form 2 sum_{ij} (li - lj)^2 / (li + lj) |<i|X|j>|^2 over eigenpairs
    of rho, skipping pairs with li + lj <= 1e-12.
    """
    if rho.space != x.space:
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
