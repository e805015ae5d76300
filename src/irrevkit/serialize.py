"""JSON encoding for states, operators, channels and reports.

Conventions: complex entries are [re, im] pairs, matrices are row-major
nested lists, spaces are lists of {"name", "dim"}. Emission is canonical
(sorted keys, fixed separators) so equal inputs produce byte-identical
files; timestamps never enter report bodies.
"""

from __future__ import annotations

import json
import math
import os
from itertools import chain

import numpy as np

from .errors import ShapeError
from .qcore import (
    DensityMatrix,
    Instrument,
    KrausChannel,
    Label,
    Observable,
    TestEnsemble,
    _as_space,
)
from .way import _PARTS, Implementation

__all__ = ["canonical_json"]


def encode_matrix(m: np.ndarray) -> list:
    m = np.asarray(m, dtype=complex)
    return np.stack([m.real, m.imag], axis=-1).tolist()


def decode_matrix(obj) -> np.ndarray:
    rows = []
    for row in obj:
        out = []
        for v in row:
            if isinstance(v, (int, float)):
                out.append(complex(v, 0.0))
            elif isinstance(v, (list, tuple)) and len(v) == 2:
                out.append(complex(float(v[0]), float(v[1])))
            else:
                raise ShapeError(f"matrix entry must be a number or [re, im], got {v!r}")
        rows.append(out)
    try:
        m = np.array(rows, dtype=complex)
    except ValueError as exc:
        raise ShapeError(f"matrix rows have inconsistent lengths: {exc}") from exc
    if m.ndim != 2:
        raise ShapeError("matrix must be two-dimensional")
    if not np.isfinite(m).all():
        raise ShapeError("matrix entries must be finite")
    return m


def encode_space(sp) -> list:
    return [{"name": l.name, "dim": int(l.dim)} for l in _as_space(sp)]


def decode_space(obj) -> tuple:
    return tuple(Label(e["name"], e["dim"]) for e in obj)


def encode_state(rho: DensityMatrix) -> dict:
    return {"space": encode_space(rho.space), "matrix": encode_matrix(rho.data)}


def decode_state(obj) -> DensityMatrix:
    return DensityMatrix(decode_space(obj["space"]), decode_matrix(obj["matrix"]))


def encode_observable(a: Observable) -> dict:
    return {"space": encode_space(a.space), "matrix": encode_matrix(a.data)}


def decode_observable(obj) -> Observable:
    return Observable(decode_space(obj["space"]), decode_matrix(obj["matrix"]))


def encode_channel(ch: KrausChannel) -> dict:
    return {
        "in_space": encode_space(ch.in_space),
        "out_space": encode_space(ch.out_space),
        "kraus": [encode_matrix(k) for k in ch.kraus],
        "trace_preserving": bool(ch.trace_preserving),
    }


def decode_channel(obj) -> KrausChannel:
    return KrausChannel(
        decode_space(obj["in_space"]),
        decode_space(obj["out_space"]),
        tuple(decode_matrix(k) for k in obj["kraus"]),
        bool(obj.get("trace_preserving", True)),
    )


def encode_instrument(inst: Instrument) -> dict:
    return {
        "in_space": encode_space(inst.in_space),
        "out_space": encode_space(inst.out_space),
        "branches": [
            {"outcome": str(m), "kraus": encode_matrix(op)} for m, op in inst.branches
        ],
    }


def decode_instrument(obj) -> Instrument:
    return Instrument(
        decode_space(obj["in_space"]),
        decode_space(obj["out_space"]),
        tuple((b["outcome"], decode_matrix(b["kraus"])) for b in obj["branches"]),
    )


def encode_ensemble(omega: TestEnsemble) -> list:
    return [{"weight": float(p), "state": encode_state(r)} for p, r in omega.entries]


def decode_ensemble(obj) -> TestEnsemble:
    return TestEnsemble(tuple((float(e["weight"]), decode_state(e["state"])) for e in obj))


def encode_charges(charges: dict) -> dict:
    return {k: encode_observable(v) for k, v in charges.items()}


def decode_charges(obj) -> dict:
    return {k: decode_observable(v) for k, v in obj.items()}


def encode_implementation(impl: Implementation) -> dict:
    return {
        "rho_beta": encode_state(impl.rho_beta),
        "u": encode_matrix(impl.u),
        "charges": encode_charges(impl.charges),
        "partition": {part: encode_space(getattr(impl, part)) for part in _PARTS},
    }


def decode_implementation(obj) -> Implementation:
    return Implementation(
        decode_state(obj["rho_beta"]),
        decode_matrix(obj["u"]),
        decode_charges(obj["charges"]),
        **{part: decode_space(obj["partition"][part]) for part in _PARTS},
    )


def canonical_json(obj) -> str:
    """json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=True) + "\n", byte for byte."""
    out = []
    _emit(obj, out, "\n")
    out.append("\n")
    return "".join(out)


_quote = json.encoder.encode_basestring_ascii


def _float(x: float) -> str:
    return float.__repr__(x) if math.isfinite(x) else json.dumps(x)  # NaN, Infinity, -Infinity


def _key(k) -> str:
    """A dict key as json converts it."""
    if isinstance(k, str):
        return k
    if isinstance(k, (int, float)) or k is None:
        return json.dumps(k)
    raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")


def _floats(seq, sep: str, nl: str) -> str | None:
    """The items of seq joined by sep when they are all finite floats or all
    [re, im] pairs of them (nl: newline and indent of a pair's line), else None."""
    try:
        if type(seq[0]) is float:
            text = sep.join(map(float.__repr__, seq))
        elif set(map(type, seq)) <= {list, tuple} and set(map(len, seq)) == {2}:
            pairs = sep.join(["[" + nl + "  %s," + nl + "  %s" + nl + "]"] * len(seq))
            text = pairs % tuple(map(float.__repr__, chain.from_iterable(seq)))
        else:
            return None
    except TypeError:  # not a float
        return None
    return None if "n" in text else text  # no finite float's repr has an "n"; nan and inf go to _float


def _emit(o, out: list, nl: str) -> None:
    """Append the JSON of o to out; nl is the newline and indent of o's line."""
    if isinstance(o, str):
        out.append(_quote(o))
    elif o is None:
        out.append("null")
    elif o is True:
        out.append("true")
    elif o is False:
        out.append("false")
    elif isinstance(o, int):
        out.append(int.__repr__(o))
    elif isinstance(o, float):
        out.append(_float(o))
    elif isinstance(o, (list, tuple, dict)) and not o:
        out.append("{}" if isinstance(o, dict) else "[]")
    elif isinstance(o, (list, tuple)):
        inner = nl + "  "
        out.append("[" + inner)
        text = _floats(o, "," + inner, inner)
        if text is not None:
            out.append(text)
        else:
            for i, v in enumerate(o):
                if i:
                    out.append("," + inner)
                _emit(v, out, inner)
        out.append(nl + "]")
    elif isinstance(o, dict):
        inner = nl + "  "
        out.append("{")
        for i, (k, v) in enumerate(sorted(o.items())):
            out.append(("," if i else "") + inner + _quote(_key(k)) + ": ")
            _emit(v, out, inner)
        out.append(nl + "}")
    else:
        raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def atomic_write_text(path: str, text: str) -> None:
    # a fresh hidden file beside path, created with mode 0o666 as by open(path, "w"), so the umask applies
    directory = os.path.dirname(os.path.abspath(path)) or "."
    while True:
        tmp = os.path.join(directory, f".irrevkit-{os.urandom(8).hex()}")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            pass
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
