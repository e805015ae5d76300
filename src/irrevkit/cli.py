"""Batch front end: validate JSON scenarios, run pipelines, emit reports and CSV.

Exit codes: 0 success, 2 input/schema problem or unwritable output, 3 numerical
failure (extraction, conservation, precondition), 4 inequality violation beyond
the scenario tolerance. Reports are byte-identical across re-runs; wall-clock
metadata goes to a separate .meta.json sidecar.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import json
import math
import os
import re
import sys

import numpy as np

from .comb import ExtractionConfig, canonical_recovery, extract_epsilon, extract_eta, extract_two_copy
from .errors import (
    AssumptionError,
    BranchProbabilityError,
    ConservationError,
    ExtractionError,
    IrrevkitError,
    YanaseConditionError,
)
from .fixtures import write_fixtures
from .irrev import OptimizerConfig, delta_min, delta_with_recovery, petz_recovery
from .oracles import lt_disturbance, lt_error
from .otoc import ScramblingScenario, otoc_direct, otoc_iep, otoc_iep_cp, pauli_string, way_bound_otoc
from .qcore import DensityMatrix, Observable
from .serialize import (
    atomic_write_text,
    canonical_json,
    decode_channel,
    decode_ensemble,
    decode_implementation,
    decode_instrument,
    decode_observable,
    decode_space,
    decode_state,
    encode_channel,
    encode_ensemble,
    encode_implementation,
    encode_instrument,
    encode_observable,
    encode_state,
)
from .way import way_bound_disturbance, way_bound_error

EX_OK = 0
EX_INPUT = 2
EX_NUMERIC = 3
EX_VIOLATION = 4

_NUMERIC_ERRORS = (
    ExtractionError,
    ConservationError,
    YanaseConditionError,
    BranchProbabilityError,
    AssumptionError,
    np.linalg.LinAlgError,
)

# ---------------------------------------------------------------------------
# schemas

_MATRIX = {
    "type": "array",
    "minItems": 1,
    "items": {
        "type": "array",
        "minItems": 1,
        "items": {
            "oneOf": [
                {"type": "number"},
                {"type": "array", "items": {"type": "number"}, "minItems": 2, "maxItems": 2},
            ]
        },
    },
}

_NUMBERS = {float, int}  # exact types: bool is not a JSON Schema number


def _is_matrix(x) -> bool:
    """True only for values _MATRIX accepts, in one pass over the entries.

    False means "undecided": numpy scalars, list subclasses and every
    rejection go to the standard schema, which reports the error.
    """
    if type(x) is not list or not x:
        return False
    for row in x:
        if type(row) is not list or not row:
            return False
        for v in row:
            t = type(v)
            if t is list:
                if len(v) != 2 or type(v[0]) not in _NUMBERS or type(v[1]) not in _NUMBERS:
                    return False
            elif t not in _NUMBERS:
                return False
    return True


_SPACE = {
    "type": "array",
    "minItems": 1,
    "items": {
        "type": "object",
        "required": ["name", "dim"],
        "properties": {"name": {"type": "string"}, "dim": {"type": "integer", "minimum": 1}},
        "additionalProperties": False,
    },
}
_OPERATOR = {
    "type": "object",
    "required": ["space", "matrix"],
    "properties": {"space": _SPACE, "matrix": _MATRIX},
    "additionalProperties": False,
}
_CHANNEL = {
    "type": "object",
    "required": ["in_space", "out_space", "kraus"],
    "properties": {
        "in_space": _SPACE,
        "out_space": _SPACE,
        "kraus": {"type": "array", "minItems": 1, "items": _MATRIX},
        "trace_preserving": {"type": "boolean"},
    },
    "additionalProperties": False,
}
_INSTRUMENT = {
    "type": "object",
    "required": ["in_space", "out_space", "branches"],
    "properties": {
        "in_space": _SPACE,
        "out_space": _SPACE,
        "branches": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["outcome", "kraus"],
                "properties": {"outcome": {"type": "string"}, "kraus": _MATRIX},
                "additionalProperties": False,
            },
        },
    },
    "additionalProperties": False,
}
_ENSEMBLE = {
    "type": "array",
    "minItems": 1,
    "items": {
        "type": "object",
        "required": ["weight", "state"],
        "properties": {"weight": {"type": "number", "minimum": 0}, "state": _OPERATOR},
        "additionalProperties": False,
    },
}
_OPTIMIZER = {
    "type": "object",
    "properties": {
        "seed": {"type": "integer"},
        "max_iters": {"type": "integer", "minimum": 1},
        "step": {"type": "number", "exclusiveMinimum": 0},
        "restarts": {"type": "integer", "minimum": 0},
        "tol": {"type": "number", "minimum": 0},
    },
    "additionalProperties": False,
}
_EXTRACTION = {
    "type": "object",
    "properties": {
        "method": {"enum": ["extrapolated", "analytic"]},
        "thetas": {
            "type": "array",
            "minItems": 2,
            "uniqueItems": True,
            "items": {"type": "number", "exclusiveMinimum": 0},
        },
        "fit_tol": {"type": "number", "exclusiveMinimum": 0},
        "optimizer": _OPTIMIZER,
    },
    "additionalProperties": False,
}
_CHARGES = {
    "type": "object",
    "required": ["alpha", "beta", "alpha_out", "beta_out"],
    "properties": {
        "alpha": _OPERATOR,
        "beta": _OPERATOR,
        "alpha_out": _OPERATOR,
        "beta_out": _OPERATOR,
    },
    "additionalProperties": False,
}
_IMPLEMENTATION = {
    "type": "object",
    "required": ["rho_beta", "u", "charges", "partition"],
    "properties": {
        "rho_beta": _OPERATOR,
        "u": _MATRIX,
        "charges": _CHARGES,
        "partition": {
            "type": "object",
            "required": ["in_alpha", "in_beta", "out_alpha", "out_beta"],
            "properties": {
                "in_alpha": _SPACE,
                "in_beta": _SPACE,
                "out_alpha": _SPACE,
                "out_beta": _SPACE,
            },
            "additionalProperties": False,
        },
    },
    "additionalProperties": False,
}
_CANONICAL = {
    "type": "object",
    "required": ["x", "target"],
    "properties": {"x": _OPERATOR, "target": _SPACE},
    "additionalProperties": False,
}
# operators in a scrambling scenario may be dense or Pauli strings over IXYZ
_PAULI_TERMS = {
    "type": "array",
    "minItems": 1,
    "items": {
        "type": "array",
        "prefixItems": [{"type": "string", "pattern": "^[IXYZ]+$"}, {"type": "number"}],
        "items": False,
        "minItems": 2,
        "maxItems": 2,
    },
}
_PAULI_NAME = {"type": "string", "pattern": "^[IXYZ]+$"}
_SCRAMBLING = {
    "type": "object",
    "required": ["h", "w0", "v0", "tau"],
    "properties": {
        "h": {"oneOf": [_OPERATOR, _PAULI_TERMS]},
        "w0": {"oneOf": [_OPERATOR, _PAULI_NAME]},
        "v0": {"oneOf": [_OPERATOR, _PAULI_NAME]},
        "tau": {"type": "number"},
        "rho": _OPERATOR,
        "sites": {"type": "integer", "minimum": 1},
    },
    "additionalProperties": False,
}
_TOLERANCE = {"type": "number", "minimum": 0}
_METER_PAYLOAD = {
    "type": "object",
    "required": ["state", "observable", "instrument"],
    "properties": {
        "state": _OPERATOR,
        "observable": _OPERATOR,
        "instrument": _INSTRUMENT,
        "recovery": {"oneOf": [{"enum": ["canonical", "optimize"]}, _CANONICAL]},
        "extraction": _EXTRACTION,
    },
    "additionalProperties": False,
}
_WAY_PAYLOAD = {
    "type": "object",
    "required": ["state", "observable", "instrument", "implementation"],
    "properties": {
        "state": _OPERATOR,
        "observable": _OPERATOR,
        "instrument": _INSTRUMENT,
        "implementation": _IMPLEMENTATION,
        "charges": _CHARGES,
        "lhs": {"enum": ["canonical", "optimize"]},
        "extraction": _EXTRACTION,
        "tolerance": _TOLERANCE,
    },
    "additionalProperties": False,
}

PAYLOAD_SCHEMAS = {
    "delta": {
        "type": "object",
        "required": ["loss", "ensemble"],
        "properties": {
            "loss": _CHANNEL,
            "ensemble": _ENSEMBLE,
            "recovery": {"oneOf": [{"enum": ["optimize", "petz"]}, _CHANNEL]},
            "sigma_ref": _OPERATOR,
            "optimizer": _OPTIMIZER,
        },
        "additionalProperties": False,
    },
    "epsilon": _METER_PAYLOAD,
    "eta": _METER_PAYLOAD,
    "blw": {
        "type": "object",
        "required": ["kind", "state", "generator", "instrument"],
        "properties": {
            "kind": {"enum": ["error", "disturbance"]},
            "state": _OPERATOR,
            "generator": _OPERATOR,
            "instrument": _INSTRUMENT,
            "f": {"type": "object", "additionalProperties": {"type": "number"}},
            "extraction": _EXTRACTION,
        },
        "additionalProperties": False,
    },
    "lt": {
        "type": "object",
        "required": ["which", "state", "observable", "instrument"],
        "properties": {
            "which": {"enum": ["error", "disturbance"]},
            "state": _OPERATOR,
            "observable": _OPERATOR,
            "instrument": _INSTRUMENT,
        },
        "additionalProperties": False,
    },
    "way-error": _WAY_PAYLOAD,
    "way-disturbance": _WAY_PAYLOAD,
    "otoc": {
        "type": "object",
        "required": ["scenario"],
        "properties": {
            "scenario": _SCRAMBLING,
            "extraction": _EXTRACTION,
            "recovery": {"enum": ["canonical"]},
        },
        "additionalProperties": False,
    },
    "otoc-cp": {
        "type": "object",
        "required": ["scenario"],
        "properties": {"scenario": _SCRAMBLING, "extraction": _EXTRACTION},
        "additionalProperties": False,
    },
    "way-otoc": {
        "type": "object",
        "required": ["scenario", "implementation"],
        "properties": {
            "scenario": _SCRAMBLING,
            "implementation": _IMPLEMENTATION,
            "charges": _CHARGES,
            "tolerance": _TOLERANCE,
        },
        "additionalProperties": False,
    },
}
KINDS = tuple(PAYLOAD_SCHEMAS)

TOP_SCHEMA = {
    "type": "object",
    "required": ["schema", "kind", "payload"],
    "properties": {
        "schema": {"const": "irrevkit/1"},
        "kind": {"enum": list(KINDS)},
        "payload": {"type": "object"},
        "seed": {"type": "integer"},
        "output": {"type": "string"},
    },
    "additionalProperties": False,
}


@functools.cache
def _stock_validator(kind: str | None = None):
    """The stock validator of TOP_SCHEMA or of one kind's payload: only a rejection imports jsonschema."""
    from jsonschema import Draft202012Validator
    return Draft202012Validator(TOP_SCHEMA if kind is None else PAYLOAD_SCHEMAS[kind])


# JSON type -> exact Python types; "integer" leaves out 2.0, which jsonschema counts as one
_JSON_TYPES = {
    "object": {dict},
    "array": {list},
    "string": {str},
    "number": _NUMBERS,
    "integer": {int},
    "boolean": {bool},
}


def _rest_accepted(arg, rest) -> bool:
    """For items and additionalProperties: False admits no rest, a schema must accept each value."""
    return not rest if arg is False else all(_accepts(arg, v) for v in rest)


# keyword -> check(arg, x, schema), True only where the keyword passes in jsonschema.
# Each check is exact-typed, so a keyword that jsonschema skips for a value of another
# type fails here; every shipped schema states the type such a keyword needs.
_KEYWORDS = {
    "type": lambda arg, x, schema: type(arg) is str and type(x) in _JSON_TYPES.get(arg, ()),
    "required": lambda arg, x, schema: type(x) is dict and all(k in x for k in arg),
    "properties": lambda arg, x, schema: type(x) is dict
    and all(_accepts(s, x[k]) for k, s in arg.items() if k in x),
    "additionalProperties": lambda arg, x, schema: type(x) is dict
    and _rest_accepted(arg, [v for k, v in x.items() if k not in schema.get("properties", {})]),
    "prefixItems": lambda arg, x, schema: type(x) is list and all(_accepts(s, v) for s, v in zip(arg, x)),
    "items": lambda arg, x, schema: type(x) is list and _rest_accepted(arg, x[len(schema.get("prefixItems", ())) :]),
    "minItems": lambda arg, x, schema: type(x) is list and len(x) >= arg,
    "maxItems": lambda arg, x, schema: type(x) is list and len(x) <= arg,
    "minimum": lambda arg, x, schema: type(x) in _NUMBERS and x >= arg,
    "exclusiveMinimum": lambda arg, x, schema: type(x) in _NUMBERS and x > arg,
    "enum": lambda arg, x, schema: type(x) is str and x in arg,
    "const": lambda arg, x, schema: type(x) is str and x == arg,
    "pattern": lambda arg, x, schema: type(x) is str and re.search(arg, x) is not None,
    # int/float only: set() then compares as jsonschema's uniq does
    "uniqueItems": lambda arg, x, schema: arg is True
    and type(x) is list
    and all(type(v) in _NUMBERS for v in x)
    and len(set(x)) == len(x),
    # sound only while a oneOf's branches admit disjoint JSON types, so that a branch this
    # walker leaves undecided can never be a second match (tests check the shipped schemas)
    "oneOf": lambda arg, x, schema: sum(_accepts(s, x) for s in arg) == 1,
}


def _accepts(schema, x) -> bool:
    """True only if the standard validator accepts x under schema, in one plain pass.

    False means "undecided", never "invalid": foreign types (tuples, numpy scalars,
    dict/list subclasses), a bool in a number slot and any keyword outside _KEYWORDS
    all give False, and validate_document then asks jsonschema for the error.
    """
    if schema is _MATRIX:
        return _is_matrix(x)
    if type(schema) is not dict:
        return False
    for key, arg in schema.items():
        check = _KEYWORDS.get(key)
        if check is None or not check(arg, x, schema):
            return False
    return True


def validate_document(doc) -> str | None:
    """Return a human-readable pointer to the first failing field, or None.

    A document _accepts takes is valid; jsonschema runs only on the others, to
    find and word the error.
    """
    if _accepts(TOP_SCHEMA, doc) and _accepts(PAYLOAD_SCHEMAS[doc["kind"]], doc["payload"]):
        return None
    from jsonschema.exceptions import best_match
    err = best_match(_stock_validator().iter_errors(doc))
    if err is not None:
        return f"{err.json_path}: {err.message}"
    err = best_match(_stock_validator(doc["kind"]).iter_errors(doc["payload"]))
    if err is not None:
        path = err.json_path.replace("$", "$.payload", 1)
        return f"{path}: {err.message}"
    return None


# ---------------------------------------------------------------------------
# kind runners: each returns (inputs_echo, result_dict, passed_or_None)


def _seeded(opt: dict, seed: int) -> dict:
    """Optimizer settings, with the document seed unless they give their own."""
    return {"seed": seed, **opt}


def _extraction_config(payload: dict, seed: int) -> ExtractionConfig:
    ext = payload.get("extraction", {})
    return ExtractionConfig.from_json({**ext, "optimizer": _seeded(ext.get("optimizer", {}), seed)})


def _decode_local_op(obj, sites: int | None):
    if isinstance(obj, str):
        if sites is not None and len(obj) != sites:
            raise ValueError(f"pauli string {obj!r} does not span {sites} sites")
        return pauli_string(obj)
    return decode_observable(obj)


def _decode_scenario(obj: dict) -> ScramblingScenario:
    sites = obj.get("sites")
    h = obj["h"]
    if isinstance(h, list) and h and isinstance(h[0], list) and isinstance(h[0][0], str):
        terms = [float(coeff) * _decode_local_op(ops, sites).data for ops, coeff in h]
        h_obs = Observable(pauli_string(h[0][0]).space, sum(terms[1:], terms[0]))
    else:
        h_obs = decode_observable(h)
    rho = decode_state(obj["rho"]) if "rho" in obj else None
    w0, v0 = _decode_local_op(obj["w0"], sites), _decode_local_op(obj["v0"], sites)
    return ScramblingScenario(h_obs, w0, v0, float(obj["tau"]), rho)


def _echo_scenario(s: ScramblingScenario) -> dict:
    return {
        "h": encode_observable(s.h),
        "w0": encode_observable(s.w0),
        "v0": encode_observable(s.v0),
        "tau": s.tau,
        "rho": encode_state(s.rho),
    }


# payload field -> (decode, encode)
_FIELDS = {
    "loss": (decode_channel, encode_channel),
    "ensemble": (decode_ensemble, encode_ensemble),
    "state": (decode_state, encode_state),
    "observable": (decode_observable, encode_observable),
    "generator": (decode_observable, encode_observable),
    "instrument": (decode_instrument, encode_instrument),
    "implementation": (decode_implementation, encode_implementation),
    "scenario": (_decode_scenario, _echo_scenario),
}


def _decode(payload: dict, *names: str):
    """Decode the named payload fields, in order; return the objects and their echo."""
    objs = [_FIELDS[name][0](payload[name]) for name in names]
    return objs, {name: _FIELDS[name][1](obj) for name, obj in zip(names, objs)}


def _run_delta(payload: dict, seed: int):
    (loss, omega), inputs = _decode(payload, "loss", "ensemble")
    spec = payload.get("recovery", "optimize")
    cfg = OptimizerConfig.from_json(_seeded(payload.get("optimizer", {}), seed))
    inputs.update(recovery=spec, optimizer=cfg.to_json())
    if spec == "optimize":
        rep = delta_min(loss, omega, cfg)
    elif spec == "petz":
        if "sigma_ref" in payload:
            sigma = decode_state(payload["sigma_ref"])
        else:
            avg = sum(p * r.data for p, r in omega.entries)
            sigma = DensityMatrix(omega.space, avg / np.trace(avg))
        inputs["sigma_ref"] = encode_state(sigma)
        rep = delta_with_recovery(loss, petz_recovery(loss, sigma), omega)
    else:
        rep = delta_with_recovery(loss, decode_channel(spec), omega)
    result = rep.to_json()
    result["delta_squared"] = rep.delta**2
    result.pop("optimizer_trace", None)
    return inputs, result, None


def _decode_recovery(payload: dict):
    spec = payload.get("recovery", "canonical")
    if isinstance(spec, str):  # "canonical" or "optimize", which extract takes as they are
        return spec, spec
    return canonical_recovery(decode_observable(spec["x"]), decode_space(spec["target"]), 0.0), spec


def _run_epsilon(payload: dict, seed: int, extract):
    (rho, obs, inst), inputs = _decode(payload, "state", "observable", "instrument")
    recovery, spec = _decode_recovery(payload)
    cfg = _extraction_config(payload, seed)
    inputs.update(recovery=spec, extraction=cfg.to_json())
    return inputs, extract(rho, obs, inst, recovery, cfg).to_json(), None


def _run_blw(payload: dict, seed: int):
    (rho, gen, inst), inputs = _decode(payload, "state", "generator", "instrument")
    kind = payload["kind"]
    f = payload.get("f")
    cfg = _extraction_config(payload, seed)
    inputs.update(kind=kind, extraction=cfg.to_json())
    if f is not None:
        inputs["f"] = dict(f)
    rep = extract_two_copy(rho, gen, inst, kind, f=f, cfg=cfg)
    return inputs, rep.to_json(), None


def _run_lt(payload: dict, seed: int):
    (rho, obs, inst), inputs = _decode(payload, "state", "observable", "instrument")
    which = payload["which"]
    inputs["which"] = which
    if which == "error":
        value, fstar = lt_error(rho, obs, inst)
        result = {"value": value, "pushforward": {str(m): float(v) for m, v in fstar.items()}}
    else:
        value, x = lt_disturbance(rho, obs, inst)
        result = {"value": value, "minimizer": encode_observable(x)}
    return inputs, result, None


def _run_bound(payload: dict, inputs: dict, bound):
    """Decode the optional charges, run bound(charges), and add the pass verdict."""
    charges = None
    if "charges" in payload:
        charges = {k: decode_observable(v) for k, v in payload["charges"].items()}
        inputs["charges"] = {k: encode_observable(v) for k, v in charges.items()}
    tolerance = float(payload.get("tolerance", 1e-9))
    inputs["tolerance"] = tolerance
    rep = bound(charges)
    passed = rep.slack >= -tolerance
    result = rep.to_json()
    result["pass"] = passed
    result["tolerance"] = tolerance
    return inputs, result, passed


def _run_way(payload: dict, seed: int, bound):
    (rho, obs, inst, impl), inputs = _decode(payload, "state", "observable", "instrument", "implementation")
    lhs = payload.get("lhs", "canonical")
    cfg = _extraction_config(payload, seed) if "extraction" in payload else None
    inputs["lhs"] = lhs
    if cfg is not None:
        inputs["extraction"] = cfg.to_json()
    return _run_bound(payload, inputs, lambda charges: bound(rho, obs, inst, charges, impl, lhs=lhs, cfg=cfg))


def _run_otoc(payload: dict, seed: int):
    (s,), inputs = _decode(payload, "scenario")
    cfg = _extraction_config(payload, seed)
    inputs.update(extraction=cfg.to_json(), recovery="canonical")
    rep = otoc_iep(s, cfg)
    direct = otoc_direct(s)
    result = {"iep": rep.to_json(), "direct": direct, "gap": abs(rep.value - direct)}
    return inputs, result, None


def _run_otoc_cp(payload: dict, seed: int):
    (s,), inputs = _decode(payload, "scenario")
    cfg = _extraction_config(payload, seed)
    inputs["extraction"] = cfg.to_json()
    rep = otoc_iep_cp(s, cfg)
    direct = otoc_direct(s) / rep.rescale if rep.rescale and rep.rescale > 0 else 0.0
    result = {"iep": rep.to_json(), "direct_normalized": direct, "gap": abs(rep.value - direct)}
    return inputs, result, None


def _run_way_otoc(payload: dict, seed: int):
    (s, impl), inputs = _decode(payload, "scenario", "implementation")
    return _run_bound(payload, inputs, lambda charges: way_bound_otoc(s, charges, impl))


_FIT_COLUMNS = (("value", "value"), ("fit_residual", "fit_residual"))
_BOUND_COLUMNS = (("lhs", "lhs"), ("rhs", "rhs"), ("slack", "slack"))
_OTOC_COLUMNS = (("c_iep", "iep.value"), ("gap", "gap"))

# kind -> (runner, sweep columns as (CSV header, dotted path in the result))
_KIND_TABLE = {
    "delta": (_run_delta, (("delta", "delta"), ("delta_squared", "delta_squared"))),
    "epsilon": (lambda p, s: _run_epsilon(p, s, extract_epsilon), _FIT_COLUMNS),
    "eta": (lambda p, s: _run_epsilon(p, s, extract_eta), _FIT_COLUMNS),
    "blw": (_run_blw, _FIT_COLUMNS),
    "lt": (_run_lt, (("value", "value"),)),
    "way-error": (lambda p, s: _run_way(p, s, way_bound_error), _BOUND_COLUMNS),
    "way-disturbance": (lambda p, s: _run_way(p, s, way_bound_disturbance), _BOUND_COLUMNS),
    "otoc": (_run_otoc, (("c_direct", "direct"), *_OTOC_COLUMNS)),
    "otoc-cp": (
        _run_otoc_cp,
        (("c_direct", "direct_normalized"), *_OTOC_COLUMNS, ("branch_probability", "iep.branch_probability")),
    ),
    "way-otoc": (_run_way_otoc, _BOUND_COLUMNS),
}


def compute(kind: str, payload: dict, seed: int):
    return _KIND_TABLE[kind][0](payload, seed)


# ---------------------------------------------------------------------------
# commands


def _say(line: str) -> None:
    """Print a status line to stdout; once the reader has closed the pipe, stdout
    goes to os.devnull, so the remaining files still run and nothing is left to
    fail in the flush at exit."""
    try:
        print(line, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, sys.stdout.fileno())
        except (AttributeError, OSError, ValueError):  # a stream with no file descriptor
            sys.stdout = open(os.devnull, "w")
        finally:
            os.close(devnull)


def _finite_float(text: str) -> float:
    """float(text), rejecting NaN/Infinity and a literal such as 1e400 that overflows to inf."""
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(f"number {text} is not a finite double")
    return x


def _load(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh, parse_float=_finite_float, parse_constant=_finite_float)
    except OSError as exc:
        return None, f"{path}: cannot read: {exc}"
    # JSONDecodeError, UnicodeDecodeError, a non-finite number, or nesting too deep for the parser
    except (ValueError, RecursionError) as exc:
        return None, f"{path}: invalid JSON: {exc}"
    problem = validate_document(doc)
    if problem is not None:
        return None, f"{path}: schema violation at {problem}"
    return doc, None


def _write_report(out_path: str, doc: dict, scenario_path: str) -> None:
    atomic_write_text(out_path, canonical_json(doc))
    meta = {
        "schema": "irrevkit/1",
        "written_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "scenario": os.path.abspath(scenario_path),
    }
    atomic_write_text(out_path + ".meta.json", canonical_json(meta))


def _default_output(path: str, doc: dict) -> str:
    if doc.get("output"):
        return os.path.join(os.path.dirname(os.path.abspath(path)), doc["output"])
    stem, _ = os.path.splitext(os.path.abspath(path))
    return stem + ".report.json"


def _checked_compute(path: str, kind: str, payload: dict, seed: int):
    """compute(), or None and its exit code with the failure printed to stderr."""
    try:
        return compute(kind, payload, seed), EX_OK
    except _NUMERIC_ERRORS as exc:
        detail = {"error": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, ExtractionError) and exc.diagnostics:
            detail["diagnostics"] = exc.diagnostics
        print(f"{path}: numerical failure: {canonical_json(detail)}", file=sys.stderr)
        return None, EX_NUMERIC
    except (IrrevkitError, ValueError, KeyError, TypeError) as exc:
        print(f"{path}: invalid scenario content: {type(exc).__name__}: {exc}", file=sys.stderr)
        return None, EX_INPUT


def run_one(path: str, output: str | None = None) -> int:
    doc, problem = _load(path)
    if doc is None:
        print(problem, file=sys.stderr)
        return EX_INPUT
    seed = int(doc.get("seed", 0))
    kind = doc["kind"]
    computed, code = _checked_compute(path, kind, doc["payload"], seed)
    if computed is None:
        return code
    inputs, result, passed = computed
    report = {"schema": "irrevkit/1", "kind": kind, "seed": seed, "inputs": inputs, "result": result}
    out_path = output or _default_output(path, doc)
    try:
        _write_report(out_path, report, path)
    except OSError as exc:
        print(f"{path}: cannot write report: {out_path}: {exc.strerror or exc}", file=sys.stderr)
        return EX_INPUT
    ok = passed is None or passed
    _say(f"{path}: {'ok' if ok else 'VIOLATION'} -> {out_path}")
    return EX_OK if ok else EX_VIOLATION


def cmd_run(args) -> int:
    if args.output and len(args.scenarios) > 1:
        print("--output is only valid with a single scenario", file=sys.stderr)
        return EX_INPUT
    return max(run_one(path, args.output) for path in args.scenarios)


# the kinds whose reports carry a theta grid, which a theta sweep writes out
_THETA_KINDS = ("epsilon", "eta", "blw", "otoc", "otoc-cp")


def _dig(result: dict, dotted: str):
    cur = result
    for part in dotted.split("."):
        cur = cur[part]
    return cur


def _set_parameter(payload: dict, dotted: str, value: float) -> bool:
    parts = dotted.split(".")
    cur = payload
    for part in parts[:-1]:
        if not isinstance(cur, dict) or part not in cur:
            return False
        cur = cur[part]
    if not isinstance(cur, dict) or parts[-1] not in cur:
        return False
    cur[parts[-1]] = value
    return True


def cmd_sweep(args) -> int:
    doc, problem = _load(args.scenario)
    if doc is None:
        print(problem, file=sys.stderr)
        return EX_INPUT
    kind = doc["kind"]
    theta = args.parameter == "theta"
    if theta and kind not in _THETA_KINDS:
        print("scenario kind has no theta diagnostics", file=sys.stderr)
        return EX_INPUT
    if theta and doc["payload"].get("extraction", {}).get("method") == "analytic":
        print('extraction method "analytic" keeps no theta grid to sweep', file=sys.stderr)
        return EX_INPUT
    grid = [g.strip() for g in args.grid.split(",") if g.strip()]
    if not grid:
        print("empty sweep grid", file=sys.stderr)
        return EX_INPUT
    try:
        values = [_finite_float(g) for g in grid]
    except ValueError as exc:
        print(f"invalid grid entry: {exc}", file=sys.stderr)
        return EX_INPUT
    seed = int(doc.get("seed", 0))
    out_path = args.output or os.path.splitext(os.path.abspath(args.scenario))[0] + ".sweep.csv"
    param = "scenario.tau" if args.parameter == "tau" and "scenario" in doc["payload"] else args.parameter

    # one payload for the theta grid, else one per grid value
    runs = []
    for v in [None] if theta else values:
        payload = json.loads(json.dumps(doc["payload"]))
        if theta:
            payload.setdefault("extraction", {})["thetas"] = values
        elif not _set_parameter(payload, param, v):
            print(f"parameter {args.parameter!r} not found in payload", file=sys.stderr)
            return EX_INPUT
        problem = validate_document(dict(doc, payload=payload))
        if problem is not None:
            print(f"{args.scenario}: schema violation at {problem}", file=sys.stderr)
            return EX_INPUT
        runs.append((v, payload))

    columns = _KIND_TABLE[kind][1]
    header = ["theta", "delta_squared"] if theta else [args.parameter] + [name for name, _ in columns]
    rows = []
    violation = False
    for v, payload in runs:
        where = args.scenario if theta else f"{args.scenario} at {args.parameter}={v}"
        computed, code = _checked_compute(where, kind, payload, seed)
        if computed is None:
            return code
        _, result, passed = computed
        violation = violation or passed is False
        if theta:
            rows = result.get("iep", result)["theta_grid"]
        else:
            rows.append([v] + [_dig(result, c) for _, c in columns])

    lines = [",".join(header)] + [",".join(repr(float(x)) for x in row) for row in rows]
    try:
        atomic_write_text(out_path, "\n".join(lines) + "\n")
    except OSError as exc:
        print(f"{args.scenario}: cannot write report: {out_path}: {exc.strerror or exc}", file=sys.stderr)
        return EX_INPUT
    _say(f"{args.scenario}: {len(rows)} rows -> {out_path}")
    return EX_VIOLATION if violation else EX_OK


def cmd_validate(args) -> int:
    worst = EX_OK
    for path in args.scenarios:
        doc, problem = _load(path)
        if doc is None:
            print(problem, file=sys.stderr)
            worst = EX_INPUT
        else:
            _say(f"{path}: ok ({doc['kind']})")
    return worst


def cmd_fixtures(args) -> int:
    paths = write_fixtures(args.dir)
    for p in paths:
        _say(p)
    return EX_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args keeps no state in it."""
    parser = argparse.ArgumentParser(
        prog="irrevkit",
        description="Run irreversibility, error-disturbance, conservation-bound and "
        "correlator pipelines from JSON scenario files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run scenarios and write JSON reports")
    p_run.add_argument("scenarios", nargs="+", help="scenario JSON files")
    p_run.add_argument("-o", "--output", help="report path (single scenario only)")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a scenario over a parameter grid, emit CSV")
    p_sweep.add_argument("scenario", help="scenario JSON file")
    p_sweep.add_argument("-p", "--parameter", required=True, help="payload field (dotted path, 'tau', or 'theta')")
    p_sweep.add_argument("-g", "--grid", required=True, help="comma-separated numeric grid")
    p_sweep.add_argument("-o", "--output", help="CSV path")
    p_sweep.set_defaults(func=cmd_sweep)

    p_val = sub.add_parser("validate", help="schema-check scenario files")
    p_val.add_argument("scenarios", nargs="+", help="scenario JSON files")
    p_val.set_defaults(func=cmd_validate)

    p_fix = sub.add_parser("fixtures", help="write the built-in example corpus")
    p_fix.add_argument("-d", "--dir", default="fixtures", help="target directory")
    p_fix.set_defaults(func=cmd_fixtures)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    code = args.func(args)
    if argv is None:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
