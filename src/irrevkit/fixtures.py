"""Built-in scenario corpus: one runnable JSON example per pipeline kind."""

from __future__ import annotations

import os

import numpy as np

from .otoc import ScramblingScenario, conserving_otoc_implementation
from .qcore import (
    Instrument,
    KrausChannel,
    Label,
    Observable,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    maximally_mixed,
    pure_state,
)
from .serialize import (
    atomic_write_text,
    canonical_json,
    encode_channel,
    encode_ensemble,
    encode_implementation,
    encode_instrument,
    encode_observable,
    encode_state,
)
from .qcore import TestEnsemble
from .way import conserving_disturbance_implementation, conserving_error_implementation

__all__ = ["fixture_names", "build_fixture", "write_fixtures"]

_S = Label("S", 2)
_CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


def _obs(m) -> Observable:
    return Observable((_S,), m)


def _proj_instrument(basis: np.ndarray) -> Instrument:
    branches = tuple(
        (str(i), np.outer(basis[:, i], basis[:, i].conj())) for i in range(basis.shape[1])
    )
    return Instrument((_S,), (_S,), branches)


def _sz_instrument() -> Instrument:
    return _proj_instrument(np.eye(2, dtype=complex))


def _sx_instrument() -> Instrument:
    b = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    return _proj_instrument(b)


def _depolarizing() -> KrausChannel:
    ops = tuple(0.5 * p for p in (np.eye(2, dtype=complex), SIGMA_X, SIGMA_Y, SIGMA_Z))
    return KrausChannel((_S,), (_S,), ops)


def _pm_ensemble() -> TestEnsemble:
    return TestEnsemble(
        ((0.5, pure_state([1, 1], (_S,))), (0.5, pure_state([1, -1], (_S,))))
    )


def _scenario(kind: str, payload: dict, name: str, seed: int = 0) -> dict:
    return {
        "schema": "irrevkit/1",
        "kind": kind,
        "seed": seed,
        "payload": payload,
        "output": f"{name}.report.json",
    }


def _fx_delta() -> dict:
    payload = {
        "loss": encode_channel(_depolarizing()),
        "ensemble": encode_ensemble(_pm_ensemble()),
        "recovery": "optimize",
        "optimizer": {"max_iters": 300, "restarts": 1},
    }
    return _scenario("delta", payload, "delta-depolarizing")


def _fx_epsilon() -> dict:
    p_label = Label("P", 2)
    payload = {
        "state": encode_state(pure_state([1, 0], (_S,))),
        "observable": encode_observable(_obs(SIGMA_X)),
        "instrument": encode_instrument(_sz_instrument()),
        "recovery": {
            "x": encode_observable(Observable((p_label,), SIGMA_Z)),
            "target": [{"name": "P", "dim": 2}],
        },
    }
    return _scenario("epsilon", payload, "epsilon-projective-qubit")


def _fx_eta() -> dict:
    payload = {
        "state": encode_state(pure_state([1, 0], (_S,))),
        "observable": encode_observable(_obs(SIGMA_X)),
        "instrument": encode_instrument(_sz_instrument()),
        "recovery": {
            "x": encode_observable(_obs(SIGMA_X)),
            "target": [{"name": "S", "dim": 2}],
        },
    }
    return _scenario("eta", payload, "eta-projective-qubit")


def _fx_blw() -> dict:
    payload = {
        "kind": "error",
        "state": encode_state(pure_state([1, 0], (_S,))),
        "generator": encode_observable(_obs(SIGMA_Z)),
        "instrument": encode_instrument(_sx_instrument()),
        "f": {"0": 1.0, "1": -1.0},
    }
    return _scenario("blw", payload, "blw-error-qubit")


def _fx_lt() -> dict:
    payload = {
        "which": "error",
        "state": encode_state(pure_state([1, 0], (_S,))),
        "observable": encode_observable(_obs(SIGMA_X)),
        "instrument": encode_instrument(_sz_instrument()),
    }
    return _scenario("lt", payload, "lt-error-qubit")


def _fx_way_error() -> dict:
    impl, meas = conserving_error_implementation(_obs(SIGMA_Z), [0.0, 0.0], [1.0, 0.0], u_meas=_CNOT)
    payload = {
        "state": encode_state(pure_state([1, 1j], (_S,))),
        "observable": encode_observable(_obs(SIGMA_X)),
        "instrument": encode_instrument(meas),
        "implementation": encode_implementation(impl),
    }
    return _scenario("way-error", payload, "way-error-tight")


def _fx_way_disturbance() -> dict:
    rng = np.random.default_rng(5)
    b_label = Label("B1", 2)
    # ancilla charge spacing must match the system charge, otherwise the
    # conserving coupling is forced diagonal and the bound degenerates to 0
    x_beta = Observable((b_label,), SIGMA_Z.astype(complex))
    chi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    impl, meas = conserving_disturbance_implementation(
        _obs(SIGMA_Z), x_beta, pure_state(chi, (b_label,)), rng
    )
    payload = {
        "state": encode_state(pure_state([1, 1j], (_S,))),
        "observable": encode_observable(_obs(SIGMA_X)),
        "instrument": encode_instrument(meas),
        "implementation": encode_implementation(impl),
    }
    return _scenario("way-disturbance", payload, "way-disturbance-random", seed=5)


def _fx_otoc() -> dict:
    # pauli-string form of ising_chain_scenario(1.0, n=3)
    payload = {
        "scenario": {
            "sites": 3,
            "h": [["ZZI", 1.0], ["IZZ", 1.0], ["XII", 1.0], ["IXI", 1.0], ["IIX", 1.0]],
            "w0": "XII",
            "v0": "IIZ",
            "tau": 1.0,
        }
    }
    return _scenario("otoc", payload, "otoc-ising-chain")


def _fx_otoc_cp() -> dict:
    payload = {
        "scenario": {
            "h": encode_observable(_obs(np.zeros((2, 2)))),
            "w0": encode_observable(_obs(np.diag([2.0, 0.0]).astype(complex))),
            "v0": encode_observable(_obs(SIGMA_X)),
            "tau": 0.0,
            "rho": encode_state(maximally_mixed((_S,))),
        }
    }
    return _scenario("otoc-cp", payload, "otoc-cp-qubit")


def _fx_way_otoc() -> dict:
    s = ScramblingScenario(_obs(np.zeros((2, 2))), _obs(SIGMA_X), _obs(SIGMA_Z), 0.0)
    rng = np.random.default_rng(0)
    b_label = Label("B", 3)
    h = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    x_beta = Observable((b_label,), (h + h.conj().T) / 2)
    chi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    impl = conserving_otoc_implementation(
        s, _obs(SIGMA_Z), x_beta, pure_state(chi, (b_label,)), rng, lam=0.4
    )
    payload = {
        "scenario": {
            "h": encode_observable(s.h),
            "w0": encode_observable(s.w0),
            "v0": encode_observable(s.v0),
            "tau": 0.0,
        },
        "implementation": encode_implementation(impl),
    }
    return _scenario("way-otoc", payload, "way-otoc-qubit")


_BUILDERS = {
    "delta-depolarizing": _fx_delta,
    "epsilon-projective-qubit": _fx_epsilon,
    "eta-projective-qubit": _fx_eta,
    "blw-error-qubit": _fx_blw,
    "lt-error-qubit": _fx_lt,
    "way-error-tight": _fx_way_error,
    "way-disturbance-random": _fx_way_disturbance,
    "otoc-ising-chain": _fx_otoc,
    "otoc-cp-qubit": _fx_otoc_cp,
    "way-otoc-qubit": _fx_way_otoc,
}


def fixture_names() -> list:
    return sorted(_BUILDERS)


def build_fixture(name: str) -> dict:
    if name not in _BUILDERS:
        raise KeyError(f"unknown fixture {name!r}; choose from {fixture_names()}")
    return _BUILDERS[name]()


def write_fixtures(directory: str) -> list:
    os.makedirs(directory, exist_ok=True)
    paths = []
    for name in fixture_names():
        doc = build_fixture(name)
        path = os.path.join(directory, f"{name}.json")
        atomic_write_text(path, canonical_json(doc))
        paths.append(path)
    return paths
