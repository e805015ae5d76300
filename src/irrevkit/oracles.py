"""Closed-form error and disturbance values used to certify the comb pipeline.

All error/disturbance functions return squared quantities (the natural unit
for comparison with the theta^2 extraction); blw_calibration_error_qubit and
wasserstein2_discrete return distances.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from .errors import (
    BlochError,
    DistributionError,
    OutcomeFunctionError,
    ShapeError,
)
from .qcore import (
    ID2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    TOL_EIG_SKIP,
    TOL_PROB,
    DensityMatrix,
    Instrument,
    Label,
    Observable,
    _herm_eigh,
    _trusted,
)

__all__ = [
    "outcome_values",
    "ozawa_error",
    "ozawa_disturbance",
    "akg_unbiasedness_check",
    "lt_error",
    "lt_disturbance",
    "blw_calibration_error_qubit",
    "wasserstein2_discrete",
    "bloch_from_state",
    "state_from_bloch",
]

# outcome -> real value, or a sequence aligned with the instrument branches
OutcomeFunction = Mapping


def outcome_values(meas: Instrument, f) -> np.ndarray:
    """Resolve an OutcomeFunction against an instrument's branch order."""
    outcomes = meas.outcomes
    if isinstance(f, Mapping):
        missing = [m for m in outcomes if m not in f]
        if missing:
            raise OutcomeFunctionError(f"outcome {missing[0]!r} missing from outcome function")
        f = [f[m] for m in outcomes]
    vals = [float(v) for v in f]
    if len(vals) != len(outcomes):
        raise OutcomeFunctionError(f"{len(vals)} values for {len(outcomes)} instrument outcomes")
    for m, v in zip(outcomes, vals):
        if not math.isfinite(v):
            raise OutcomeFunctionError(f"outcome {m!r} has the non-finite value {v}")
    return np.array(vals)


def _check_system(rho: DensityMatrix, obs: Observable, meas: Instrument):
    """Refuse an observable or an instrument input on another space than the state's (names and dims)."""
    if obs.space != rho.space:
        raise ShapeError("state and observable live on different spaces")
    if meas.in_space != rho.space:
        raise ShapeError("instrument input space does not match the state")


def ozawa_error(rho: DensityMatrix, a: Observable, meas: Instrument, f) -> float:
    """Squared Ozawa error sum_m ||M_m (A - f(m)) sqrt(rho)||_HS^2, formed through
    m = rho.sqrt_factor: ||X m||_HS = ||X sqrt(rho)||_HS, as m m^H = rho."""
    _check_system(rho, a, meas)
    vals = outcome_values(meas, f)
    x = meas.kraus @ (a.data - vals[:, None, None] * np.eye(a.dim)) @ rho.sqrt_factor
    return max(float(np.vdot(x, x).real), 0.0)


def ozawa_disturbance(rho: DensityMatrix, b: Observable, meas: Instrument) -> float:
    """Squared Ozawa disturbance sum_m ||[M_m, B] sqrt(rho)||_HS^2, through rho.sqrt_factor."""
    _check_system(rho, b, meas)
    k = meas.kraus
    if k.shape[-2] != k.shape[-1]:
        raise ShapeError("disturbance needs square Kraus operators (same in/out dimension)")
    x = (k @ b.data - b.data @ k) @ rho.sqrt_factor
    return max(float(np.vdot(x, x).real), 0.0)


def akg_unbiasedness_check(meas: Instrument, a: Observable, f, tol: float = 1e-9):
    """Whether sum_m f(m) M_m' M_m reproduces A exactly (unbiased readout)."""
    k = meas.kraus
    acc = np.sum(outcome_values(meas, f)[:, None, None] * (k.conj().swapaxes(1, 2) @ k), axis=0)
    dev = float(np.max(np.abs(acc - a.data)))
    return dev <= tol, dev


def lt_error(rho: DensityMatrix, a: Observable, meas: Instrument):
    """Least achievable squared error over outcome relabelings.

    Returns (value, f) where f is the pushforward minimizer
    f(m) = Tr[Pi_m (A rho + rho A)] / (2 p_m); outcomes with p_m <= 1e-12
    carry no weight and get f(m) = 0.
    """
    _check_system(rho, a, meas)
    k = meas.kraus
    jordan = (a.data @ rho.data + rho.data @ a.data) / 2
    # tr(M_m' M_m X) at X = rho and at the Jordan product, one product over the Kraus stack
    probs, num = np.trace(k.conj().swapaxes(1, 2) @ k @ np.stack([rho.data, jordan])[:, None], axis1=-2, axis2=-1).real
    f = np.divide(num, probs, out=np.zeros_like(probs), where=probs > TOL_PROB)
    fstar = dict(zip(meas.outcomes, f.tolist()))
    return ozawa_error(rho, a, meas, fstar), fstar


def lt_disturbance(rho: DensityMatrix, b: Observable, meas: Instrument):
    """Least achievable squared disturbance over recovery generators.

    Returns (value, X) with Hermitian X on the instrument output solving
    X sigma' + sigma' X = 2 I_M(B o rho) in the eigenbasis of
    sigma' = I_M(rho); eigenvalue pairs summing below 1e-12 are dropped
    (pseudo-inverse). value = <B^2>_rho - 2<B o I'(X)>_rho + <I'(X^2)>_rho.
    """
    _check_system(rho, b, meas)
    k, kh = meas.kraus, meas.kraus.conj().swapaxes(1, 2)
    jordan = (b.data @ rho.data + rho.data @ b.data) / 2
    sig, rhs = np.sum(k @ np.stack([rho.data, jordan])[:, None] @ kh, axis=1)  # I_M(rho), I_M(B o rho)
    svals, svecs = _herm_eigh(sig)
    r = svecs.conj().T @ rhs @ svecs
    denom = svals[:, None] + svals[None, :]
    x = np.zeros_like(r)
    mask = denom > TOL_EIG_SKIP
    x[mask] = 2 * r[mask] / denom[mask]
    x = svecs @ x @ svecs.conj().T
    x = (x + x.conj().T) / 2

    # objective evaluated directly at the minimizer
    dual_x = np.sum(kh @ x @ k, axis=0)
    dual_x2 = np.sum(kh @ x @ x @ k, axis=0)
    b2 = float(np.real(np.trace(b.data @ b.data @ rho.data)))
    cross = float(np.real(np.trace((b.data @ dual_x + dual_x @ b.data) @ rho.data)))
    quad = float(np.real(np.trace(dual_x2 @ rho.data)))
    return max(b2 - cross + quad, 0.0), _trusted(Observable, space=meas.out_space, data=x)


def blw_calibration_error_qubit(a, a_prime) -> float:
    """Qubit calibration distance sqrt(2 |a . (a - a')|) between Bloch vectors."""
    av = np.asarray(a, dtype=float).reshape(3)
    bv = np.asarray(a_prime, dtype=float).reshape(3)
    na = float(np.linalg.norm(av))
    if abs(na - 1.0) > 1e-9:
        raise BlochError(f"reference Bloch vector must be unit, got norm {na}")
    if float(np.linalg.norm(bv)) > 1.0 + 1e-9:
        raise BlochError("comparison Bloch vector lies outside the Bloch ball")
    return math.sqrt(2.0 * abs(float(np.dot(av, av - bv))))


def wasserstein2_discrete(xs, px, ys, py) -> float:
    """Exact 1-D Wasserstein-2 distance between finite real distributions.

    Sorted quantile coupling; masses must agree within 1e-9.
    """
    xs = np.asarray(xs, dtype=float).reshape(-1)
    ys = np.asarray(ys, dtype=float).reshape(-1)
    px = np.asarray(px, dtype=float).reshape(-1)
    py = np.asarray(py, dtype=float).reshape(-1)
    if xs.shape != px.shape or ys.shape != py.shape:
        raise DistributionError("values and weights must have matching lengths")
    if np.any(px < -TOL_PROB) or np.any(py < -TOL_PROB):
        raise DistributionError("negative probability mass")
    if abs(px.sum() - py.sum()) > 1e-9:
        raise DistributionError(f"total masses differ: {px.sum()} vs {py.sum()}")
    ox = np.argsort(xs)
    oy = np.argsort(ys)
    xs, px = xs[ox], np.clip(px[ox], 0.0, None)
    ys, py = ys[oy], np.clip(py[oy], 0.0, None)
    i = j = 0
    cost = 0.0
    mx, my = px[0], py[0]
    while i < len(xs) and j < len(ys):
        step = min(mx, my)
        cost += step * (xs[i] - ys[j]) ** 2
        mx -= step
        my -= step
        if mx <= TOL_PROB:
            i += 1
            mx = px[i] if i < len(xs) else 0.0
        if my <= TOL_PROB:
            j += 1
            my = py[j] if j < len(ys) else 0.0
    return math.sqrt(max(cost, 0.0))


def bloch_from_state(rho: DensityMatrix):
    """(x, y, z) expectation triple of a qubit state."""
    if rho.dim != 2:
        raise BlochError("Bloch coordinates are defined for qubit states only")
    m = rho.data
    return (
        float(np.real(m[0, 1] + m[1, 0])),
        float(np.real(1j * (m[0, 1] - m[1, 0]))),
        float(np.real(m[0, 0] - m[1, 1])),
    )


def state_from_bloch(r, label: Label = Label("S", 2)) -> DensityMatrix:
    rv = np.asarray(r, dtype=float).reshape(3)
    if np.linalg.norm(rv) > 1.0 + 1e-12:
        raise BlochError("Bloch vector outside the unit ball")
    m = 0.5 * (ID2 + rv[0] * SIGMA_X + rv[1] * SIGMA_Y + rv[2] * SIGMA_Z)
    return DensityMatrix((label,), m)
