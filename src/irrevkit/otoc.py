"""Out-of-time-ordered correlator as ancilla irreversibility.

C_T(tau) = -Tr[rho [W(tau), V]^2] is evaluated three ways: directly, through
the single-ancilla protocol (conjugation by W as the lossy step, canonical
recovery in V), and through a sub-normalized branch map for non-unitary
Hermitian W. A conservation-law bound relates sqrt(C_T) to charge coherence.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .comb import OPTIMIZE, Q_LABEL, Comb, ExtractionConfig, IepResult, canonical_recovery, extract
from .errors import AssumptionError, CompositeSpaceError
from .irrev import _qr_retract
from .qcore import (
    ID2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    DensityMatrix,
    KrausChannel,
    Label,
    Observable,
    _expm_herm,
    _names,
    embed,
    maximally_mixed,
    qfi,
    unitary_channel,
)
from .way import Implementation, WayReport, _ratio, _require_valid, y_operator

__all__ = [
    "ScramblingScenario",
    "heisenberg",
    "otoc_direct",
    "otoc_iep",
    "otoc_iep_cp",
    "way_bound_otoc",
    "conserving_otoc_implementation",
    "pauli_string",
    "ising_chain_scenario",
]

PAULI = {"I": ID2, "X": SIGMA_X, "Y": SIGMA_Y, "Z": SIGMA_Z}


@dataclass(frozen=True)
class ScramblingScenario:
    """Hamiltonian, two local operators, an evolution time and a state.

    rho defaults to the maximally mixed state (infinite-temperature average).
    The trace-preserving protocol additionally needs W0^2 = identity; that is
    checked where it matters, not here, so direct evaluation stays available
    for arbitrary Hermitian W0.
    """

    h: Observable
    w0: Observable
    v0: Observable
    tau: float
    rho: DensityMatrix | None = None

    def __post_init__(self):
        if self.rho is None:
            object.__setattr__(self, "rho", maximally_mixed(self.h.space))
        names = _names(self.h.space)
        for other in (self.w0, self.v0, self.rho):
            if _names(other.space) != names:
                raise CompositeSpaceError("scenario operators live on different spaces")
        object.__setattr__(self, "tau", float(self.tau))


def heisenberg(w0: Observable, h: Observable, tau: float) -> Observable:
    """W(tau) = e^{iH tau} W0 e^{-iH tau} by exact eigendecomposition."""
    u = _expm_herm(h.data, -tau)
    w = u @ w0.data @ u.conj().T
    return Observable(w0.space, (w + w.conj().T) / 2)


def otoc_direct(s: ScramblingScenario) -> float:
    """-Tr[rho [W(tau), V]^2]; non-negative for Hermitian operators."""
    w = heisenberg(s.w0, s.h, s.tau).data
    c = w @ s.v0.data - s.v0.data @ w
    return float(-np.real(np.trace(s.rho.data @ c @ c)))


def _unitary_self_adjoint(w: np.ndarray, what: str) -> None:
    d = w.shape[0]
    if np.max(np.abs(w @ w - np.eye(d))) > 1e-9:
        raise AssumptionError(f"{what} must square to the identity within 1e-9")


def _scenario_comb(s: ScramblingScenario, stage: KrausChannel, branch_scale=None) -> Comb:
    """Couple through V, apply `stage` to the system; the recovery uncouples V."""
    stage = embed(stage, tuple(s.rho.space) + (Q_LABEL,))
    return Comb(s.rho, s.v0, stage, lambda: (canonical_recovery(s.v0, s.v0.space, 0.0),), branch_scale)


def otoc_iep(
    s: ScramblingScenario,
    cfg: ExtractionConfig | None = None,
    recovery="canonical",
) -> IepResult:
    """Extract C_T(tau) as the curvature of the ancilla irreversibility.

    Loss: conjugation by W(tau) after the weak V coupling. recovery is as in
    `extract`: "canonical" undoes the coupling, traces out the system and
    dephases the ancilla (exact with cfg.method="analytic"), and a
    KrausChannel is held fixed across the grid. OPTIMIZE is rejected: the
    stage keeps the whole system, so a free recovery undoes W and the
    coupling, and the value is 0 for every unitary W.
    """
    if recovery is OPTIMIZE:
        raise ValueError("otoc_iep does not take OPTIMIZE: a recovery on the whole system undoes W")
    _unitary_self_adjoint(s.w0.data, "W0")
    w_tau = heisenberg(s.w0, s.h, s.tau)
    return extract(_scenario_comb(s, unitary_channel(w_tau.data, s.rho.space)), recovery, cfg)


def otoc_iep_cp(s: ScramblingScenario, cfg: ExtractionConfig | None = None) -> IepResult:
    """CP-branch extraction for Hermitian, not necessarily unitary, W.

    W(tau) is rescaled so that Tr[W~^2] = d, which pins the branch
    probability at exactly 1 when rho = I/d; the result equals the direct
    commutator value for W~, and rescale = Tr[W^2]/d recovers the raw-W
    value as value * rescale. Inside the branch the operator is additionally
    clipped to unit operator norm (the renormalized branch state, and hence
    the extracted value, is invariant under that scaling).
    """
    cfg = cfg or ExtractionConfig()
    d = s.rho.dim
    if np.max(np.abs(s.rho.data - np.eye(d) / d)) > 1e-10:
        raise AssumptionError(
            "branch probability 1 requires the maximally mixed state; got a non-uniform rho"
        )
    w_tau = heisenberg(s.w0, s.h, s.tau).data
    rms = math.sqrt(max(float(np.real(np.trace(w_tau @ w_tau))) / d, 0.0))
    if rms <= 1e-12:
        warnings.warn("W is numerically zero; normalization is degenerate, returning 0")
        return IepResult(0.0, (), 0.0, cfg.method, rescale=0.0, branch_probability=0.0)
    wt = w_tau / rms
    t = 1.0 / max(1.0, float(np.linalg.norm(wt, 2)))
    branch = KrausChannel(s.rho.space, s.rho.space, (t * wt,), trace_preserving=False)
    rep = extract(_scenario_comb(s, branch, t), "canonical", cfg)
    if rep.branch_probability is None:  # analytic: no grid samples, so Tr[W~ rho W~]
        rep = replace(rep, branch_probability=float(np.real(np.trace(wt @ s.rho.data @ wt))))
    return replace(rep, rescale=rms**2)


def way_bound_otoc(s: ScramblingScenario, charges: dict | None, impl: Implementation) -> WayReport:
    """sqrt(C_T) >= |<[Y, V]>| / (sqrt(F_beta) + spectral spreads of the charges).

    impl must realize conjugation by W(tau) under its conservation law;
    Y = X - D'(X_out). The denominator replaces the state-dependent Fisher
    terms of the measurement bounds by the charges' spectral spreads.
    """
    charges = charges or impl.charges
    _unitary_self_adjoint(s.w0.data, "W0")
    w_tau = heisenberg(s.w0, s.h, s.tau)
    target = unitary_channel(w_tau.data, s.rho.space)
    _require_valid(impl, target, charges)

    y = y_operator(target, charges)
    c = y.data @ s.v0.data - s.v0.data @ y.data
    num = abs(complex(np.trace(s.rho.data @ c)))
    fisher_beta = qfi(impl.rho_beta, charges["beta"])

    def spread(obs: Observable) -> float:
        vals = np.linalg.eigvalsh(obs.data)
        return float(vals[-1] - vals[0])

    spread_in = spread(charges["alpha"])
    spread_out = spread(charges["alpha_out"])
    den = math.sqrt(max(fisher_beta, 0.0)) + spread_in + spread_out
    rhs = _ratio(num, den)
    lhs = math.sqrt(max(otoc_direct(s), 0.0))
    return WayReport(
        lhs,
        rhs,
        lhs - rhs,
        {
            "commutator_expectation": num,
            "fisher_cost_upper": fisher_beta,
            "spread_in": spread_in,
            "spread_out": spread_out,
        },
    )


def conserving_otoc_implementation(
    s: ScramblingScenario,
    x_s: Observable,
    x_beta: Observable,
    rho_beta: DensityMatrix,
    rng,
    lam: float = 0.0,
) -> Implementation:
    """Product dilation W(tau) (x) u with conjugated output charges.

    u is a Haar-random unitary on the ancilla; the output charges
    W(X_S + lam)W' and u(X_beta - lam)u' make conservation exact for any u,
    lam, and ancilla state, while the realized channel is exactly
    conjugation by W(tau).
    """
    _unitary_self_adjoint(s.w0.data, "W0")
    w = heisenberg(s.w0, s.h, s.tau).data
    n = x_beta.dim
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    u = _qr_retract(g)
    d = x_s.dim
    x_out_a = w @ (x_s.data + lam * np.eye(d)) @ w.conj().T
    x_out_b = u @ (x_beta.data - lam * np.eye(n)) @ u.conj().T
    charges = {
        "alpha": x_s,
        "beta": x_beta,
        "alpha_out": Observable(x_s.space, (x_out_a + x_out_a.conj().T) / 2),
        "beta_out": Observable(x_beta.space, (x_out_b + x_out_b.conj().T) / 2),
    }
    return Implementation(
        rho_beta,
        np.kron(w, u),
        charges,
        in_alpha=x_s.space,
        in_beta=tuple(x_beta.space),
        out_alpha=x_s.space,
        out_beta=tuple(x_beta.space),
    )


def pauli_string(ops: str, name: str = "S") -> Observable:
    """Tensor product of single-qubit Paulis, e.g. "XIZ", on one fused label."""
    if not ops or any(c not in PAULI for c in ops):
        raise ValueError(f"pauli string must be nonempty over IXYZ, got {ops!r}")
    mat = np.array([[1.0 + 0.0j]])
    for c in ops:
        mat = np.kron(mat, PAULI[c])
    return Observable((Label(name, 2 ** len(ops)),), mat)


def ising_chain_scenario(tau: float, n: int = 3, rho: DensityMatrix | None = None) -> ScramblingScenario:
    """Transverse-field Ising chain; W = X on the first site, V = Z on the last."""
    if n < 2:
        raise ValueError("chain needs at least two sites")
    h = np.zeros((2**n, 2**n), dtype=complex)
    for i in range(n - 1):
        h += pauli_string("I" * i + "ZZ" + "I" * (n - 2 - i)).data
    for i in range(n):
        h += pauli_string("I" * i + "X" + "I" * (n - 1 - i)).data
    w = pauli_string("X" + "I" * (n - 1))
    v = pauli_string("I" * (n - 1) + "Z")
    return ScramblingScenario(Observable(w.space, h), w, v, tau, rho)
