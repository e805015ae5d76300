"""The four benchmark workloads: seeded input generation, one instance, its checks.

Every workload draws a pool of instances from ``--seed`` during set-up and
hands the library only the generated objects (or, for ``scenario-corpus``,
the generated scenario files). ``run_instance(ik, item, checkpoint)``
performs one instance, a fixed bundle of library calls, and returns the list
of failed checks; an empty list means every output matched its oracle. A
workload may call ``checkpoint()`` between independent parts of a long
instance so that the runner re-times the machine state there.

Library calls go through the ``irrevkit`` package and ``irrevkit.cli``
module attributes at call time, so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os

import numpy as np

# Tolerances are the shipped acceptance tolerances (tests/test_acceptance.py).
TOL_CURVATURE = 1e-6  # criteria 1, 2, 4, 5, 6
TOL_PETZ = 1e-9  # criterion 2, delta_min never above Petz
TOL_SLACK = 1e-9  # criterion 7 and the CLI default tolerance
TOL_NEGATIVE = 1e-9  # extraction values may not be negative beyond this

# Optimizer budgets of acceptance criterion 2.
PURE_BUDGET = {"seed": 0, "max_iters": 60, "restarts": 0}
MIXED_BUDGET = {"seed": 0, "max_iters": 40, "restarts": 0}

MIXED_DIMS = (2, 4, 6)
CHAIN_SITES = 5


class InputHash:
    """SHA-256 over every generated array and document, in generation order."""

    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, *items) -> None:
        for item in items:
            if isinstance(item, str):
                self._h.update(item.encode())
            else:
                a = np.ascontiguousarray(np.asarray(item, dtype=complex))
                self._h.update(repr(a.shape).encode())
                self._h.update(a.tobytes())

    def hexdigest(self) -> str:
        return self._h.hexdigest()


# ---------------------------------------------------------------------------
# seeded draws (same families as the acceptance corpus)


def rand_herm(rng, d: int, norm: float | None = None) -> np.ndarray:
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = (a + a.conj().T) / 2
    if norm is not None:
        h = h * (norm / np.linalg.norm(h, 2))
    return h


def rand_unitary(rng, d: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    ph = np.diag(r).copy()
    ph[np.abs(ph) < 1e-12] = 1.0
    return q * (ph / np.abs(ph))


def rand_reflection(rng, d: int) -> np.ndarray:
    """Random self-adjoint unitary with both signs in its spectrum."""
    u = rand_unitary(rng, d)
    signs = rng.choice([-1.0, 1.0], size=d)
    if np.all(signs == signs[0]):
        signs[0] = -signs[0]
    return u @ np.diag(signs) @ u.conj().T


def rand_density(rng, d: int) -> np.ndarray:
    """Full-rank Wishart state with an eigenvalue floor of about 0.02/d."""
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = a @ a.conj().T + 0.02 * d * np.eye(d)
    return m / np.trace(m).real


def rand_isometry_ops(rng, d_in: int, d_out: int, k: int) -> list:
    """k random operators normalized so that sum K'K = identity."""
    ops = [
        rng.standard_normal((d_out, d_in)) + 1j * rng.standard_normal((d_out, d_in))
        for _ in range(k)
    ]
    acc = sum(op.conj().T @ op for op in ops)
    vals, vecs = np.linalg.eigh(acc)
    inv_sqrt = (vecs / np.sqrt(vals)) @ vecs.conj().T
    return [op @ inv_sqrt for op in ops]


def unit_vector(rng) -> np.ndarray:
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


_PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def bloch_matrix(v) -> np.ndarray:
    return v[0] * _PAULI[0] + v[1] * _PAULI[1] + v[2] * _PAULI[2]


def rotation_from_to(src, dst) -> np.ndarray:
    """Qubit unitary whose Bloch-sphere action maps src onto dst."""
    axis = np.cross(src, dst)
    s = float(np.linalg.norm(axis))
    c = float(np.dot(src, dst))
    if s < 1e-12:
        if c > 0:
            return np.eye(2, dtype=complex)
        axis = np.eye(3)[int(np.argmin(np.abs(src)))]
        axis = axis - np.dot(axis, src) * src
        axis = axis / np.linalg.norm(axis)
        c = -1.0
    else:
        axis = axis / s
    phi = np.arctan2(s, c)
    return np.cos(phi / 2) * np.eye(2) - 1j * np.sin(phi / 2) * bloch_matrix(axis)


def _shapes(pool_size: int):
    """(d, k) for each pool slot: every pair in {2,3,4}^2 equally often.

    Stratifying the dimensions keeps the pool's total cost nearly the same
    from seed to seed; the matrix content stays fully random.
    """
    pairs = [(d, k) for d in (2, 3, 4) for k in (2, 3, 4)]
    return [pairs[i % len(pairs)] for i in range(pool_size)]


def _meter(ik, rng, d: int, k: int, digest: InputHash):
    """Random meter: full-rank rho, unit-norm A and B, k single-Kraus branches, f."""
    lab = ik.Label("S", d)
    rho_m = rand_density(rng, d)
    a_m = rand_herm(rng, d, norm=1.0)
    b_m = rand_herm(rng, d, norm=1.0)
    ops = rand_isometry_ops(rng, d, d, k)
    f_vals = rng.standard_normal(k)
    digest.add(rho_m, a_m, b_m, *ops, f_vals)
    sp = (lab,)
    meas = ik.Instrument(sp, sp, tuple((str(i), op) for i, op in enumerate(ops)))
    f = {str(i): float(v) for i, v in enumerate(f_vals)}
    return ik.DensityMatrix(sp, rho_m), ik.Observable(sp, a_m), ik.Observable(sp, b_m), meas, f


# ---------------------------------------------------------------------------
# extract-canonical


def gen_extract_canonical(ik, seed: int, pool_size: int, work_dir: str, digest: InputHash):
    rng = np.random.default_rng(seed)
    lab = ik.Label("S", 2)
    pool = []
    for d, k in _shapes(pool_size):
        rho, a, b, meas, f = _meter(ik, rng, d, k, digest)
        p = ik.Label("P", k)
        x_ptr = ik.Observable((p,), np.diag([f[m] for m in meas.outcomes]).astype(complex))
        x_sys = ik.Observable(meas.out_space, b.data)

        # two-copy calibration on a seeded Bloch pair per side
        av, apv, bv, bpv = (unit_vector(rng) for _ in range(4))
        digest.add(av, apv, bv, bpv)
        vals, vecs = np.linalg.eigh(bloch_matrix(apv))
        sharp = ik.Instrument(
            (lab,), (lab,),
            tuple((str(i), np.outer(vecs[:, i], vecs[:, i].conj())) for i in range(2)),
        )
        rot = ik.Instrument((lab,), (lab,), (("0", rotation_from_to(bpv, bv)),))
        two_copy = (
            (ik.state_from_bloch(av, lab), ik.Observable((lab,), bloch_matrix(av)), sharp,
             {"0": float(vals[0]), "1": float(vals[1])}, av, apv),
            (ik.state_from_bloch(bv, lab), ik.Observable((lab,), bloch_matrix(bv)), rot,
             None, bv, bpv),
        )
        pool.append((rho, a, b, meas, f, x_ptr, x_sys, two_copy))
    return pool


def run_extract_canonical(ik, item, checkpoint) -> list:
    rho, a, b, meas, f, x_ptr, x_sys, two_copy = item
    eps_ref = ik.ozawa_error(rho, a, meas, f)
    eta_ref = ik.ozawa_disturbance(rho, b, meas)
    rec_e = ik.canonical_recovery(x_ptr, x_ptr.space, 0.0)
    rec_d = ik.canonical_recovery(x_sys, meas.out_space, 0.0)
    results = []
    for method in ("extrapolated", "analytic"):
        cfg = ik.ExtractionConfig(method=method)
        results.append((f"epsilon/{method}", ik.extract_epsilon(rho, a, meas, rec_e, cfg).value, eps_ref))
        results.append((f"eta/{method}", ik.extract_eta(rho, b, meas, rec_d, cfg).value, eta_ref))
    (st_e, gen_e, meas_e, f_e, av, apv), (st_d, gen_d, meas_d, _, bv, bpv) = two_copy
    results.append(("two-copy error", ik.extract_two_copy(st_e, gen_e, meas_e, "error", f=f_e).value,
                    ik.blw_calibration_error_qubit(av, apv) ** 2))
    results.append(("two-copy disturbance", ik.extract_two_copy(st_d, gen_d, meas_d, "disturbance").value,
                    ik.blw_calibration_error_qubit(bv, bpv) ** 2))
    return [p for p in (_check_close(n, got, want, TOL_CURVATURE) for n, got, want in results) if p]


# ---------------------------------------------------------------------------
# recover-pure


def gen_recover_pure(ik, seed: int, pool_size: int, work_dir: str, digest: InputHash):
    rng = np.random.default_rng(seed)
    cfg = ik.ExtractionConfig(optimizer=ik.OptimizerConfig(**PURE_BUDGET))
    return [_meter(ik, rng, d, k, digest)[:4] + (cfg,) for d, k in _shapes(pool_size)]


def run_recover_pure(ik, item, checkpoint) -> list:
    rho, a, b, meas, cfg = item
    problems = []
    for name, extract, floor, obs in (
        ("epsilon", ik.extract_epsilon, ik.lt_error, a),
        ("eta", ik.extract_eta, ik.lt_disturbance, b),
    ):
        if name == "eta":
            checkpoint()
        got = extract(rho, obs, meas, ik.OPTIMIZE, cfg).value
        canonical = floor(rho, obs, meas)[0]
        if not -TOL_NEGATIVE <= got <= canonical + TOL_CURVATURE:
            problems.append(f"{name}/optimize: {got!r} outside [-1e-9, {canonical!r} + 1e-6]")
    return problems


# ---------------------------------------------------------------------------
# recover-mixed


def gen_recover_mixed(ik, seed: int, pool_size: int, work_dir: str, digest: InputHash):
    rng = np.random.default_rng(seed)
    cfg = ik.OptimizerConfig(**MIXED_BUDGET)
    pool = []
    for _ in range(pool_size):
        item = []
        for d in MIXED_DIMS:
            sp = (ik.Label("S", d),)
            ops = rand_isometry_ops(rng, d, d, 3)
            p = float(rng.uniform(0.2, 0.8))
            r1, r2 = rand_density(rng, d), rand_density(rng, d)
            digest.add(*ops, np.array([p]), r1, r2)
            loss = ik.KrausChannel(sp, sp, tuple(ops))
            omega = ik.TestEnsemble(((p, ik.DensityMatrix(sp, r1)), (1.0 - p, ik.DensityMatrix(sp, r2))))
            sigma_bar = ik.DensityMatrix(sp, p * r1 + (1.0 - p) * r2)
            item.append((loss, omega, sigma_bar))
        pool.append((tuple(item), cfg))
    return pool


def run_recover_mixed(ik, item, checkpoint) -> list:
    channels, cfg = item
    problems = []
    for i, (loss, omega, sigma_bar) in enumerate(channels):
        if i:
            checkpoint()
        petz = ik.delta_with_recovery(loss, ik.petz_recovery(loss, sigma_bar), omega).delta
        best = ik.delta_min(loss, omega, cfg).delta
        d = loss.dim_in
        if not (0.0 <= best <= 1.0 and 0.0 <= petz <= 1.0):
            problems.append(f"d={d}: delta outside [0, 1] (min {best!r}, Petz {petz!r})")
        if not best <= petz + TOL_PETZ:
            problems.append(f"d={d}: delta_min {best!r} above Petz {petz!r} + 1e-9")
    return problems


# ---------------------------------------------------------------------------
# scenario-corpus


def _doc(kind: str, payload: dict, seed: int = 0) -> dict:
    return {"schema": "irrevkit/1", "kind": kind, "seed": seed, "payload": payload}


def _corpus_docs(ik, rng, digest: InputHash) -> list:
    """Ten (kind, document, check) triples, one per CLI kind.

    A check maps the report's result block to a problem string or None.
    """
    ser = ik.serialize
    docs = []
    s2 = ik.Label("S", 2)

    # delta: random 2-Kraus qubit channel, two pure states, optimized recovery
    ops = rand_isometry_ops(rng, 2, 2, 2)
    vecs = [rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(2)]
    digest.add(*ops, *vecs)
    loss = ik.KrausChannel((s2,), (s2,), tuple(ops))
    omega = ik.TestEnsemble(tuple((0.5, ik.pure_state(v, (s2,))) for v in vecs))
    sigma_bar = ik.DensityMatrix((s2,), sum(p * r.data for p, r in omega.entries))
    petz = ik.delta_with_recovery(loss, ik.petz_recovery(loss, sigma_bar), omega).delta
    docs.append((
        "delta",
        _doc("delta", {"loss": ser.encode_channel(loss), "ensemble": ser.encode_ensemble(omega),
                       "recovery": "optimize", "optimizer": dict(MIXED_BUDGET)}),
        lambda r, petz=petz: None if 0.0 <= r["delta"] <= petz + TOL_PETZ
        else f"delta {r['delta']!r} outside [0, Petz {petz!r} + 1e-9]",
    ))

    # epsilon / eta / lt on one random qubit meter with three outcomes
    rho, a, b, meas, f = _meter(ik, rng, 2, 3, digest)
    p = ik.Label("P", 3)
    x_ptr = ik.Observable((p,), np.diag([f[m] for m in meas.outcomes]).astype(complex))
    base = {"state": ser.encode_state(rho), "instrument": ser.encode_instrument(meas)}
    eps_ref = ik.ozawa_error(rho, a, meas, f)
    eta_ref = ik.ozawa_disturbance(rho, b, meas)
    lt_ref = ik.lt_error(rho, a, meas)[0]
    docs.append((
        "epsilon",
        _doc("epsilon", dict(base, observable=ser.encode_observable(a), recovery={
            "x": ser.encode_observable(x_ptr), "target": ser.encode_space((p,))})),
        lambda r, want=eps_ref: _check_close("epsilon", r["value"], want, TOL_CURVATURE),
    ))
    docs.append((
        "eta",
        _doc("eta", dict(base, observable=ser.encode_observable(b), recovery={
            "x": ser.encode_observable(b), "target": ser.encode_space(meas.out_space)})),
        lambda r, want=eta_ref: _check_close("eta", r["value"], want, TOL_CURVATURE),
    ))
    docs.append((
        "lt",
        _doc("lt", dict(base, which="error", observable=ser.encode_observable(a))),
        lambda r, want=lt_ref: _check_close("lt", r["value"], want, TOL_SLACK),
    ))

    # blw: two-copy error on a seeded Bloch pair
    av, apv = unit_vector(rng), unit_vector(rng)
    digest.add(av, apv)
    vals, bvecs = np.linalg.eigh(bloch_matrix(apv))
    sharp = ik.Instrument(
        (s2,), (s2,), tuple((str(i), np.outer(bvecs[:, i], bvecs[:, i].conj())) for i in range(2))
    )
    blw_ref = ik.blw_calibration_error_qubit(av, apv) ** 2
    docs.append((
        "blw",
        _doc("blw", {"kind": "error", "state": ser.encode_state(ik.state_from_bloch(av, s2)),
                     "generator": ser.encode_observable(ik.Observable((s2,), bloch_matrix(av))),
                     "instrument": ser.encode_instrument(sharp),
                     "f": {"0": float(vals[0]), "1": float(vals[1])}}),
        lambda r, want=blw_ref: _check_close("blw", r["value"], want, TOL_CURVATURE),
    ))

    # way-error: doubled-pointer conserving dilation (acceptance criterion 7).
    # d stays at 3: d=2 runs 5x faster and would make instance latency bimodal.
    d = 3
    lab = ik.Label("S", d)
    charge = ik.Observable((lab,), np.diag(np.linspace(1.0, -1.0, d)).astype(complex))
    shifts = rng.standard_normal(d)
    chi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    impl, meas_w = ik.conserving_error_implementation(charge, tuple(shifts), chi, rng=rng)
    rho_w, a_w = rand_density(rng, d), rand_herm(rng, d)
    digest.add(shifts, chi, impl.u, rho_w, a_w)
    docs.append((
        "way-error",
        _doc("way-error", {"state": ser.encode_state(ik.DensityMatrix((lab,), rho_w)),
                           "observable": ser.encode_observable(ik.Observable((lab,), a_w)),
                           "instrument": ser.encode_instrument(meas_w),
                           "implementation": ser.encode_implementation(impl)}),
        _check_pass,
    ))

    # way-disturbance: random conserving qubit instrument
    b1 = ik.Label("B1", 2)
    sz = _PAULI[2]
    chi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    impl, meas_d = ik.conserving_disturbance_implementation(
        ik.Observable((s2,), sz), ik.Observable((b1,), sz), ik.pure_state(chi, (b1,)), rng
    )
    rho_d, b_d = rand_density(rng, 2), rand_herm(rng, 2)
    digest.add(chi, impl.u, rho_d, b_d)
    docs.append((
        "way-disturbance",
        _doc("way-disturbance", {"state": ser.encode_state(ik.DensityMatrix((s2,), rho_d)),
                                 "observable": ser.encode_observable(ik.Observable((s2,), b_d)),
                                 "instrument": ser.encode_instrument(meas_d),
                                 "implementation": ser.encode_implementation(impl)}),
        _check_pass,
    ))

    # otoc: transverse-field Ising chain in Pauli-string form, seeded couplings
    n = CHAIN_SITES
    couplings = rng.uniform(0.5, 1.5, size=2 * n - 1)
    tau = float(rng.uniform(0.0, 1.5))
    digest.add(couplings, np.array([tau]))
    terms = [["I" * i + "ZZ" + "I" * (n - 2 - i), float(c)] for i, c in enumerate(couplings[: n - 1])]
    terms += [["I" * i + "X" + "I" * (n - 1 - i), float(c)] for i, c in enumerate(couplings[n - 1:])]
    docs.append((
        "otoc",
        _doc("otoc", {"scenario": {"sites": n, "h": terms, "w0": "X" + "I" * (n - 1),
                                   "v0": "I" * (n - 1) + "Z", "tau": tau}}),
        _check_gap,
    ))

    # otoc-cp: non-unitary Hermitian W at the maximally mixed state
    lab3 = ik.Label("S", 3)
    h_m, w_m, v_m = rand_herm(rng, 3, norm=1.0), rand_herm(rng, 3), rand_herm(rng, 3, norm=1.0)
    tau = float(rng.uniform(0.2, 1.2))
    digest.add(h_m, w_m, v_m, np.array([tau]))
    docs.append((
        "otoc-cp",
        _doc("otoc-cp", {"scenario": {
            "h": ser.encode_observable(ik.Observable((lab3,), h_m)),
            "w0": ser.encode_observable(ik.Observable((lab3,), w_m)),
            "v0": ser.encode_observable(ik.Observable((lab3,), v_m)),
            "tau": tau}}),
        _check_gap,
    ))

    # way-otoc: product dilation of conjugation by W(tau) (acceptance criterion 7)
    bo = ik.Label("B", 3)
    scen = ik.ScramblingScenario(
        ik.Observable((s2,), rand_herm(rng, 2, norm=1.0)),
        ik.Observable((s2,), rand_reflection(rng, 2)),
        ik.Observable((s2,), rand_herm(rng, 2, norm=1.0)),
        float(rng.uniform(0.0, 1.2)),
        ik.DensityMatrix((s2,), rand_density(rng, 2)),
    )
    chi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    impl = ik.conserving_otoc_implementation(
        scen, ik.Observable((s2,), rand_herm(rng, 2)), ik.Observable((bo,), rand_herm(rng, 3)),
        ik.pure_state(chi, (bo,)), rng, lam=float(rng.uniform(0.0, 0.5)),
    )
    digest.add(scen.h.data, scen.w0.data, scen.v0.data, np.array([scen.tau]), scen.rho.data, impl.u)
    docs.append((
        "way-otoc",
        _doc("way-otoc", {"scenario": {"h": ser.encode_observable(scen.h),
                                       "w0": ser.encode_observable(scen.w0),
                                       "v0": ser.encode_observable(scen.v0),
                                       "tau": scen.tau, "rho": ser.encode_state(scen.rho)},
                          "implementation": ser.encode_implementation(impl)}),
        _check_pass,
    ))
    return docs


def _check_close(name: str, got: float, want: float, tol: float):
    if abs(got - want) <= tol:
        return None
    return f"{name}: got {got!r}, closed form {want!r} (tol {tol:g})"


def _check_pass(result: dict):
    return None if result.get("pass") is True else f"bound check failed: slack {result.get('slack')!r}"


def _check_gap(result: dict):
    gap = result["gap"]
    return None if gap <= TOL_CURVATURE else f"gap {gap!r} to the direct value above 1e-6"


def gen_scenario_corpus(ik, seed: int, pool_size: int, work_dir: str, digest: InputHash):
    ser = ik.serialize
    rng = np.random.default_rng(seed)
    os.makedirs(work_dir, exist_ok=True)
    pool = []
    for i in range(pool_size):
        item = []
        for kind, doc, check in _corpus_docs(ik, rng, digest):
            path = os.path.join(work_dir, f"{i:03d}-{kind}.json")
            text = ser.canonical_json(doc)
            digest.add(text)
            with open(path, "w") as fh:
                fh.write(text)
            item.append((kind, path, path[: -len(".json")] + ".report.json", check))
        pool.append(item)
    return pool


def run_scenario_corpus(ik, item, checkpoint) -> list:
    problems = []
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        for i, (kind, path, out, check) in enumerate(item):
            if i:
                checkpoint()
            code = ik.cli.main(["run", path, "-o", out])
            if code != 0:
                problems.append(f"{kind}: exit code {code}")
                continue
            with open(out) as fh:
                report = json.load(fh)
            problem = check(report["result"])
            if problem:
                problems.append(f"{kind}: {problem}")
    return problems


# name -> (generate, run_instance, pool size). A run cycles through the pool;
# the sizes are about one 20 s run's worth of instances where per-instance
# cost depends on the draw (optimizer iterations), so that a run's mean is
# taken over many distinct draws rather than a few repeated ones.
WORKLOADS = {
    "extract-canonical": (gen_extract_canonical, run_extract_canonical, 72),
    "recover-pure": (gen_recover_pure, run_recover_pure, 216),
    "recover-mixed": (gen_recover_mixed, run_recover_mixed, 96),
    "scenario-corpus": (gen_scenario_corpus, run_scenario_corpus, 16),
}
