"""Release gate: nine end-to-end checks, one verdict line each.

Run `pytest tests/test_acceptance.py -v -s` to see the `[criterion N]`
lines as they print; without -s pytest shows them only on failure. The
tolerances asserted here are part of the shipped contract.
"""

import json
import time

import numpy as np
import pytest

from irrevkit import (
    OPTIMIZE,
    DensityMatrix,
    ExtractionConfig,
    Instrument,
    Label,
    Observable,
    OptimizerConfig,
    ScramblingScenario,
    TestEnsemble,
    blw_calibration_error_qubit,
    build_fixture,
    canonical_recovery,
    check_conservation,
    conserving_disturbance_implementation,
    conserving_error_implementation,
    conserving_otoc_implementation,
    delta_min,
    delta_with_recovery,
    error_comb,
    extract_epsilon,
    extract_eta,
    extract_two_copy,
    instrument_channel,
    ising_chain_scenario,
    lt_error,
    maximally_mixed,
    omega_pm,
    otoc_direct,
    otoc_iep,
    otoc_iep_cp,
    ozawa_disturbance,
    ozawa_error,
    petz_recovery,
    pointer_channel,
    pure_state,
    purified_distance,
    qfi,
    realized_channel,
    state_from_bloch,
    two_copy_comb,
    uhlmann_fidelity,
    validate_channel,
    variance,
    way_bound_disturbance,
    way_bound_error,
    way_bound_otoc,
)
from irrevkit.cli import main as cli_main

from conftest import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    proj_instrument,
    rand_herm,
    rand_instrument,
    rand_pure,
    rand_state,
    rand_unitary,
)

SEED = 20240815


def _verdict(n: int, ok: bool, detail: str) -> None:
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {n} failed: {detail}"


def _rand_f(rng, meas) -> dict:
    values = rng.standard_normal(len(meas.branches))
    return {m: float(v) for (m, _), v in zip(meas.branches, values)}


def _rand_full_rank(rng, space, d: int) -> DensityMatrix:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = g @ g.conj().T + 0.02 * d * np.eye(d)
    return DensityMatrix(space, m / np.trace(m).real)


@pytest.fixture(scope="module")
def corpus():
    """100 instances: dim 2-4, 2-4 branches, unit-norm observables, random f."""
    rng = np.random.default_rng(SEED)
    out = []
    for _ in range(100):
        d = int(rng.integers(2, 5))
        k = int(rng.integers(2, 5))
        lab = Label("S", d)
        rho = rand_state(rng, d, lab)
        a = Observable((lab,), rand_herm(rng, d, norm=1.0))
        b = Observable((lab,), rand_herm(rng, d, norm=1.0))
        meas = rand_instrument(rng, d, k, lab)
        out.append((rho, a, b, meas, _rand_f(rng, meas)))
    return out


def _pointer_recovery(meas, f):
    p = Label("P", len(meas.branches))
    ptr = Observable((p,), np.diag([f[m] for m, _ in meas.branches]).astype(complex))
    return canonical_recovery(ptr, (p,), 0.0)


def _system_recovery(b, meas):
    return canonical_recovery(Observable(meas.out_space, b.data), meas.out_space, 0.0)


def test_criterion_1_comb_curvature_matches_closed_forms(corpus):
    exact = ExtractionConfig(method="analytic")
    t0 = time.perf_counter()
    worst_eps = worst_eta = 0.0
    for i, (rho, a, b, meas, f) in enumerate(corpus):
        eps_ref = ozawa_error(rho, a, meas, f)
        eta_ref = ozawa_disturbance(rho, b, meas)
        rec_e = _pointer_recovery(meas, f)
        rec_d = _system_recovery(b, meas)
        worst_eps = max(worst_eps, abs(extract_epsilon(rho, a, meas, rec_e, exact).value - eps_ref))
        worst_eta = max(worst_eta, abs(extract_eta(rho, b, meas, rec_d, exact).value - eta_ref))
        if i % 10 == 0:
            # the grid extrapolation must land on the same limit
            worst_eps = max(worst_eps, abs(extract_epsilon(rho, a, meas, rec_e).value - eps_ref))
            worst_eta = max(worst_eta, abs(extract_eta(rho, b, meas, rec_d).value - eta_ref))
    dt = time.perf_counter() - t0
    ok = worst_eps <= 1e-6 and worst_eta <= 1e-6 and dt < 60.0
    _verdict(
        1,
        ok,
        f"100 instances: max epsilon gap {worst_eps:.1e}, max eta gap {worst_eta:.1e} "
        f"(tol 1e-6), {dt:.1f}s (budget 60s)",
    )


def test_criterion_2_optimized_recovery_never_loses(corpus):
    opt = ExtractionConfig(optimizer=OptimizerConfig(seed=0, max_iters=60, restarts=0))
    rng = np.random.default_rng(SEED + 2)
    worst_gap = worst_petz = -np.inf
    for i, (rho, a, b, meas, f) in enumerate(corpus):
        can = extract_epsilon(rho, a, meas, _pointer_recovery(meas, f)).value
        low = extract_epsilon(rho, a, meas, OPTIMIZE, opt).value
        worst_gap = max(worst_gap, low - can)
        if i % 2 == 0:
            can_d = extract_eta(rho, b, meas, _system_recovery(b, meas)).value
            low_d = extract_eta(rho, b, meas, OPTIMIZE, opt).value
            worst_gap = max(worst_gap, low_d - can_d)
        loss = error_comb(rho, a, meas).loss(0.05)
        p = float(rng.uniform(0.2, 0.8))
        omega = TestEnsemble(
            (
                (p, _rand_full_rank(rng, loss.in_space, loss.dim_in)),
                (1.0 - p, _rand_full_rank(rng, loss.in_space, loss.dim_in)),
            )
        )
        sigma_bar = DensityMatrix(
            loss.in_space, sum(w * r.data for w, r in omega.entries)
        )
        petz_delta = delta_with_recovery(loss, petz_recovery(loss, sigma_bar), omega).delta
        best = delta_min(loss, omega, OptimizerConfig(seed=i, max_iters=40, restarts=0)).delta
        worst_petz = max(worst_petz, best - petz_delta)
    ok = worst_gap <= 1e-6 and worst_petz <= 1e-9
    _verdict(
        2,
        ok,
        f"max optimized-minus-canonical {worst_gap:.1e} (tol 1e-6), "
        f"max delta_min-minus-Petz {worst_petz:.1e} (tol 1e-9)",
    )


def test_criterion_3_relabeling_floor_is_the_transport_value(corpus):
    rng = np.random.default_rng(SEED + 3)
    floor_margin = np.inf
    worst_eq = 0.0
    for rho, a, b, meas, f in corpus[:25]:
        ref, fstar = lt_error(rho, a, meas)
        best = min(ozawa_error(rho, a, meas, _rand_f(rng, meas)) for _ in range(50))
        floor_margin = min(floor_margin, best - ref)
        worst_eq = max(worst_eq, abs(ozawa_error(rho, a, meas, fstar) - ref))
    ok = floor_margin >= -1e-10 and worst_eq <= 1e-8
    _verdict(
        3,
        ok,
        f"25x50 relabelings: min margin over floor {floor_margin:.2e} >= 0, "
        f"pushforward equality gap {worst_eq:.1e} (tol 1e-8)",
    )


def _bloch_matrix(v) -> np.ndarray:
    return v[0] * SIGMA_X + v[1] * SIGMA_Y + v[2] * SIGMA_Z


def _unit_vector(rng) -> np.ndarray:
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def _rotation_from_to(src, dst) -> np.ndarray:
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
    return np.cos(phi / 2) * np.eye(2) - 1j * np.sin(phi / 2) * _bloch_matrix(axis)


def test_criterion_4_two_copy_curvature_matches_qubit_calibration():
    rng = np.random.default_rng(SEED + 4)
    lab = Label("S", 2)
    worst_err = worst_dist = 0.0
    for _ in range(20):
        # error side: probe the +1 eigenstate of a, measure sharply along a'
        a, ap = _unit_vector(rng), _unit_vector(rng)
        target = blw_calibration_error_qubit(a, ap) ** 2
        vals, vecs = np.linalg.eigh(_bloch_matrix(ap))
        meas = proj_instrument(vecs, lab)
        f = {"0": float(vals[0]), "1": float(vals[1])}
        got = extract_two_copy(
            state_from_bloch(a, lab), Observable((lab,), _bloch_matrix(a)), meas, "error", f=f
        ).value
        worst_err = max(worst_err, abs(got - target))

        # disturbance side: a rotation sending b' to b pulls b back to b'
        b, bp = _unit_vector(rng), _unit_vector(rng)
        target = blw_calibration_error_qubit(b, bp) ** 2
        rot = Instrument((lab,), (lab,), (("0", _rotation_from_to(bp, b)),))
        got = extract_two_copy(
            state_from_bloch(b, lab), Observable((lab,), _bloch_matrix(b)), rot, "disturbance"
        ).value
        worst_dist = max(worst_dist, abs(got - target))
    ok = worst_err <= 1e-6 and worst_dist <= 1e-6
    _verdict(
        4,
        ok,
        f"20 Bloch pairs per side: max error gap {worst_err:.1e}, "
        f"max disturbance gap {worst_dist:.1e} (tol 1e-6)",
    )


def _rand_reflection(rng, d: int) -> np.ndarray:
    """Random self-adjoint unitary with both signs in the spectrum."""
    u = rand_unitary(rng, d)
    signs = rng.choice([-1.0, 1.0], size=d)
    if np.all(signs == signs[0]):
        signs[0] = -signs[0]
    return u @ np.diag(signs) @ u.conj().T


def test_criterion_5_scrambling_curvature_equals_direct_value():
    rng = np.random.default_rng(SEED + 5)
    exact = ExtractionConfig(method="analytic")
    worst = worst_grid = 0.0
    for i in range(50):
        d = int(rng.integers(2, 9))
        lab = Label("S", d)
        s = ScramblingScenario(
            Observable((lab,), rand_herm(rng, d, norm=1.0)),
            Observable((lab,), _rand_reflection(rng, d)),
            Observable((lab,), rand_herm(rng, d, norm=1.0)),
            float(rng.uniform(0.2, 1.5)),
            rand_state(rng, d, lab),
        )
        ref = otoc_direct(s)
        worst = max(worst, abs(otoc_iep(s, exact).value - ref))
        if i % 10 == 0:
            worst_grid = max(worst_grid, abs(otoc_iep(s).value - ref))
    chain = ising_chain_scenario(1.0)
    worst_grid = max(worst_grid, abs(otoc_iep(chain).value - otoc_direct(chain)))
    lab = Label("S", 2)
    qubit = ScramblingScenario(
        Observable((lab,), np.zeros((2, 2), dtype=complex)),
        Observable((lab,), SIGMA_X),
        Observable((lab,), SIGMA_Z),
        1.0,
    )
    qubit_gap = abs(otoc_iep(qubit, exact).value - 4.0)
    ok = worst <= 1e-6 and worst_grid <= 1e-6 and qubit_gap <= 1e-9
    _verdict(
        5,
        ok,
        f"50 scenarios to dim 8: max gap {worst:.1e}, grid spot checks incl. chain "
        f"{worst_grid:.1e} (tol 1e-6), qubit |C-4| {qubit_gap:.1e} (tol 1e-9)",
    )


def test_criterion_6_branch_extension_matches_normalized_commutator():
    rng = np.random.default_rng(SEED + 6)
    worst_val = worst_q = 0.0
    for _ in range(20):
        d = int(rng.integers(2, 7))
        lab = Label("S", d)
        h = Observable((lab,), rand_herm(rng, d, norm=1.0))
        v = Observable((lab,), rand_herm(rng, d, norm=1.0))
        w = rand_herm(rng, d)
        tau = float(rng.uniform(0.2, 1.2))
        s = ScramblingScenario(h, Observable((lab,), w), v, tau)
        rms2 = float(np.real(np.trace(w @ w))) / d
        w_tilde = Observable((lab,), w / np.sqrt(rms2))
        ref = otoc_direct(ScramblingScenario(h, w_tilde, v, tau))
        res = otoc_iep_cp(s)
        worst_val = max(worst_val, abs(res.value - ref))
        worst_q = max(worst_q, abs(res.branch_probability - 1.0))
    ok = worst_val <= 1e-6 and worst_q <= 1e-9
    _verdict(
        6,
        ok,
        f"20 non-unitary W at I/d: max value gap {worst_val:.1e} (tol 1e-6), "
        f"max |q-1| {worst_q:.1e} (tol 1e-9)",
    )


def test_criterion_7_conservation_bounds_never_violated(tmp_path):
    s2 = Label("S", 2)
    b1 = Label("B1", 2)
    bo = Label("B", 3)
    min_slack = np.inf

    for seed in range(50):
        rng = np.random.default_rng(seed)
        d = 2 + seed % 2
        lab = Label("S", d)
        charge = Observable((lab,), np.diag(np.linspace(1.0, -1.0, d)).astype(complex))
        shifts = tuple(rng.standard_normal(d))
        chi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        impl, meas = conserving_error_implementation(charge, shifts, chi, rng=rng)
        rep = way_bound_error(
            rand_state(rng, d, lab), Observable((lab,), rand_herm(rng, d)), meas, None, impl
        )
        min_slack = min(min_slack, rep.slack)

    for seed in range(50):
        rng = np.random.default_rng(seed)
        chi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        impl, meas = conserving_disturbance_implementation(
            Observable((s2,), SIGMA_Z),
            Observable((b1,), SIGMA_Z),
            pure_state(chi, (b1,)),
            rng,
        )
        rep = way_bound_disturbance(
            rand_state(rng, 2, s2), Observable((s2,), rand_herm(rng, 2)), meas, None, impl
        )
        min_slack = min(min_slack, rep.slack)

    for seed in range(50):
        rng = np.random.default_rng(seed)
        s = ScramblingScenario(
            Observable((s2,), rand_herm(rng, 2, norm=1.0)),
            Observable((s2,), _rand_reflection(rng, 2)),
            Observable((s2,), rand_herm(rng, 2, norm=1.0)),
            float(rng.uniform(0.0, 1.2)),
            rand_state(rng, 2, s2),
        )
        chi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        impl = conserving_otoc_implementation(
            s,
            Observable((s2,), rand_herm(rng, 2)),
            Observable((bo,), rand_herm(rng, 3)),
            pure_state(chi, (bo,)),
            rng,
            lam=float(rng.uniform(0.0, 0.5)),
        )
        assert check_conservation(impl) < 1e-9
        rep = way_bound_otoc(s, None, impl)
        min_slack = min(min_slack, rep.slack)

    # a genuine violation must surface as CLI exit code 4
    doc = build_fixture("way-error-tight")
    doc["payload"]["tolerance"] = 0.0
    path = tmp_path / "tight.json"
    path.write_text(json.dumps(doc))
    code = cli_main(["run", str(path)])

    ok = min_slack >= -1e-9 and code == 4
    _verdict(
        7,
        ok,
        f"150 conserving implementations: min slack {min_slack:.1e} (tol -1e-9); "
        f"forced violation exit code {code} (want 4)",
    )


def _qfi_limit(rho: DensityMatrix, x: Observable, eps: float = 5e-3) -> float:
    """Fidelity-curvature definition, Richardson-extrapolated in eps."""
    vals, vecs = np.linalg.eigh(x.data)

    def q(e: float) -> float:
        ph = vecs @ np.diag(np.exp(-1j * e * vals)) @ vecs.conj().T
        moved = DensityMatrix(rho.space, ph @ rho.data @ ph.conj().T)
        return 4.0 * purified_distance(moved, rho) ** 2 / e**2

    return (4.0 * q(eps / 2) - q(eps)) / 3.0


def test_criterion_8_fisher_information_consistency():
    rng = np.random.default_rng(SEED + 8)
    worst_rel = 0.0
    for _ in range(50):
        d = int(rng.integers(2, 7))
        lab = Label("S", d)
        rho = rand_state(rng, d, lab)
        x = Observable((lab,), rand_herm(rng, d, norm=1.0))
        got = qfi(rho, x)
        ref = _qfi_limit(rho, x)
        worst_rel = max(worst_rel, abs(got - ref) / max(abs(ref), 1e-12))
    worst_pure = 0.0
    for _ in range(20):
        d = int(rng.integers(2, 7))
        lab = Label("S", d)
        psi = rand_pure(rng, d, lab)
        x = Observable((lab,), rand_herm(rng, d, norm=1.0))
        worst_pure = max(worst_pure, abs(qfi(psi, x) - 4.0 * variance(psi, x)))
    ok = worst_rel <= 1e-5 and worst_pure <= 1e-9
    _verdict(
        8,
        ok,
        f"50 states: max relative gap to limit definition {worst_rel:.1e} (tol 1e-5); "
        f"20 pure states: max |qfi - 4 var| {worst_pure:.1e} (tol 1e-9)",
    )


def test_criterion_9_metric_properties_and_channel_validity(corpus):
    rng = np.random.default_rng(SEED + 9)
    sym = tri = 0.0
    for _ in range(30):
        d = int(rng.integers(2, 6))
        lab = Label("S", d)
        x, y, z = (rand_state(rng, d, lab) for _ in range(3))
        sym = max(sym, abs(uhlmann_fidelity(x, y) - uhlmann_fidelity(y, x)))
        tri = max(tri, purified_distance(x, z) - purified_distance(x, y) - purified_distance(y, z))

    bad = []
    checked = 0

    def check(ch, what: str) -> None:
        nonlocal checked
        checked += 1
        if not validate_channel(ch)["ok"]:
            bad.append(what)

    loss = None
    for i, (rho, a, b, meas, f) in enumerate(corpus[:10]):
        p = Label("P", len(meas.branches))
        ptr = Observable((p,), np.diag([f[m] for m, _ in meas.branches]).astype(complex))
        check(pointer_channel(meas, p), f"pointer[{i}]")
        check(instrument_channel(meas), f"instrument[{i}]")
        for theta in (0.0, 0.05, 0.3):
            check(canonical_recovery(ptr, (p,), theta).channel, f"recovery_p[{i},{theta}]")
            check(
                canonical_recovery(Observable(meas.out_space, b.data), meas.out_space, theta).channel,
                f"recovery_s[{i},{theta}]",
            )
        loss = error_comb(rho, a, meas).loss(0.05)
        check(loss, f"loss[{i}]")
        check(petz_recovery(loss, maximally_mixed(loss.in_space)), f"petz[{i}]")

    rep = delta_min(loss, omega_pm(), OptimizerConfig(seed=9, max_iters=40, restarts=0))
    check(rep.recovery_used, "delta_min recovery")

    rng7 = np.random.default_rng(7)
    lab = Label("S", 2)
    impl, _ = conserving_error_implementation(
        Observable((lab,), SIGMA_Z),
        (0.2, -0.4),
        rng7.standard_normal(2) + 1j * rng7.standard_normal(2),
        rng=rng7,
    )
    check(realized_channel(impl), "realized conserving channel")

    two_copy = two_copy_comb(
        state_from_bloch(np.array([0.0, 0.0, 1.0]), lab),
        Observable((lab,), SIGMA_Z),
        proj_instrument(np.eye(2, dtype=complex), lab),
        "error",
    ).loss(0.05)
    check(two_copy, "two-copy loss")

    ok = sym <= 1e-10 and tri <= 1e-8 and not bad
    _verdict(
        9,
        ok,
        f"fidelity symmetry {sym:.1e}, triangle slack {tri:.1e} (tol 1e-8), "
        f"{checked} constructed channels CPTP-valid"
        + (f"; invalid: {bad}" if bad else ""),
    )
