import dataclasses
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irrevkit import (
    CompositeSpaceError,
    ConservationError,
    DensityMatrix,
    Implementation,
    Instrument,
    KrausChannel,
    Label,
    Observable,
    OptimizerConfig,
    ScramblingScenario,
    ShapeError,
    StateValidityError,
    TestEnsemble,
    apply,
    apply_instrument,
    choi,
    compose,
    conserving_disturbance_implementation,
    conserving_error_implementation,
    delta_min,
    dual,
    embed,
    expectation,
    identity_channel,
    instrument_channel,
    kraus_from_choi,
    maximally_mixed,
    minimal_kraus,
    partial_trace,
    petz_recovery,
    pointer_channel,
    pure_state,
    purified_distance,
    qfi,
    space,
    tensor,
    uhlmann_fidelity,
    unitary_channel,
    validate_channel,
    variance,
)
from irrevkit import cli, comb, irrev, otoc, qcore, serialize, way
from irrevkit.qcore import _infidelity, embed_matrix, space_dim
from conftest import (
    SIGMA_X,
    SIGMA_Z,
    proj_z,
    rand_herm,
    rand_kraus,
    rand_low_rank,
    rand_pure,
    rand_state,
    rand_unitary,
    ref_apply_instrument,
    ref_choi,
    ref_compose,
    ref_dual,
    ref_embed,
    ref_embed_matrix,
    ref_fidelity,
    ref_tensor,
)

S = Label("S", 2)
B = Label("B", 3)


class TestSpaces:
    def test_space_dims_multiply(self):
        sp = space(S, B)
        assert tuple(sp) == (S, B)
        # jsonschema takes "dim": 2.0 as an integer, so an integral float reads as its int
        built = space(("S", 2.0), ("B", 3))
        assert built == sp and type(built[0].dim) is int

    def test_duplicate_labels_rejected(self):
        with pytest.raises(CompositeSpaceError):
            space(S, Label("S", 3))

    @pytest.mark.parametrize("dim", [0, 2.9, np.float32(2.5), Fraction(5, 2)])
    def test_label_requires_positive_dim(self, dim):
        with pytest.raises(CompositeSpaceError, match="dim must be a positive integer"):
            Label("S", dim)
        with pytest.raises(CompositeSpaceError, match="dim must be a positive integer"):
            space(("S", dim))


class TestStates:
    def test_pure_state_normalizes(self):
        rho = pure_state([3, 4], (S,))
        assert abs(np.trace(rho.data) - 1) < 1e-12
        assert abs(rho.data[0, 0] - 9 / 25) < 1e-12

    def test_maximally_mixed(self):
        rho = maximally_mixed((S, B))
        assert np.allclose(rho.data, np.eye(6) / 6)

    def test_nonpositive_rejected(self):
        with pytest.raises(StateValidityError):
            DensityMatrix((S,), np.diag([1.5, -0.5]))

    def test_trace_must_be_one(self):
        with pytest.raises(StateValidityError):
            DensityMatrix((S,), np.diag([0.7, 0.7]))

    def test_tensor_partial_trace_roundtrip(self):
        rng = np.random.default_rng(3)
        ra = rand_state(rng, 2, S)
        rb = rand_state(rng, 3, B)
        joint = tensor(ra, rb)
        back = partial_trace(joint, (S,))
        assert np.max(np.abs(back.data - ra.data)) < 1e-12

    def test_ensemble_weights_checked(self):
        rho = maximally_mixed((S,))
        with pytest.raises(StateValidityError):
            TestEnsemble(((0.7, rho), (0.7, rho)))


NAN = float("nan")
MIXED = np.eye(2) / 2


class TestNonFinite:
    # a check written "defect > tol" lets NaN through, since every comparison with NaN is false
    @pytest.mark.parametrize(
        "build",
        [
            pytest.param(lambda: DensityMatrix((S,), np.diag([NAN, 1.0])), id="state-diagonal"),
            pytest.param(lambda: DensityMatrix((S,), MIXED + NAN * SIGMA_X), id="state-coherence"),
            pytest.param(lambda: Observable((S,), np.diag([1.0, NAN])), id="observable"),
            pytest.param(lambda: KrausChannel((S,), (S,), (np.diag([1.0, NAN]),)), id="channel"),
            pytest.param(
                lambda: KrausChannel((S,), (S,), (np.diag([0.5, NAN]),), trace_preserving=False),
                id="cp-branch",
            ),
            pytest.param(
                lambda: Instrument((S,), (S,), (("0", np.diag([1.0, NAN])), ("1", np.diag([0.0, 1.0])))),
                id="instrument",
            ),
            pytest.param(
                lambda: TestEnsemble(((NAN, maximally_mixed((S,))), (1.0, maximally_mixed((S,))))),
                id="ensemble-weight",
            ),
        ],
    )
    def test_nan_rejected(self, build):
        with pytest.raises((ShapeError, StateValidityError)):
            build()

    # inf - inf and inf * 0 are NaN, which numpy warns about (an error here) unless inf is refused first
    @pytest.mark.parametrize("x", [np.inf, -np.inf], ids=["inf", "-inf"])
    @pytest.mark.parametrize(
        "build, error",
        [
            pytest.param(lambda x: DensityMatrix((S,), np.diag([x, 1.0])), StateValidityError, id="state-diagonal"),
            pytest.param(lambda x: DensityMatrix((S,), [[0.5, x], [x, 0.5]]), StateValidityError, id="state-coherence"),
            pytest.param(lambda x: Observable((S,), np.diag([1.0, x])), StateValidityError, id="observable"),
            pytest.param(lambda x: KrausChannel((S,), (S,), (np.diag([1.0, x]),)), ShapeError, id="channel"),
            pytest.param(
                lambda x: KrausChannel((S,), (S,), (np.diag([0.5, x]),), trace_preserving=False),
                ShapeError,
                id="cp-branch",
            ),
            pytest.param(
                lambda x: Instrument((S,), (S,), (("0", np.diag([1.0, x])), ("1", np.diag([0.0, 1.0])))),
                ShapeError,
                id="instrument",
            ),
            pytest.param(lambda x: unitary_channel(np.diag([1.0, x]), (S,)), ShapeError, id="unitary-channel"),
            pytest.param(lambda x: pure_state([1.0, x], (S,)), StateValidityError, id="pure-state"),
        ],
    )
    def test_inf_rejected(self, build, error, x):
        with pytest.raises(error, match="finite"):
            build(x)

    def test_zero_vector_is_no_pure_state(self):
        with pytest.raises(StateValidityError, match="nonzero norm"):
            pure_state([0.0, 0.0], (S,))

    # finite entries whose products overflow: numpy's overflow warning (an error here) must not come first
    @pytest.mark.parametrize("tp", [True, False], ids=["channel", "cp-branch"])
    def test_overflowing_kraus_entries_rejected(self, tp):
        with pytest.raises(ShapeError, match="trace preserv"):
            KrausChannel((S,), (S,), (np.diag([1e200, 0.5]),), trace_preserving=tp)

    def test_huge_state_vector_is_normalised(self):
        assert np.array_equal(pure_state([1e200, 1e200], (S,)).data, pure_state([1.0, 1.0], (S,)).data)


class TestChannels:
    def test_tp_violation_rejected(self):
        with pytest.raises(ShapeError):
            KrausChannel((S,), (S,), (0.5 * np.eye(2),))

    def test_subnormalized_allowed_below_identity(self):
        ch = KrausChannel((S,), (S,), (0.5 * np.eye(2),), trace_preserving=False)
        assert not ch.trace_preserving

    def test_subnormalized_above_identity_rejected(self):
        with pytest.raises(ShapeError):
            KrausChannel((S,), (S,), (2.0 * np.eye(2),), trace_preserving=False)

    def test_unitary_inverse_composes_to_identity(self):
        rng = np.random.default_rng(5)
        u = rand_unitary(rng, 2)
        ch = compose(unitary_channel(u.conj().T, (S,)), unitary_channel(u, (S,)))
        assert np.max(np.abs(choi(ch) - choi(identity_channel((S,))))) < 1e-12

    def test_embed_acts_only_on_its_factor(self):
        rng = np.random.default_rng(7)
        u = rand_unitary(rng, 2)
        big = embed(unitary_channel(u, (S,)), (S, B))
        ra = rand_state(rng, 2, S)
        rb = rand_state(rng, 3, B)
        out = apply(big, tensor(ra, rb))
        expect = tensor(DensityMatrix((S,), u @ ra.data @ u.conj().T), rb)
        assert np.max(np.abs(out.data - expect.data)) < 1e-12

    def test_choi_kraus_roundtrip(self):
        rng = np.random.default_rng(11)
        inst = proj_z(S)
        ch = instrument_channel(inst)
        ops = kraus_from_choi(choi(ch), 2, 2)
        rebuilt = KrausChannel((S,), (S,), tuple(ops))
        assert np.max(np.abs(choi(rebuilt) - choi(ch))) < 1e-10

    def test_minimal_kraus_preserves_action(self):
        ch = instrument_channel(proj_z(S))
        small = minimal_kraus(ch)
        assert len(small.kraus) <= 4
        assert np.max(np.abs(choi(small) - choi(ch))) < 1e-10

    def test_apply_requires_tp(self):
        half = KrausChannel((S,), (S,), (0.5 * np.eye(2),), trace_preserving=False)
        with pytest.raises(ShapeError):
            apply(half, maximally_mixed((S,)))

    def test_dual_is_adjoint(self):
        rng = np.random.default_rng(13)
        ch = instrument_channel(proj_z(S))
        rho = rand_state(rng, 2, S)
        x = Observable((S,), rand_herm(rng, 2))
        lhs = expectation(apply(ch, rho), Observable(ch.out_space, x.data))
        rhs = expectation(rho, dual(ch)(x))
        assert abs(lhs - rhs) < 1e-12

    def test_validate_channel_diagnostics(self):
        rep = validate_channel(instrument_channel(proj_z(S)))
        assert rep["ok"]
        assert rep["tp_defect"] < 1e-12
        assert rep["choi_min_eig"] > -1e-12


@st.composite
def channel_cases(draw):
    """A full space of 1-3 labels of dimension 1-3, a channel with 1-5 Kraus
    operators on a random subset of them in random order, to the same labels
    or to 1-2 new ones, and a seed."""
    dims = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    full = tuple(Label(f"L{i}", d) for i, d in enumerate(dims))
    order = draw(st.permutations(range(len(full))))
    sub = tuple(full[i] for i in order[: draw(st.integers(1, len(full)))])
    if draw(st.booleans()):
        out = sub
    else:
        out = tuple(Label(f"O{i}", d) for i, d in enumerate(draw(st.lists(st.integers(1, 3), min_size=1, max_size=2))))
    r = draw(st.integers(1, 5))
    return draw(st.integers(0, 2**32 - 1)), full, sub, out, r


def rand_channel(rng, sub, out, r) -> KrausChannel:
    ops, tp = rand_kraus(rng, space_dim(sub), space_dim(out), r)
    return KrausChannel(sub, out, ops, tp)


def full_rank_state(rng, sp) -> DensityMatrix:
    d = space_dim(sp)
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = a @ a.conj().T + 0.02 * d * np.eye(d)
    return DensityMatrix(sp, m / np.trace(m).real)


class TestStackedCore:
    """The stacked Kraus algebra equals the dense-permutation, per-operator references."""

    @settings(deadline=None, derandomize=True, max_examples=80)
    @given(channel_cases())
    def test_embed_matches_reference(self, case):
        seed, full, sub, out, r = case
        rng = np.random.default_rng(seed)
        ch = rand_channel(rng, sub, out, r)
        target, ops = ref_embed(ch, full)
        lifted = embed(ch, full)
        assert lifted.out_space == target
        assert np.array_equal(lifted.kraus, ops)
        if lifted is not ch:
            parts = np.concatenate([lifted.kraus.real.ravel(), lifted.kraus.imag.ravel()])
            assert not np.signbit(parts[parts == 0]).any()
        mat = rng.standard_normal((space_dim(sub),) * 2) + 1j * rng.standard_normal((space_dim(sub),) * 2)
        assert np.array_equal(embed_matrix(mat, sub, full), ref_embed_matrix(mat, sub, full))

    @settings(deadline=None, derandomize=True, max_examples=80)
    @given(channel_cases(), st.integers(1, 3))
    def test_compose_and_tensor_match_reference(self, case, r2):
        seed, full, sub, out, r = case
        rng = np.random.default_rng(seed)
        first = rand_channel(rng, sub, out, r)
        second = rand_channel(rng, out, (Label("R", int(rng.integers(1, 4))),), r2)
        assert np.array_equal(compose(second, first).kraus, ref_compose(second, first))
        other = rand_channel(rng, (Label("T", 2),), (Label("U", 3),), r2)
        for a, b in ((first, other), (other, first)):
            assert np.array_equal(tensor(a, b).kraus, ref_tensor(a, b))

    @settings(deadline=None, derandomize=True, max_examples=80)
    @given(channel_cases())
    def test_dual_choi_match_reference(self, case):
        seed, full, sub, out, r = case
        rng = np.random.default_rng(seed)
        ch = rand_channel(rng, sub, out, r)
        h = rand_herm(rng, space_dim(out))
        assert np.array_equal(dual(ch)(Observable(out, h)).data, ref_dual(ch.kraus, h))
        assert np.array_equal(choi(ch), ref_choi(ch.kraus))

    @settings(deadline=None, derandomize=True, max_examples=80)
    @given(channel_cases())
    def test_apply_instrument_matches_reference(self, case):
        seed, full, sub, out, r = case
        rng = np.random.default_rng(seed)
        n = max(r, -(-space_dim(sub) // space_dim(out)))  # enough outcomes to be trace preserving
        ops, _ = rand_kraus(rng, space_dim(sub), space_dim(out), n)
        inst = Instrument(sub, out, tuple((str(m), op) for m, op in enumerate(ops)))
        rho = full_rank_state(rng, full)
        got = apply_instrument(inst, rho)
        want = ref_apply_instrument(inst, rho)
        assert [(m, p) for m, p, _ in got] == [(m, p) for m, p, _, _ in want]
        for (_, _, state), (_, _, sp, data) in zip(got, want):
            assert (state is None) == (data is None)
            if state is not None:
                assert state.space == sp and np.array_equal(state.data, data)

    def test_kraus_forms_give_one_read_only_stack(self):
        ops, _ = rand_kraus(np.random.default_rng(17), 2, 3, 2)
        chans = [KrausChannel((S,), (B,), form) for form in (tuple(ops), list(ops), np.array(ops))]
        for ch in chans:
            assert ch.kraus.shape == (2, 3, 2) and not ch.kraus.flags.writeable
            assert np.array_equal(ch.kraus, chans[0].kraus)
        inst = proj_z(S)
        assert not any(op.flags.writeable for _, op in inst.branches)

    @pytest.mark.parametrize(
        "build, array",
        [
            pytest.param(lambda a: DensityMatrix((S,), a), np.eye(2, dtype=complex) / 2, id="state"),
            pytest.param(lambda a: Observable((S,), a), np.diag([1.0, -1.0]).astype(complex), id="observable"),
            pytest.param(lambda a: KrausChannel((S,), (S,), a), np.eye(2, dtype=complex)[None], id="channel"),
        ],
    )
    def test_caller_array_stays_writable_and_detached(self, build, array):
        # complex and contiguous, so np.asarray hands the caller's array back unchanged
        obj = build(array)
        stored = obj.kraus if isinstance(obj, KrausChannel) else obj.data
        before = stored.copy()
        assert array.flags.writeable and not stored.flags.writeable
        array[...] = 7.0
        assert np.array_equal(stored, before)

    @pytest.mark.parametrize(
        "kraus",
        [
            pytest.param((np.eye(2), np.eye(3)), id="ragged"),
            pytest.param((), id="empty"),
            pytest.param(np.eye(2), id="bare-matrix"),
        ],
    )
    def test_malformed_stack_rejected(self, kraus):
        with pytest.raises(ShapeError):
            KrausChannel((S,), (S,), kraus)

    def test_duplicate_outcomes_rejected(self):
        with pytest.raises(ShapeError):
            Instrument((S,), (S,), (("0", np.diag([1.0, 0.0])), ("0", np.diag([0.0, 1.0]))))


class TestInstruments:
    def test_branches_must_sum_to_identity(self):
        with pytest.raises(ShapeError):
            Instrument((S,), (S,), (("0", np.diag([1.0, 0.0])),))

    def test_apply_instrument_probabilities(self):
        rho = pure_state([1, 1], (S,))
        out = apply_instrument(proj_z(S), rho)
        probs = {m: p for m, p, _ in out}
        assert abs(probs["0"] - 0.5) < 1e-12
        assert abs(sum(probs.values()) - 1) < 1e-12

    def test_apply_to_an_instrument_is_apply_instrument(self):
        # a branch of probability 1e-12 or less comes back without a state
        rho = pure_state([1, 1e-7], (S,))
        out = apply(proj_z(S), rho)
        want = apply_instrument(proj_z(S), rho)
        assert [(m, p) for m, p, _ in out] == [(m, p) for m, p, _ in want]
        assert np.array_equal(out[0][2].data, want[0][2].data)
        (m, p, state) = out[1]
        assert m == "1" and 0 < p <= 1e-12 and state is None and want[1][2] is None

    def test_pointer_channel_is_diagonal(self):
        p = Label("P", 2)
        rho = pure_state([1, 1j], (S,))
        out = apply(pointer_channel(proj_z(S), p), rho)
        off = out.data - np.diag(np.diag(out.data))
        assert np.max(np.abs(off)) < 1e-12
        assert abs(out.data[0, 0] - 0.5) < 1e-12


class TestMetrics:
    def test_fidelity_known_qubit_values(self):
        r0 = pure_state([1, 0], (S,))
        r1 = pure_state([0, 1], (S,))
        rp = pure_state([1, 1], (S,))
        assert abs(uhlmann_fidelity(r0, r0) - 1) < 1e-12
        assert uhlmann_fidelity(r0, r1) < 1e-12
        assert abs(uhlmann_fidelity(r0, rp) - 1 / np.sqrt(2)) < 1e-12
        assert abs(purified_distance(r0, r1) - 1) < 1e-12

    def test_fidelity_mixed_against_pure(self):
        r0 = pure_state([1, 0], (S,))
        assert abs(uhlmann_fidelity(r0, maximally_mixed((S,))) - 1 / np.sqrt(2)) < 1e-12

    def test_fidelity_with_a_pure_state_is_its_overlap(self):
        # the square root of the pure state's rounding-level eigenvalues would add ~1e-8 to F^2
        rng = np.random.default_rng(76)
        psi = rand_pure(rng, 3)
        sigma = rand_state(rng, 3, psi.space[0])
        v = np.linalg.eigh(psi.data)[1][:, -1]
        overlap = np.real(v.conj() @ sigma.data @ v)
        assert abs(uhlmann_fidelity(psi, sigma) ** 2 - overlap) <= 1e-14
        assert abs(uhlmann_fidelity(sigma, psi) ** 2 - overlap) <= 1e-14

    @settings(deadline=None, derandomize=True, max_examples=30)
    @given(st.integers(0, 10_000), st.integers(2, 5))
    def test_fidelity_symmetric_and_bounded(self, seed, d):
        rng = np.random.default_rng(seed)
        lab = Label("S", d)
        a = rand_state(rng, d, lab)
        b = rand_state(rng, d, lab)
        f1 = uhlmann_fidelity(a, b)
        f2 = uhlmann_fidelity(b, a)
        assert abs(f1 - f2) < 1e-10
        assert -1e-12 <= f1 <= 1 + 1e-12

    @settings(deadline=None, derandomize=True, max_examples=30)
    @given(st.integers(0, 10_000))
    def test_purified_distance_triangle(self, seed):
        rng = np.random.default_rng(seed)
        a, b, c = (rand_state(rng, 3, B) for _ in range(3))
        assert purified_distance(a, c) <= purified_distance(a, b) + purified_distance(b, c) + 1e-8

    def test_stacked_kernel_matches_purified_distance_pair_by_pair(self):
        # every pairing of pure, rank-2 and full-rank qutrit states, plus pure round-trip
        # outputs (rounding-level eigenvalues) on either side, so the factors have rank
        # 1, 2 and 3 on both sides; their square-root factors, zero-padded to 3 columns,
        # stacked as (2, n, 3, 3)
        rng = np.random.default_rng(40)
        draws = (
            lambda: rand_pure(rng, 3, B),
            lambda: rand_low_rank(rng, 3, 2, B),
            lambda: rand_state(rng, 3, B),
            lambda: apply(unitary_channel(rand_unitary(rng, 3), (B,)), rand_pure(rng, 3, B)),
        )
        pairs = [(x(), y()) for _ in range(2) for x in draws for y in draws]

        def factors(states):
            padded = [np.pad(s.sqrt_factor, ((0, 0), (0, 3 - s.sqrt_factor.shape[1]))) for s in states]
            return np.stack(padded).reshape(2, -1, 3, 3)

        h = _infidelity(factors(x for x, _ in pairs), factors(y for _, y in pairs)).ravel()
        f, dist = 1.0 - h, np.sqrt(h * (2.0 - h))
        for k, (x, y) in enumerate(pairs):
            assert f[k] == uhlmann_fidelity(x, y)
            assert dist[k] == purified_distance(x, y)

    def test_variance_known(self):
        r0 = pure_state([1, 0], (S,))
        assert abs(variance(r0, Observable((S,), SIGMA_X)) - 1) < 1e-12
        assert variance(r0, Observable((S,), SIGMA_Z)) < 1e-12

    def test_qfi_pure_state_is_4_variance(self):
        rp = pure_state([1, 1], (S,))
        assert abs(qfi(rp, Observable((S,), SIGMA_Z)) - 4.0) < 1e-12

    def test_qfi_vanishes_when_commuting(self):
        rho = DensityMatrix((S,), np.diag([0.8, 0.2]))
        assert qfi(rho, Observable((S,), SIGMA_Z)) < 1e-12

    def test_space_mismatch_raises(self):
        with pytest.raises(CompositeSpaceError):
            uhlmann_fidelity(maximally_mixed((S,)), maximally_mixed((B,)))

    @pytest.mark.parametrize("d", range(2, 7))
    def test_full_rank_fidelity_matches_reference(self, d):
        rng = np.random.default_rng(60 + d)
        lab = Label("S", d)
        for _ in range(5):
            a, b = rand_state(rng, d, lab), rand_state(rng, d, lab)
            assert abs(uhlmann_fidelity(a, b) - ref_fidelity(a.data, b.data)) <= 1e-14

    @pytest.mark.parametrize("rank", (2, 3, 4))
    def test_unitary_round_trip_has_no_fidelity_floor(self, rank):
        # U^dag (U rho U^dag) U is rho again; 1 - F^2 formed from F would read ~1e-8
        rng = np.random.default_rng(61 + rank)
        lab = Label("S", 4)
        rho = rand_low_rank(rng, 4, rank, lab) if rank < 4 else rand_state(rng, 4, lab)
        u = rand_unitary(rng, 4)
        back = apply(unitary_channel(u.conj().T, (lab,)), apply(unitary_channel(u, (lab,)), rho))
        assert purified_distance(rho, back) <= 1e-14
        assert purified_distance(back, rho) <= 1e-14


def _space_mismatches():
    """One case (call, error, message) for each check that two operands share a space:
    every call pairs an operand on S:2 with one on S:3, a label of the same name and
    another dimension."""
    s3, a = Label("S", 3), Label("A", 2)
    rho2, rho3 = maximally_mixed((S,)), maximally_mixed((s3,))
    z2, z3 = Observable((S,), SIGMA_Z), Observable((s3,), np.diag([1.0, 0.0, -1.0]))
    id2, id3 = identity_channel((S,)), identity_channel((s3,))
    za = Observable((a,), SIGMA_Z)
    charges = {"alpha": za, "beta": z2, "alpha_out": za, "beta_out": z2}
    cases = {
        "uhlmann_fidelity": (lambda: uhlmann_fidelity(rho2, rho3), CompositeSpaceError, "different spaces"),
        "purified_distance": (lambda: purified_distance(rho3, rho2), CompositeSpaceError, "different spaces"),
        "expectation": (lambda: expectation(rho2, z3), CompositeSpaceError, "different spaces"),
        "variance": (lambda: variance(rho2, z3), CompositeSpaceError, "different spaces"),
        "qfi": (lambda: qfi(rho2, z3), CompositeSpaceError, "different spaces"),
        "compose": (lambda: compose(id3, id2), ShapeError, "cannot compose"),
        "dual": (lambda: dual(id2)(z3), CompositeSpaceError, "channel output space"),
        "petz_recovery": (lambda: petz_recovery(id2, rho3), ShapeError, "loss input space"),
        "Implementation": (
            lambda: Implementation(rho3, np.eye(4), charges, (a,), (S,), (a,), (S,)),
            ConservationError,
            "rho_beta must live",
        ),
        "conserving_disturbance_implementation": (
            lambda: conserving_disturbance_implementation(z2, z2, rho3, np.random.default_rng(0)),
            ConservationError,
            "share a space",
        ),
        "ScramblingScenario": (lambda: ScramblingScenario(z2, z3, z2, 0.1), CompositeSpaceError, "different spaces"),
    }
    return [pytest.param(*case, id=name) for name, case in cases.items()]


@pytest.mark.parametrize("call, error, message", _space_mismatches())
def test_space_checks_compare_dimensions(call, error, message):
    with pytest.raises(error, match=message):
        call()


def _trusted_sites():
    """(id, build) for each library site that builds a value by qcore._trusted.

    build(rng) makes its inputs through the public constructors and returns
    the values the site builds; the library must have built each by _trusted.
    """
    c3 = Label("C", 3)

    def meter(rng, d_out=3):
        ops, _ = rand_kraus(rng, 3, d_out, 2)
        return Instrument((B,), (Label("O", d_out),) if d_out != 3 else (B,), (("a", ops[0]), ("b", ops[1])))

    def two_copy(rng, kind):
        rho, gen = rand_state(rng, 2, S), Observable((S,), rand_herm(rng, 2))
        c = comb.two_copy_comb(rho, gen, proj_z(S), kind, {"0": 0.5, "1": -1.0})
        return c.block, c.gen, c.stage

    def delta_min_recovery(rng, *members):
        omega = TestEnsemble(tuple((0.5, member(rng, 3, B)) for member in members))
        return (delta_min(instrument_channel(meter(rng)), omega, OptimizerConfig(max_iters=10, restarts=0)).recovery_used,)

    def joint_state(rng):
        return DensityMatrix((S, B), rand_state(rng, 6).data)

    def spied(module, name, call, arg):
        """The argument at position arg of the one call call() makes to module.name."""
        with mock.patch.object(module, name, wraps=getattr(module, name)) as spy:
            call()
        return (spy.call_args.args[arg],)

    def herm(rng, label):
        return Observable((label,), rand_herm(rng, label.dim))

    def scenario(rng, w0):
        h, v = herm(rng, B), herm(rng, B)
        return ScramblingScenario(h, Observable((B,), np.diag(w0)), v, 0.6)

    def way_inputs(rng):  # (Implementation, Instrument)
        return conserving_error_implementation(Observable((S,), SIGMA_Z), [0.0, 1.0], [1.0, 1.0j], rng)

    def y_operator(rng):
        impl, meas = way_inputs(rng)
        return (way.y_operator(pointer_channel(meas, Label("P", 2)), impl.charges),)

    def way_relabelled_charge(rng):
        impl, meas = way_inputs(rng)
        call = lambda: way.way_bound_error(rand_state(rng, 2, S), Observable((S,), SIGMA_X), meas, None, impl)
        return spied(way, "variance", call, 1)

    def cp_branch(rng):  # |W0| is not flat, so the branch is clipped below unit norm
        return spied(otoc, "_scenario_comb", lambda: otoc.otoc_iep_cp(scenario(rng, [1.0, -1.0, 0.5])), 1)

    def petz_reference(rng):
        omega = TestEnsemble(((0.25, rand_state(rng, 3, B)), (0.75, rand_state(rng, 3, B))))
        loss = instrument_channel(meter(rng))
        payload = {"loss": serialize.encode_channel(loss), "ensemble": serialize.encode_ensemble(omega), "recovery": "petz"}
        return (cli._run_delta(payload, 0)[0]["sigma_ref"],)

    return [
        ("pointer_channel", lambda rng: (pointer_channel(meter(rng, 2), Label("P", 2)),)),
        ("instrument_channel", lambda rng: (instrument_channel(meter(rng, 2)),)),
        ("embed", lambda rng: (embed(rand_channel(rng, (B,), (c3,), 2), (S, B)),)),
        ("embed-cp-branch", lambda rng: (embed(rand_channel(rng, (B,), (S,), 1), (B, Label("D", 2))),)),
        ("two_copy_comb-error", lambda rng: two_copy(rng, "error")),
        ("two_copy_comb-disturbance", lambda rng: two_copy(rng, "disturbance")),
        ("petz_recovery", lambda rng: (petz_recovery(instrument_channel(meter(rng)), rand_state(rng, 3, B)),)),
        ("delta_min-pure", lambda rng: delta_min_recovery(rng, rand_pure, rand_pure)),
        ("delta_min-mixed", lambda rng: delta_min_recovery(rng, rand_state, lambda rng, d, b: rand_low_rank(rng, d, 2, b))),
        ("tensor-states", lambda rng: (tensor(rand_state(rng, 2, S), rand_state(rng, 3, B)),)),
        ("tensor-observables", lambda rng: (tensor(herm(rng, S), herm(rng, B)),)),
        ("tensor-channels", lambda rng: (tensor(rand_channel(rng, (S,), (S,), 2), rand_channel(rng, (B,), (c3,), 1)),)),
        ("partial_trace", lambda rng: (partial_trace(joint_state(rng), [B]),)),
        ("compose", lambda rng: (compose(rand_channel(rng, (B,), (c3,), 2), rand_channel(rng, (S,), (B,), 2)),)),
        ("compose-minimal", lambda rng: (compose(rand_channel(rng, (S,), (S,), 3), rand_channel(rng, (S,), (S,), 2)),)),
        ("apply", lambda rng: (apply(rand_channel(rng, (B,), (c3,), 2), joint_state(rng)),)),
        ("dual", lambda rng: (dual(rand_channel(rng, (S,), (B,), 2))(herm(rng, B)),)),
        ("minimal_kraus", lambda rng: (minimal_kraus(rand_channel(rng, (S,), (B,), 8)),)),
        ("realized_channel", lambda rng: (way.realized_channel(way_inputs(rng)[0]),)),
        ("y_operator", y_operator),
        ("way_bound-relabelled-charge", way_relabelled_charge),
        ("w_tau", lambda rng: (otoc._w_tau(scenario(rng, [1.0, -1.0, 1.0])),)),
        ("otoc_iep_cp-branch", cp_branch),
        ("Comb.loss", lambda rng: (comb.error_comb(rand_state(rng, 2, S), herm(rng, S), proj_z(S)).loss(0.1),)),
        ("CanonicalRecovery.channel", lambda rng: (comb.canonical_recovery(herm(rng, S), (S, B), 0.3).channel,)),
        ("petz-sigma_ref", petz_reference),
    ]


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, tuple):
        return type(b) is tuple and len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return a == b


def _arrays(x):
    if isinstance(x, np.ndarray):
        yield x
    elif isinstance(x, tuple):
        for y in x:
            yield from _arrays(y)


class TestTrustedBuilds:
    """Values the library builds without re-validation are values the public constructors accept and store alike."""

    @pytest.mark.parametrize("build", [b for _, b in _trusted_sites()], ids=[i for i, _ in _trusted_sites()])
    def test_public_constructor_accepts_the_fields_and_stores_the_same_arrays(self, monkeypatch, build):
        built = []
        trusted = qcore._trusted

        def recorded(cls, **fields):
            built.append(trusted(cls, **fields))
            return built[-1]

        for module in (qcore, comb, irrev, way, otoc, cli):
            monkeypatch.setattr(module, "_trusted", recorded)
        values = build(np.random.default_rng(71))
        assert all(any(v is b for b in built) for v in values)
        for v in built:
            init = {f.name: getattr(v, f.name) for f in dataclasses.fields(v) if f.init}
            public = type(v)(**init)
            for f in dataclasses.fields(v):
                assert _same(getattr(v, f.name), getattr(public, f.name)), f.name
                for a in _arrays(getattr(v, f.name)):
                    assert not a.flags.writeable and a.flags.c_contiguous and a.dtype == np.complex128, f.name
            if isinstance(v, Instrument):  # each branch is a view of the one stack, as the public path keeps it
                assert all(np.shares_memory(op, v.kraus) for _, op in v.branches)


def _edge_cases():
    """(call) for each operation on inputs at the edge of their constructors' tolerances: state
    trace 1 + 0.6e-10, Hermiticity defect 0.6e-10 and trace-preservation defect 6e-10. The
    operations that combine two inputs stack their defects beyond a single tolerance."""
    rho = DensityMatrix((S,), np.diag([0.6, 0.4 + 0.6e-10]))
    sigma = DensityMatrix((B,), np.diag([0.5, 0.3, 0.2 + 0.6e-10]))
    joint = DensityMatrix((S, B), np.kron(rho.data, np.diag([0.5, 0.3, 0.2])))
    x = Observable((S,), np.array([[1.0, 1.0 + 0.6e-10], [1.0, -1.0]]))
    y = Observable((B,), np.array([[0.0, 1.0 + 0.6e-10, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 2.0]]))
    had = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    ops = np.array([np.sqrt(0.5) * np.eye(2), np.sqrt(0.3) * had, np.sqrt(0.2) * SIGMA_Z])
    ch = KrausChannel((S,), (S,), np.sqrt(1 + 6e-10) * ops)  # nine products: compose re-extracts
    cb = KrausChannel((B,), (B,), np.sqrt(1 + 6e-10) * np.eye(3)[None])
    cases = {
        "apply": lambda: apply(ch, rho),
        "compose": lambda: compose(cb, cb),
        "compose-minimal": lambda: compose(ch, ch),
        "tensor-states": lambda: tensor(rho, sigma),
        "tensor-observables": lambda: tensor(x, y),
        "tensor-channels": lambda: tensor(ch, cb),
        "partial_trace": lambda: partial_trace(joint, [S]),
        "dual": lambda: dual(ch)(x),
        "minimal_kraus": lambda: minimal_kraus(ch),
    }
    return [pytest.param(call, id=name) for name, call in cases.items()]


@pytest.mark.parametrize("call", _edge_cases())
def test_operations_take_inputs_at_the_edge_of_their_tolerances(call):
    # a value derived from checked ones is not checked again, so no tolerance compounds
    assert isinstance(call(), (DensityMatrix, Observable, KrausChannel))


def _array_holders():
    """Two distinct but equal instances of each class that holds arrays."""
    rng = np.random.default_rng(12)
    ops = rand_kraus(rng, 2, 2, 2)[0]
    z = Observable((S,), SIGMA_Z)
    impl = lambda: conserving_disturbance_implementation(z, z, pure_state([1, 0], (S,)), np.random.default_rng(3))[0]
    return {
        "DensityMatrix": lambda: DensityMatrix((S,), np.eye(2) / 2),
        "Observable": lambda: Observable((S,), np.eye(2)),
        "KrausChannel": lambda: KrausChannel((S,), (S,), ops),
        "Instrument": lambda: Instrument((S,), (S,), (("0", ops[0]), ("1", ops[1]))),
        "Implementation": impl,
    }


class TestIdentityEquality:
    @pytest.mark.parametrize("make", list(_array_holders().values()), ids=list(_array_holders()))
    def test_equal_values_are_distinct_and_hashable(self, make):
        a, b = make(), make()
        assert not a == b and a != b
        assert a == a
        assert len({a, b, a}) == 2

    def test_values_holding_them_compare_without_raising(self):
        rho, z = DensityMatrix((S,), np.eye(2) / 2), Observable((S,), SIGMA_Z)
        holders = [
            lambda: comb.canonical_recovery(z, (S,), 0.0),
            lambda: comb.error_comb(rho, z, proj_z(S)),
            lambda: TestEnsemble(((1.0, rho),)),
            lambda: delta_min(identity_channel((S,)), TestEnsemble(((1.0, rho),)), OptimizerConfig(max_iters=2, restarts=0)),
        ]
        for make in holders:
            a, b = make(), make()
            assert a == a
            assert (a == b) in (True, False)
