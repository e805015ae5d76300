import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irrevkit import (
    CompositeSpaceError,
    DensityMatrix,
    Instrument,
    KrausChannel,
    Label,
    Observable,
    ShapeError,
    StateValidityError,
    TestEnsemble,
    apply,
    apply_instrument,
    choi,
    compose,
    dual,
    embed,
    expectation,
    identity_channel,
    instrument_channel,
    kraus_from_choi,
    maximally_mixed,
    minimal_kraus,
    partial_trace,
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
from irrevkit.qcore import apply_raw, embed_matrix, space_dim
from conftest import (
    SIGMA_X,
    SIGMA_Z,
    proj_z,
    rand_herm,
    rand_kraus,
    rand_pure,
    rand_state,
    rand_unitary,
    ref_apply_instrument,
    ref_apply_raw,
    ref_choi,
    ref_compose,
    ref_dual,
    ref_embed,
    ref_embed_matrix,
    ref_tensor,
)

S = Label("S", 2)
B = Label("B", 3)


class TestSpaces:
    def test_space_dims_multiply(self):
        sp = space(S, B)
        assert tuple(sp) == (S, B)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(CompositeSpaceError):
            space(S, Label("S", 3))

    def test_label_requires_positive_dim(self):
        with pytest.raises((ValueError, ShapeError, CompositeSpaceError)):
            Label("S", 0)


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
    def test_dual_choi_apply_raw_match_reference(self, case):
        seed, full, sub, out, r = case
        rng = np.random.default_rng(seed)
        ch = rand_channel(rng, sub, out, r)
        h = rand_herm(rng, space_dim(out))
        assert np.array_equal(dual(ch)(Observable(out, h)).data, ref_dual(ch.kraus, h))
        assert np.array_equal(choi(ch), ref_choi(ch.kraus))
        mat = full_rank_state(rng, sub).data
        assert np.array_equal(apply_raw(ch, mat), ref_apply_raw(ch.kraus, mat))

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
