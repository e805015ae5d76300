import json
import os
import stat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irrevkit import Label, Observable, ShapeError, TestEnsemble, choi
from irrevkit.serialize import (
    atomic_write_text,
    canonical_json,
    decode_channel,
    decode_ensemble,
    decode_implementation,
    decode_instrument,
    decode_matrix,
    decode_observable,
    decode_state,
    encode_channel,
    encode_ensemble,
    encode_implementation,
    encode_instrument,
    encode_matrix,
    encode_observable,
    encode_state,
)
from irrevkit.way import conserving_error_implementation
from conftest import SIGMA_Z, proj_z, rand_instrument, rand_state

S = Label("S", 2)


class TestCodecs:
    def test_matrix_roundtrip_complex(self):
        m = np.array([[1, 1j], [-1j, 0.5]], dtype=complex)
        back = decode_matrix(encode_matrix(m))
        assert np.max(np.abs(back - m)) < 1e-15

    def test_matrix_accepts_bare_reals(self):
        back = decode_matrix([[1.0, 0.0], [0.0, 2.0]])
        assert np.allclose(back, np.diag([1.0, 2.0]))

    def test_ragged_matrix_rejected(self):
        with pytest.raises(ShapeError):
            decode_matrix([[1.0], [1.0, 2.0]])

    @pytest.mark.parametrize("entry", [float("nan"), float("inf"), [0.0, float("-inf")]], ids=["nan", "inf", "pair"])
    def test_non_finite_matrix_rejected(self, entry):
        with pytest.raises(ShapeError):
            decode_matrix([[1.0, 0.0], [0.0, entry]])

    def test_state_roundtrip(self):
        rho = rand_state(np.random.default_rng(0), 3, Label("B", 3))
        back = decode_state(encode_state(rho))
        assert back.space == rho.space
        assert np.max(np.abs(back.data - rho.data)) < 1e-15

    def test_observable_roundtrip(self):
        x = Observable((S,), SIGMA_Z)
        back = decode_observable(encode_observable(x))
        assert back.space == x.space and np.allclose(back.data, x.data)

    def test_channel_roundtrip_preserves_choi(self):
        from irrevkit import instrument_channel

        ch = instrument_channel(rand_instrument(np.random.default_rng(1), 2, 3, S))
        back = decode_channel(encode_channel(ch))
        assert np.max(np.abs(choi(back) - choi(ch))) < 1e-12
        assert back.trace_preserving == ch.trace_preserving

    def test_instrument_roundtrip_keeps_outcomes(self):
        inst = proj_z(S)
        back = decode_instrument(encode_instrument(inst))
        assert back.outcomes == inst.outcomes

    def test_ensemble_roundtrip(self):
        rng = np.random.default_rng(2)
        omega = TestEnsemble(((0.25, rand_state(rng, 2, S)), (0.75, rand_state(rng, 2, S))))
        back = decode_ensemble(encode_ensemble(omega))
        assert len(back.entries) == 2
        assert abs(back.entries[0][0] - 0.25) < 1e-15

    def test_implementation_roundtrip(self):
        impl, _ = conserving_error_implementation(
            Observable((S,), SIGMA_Z),
            (0.1, -0.2),
            np.array([0.6, 0.8], dtype=complex),
            rng=np.random.default_rng(3),
        )
        back = decode_implementation(encode_implementation(impl))
        assert np.max(np.abs(back.u - impl.u)) < 1e-15
        assert back.charges.keys() == impl.charges.keys()


class TestCanonicalJson:
    def test_sorted_and_newline_terminated(self):
        text = canonical_json({"b": 1, "a": [1.5, {"z": 2, "y": 3}]})
        assert text.endswith("\n")
        assert text.index('"a"') < text.index('"b"')
        assert json.loads(text) == {"b": 1, "a": [1.5, {"z": 2, "y": 3}]}

    def test_deterministic(self):
        doc = {"x": [1, 2, 3], "nested": {"k": 0.1}}
        assert canonical_json(doc) == canonical_json(dict(reversed(list(doc.items()))))


def reference_json(obj):
    try:
        return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=True) + "\n"
    except TypeError as exc:
        return f"TypeError: {exc}"


def emitted_json(obj):
    try:
        return canonical_json(obj)
    except TypeError as exc:
        return f"TypeError: {exc}"


FLOATS = st.floats(allow_subnormal=True)
LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**30), max_value=10**30),
    FLOATS,
    st.text(),
    st.lists(FLOATS),
    st.lists(st.lists(FLOATS, min_size=2, max_size=2)),  # rows of [re, im] pairs
    st.lists(st.tuples(FLOATS, FLOATS)),
    st.lists(st.one_of(FLOATS, st.integers(), st.booleans(), st.lists(FLOATS, max_size=3)), max_size=4),
)
KEYS = [st.text(), st.integers(), FLOATS, st.booleans(), st.none(), st.one_of(st.text(), st.integers())]
TREES = st.recursive(
    LEAVES,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.tuples(kids, kids),
        *(st.dictionaries(k, kids, max_size=4) for k in KEYS),
    ),
    max_leaves=20,
)


class TestCanonicalJsonIdentity:
    @settings(deadline=None, derandomize=True, max_examples=200)
    @given(TREES)
    def test_matches_json_dumps(self, obj):
        assert emitted_json(obj) == reference_json(obj)

    @pytest.mark.parametrize(
        "obj",
        [
            [[-0.0, 0.5], [1.5, -0.0]],
            [[0.5, 1.5], [2, 0.5]],
            [[0.5, 1.5], [0.5]],
            [[0.5, 1.5], [0.5, 1.5, 2.5]],
            [[0.5], [0.5, 1.5, 2.5]],
            [[0.5, float("nan")], [1.5, 0.5]],
            [[0.5, 1.5], (True, 0.5)],
        ],
        ids=["signed-zeros", "int", "one-element", "three-element", "one-and-three", "nan", "bool"],
    )
    def test_pair_rows_match_json_dumps(self, obj):
        assert emitted_json(obj) == reference_json(obj)

    @pytest.mark.parametrize("obj", [{1j: 0}, [{1.0, 2.0}], [[0.5, {1.0, 2.0}]], [[0.5, 1.5], {1.0, 2.0}]])
    def test_unsupported_types_raise_as_json_does(self, obj):
        assert emitted_json(obj) == reference_json(obj)
        assert emitted_json(obj).startswith("TypeError")


class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        p = tmp_path / "out.json"
        atomic_write_text(str(p), "first\n")
        atomic_write_text(str(p), "second\n")
        assert p.read_text() == "second\n"
        leftovers = [q for q in tmp_path.iterdir() if q.name.startswith(".irrevkit-")]
        assert not leftovers

    @pytest.mark.parametrize("umask", [0o022, 0o077], ids=oct)
    def test_mode_follows_the_umask(self, tmp_path, umask):
        # as for a plain open(path, "w"): 0o666 less the umask
        p = tmp_path / "out.json"
        old = os.umask(umask)
        try:
            atomic_write_text(str(p), "x\n")
        finally:
            os.umask(old)
        assert stat.S_IMODE(p.stat().st_mode) == 0o666 & ~umask

    def test_a_taken_temporary_name_is_skipped(self, tmp_path, monkeypatch):
        taken = tmp_path / f".irrevkit-{bytes(8).hex()}"
        taken.write_text("someone else's")
        draws = iter([bytes(8), bytes(8), b"\x01" * 8])
        monkeypatch.setattr(os, "urandom", lambda n: next(draws))
        atomic_write_text(str(tmp_path / "out.json"), "x\n")
        assert taken.read_text() == "someone else's"
        assert (tmp_path / "out.json").read_text() == "x\n"
        assert sorted(q.name for q in tmp_path.iterdir()) == [taken.name, "out.json"]

    def test_a_failed_replace_leaves_no_temporary_file(self, tmp_path):
        # os.replace cannot put a file over a directory: the written temporary is removed, the error raised
        target = tmp_path / "out.json"
        target.mkdir()
        with pytest.raises(OSError):
            atomic_write_text(str(target), "x\n")
        assert [q.name for q in tmp_path.iterdir()] == ["out.json"]
