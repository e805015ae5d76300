import copy
import csv
import io
import json
import math
import os
import random
import shutil
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator
from jsonschema.exceptions import best_match

from irrevkit import (
    DensityMatrix,
    Instrument,
    KrausChannel,
    Label,
    Observable,
    TestEnsemble,
    build_fixture,
    cli,
    conserving_disturbance_implementation,
    delta_with_recovery,
    fixture_names,
    otoc,
    petz_recovery,
    pure_state,
    qcore,
    serialize,
)
from irrevkit.cli import (
    PAYLOAD_SCHEMAS,
    TOP_SCHEMA,
    _MATRIX,
    _accepts,
    _is_matrix,
    main,
    validate_document,
)
from irrevkit.serialize import (
    canonical_json,
    encode_channel,
    encode_ensemble,
    encode_implementation,
    encode_instrument,
    encode_observable,
    encode_state,
)

# the command line in a fresh process that imports this checkout, a numpy warning an error as in-process
CLI = [sys.executable, "-W", "error::RuntimeWarning", "-m", "irrevkit.cli"]
ENV = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    d = tmp_path_factory.mktemp("fixtures")
    assert main(["fixtures", "--dir", str(d)]) == 0
    return d


def load_report(path):
    with open(path) as fh:
        return json.load(fh)


def write_doc(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def run_report(tmp_path, doc, name="doc"):
    """The report that run writes for doc, which must exit 0."""
    out = tmp_path / f"{name}.report.json"
    assert main(["run", write_doc(tmp_path, f"{name}.json", doc), "-o", str(out)]) == 0
    return load_report(out)


class TestFixtures:
    def test_all_names_written(self, corpus):
        files = sorted(p.name for p in corpus.glob("*.json"))
        assert files == [f"{n}.json" for n in fixture_names()]
        assert len(files) == 10

    def test_validate_accepts_corpus(self, corpus):
        paths = [str(p) for p in sorted(corpus.glob("*.json"))]
        assert main(["validate", *paths]) == 0


class TestRun:
    def test_lt_report_content(self, corpus, tmp_path):
        out = tmp_path / "lt.report.json"
        code = main(["run", str(corpus / "lt-error-qubit.json"), "-o", str(out)])
        assert code == 0
        rep = load_report(out)
        assert rep["schema"] == "irrevkit/1"
        assert rep["kind"] == "lt"
        # sigma_x read out in z on |0> meets its closed form: value 1 and the zero pushforward
        assert rep["result"] == {"value": 1.0, "pushforward": {"0": 0.0, "1": 0.0}}
        assert os.path.exists(str(out) + ".meta.json")

    def test_epsilon_report_value(self, corpus, tmp_path):
        out = tmp_path / "eps.report.json"
        assert main(["run", str(corpus / "epsilon-projective-qubit.json"), "-o", str(out)]) == 0
        rep = load_report(out)
        assert abs(rep["result"]["value"] - 2.0) < 1e-6
        # resolved configuration is echoed with defaults expanded
        assert rep["inputs"]["extraction"]["thetas"]

    def test_way_scenario_passes(self, corpus, tmp_path):
        out = tmp_path / "way.report.json"
        assert main(["run", str(corpus / "way-error-tight.json"), "-o", str(out)]) == 0
        rep = load_report(out)
        assert rep["result"]["pass"] is True
        assert rep["result"]["slack"] >= -1e-9

    def test_reports_byte_identical(self, corpus, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        src = str(corpus / "otoc-cp-qubit.json")
        assert main(["run", src, "-o", str(a)]) == 0
        assert main(["run", src, "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_batch_matches_single_runs(self, corpus, tmp_path, capsys):
        # a batch runs its files in argument order (reversed here, so not sorted)
        # and writes the one-file reports
        alone = {}
        for n in fixture_names():
            out = tmp_path / f"{n}.alone.json"
            assert main(["run", str(corpus / f"{n}.json"), "-o", str(out)]) == 0
            alone[n] = out.read_bytes()
        batch = tmp_path / "batch"
        batch.mkdir()
        names = sorted(fixture_names(), reverse=True)
        paths = [str(batch / f"{n}.json") for n in names]
        for n in names:
            shutil.copy(corpus / f"{n}.json", batch / f"{n}.json")
        capsys.readouterr()
        assert main(["run", *paths]) == 0
        assert [ln.partition(": ")[0] for ln in capsys.readouterr().out.splitlines()] == paths
        for n in names:
            assert (batch / f"{n}.report.json").read_bytes() == alone[n], n

    def test_emitted_json_matches_json_dumps(self, corpus, tmp_path, monkeypatch):
        emitted = []

        def checked(obj):
            text = canonical_json(obj)
            assert text == json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=True) + "\n"
            emitted.append(text)
            return text

        monkeypatch.setattr(cli, "canonical_json", checked)
        for n in fixture_names():
            assert main(["run", str(corpus / f"{n}.json"), "-o", str(tmp_path / f"{n}.json")]) == 0
        assert len(emitted) == 20  # each report and its .meta.json

    def _batch(self, corpus, tmp_path):
        for n in fixture_names():
            shutil.copy(corpus / f"{n}.json", tmp_path / f"{n}.json")
        return [str(tmp_path / f"{n}.json") for n in fixture_names()]

    def _assert_all_reports(self, tmp_path):
        written = sorted(p.name for p in tmp_path.glob("*.report.json"))
        assert written == [f"{n}.report.json" for n in fixture_names()]

    def test_closed_stdout_still_runs_every_file(self, corpus, tmp_path, monkeypatch):
        class ClosedPipe(io.TextIOBase):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        paths = self._batch(corpus, tmp_path)
        pipe = ClosedPipe()
        monkeypatch.setattr(sys, "stdout", pipe)
        assert main(["run", *paths]) == 0
        # a stream with no file descriptor is swapped for os.devnull
        assert sys.stdout is not pipe
        sys.stdout.close()
        self._assert_all_reports(tmp_path)

    @pytest.mark.parametrize("lines_read", [0, 1], ids=["before-the-first-line", "after-one-line"])
    def test_closed_pipe_reader_leaves_no_traceback(self, corpus, tmp_path, lines_read):
        # the read end is closed before the first status line is written, or once one line is
        # read, as `| head -n 1` does; unbuffered, so each status line is written when printed
        paths = self._batch(corpus, tmp_path)
        r, w = os.pipe()
        reader = os.fdopen(r)
        if not lines_read:
            reader.close()
        try:
            proc = subprocess.Popen(
                [*CLI, "run", *paths], stdout=w, stderr=subprocess.PIPE, env=dict(ENV, PYTHONUNBUFFERED="1")
            )
        finally:
            os.close(w)
        if lines_read:
            assert reader.readline().startswith(paths[0])
            reader.close()
        err = proc.communicate()[1]
        assert proc.returncode == 0
        assert b"Traceback" not in err and b"BrokenPipeError" not in err, err.decode()
        self._assert_all_reports(tmp_path)

    def test_documents_and_reports_are_byte_identical_across_processes(self, tmp_path):
        # each side writes its own fixtures and runs them, every step in its own process, under
        # a hash seed of its own, in a fresh directory; the .meta.json sidecars, which hold a
        # wall clock and the scenario path, are left out
        written = []
        for seed in ("1", "2"):
            d = tmp_path / seed
            env = dict(ENV, PYTHONHASHSEED=seed)
            proc = subprocess.run([*CLI, "fixtures", "--dir", str(d)], capture_output=True, env=env)
            assert proc.returncode == 0, proc.stderr.decode()
            proc = subprocess.run([*CLI, "run", *sorted(str(p) for p in d.glob("*.json"))], capture_output=True, env=env)
            assert proc.returncode == 0, proc.stderr.decode()
            written.append({p.name: p.read_bytes() for p in d.iterdir() if not p.name.endswith(".meta.json")})
        assert len(written[0]) == 20 and written[0] == written[1]

    def test_reports_are_byte_identical_across_runs_in_one_process(self, tmp_path):
        # states keep their square-root factor and each theta grid its fit operator: nothing
        # cached in the first pass may leak into the second; the sidecars hold a wall clock
        reports = []
        for name in ("first", "second"):
            d = tmp_path / name
            assert main(["fixtures", "--dir", str(d)]) == 0
            assert main(["run", *sorted(str(p) for p in d.glob("*.json"))]) == 0
            reports.append({p.name: p.read_bytes() for p in d.glob("*.report.json")})
        assert len(reports[0]) == 10 and reports[0] == reports[1]

    def test_document_without_output_writes_its_report_beside_itself(self, corpus, tmp_path):
        doc = load_report(corpus / "lt-error-qubit.json")
        want = run_report(tmp_path, doc, "want")
        del doc["output"]
        assert main(["run", write_doc(tmp_path, "plain.json", doc)]) == 0
        assert load_report(tmp_path / "plain.report.json") == want

    def test_output_flag_rejected_for_batches(self, corpus, tmp_path):
        paths = [str(corpus / "lt-error-qubit.json"), str(corpus / "blw-error-qubit.json")]
        assert main(["run", *paths, "-o", str(tmp_path / "x.json")]) == 2


class TestExtractionModes:
    BUDGET = {"optimizer": {"max_iters": 60, "restarts": 0}}

    @pytest.mark.parametrize(
        "name, key, field",
        [
            ("epsilon-projective-qubit", "recovery", "value"),
            ("eta-projective-qubit", "recovery", "value"),
            ("way-error-tight", "lhs", "lhs"),
        ],
    )
    def test_optimize_within_canonical(self, corpus, tmp_path, name, key, field):
        canonical = tmp_path / "canonical.json"
        assert main(["run", str(corpus / f"{name}.json"), "-o", str(canonical)]) == 0
        doc = load_report(corpus / f"{name}.json")
        doc["payload"][key] = "optimize"
        doc["payload"]["extraction"] = self.BUDGET
        out = tmp_path / "optimize.json"
        assert main(["run", write_doc(tmp_path, "o.json", doc), "-o", str(out)]) == 0
        value = load_report(out)["result"][field]
        assert -1e-9 <= value <= load_report(canonical)["result"][field] + 1e-6

    @staticmethod
    def branch_doc(corpus, recovery):
        # the loss keeps |0> only: |+> and |-> each survive with probability 1/2
        doc = load_report(corpus / "delta-depolarizing.json")
        loss = doc["payload"]["loss"]
        loss["kraus"] = [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]]
        loss["trace_preserving"] = False
        doc["payload"]["recovery"] = recovery
        return doc

    def test_cp_branch_delta_with_fixed_recovery(self, corpus, tmp_path):
        space = self.branch_doc(corpus, "petz")["payload"]["loss"]["in_space"]
        identity = {"in_space": space, "out_space": space, "kraus": [[[1.0, 0.0], [0.0, 1.0]]]}
        out = tmp_path / "branch.report.json"
        doc = self.branch_doc(corpus, identity)
        assert main(["run", write_doc(tmp_path, "b.json", doc), "-o", str(out)]) == 0
        result = load_report(out)["result"]
        assert result["branch_probabilities"] == pytest.approx([0.5, 0.5], abs=1e-12)
        assert abs(result["delta_squared"] - 0.5) < 1e-12  # |<+|0>|^2 = 1/2 for each member

    @pytest.mark.parametrize("recovery", ["petz", "optimize"])
    def test_cp_branch_delta_needs_a_fixed_recovery(self, corpus, tmp_path, capsys, recovery):
        assert main(["run", write_doc(tmp_path, "b.json", self.branch_doc(corpus, recovery))]) == 2
        err = capsys.readouterr().err
        assert "needs a trace-preserving loss" in err and "fixed recovery" in err
        assert "apply_raw" not in err


def document(kind, payload):
    return {"schema": "irrevkit/1", "kind": kind, "seed": 0, "payload": payload}


def edited(name, edit=None, **fields):
    """A builder of the corpus fixture `name` with fields set in its payload, then edit applied to it."""

    def build(corpus):
        doc = load_report(corpus / f"{name}.json")
        doc["payload"].update(fields)
        if edit:
            edit(doc["payload"])
        return doc

    return build


def two_copy_disturbance(payload):
    """The two-copy blw payload made a disturbance of one unitary branch turning z into x."""
    del payload["f"]
    r = 1 / math.sqrt(2)
    payload["kind"] = "disturbance"
    payload["instrument"]["branches"] = [{"outcome": "0", "kraus": [[[r, 0.0], [r, 0.0]], [[-r, 0.0], [r, 0.0]]]}]


def eight_site_chain(payload):
    """The Ising chain of the fixture at 8 sites and tau = 0.3, where the OTOC is ~3e-28."""
    n = 8
    terms = [["I" * i + "ZZ" + "I" * (n - 2 - i), 1.0] for i in range(n - 1)]
    terms += [["I" * i + "X" + "I" * (n - 1 - i), 1.0] for i in range(n)]
    payload["scenario"] = {"sites": n, "h": terms, "w0": "X" + "I" * (n - 1), "v0": "I" * (n - 1) + "Z", "tau": 0.3}


def mixed_qutrit_delta(**fields):
    """A delta document over a full-rank and a rank-deficient mixed qutrit member."""
    s = (Label("S", 3),)
    loss = KrausChannel(s, s, (np.sqrt(0.7) * np.eye(3), np.sqrt(0.3) * np.roll(np.eye(3), 1, axis=0)))
    members = ((0.5, DensityMatrix(s, np.diag([0.5, 0.3, 0.2]))), (0.5, DensityMatrix(s, np.diag([0.6, 0.4, 0.0]))))
    ensemble = encode_ensemble(TestEnsemble(members))
    return document("delta", {"loss": encode_channel(loss), "ensemble": ensemble, **fields})


def exact_round_trip():
    """A 2 -> 4 isometry undone by an explicit inverse channel on non-diagonal mixed qubit members."""
    s, b = (Label("S", 2),), (Label("B", 4),)
    f = np.exp(0.5j * np.pi * np.outer(range(4), range(4))) / 2  # the 4-point Fourier matrix
    v, rest = f[:, :2], f[:, 2:]
    loss = KrausChannel(s, b, (v,))
    back = KrausChannel(b, s, (v.conj().T, *(np.outer([1.0, 0.0], e.conj()) for e in rest.T)))
    rhos = [[[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]], [[0.55, 0.3j], [-0.3j, 0.45]], [[0.4, -0.25], [-0.25, 0.6]]]
    members = tuple((1 / 3, DensityMatrix(s, np.array(r))) for r in rhos)
    ensemble = encode_ensemble(TestEnsemble(members))
    return document("delta", {"loss": encode_channel(loss), "ensemble": ensemble, "recovery": encode_channel(back)})


def mixed_ancilla_disturbance():
    """A charge-conserving disturbance implementation with a mixed ancilla: its instrument has
    four branches, the Kraus operators of the realized channel."""
    s, b = (Label("S", 2),), (Label("B1", 2),)
    z = Observable(s, np.diag([1.0, -1.0]))
    rho_beta = DensityMatrix(b, np.array([[0.7, 0.2j], [-0.2j, 0.3]]))
    impl, meas = conserving_disturbance_implementation(z, Observable(b, z.data), rho_beta, np.random.default_rng(0))
    assert len(meas.branches) == 4
    payload = {
        "state": encode_state(pure_state([1, 1j], s)),
        "observable": encode_observable(Observable(s, np.array([[0, 1], [1, 0]]))),
        "instrument": encode_instrument(meas),
        "implementation": encode_implementation(impl),
    }
    return document("way-disturbance", payload)


# (a builder of the document from the corpus, what the result of its report meets)
REPORT_CHECKS = [
    # the Ising-chain OTOC by the weak-coupling comb agrees with the direct commutator value
    pytest.param(edited("otoc-ising-chain"), lambda r: 0 <= r["gap"] <= 1e-6, id="chain"),
    # the gap at 8 sites is relative to the direct value, since an absolute bound would pass at
    # any relative error. Both values are built from one W(tau), whose rounding puts them ~7%
    # above the extended-precision series reference 3.0947e-28, so this checks agreement, not accuracy
    pytest.param(
        edited("otoc-ising-chain", eight_site_chain), lambda r: 0 <= r["gap"] <= 1e-8 * r["direct"], id="chain-8"
    ),
    # the two-copy blw fixture, whose measured copy only prepares a readout beside the coupled
    # copy, meets its closed form blw_calibration_error_qubit(z, x)^2 = 2, and so does its disturbance
    pytest.param(edited("blw-error-qubit"), lambda r: abs(r["value"] - 2.0) <= 1e-8, id="blw-error"),
    pytest.param(
        edited("blw-error-qubit", two_copy_disturbance), lambda r: abs(r["value"] - 2.0) <= 1e-8, id="blw-disturbance"
    ),
    # the disturbance twin of the lt fixture gives value 1 and the zero minimizer
    pytest.param(
        edited("lt-error-qubit", which="disturbance"),
        lambda r: r["value"] == 1.0 and not np.any(r["minimizer"]["matrix"]),
        id="lt-disturbance",
    ),
    # the optimized delta fixture is certified optimal by its dual bound, and so is the epsilon
    # fixture under OPTIMIZE: one stacked pass over the grid, certified at every theta
    pytest.param(edited("delta-depolarizing"), lambda r: 0 <= r["certified_gap"] <= 1e-10, id="delta-certified"),
    pytest.param(
        edited("epsilon-projective-qubit", recovery="optimize"),
        lambda r: 0 <= r["certified_gap"] <= 1e-10,
        id="epsilon-optimize",
    ),
    # the tight error bound still holds with the optimized error as its left-hand side
    pytest.param(edited("way-error-tight", lhs="optimize"), lambda r: r["pass"] is True, id="way-optimize"),
    # the factor-form fidelity kernel scores Petz and the ascended recovery, zero eigenvalues included
    pytest.param(
        lambda corpus: mixed_qutrit_delta(recovery="optimize", optimizer={"max_iters": 60, "restarts": 1}),
        lambda r: 0 <= r["delta"] <= 1,
        id="delta-mixed",
    ),
    # the round trip is exact, so delta sits at rounding level, not at sqrt(eps)
    pytest.param(lambda corpus: exact_round_trip(), lambda r: 0 <= r["delta"] <= 1e-14, id="delta-exact"),
    pytest.param(lambda corpus: mixed_ancilla_disturbance(), lambda r: r["pass"] is True, id="way-mixed-ancilla"),
]


class TestReportValues:
    @pytest.mark.parametrize("build, holds", REPORT_CHECKS)
    def test_report_meets_its_closed_form_or_bound(self, corpus, tmp_path, build, holds):
        result = run_report(tmp_path, build(corpus))["result"]
        assert holds(result), result

    def test_long_optimized_delta_does_not_exceed_petz(self, tmp_path):
        # at a long budget the ascent's step grows
        docs = {
            "petz": mixed_qutrit_delta(recovery="petz", optimizer={"max_iters": 60, "restarts": 1}),
            "long": mixed_qutrit_delta(recovery="optimize", optimizer={"max_iters": 2000, "restarts": 2}),
        }
        delta = {name: run_report(tmp_path, doc, name)["result"]["delta"] for name, doc in docs.items()}
        assert delta["long"] <= delta["petz"] + 1e-9

    def test_petz_delta_at_an_explicit_reference_state(self, tmp_path):
        # sigma_ref replaces the ensemble average as the Petz reference, and the report echoes it
        sigma = DensityMatrix((Label("S", 3),), np.diag([0.2, 0.3, 0.5]))
        doc = mixed_qutrit_delta(recovery="petz", sigma_ref=encode_state(sigma))
        report = run_report(tmp_path, doc)
        loss, omega = serialize.decode_channel(doc["payload"]["loss"]), serialize.decode_ensemble(doc["payload"]["ensemble"])
        assert report["result"]["delta"] == delta_with_recovery(loss, petz_recovery(loss, sigma), omega).delta
        assert report["inputs"]["sigma_ref"] == encode_state(sigma)


def key_paths(obj, prefix=""):
    """The sorted dotted paths of every key in obj, walking through dicts only."""
    paths = []
    for k, v in obj.items():
        paths.append(prefix + k)
        if isinstance(v, dict):
            paths += key_paths(v, prefix + k + ".")
    return sorted(paths)


EXTRACTION_KEYS = ["fit_tol", "method", "optimizer", "optimizer.max_iters", "optimizer.restarts", "optimizer.seed",
                   "optimizer.step", "optimizer.tol", "thetas"]
FIT_KEYS = ["fit_residual", "method", "theta_grid", "value"]
BOUND_KEYS = ["lhs", "pass", "rhs", "slack", "terms", "terms.commutator_expectation", "terms.fisher_cost_upper"]
# fixture -> report section -> its key paths; a section that is not listed must be absent
LAYOUT = {
    "blw-error-qubit": {"result": FIT_KEYS, "inputs.extraction": EXTRACTION_KEYS},
    "delta-depolarizing": {
        "result": ["certified_gap", "converged", "delta", "delta_squared", "local_optimum", "per_state"],
        "inputs.optimizer": ["max_iters", "restarts", "seed", "step", "tol"],
    },
    "epsilon-projective-qubit": {"result": FIT_KEYS, "inputs.extraction": EXTRACTION_KEYS},
    "eta-projective-qubit": {"result": FIT_KEYS, "inputs.extraction": EXTRACTION_KEYS},
    "lt-error-qubit": {"result": ["pushforward", "pushforward.0", "pushforward.1", "value"]},
    "otoc-cp-qubit": {
        "result": ["direct_normalized", "gap", "iep", "iep.branch_probability", "iep.fit_residual", "iep.method",
                   "iep.rescale", "iep.theta_grid", "iep.value"],
        "inputs.extraction": EXTRACTION_KEYS,
    },
    "otoc-ising-chain": {
        "result": ["direct", "gap", "iep", "iep.fit_residual", "iep.method", "iep.theta_grid", "iep.value"],
        "inputs.extraction": EXTRACTION_KEYS,
    },
    "way-disturbance-random": {"result": BOUND_KEYS + ["terms.qfi_state", "terms.variance_out", "tolerance"]},
    "way-error-tight": {"result": BOUND_KEYS + ["terms.qfi_state", "terms.variance_out", "tolerance"]},
    "way-otoc-qubit": {"result": BOUND_KEYS + ["terms.spread_in", "terms.spread_out", "tolerance"]},
}


def layout(report_path):
    report = load_report(report_path)
    sections = {"result": key_paths(report["result"])}
    for name in ("extraction", "optimizer"):
        if name in report["inputs"]:
            sections[f"inputs.{name}"] = key_paths(report["inputs"][name])
    return sections


class TestReportLayout:
    @pytest.mark.parametrize("name", sorted(LAYOUT))
    def test_fixture_report_keys(self, corpus, tmp_path, name):
        out = tmp_path / "r.json"
        assert main(["run", str(corpus / f"{name}.json"), "-o", str(out)]) == 0
        assert layout(out) == LAYOUT[name]

    def test_optimized_extraction_reports_its_certified_gap(self, corpus, tmp_path):
        doc = load_report(corpus / "epsilon-projective-qubit.json")
        doc["payload"].update(recovery="optimize", extraction=TestExtractionModes.BUDGET)
        out = tmp_path / "r.json"
        assert main(["run", write_doc(tmp_path, "o.json", doc), "-o", str(out)]) == 0
        assert layout(out) == {"result": sorted(FIT_KEYS + ["certified_gap"]), "inputs.extraction": EXTRACTION_KEYS}

    def test_cp_branch_delta_reports_its_branch_probabilities(self, corpus, tmp_path):
        space = TestExtractionModes.branch_doc(corpus, "petz")["payload"]["loss"]["in_space"]
        identity = {"in_space": space, "out_space": space, "kraus": [[[1.0, 0.0], [0.0, 1.0]]]}
        out = tmp_path / "r.json"
        doc = TestExtractionModes.branch_doc(corpus, identity)
        assert main(["run", write_doc(tmp_path, "b.json", doc), "-o", str(out)]) == 0
        assert layout(out) == {
            "result": ["branch_probabilities", "converged", "delta", "delta_squared", "local_optimum", "per_state"],
            "inputs.optimizer": LAYOUT["delta-depolarizing"]["inputs.optimizer"],
        }


class TestOtocDocuments:
    @pytest.mark.parametrize("name", ["otoc-ising-chain", "otoc-cp-qubit", "way-otoc-qubit"])
    def test_w_tau_is_formed_once(self, corpus, tmp_path, monkeypatch, name):
        # the extraction or the bound and the direct value share one W(tau), so one eigh of H
        doc = load_report(corpus / f"{name}.json")
        scenario = doc["payload"]["scenario"]
        if name != "otoc-ising-chain":  # the qubit fixtures have H = 0, which is never decomposed
            scenario["h"] = {"space": scenario["w0"]["space"], "matrix": [[0.3, 0.7], [0.7, -0.3]]}
        calls = []
        heisenberg = otoc.heisenberg
        monkeypatch.setattr(otoc, "heisenberg", lambda *args: calls.append(args) or heisenberg(*args))
        assert main(["run", write_doc(tmp_path, "w.json", doc), "-o", str(tmp_path / "r.json")]) == 0
        assert len(calls) == 1

    def test_chain_decode_checks_only_the_summed_h(self, monkeypatch):
        # Pauli-string terms and the default I/d are library-built, so decoding runs one
        # Hermiticity check (on H) and no eigvalsh
        herm, eig = [], []
        herm_defect, eigvalsh = qcore._herm_defect, np.linalg.eigvalsh
        monkeypatch.setattr(qcore, "_herm_defect", lambda a: herm.append(a.shape) or herm_defect(a))
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a, **kw: eig.append(a) or eigvalsh(*a, **kw))
        s = cli._decode_scenario(build_fixture("otoc-ising-chain")["payload"]["scenario"])
        assert herm == [(8, 8)]
        assert not eig
        assert s.h.space == s.w0.space == s.v0.space == s.rho.space == (Label("S", 8),)


class TestValidationBoundary:
    """compute checks what it decodes and nothing it derives from the decoded values."""

    # __post_init__ runs of DensityMatrix / Observable / KrausChannel in cli.compute
    CHECKED = {
        "otoc-cp-qubit": (1, 3, 0),
        "otoc-ising-chain": (0, 1, 0),
        "way-error-tight": (2, 5, 0),
        "way-disturbance-random": (2, 5, 0),
        "way-otoc-qubit": (1, 7, 0),
    }

    @pytest.mark.parametrize("name", list(CHECKED))
    def test_builds_checked_values_only_for_what_it_decodes(self, monkeypatch, name):
        doc = build_fixture(name)
        classes = (DensityMatrix, Observable, KrausChannel)
        counts = dict.fromkeys(classes, 0)
        for cls in classes:

            def counted(obj, check=cls.__post_init__):
                counts[type(obj)] += 1
                return check(obj)

            monkeypatch.setattr(cls, "__post_init__", counted)
        cli.compute(doc["kind"], doc["payload"], doc["seed"])
        assert tuple(counts.values()) == self.CHECKED[name]

    @pytest.mark.parametrize("name", ["way-error-tight", "way-disturbance-random"])
    def test_instrument_at_the_edge_of_its_tolerance_passes(self, corpus, tmp_path, name):
        # sum M'M = 1 + 5e-10 is within the instrument's 1e-9, so the states the bound derives
        # from it are not checked again at a state's 1e-10
        doc = load_report(corpus / f"{name}.json")
        c = math.sqrt(1 + 5e-10)
        for branch in doc["payload"]["instrument"]["branches"]:
            branch["kraus"] = [[[c * re, c * im] for re, im in row] for row in branch["kraus"]]
        out = tmp_path / "edge.report.json"
        assert main(["run", write_doc(tmp_path, "edge.json", doc), "-o", str(out)]) == 0
        assert load_report(out)["result"]["pass"] is True


class TestParserReuse:
    def test_successive_calls_behave_as_alone(self, corpus, tmp_path, capsys):
        # the parser is built once per process, and no call's arguments reach the next
        assert cli.build_parser() is cli.build_parser()
        src = str(shutil.copy(corpus / "lt-error-qubit.json", tmp_path / "lt.json"))
        explicit = tmp_path / "explicit.report.json"
        assert main(["run", src, "-o", str(explicit)]) == 0
        assert main(["validate", src]) == 0
        csv = tmp_path / "bad.csv"
        assert main(["sweep", src, "-p", "state.matrix", "-g", "a,b", "-o", str(csv)]) == 2
        assert not csv.exists()
        # without -o, run writes the scenario's own output name beside it
        assert main(["run", src]) == 0
        written = sorted(p.name for p in tmp_path.glob("*.report.json"))
        assert written == ["explicit.report.json", "lt-error-qubit.report.json"]
        assert load_report(explicit)["result"] == load_report(tmp_path / "lt-error-qubit.report.json")["result"]
        err = capsys.readouterr().err
        assert err.count("\n") == 1  # the sweep's grid error alone


class TestExitCodes:
    def test_malformed_json_is_2(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{nope")
        assert main(["run", str(p)]) == 2

    def test_unknown_kind_is_2(self, corpus, tmp_path):
        doc = load_report(corpus / "lt-error-qubit.json")
        doc["kind"] = "bogus"
        assert main(["run", write_doc(tmp_path, "k.json", doc)]) == 2

    def test_missing_required_field_is_2(self, corpus, tmp_path):
        doc = load_report(corpus / "lt-error-qubit.json")
        del doc["payload"]["state"]
        assert main(["validate", write_doc(tmp_path, "m.json", doc)]) == 2

    def test_invalid_state_content_is_2(self, corpus, tmp_path):
        doc = load_report(corpus / "lt-error-qubit.json")
        doc["payload"]["state"]["matrix"] = [[2.0, 0.0], [0.0, -1.0]]
        assert main(["run", write_doc(tmp_path, "s.json", doc)]) == 2

    @pytest.mark.parametrize(
        "name, path, literal",
        [
            pytest.param("lt-error-qubit", ("state", "matrix", 0, 0), "NaN", id="state-NaN"),
            pytest.param("lt-error-qubit", ("observable", "matrix", 0, 0), "1e400", id="observable-1e400"),
            pytest.param("way-error-tight", ("tolerance",), "1e400", id="tolerance-1e400"),
        ],
    )
    def test_non_finite_number_is_2(self, corpus, tmp_path, capsys, name, path, literal):
        # NaN passes every "defect > tol" check, and 1e400 parses as inf
        doc = load_report(corpus / f"{name}.json")
        field = doc["payload"]
        for key in path[:-1]:
            field = field[key]
        field[path[-1]] = "NUMBER"
        p = tmp_path / "nf.json"
        p.write_text(json.dumps(doc).replace('"NUMBER"', literal))
        assert main(["validate", str(p)]) == 2
        assert main(["run", str(p)]) == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, path",
        [
            pytest.param("lt-error-qubit", ("state", "matrix", 0, 0), id="matrix-entry"),
            pytest.param("otoc-ising-chain", ("scenario", "tau"), id="tau"),
        ],
    )
    def test_integer_that_overflows_a_double_is_2(self, corpus, tmp_path, capsys, name, path):
        # a JSON integer parses exactly, so 1 followed by 400 zeros is valid and overflows only when decoded
        doc = load_report(corpus / f"{name}.json")
        field = doc["payload"]
        for key in path[:-1]:
            field = field[key]
        field[path[-1]] = 10**400
        src = write_doc(tmp_path, "big.json", doc)
        assert main(["validate", src]) == 0
        assert main(["run", src]) == 2
        err = capsys.readouterr().err
        assert "invalid scenario content: OverflowError" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize("what", ["missing", "directory"])
    def test_unreadable_path_is_2(self, tmp_path, capsys, command, what):
        path = tmp_path / "absent.json" if what == "missing" else tmp_path
        assert main([command, str(path)]) == 2
        assert f"{path}: cannot read: " in capsys.readouterr().err

    def test_undecodable_file_is_2(self, tmp_path, capsys):
        p = tmp_path / "utf16.json"
        p.write_bytes(b"\xff\xfe{\x00}\x00")
        assert main(["validate", str(p)]) == 2
        assert main(["run", str(p)]) == 2
        assert "invalid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["validate"], ["run"], ["sweep", "-p", "tau", "-g", "0"]], ids=lambda c: c[0])
    def test_nesting_too_deep_is_2(self, tmp_path, capsys, command):
        # the json parser raises RecursionError, not ValueError, on this
        p = tmp_path / "deep.json"
        p.write_text("[" * 100_000)
        assert main(command[:1] + [str(p)] + command[1:]) == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_string_in_a_matrix_is_2_and_named_by_its_path(self, corpus, tmp_path, capsys):
        doc = load_report(corpus / "way-error-tight.json")
        doc["payload"]["state"]["matrix"][0][0] = "x"
        assert main(["validate", write_doc(tmp_path, "s.json", doc)]) == 2
        assert "$.payload.state.matrix[0][0]" in capsys.readouterr().err

    def test_otoc_optimize_recovery_is_2(self, corpus, tmp_path):
        doc = load_report(corpus / "otoc-ising-chain.json")
        doc["payload"]["recovery"] = "optimize"
        assert main(["validate", write_doc(tmp_path, "o.json", doc)]) == 2

    @pytest.mark.parametrize("name", ["eta-projective-qubit", "epsilon-projective-qubit"])
    @pytest.mark.parametrize("thetas", [[0.01], [0.3, 0.3, 0.3]], ids=["one", "repeated"])
    def test_theta_grid_of_one_distinct_value_is_2(self, corpus, tmp_path, capsys, thetas, name):
        # the grid fit needs two distinct theta; validate, run and sweep all refuse fewer
        doc = load_report(corpus / f"{name}.json")
        doc["payload"]["extraction"] = {"thetas": thetas}
        src = write_doc(tmp_path, "g.json", doc)
        assert main(["validate", src]) == 2
        assert main(["run", src]) == 2
        grid = ",".join(str(t) for t in thetas)
        out = tmp_path / "g.csv"
        assert main(["sweep", str(corpus / f"{name}.json"), "-p", "theta", "-g", grid, "-o", str(out)]) == 2
        assert "$.payload.extraction.thetas" in capsys.readouterr().err
        assert not out.exists()

    def test_two_copy_disturbance_through_an_instrument_that_changes_the_dimension_is_2(self, corpus, tmp_path, capsys):
        # the canonical recovery couples the S:2 -> O:3 readout back through the S:2 generator
        doc = load_report(corpus / "blw-error-qubit.json")
        payload = doc["payload"]
        del payload["f"]
        payload["kind"] = "disturbance"
        payload["instrument"] = encode_instrument(Instrument((Label("S", 2),), (Label("O", 3),), (("0", np.eye(3, 2)),)))
        assert main(["run", write_doc(tmp_path, "iso.json", doc)]) == 2
        assert "ShapeError: the canonical two-copy disturbance recovery" in capsys.readouterr().err

    def test_two_copy_error_without_f_is_2(self, corpus, tmp_path, capsys):
        doc = load_report(corpus / "blw-error-qubit.json")
        del doc["payload"]["f"]
        assert main(["run", write_doc(tmp_path, "nof.json", doc)]) == 2
        assert "ValueError: two-copy error extraction needs outcome values f" in capsys.readouterr().err

    def test_conservation_failure_is_3(self, corpus, tmp_path):
        doc = load_report(corpus / "way-error-tight.json")
        charges = json.loads(json.dumps(doc["payload"]["implementation"]["charges"]))
        charges["alpha"]["matrix"][0][0] = [5.0, 0.0]
        doc["payload"]["charges"] = charges
        assert main(["run", write_doc(tmp_path, "t.json", doc)]) == 3

    def test_charge_override_of_wrong_dimension_is_2(self, corpus, tmp_path, capsys):
        doc = load_report(corpus / "way-error-tight.json")
        charges = json.loads(json.dumps(doc["payload"]["implementation"]["charges"]))
        charges["alpha"] = encode_observable(Observable((Label("S", 3),), np.eye(3)))
        doc["payload"]["charges"] = charges
        assert main(["run", write_doc(tmp_path, "t.json", doc)]) == 2
        assert "ShapeError: charge 'alpha' has dimension 3, but in_alpha has dimension 2" in capsys.readouterr().err

    def test_tolerance_violation_is_4(self, corpus, tmp_path):
        # the tight scenario sits at slack ~ -3e-16; tolerance 0 trips it
        doc = load_report(corpus / "way-error-tight.json")
        doc["payload"]["tolerance"] = 0.0
        doc["output"] = "strict.report.json"
        assert main(["run", write_doc(tmp_path, "strict.json", doc)]) == 4
        rep = load_report(tmp_path / "strict.report.json")
        assert rep["result"]["pass"] is False


class TestUnwritableOutput:
    def test_run_reports_it_as_2_and_goes_on(self, corpus, tmp_path, capsys):
        doc = load_report(corpus / "lt-error-qubit.json")
        doc["output"] = "missing/lt.report.json"
        first = write_doc(tmp_path, "first.json", doc)
        second = write_doc(tmp_path, "second.json", load_report(corpus / "blw-error-qubit.json"))
        assert main(["run", first, second]) == 2
        assert f"{first}: cannot write report: {tmp_path / 'missing' / 'lt.report.json'}: " in capsys.readouterr().err
        assert load_report(tmp_path / "blw-error-qubit.report.json")["kind"] == "blw"
        assert not (tmp_path / "missing").exists()

    def test_sweep_csv_is_2(self, corpus, tmp_path, capsys):
        src = str(corpus / "otoc-ising-chain.json")
        out = tmp_path / "missing" / "chain.csv"
        assert main(["sweep", src, "-p", "tau", "-g", "0,0.5", "-o", str(out)]) == 2
        assert f"{src}: cannot write report: {out}: " in capsys.readouterr().err


class TestSweep:
    def test_tau_sweep_rows(self, corpus, tmp_path):
        out = tmp_path / "chain.csv"
        code = main(
            ["sweep", str(corpus / "otoc-ising-chain.json"), "-p", "tau", "-g", "0,0.5,1.0", "-o", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "tau,c_direct,c_iep,gap"
        assert len(lines) == 4
        # equal-time row: W and V act on different sites, so both paths give 0
        first = [float(x) for x in lines[1].split(",")]
        assert first[0] == 0.0
        assert abs(first[1]) < 1e-12
        assert abs(first[2]) < 1e-6

    def test_one_point_sweep_writes_what_run_reports(self, corpus, tmp_path):
        # sweep and run share one compute path: a one-point sweep of the dotted path scenario.tau
        # writes the c_iep that run reports for the same document at that tau, digit for digit
        src = corpus / "otoc-ising-chain.json"
        out = tmp_path / "tau-half.csv"
        assert main(["sweep", str(src), "-p", "scenario.tau", "-g", "0.5", "-o", str(out)]) == 0
        (row,) = csv.DictReader(out.open())
        doc = load_report(src)
        doc["payload"]["scenario"]["tau"] = 0.5
        assert row["c_iep"] == repr(run_report(tmp_path, doc)["result"]["iep"]["value"])

    @pytest.mark.parametrize("name", ["way-otoc-qubit", "otoc-cp-qubit"])
    def test_tau_sweep_of_any_scenario_document(self, corpus, tmp_path, name):
        # -p tau sets scenario.tau in every scenario document, not only the chain's: a header and 3 rows
        out = tmp_path / "tau.csv"
        assert main(["sweep", str(corpus / f"{name}.json"), "-p", "tau", "-g", "0,0.5,1.0", "-o", str(out)]) == 0
        assert out.read_text().count("\n") == 4

    def test_theta_sweep_reproduces_grid_diagnostics(self, corpus, tmp_path):
        out = tmp_path / "theta.csv"
        src = str(corpus / "epsilon-projective-qubit.json")
        assert main(["sweep", src, "-p", "theta", "-g", "0.01,0.005", "-o", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "theta,delta_squared"
        rows = [[float(x) for x in ln.split(",")] for ln in lines[1:]]

        rep_out = tmp_path / "eps.report.json"
        doc = load_report(src)
        doc["payload"].setdefault("extraction", {})["thetas"] = [0.01, 0.005]
        assert main(["run", write_doc(tmp_path, "eps.json", doc), "-o", str(rep_out)]) == 0
        grid = load_report(rep_out)["result"]["theta_grid"]
        assert np.allclose(rows, grid)

    def test_theta_sweep_of_a_vanishing_w_writes_zero_rows(self, corpus, tmp_path):
        # a numerically zero W gives the value 0 at every theta of the grid
        doc = load_report(corpus / "otoc-cp-qubit.json")
        doc["payload"]["scenario"]["w0"]["matrix"] = [[0.0, 0.0], [0.0, 0.0]]
        out = tmp_path / "zero.csv"
        with pytest.warns(UserWarning, match="degenerate"):
            code = main(["sweep", write_doc(tmp_path, "zero.json", doc), "-p", "theta", "-g", "0.01,0.005", "-o", str(out)])
        assert code == 0
        assert out.read_text().splitlines() == ["theta,delta_squared", "0.01,0.0", "0.005,0.0"]

    def test_empty_grid_is_2(self, corpus):
        assert main(["sweep", str(corpus / "otoc-ising-chain.json"), "-p", "tau", "-g", " ,"]) == 2

    def test_non_numeric_grid_is_2(self, corpus):
        assert main(["sweep", str(corpus / "otoc-ising-chain.json"), "-p", "tau", "-g", "a,b"]) == 2

    @pytest.mark.parametrize(
        "name, param, grid, message",
        [
            pytest.param(
                "epsilon-projective-qubit",
                "theta",
                "-0.01,0.005,0.0025",
                "$.payload.extraction.thetas[0]: -0.01 is less than or equal to the minimum of 0",
                id="theta-below-schema",
            ),
            pytest.param("otoc-ising-chain", "tau", "0,nan", "nan is not a finite double", id="tau-nan"),
        ],
    )
    def test_grid_outside_schema_is_2(self, corpus, tmp_path, capsys, name, param, grid, message):
        out = tmp_path / "bad.csv"
        assert main(["sweep", str(corpus / f"{name}.json"), "-p", param, f"-g={grid}", "-o", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name", ["way-error-tight", "way-disturbance-random"])
    def test_theta_sweep_of_a_way_bound_is_2_before_computing(self, corpus, tmp_path, capsys, monkeypatch, name):
        # a way-bound report keeps no theta grid, so the sweep is refused before any bound is run
        def fail(*args):
            raise AssertionError("computed")

        monkeypatch.setattr(cli, "compute", fail)
        out = tmp_path / "way.csv"
        assert main(["sweep", str(corpus / f"{name}.json"), "-p", "theta", "-g", "0.01,0.005", "-o", str(out)]) == 2
        assert "scenario kind has no theta diagnostics" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name", ["epsilon-projective-qubit", "blw-error-qubit", "otoc-ising-chain"])
    def test_theta_sweep_of_an_analytic_extraction_is_2_before_computing(self, corpus, tmp_path, capsys, monkeypatch, name):
        # the analytic value is exact and keeps no theta grid, so the sweep is refused before any extraction
        def fail(*args):
            raise AssertionError("computed")

        doc = load_report(corpus / f"{name}.json")
        doc["payload"].setdefault("extraction", {})["method"] = "analytic"
        src = tmp_path / "analytic.json"
        src.write_text(json.dumps(doc))
        monkeypatch.setattr(cli, "compute", fail)
        out = tmp_path / "analytic.csv"
        assert main(["sweep", str(src), "-p", "theta", "-g", "0.01,0.005", "-o", str(out)]) == 2
        assert 'extraction method "analytic"' in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "name, param",
        [
            pytest.param("otoc-ising-chain", "no.such", id="missing-dict"),
            pytest.param("otoc-ising-chain", "scenario.no_such", id="missing-key"),
            pytest.param("otoc-ising-chain", "scenario.tau.x", id="through-a-number"),
            pytest.param("otoc-ising-chain", "scenario.h.0", id="through-a-list"),
            pytest.param("lt-error-qubit", "tau", id="tau-without-scenario"),
        ],
    )
    def test_unknown_parameter_is_2(self, corpus, tmp_path, capsys, name, param):
        out = tmp_path / "none.csv"
        assert main(["sweep", str(corpus / f"{name}.json"), "-p", param, "-g", "1", "-o", str(out)]) == 2
        assert f"parameter {param!r} not found in payload" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "name, param, grid",
        [
            pytest.param("otoc-ising-chain", "tau", "0,0.5", id="tau"),
            pytest.param("epsilon-projective-qubit", "theta", "0.01,0.005", id="theta"),
        ],
    )
    def test_sweep_encodes_no_echo_and_leaves_the_document_alone(self, corpus, tmp_path, monkeypatch, name, param, grid):
        # only run writes a report, so only run encodes the decoded inputs back to JSON; a sweep
        # point copies the dicts on the swept path and shares the rest with the loaded document
        encoded, loaded = [], []
        encode_matrix, load = serialize.encode_matrix, cli._load
        monkeypatch.setattr(serialize, "encode_matrix", lambda m: encoded.append(m) or encode_matrix(m))

        def spy(path):
            doc, problem = load(path)
            loaded.append((doc, copy.deepcopy(doc)))
            return doc, problem

        monkeypatch.setattr(cli, "_load", spy)
        src = str(corpus / f"{name}.json")
        assert main(["sweep", src, "-p", param, "-g", grid, "-o", str(tmp_path / "s.csv")]) == 0
        assert encoded == []
        assert len(loaded) == 1 and loaded[0][0] == loaded[0][1]
        assert main(["run", src, "-o", str(tmp_path / "r.json")]) == 0
        assert encoded

    def test_violating_sweep_is_4(self, corpus, tmp_path):
        doc = load_report(corpus / "way-error-tight.json")
        doc["payload"]["tolerance"] = 0.0
        src = write_doc(tmp_path, "strict.json", doc)
        out = tmp_path / "strict.csv"
        assert main(["sweep", src, "-p", "tolerance", "-g", "0", "-o", str(out)]) == 4
        assert out.exists()

    @pytest.mark.parametrize(
        "extraction, param, grid",
        [
            pytest.param({"fit_tol": 1e-30}, "theta", "0.3,0.2,0.1", id="theta"),
            pytest.param({"fit_tol": 1e-6, "thetas": [0.3, 0.2, 0.1]}, "extraction.fit_tol", "1e-30", id="per-value"),
        ],
    )
    def test_numerical_failure_reports_run_detail(self, corpus, tmp_path, capsys, extraction, param, grid):
        # a coarse grid cannot meet the fit tolerance; sweep prints run's JSON failure detail
        doc = load_report(corpus / "epsilon-projective-qubit.json")
        doc["payload"]["extraction"] = extraction
        src = write_doc(tmp_path, "coarse.json", doc)
        out = tmp_path / "coarse.csv"
        assert main(["sweep", src, "-p", param, "-g", grid, "-o", str(out)]) == 3
        err = capsys.readouterr().err
        assert '"error": "ExtractionError"' in err
        assert '"diagnostics"' in err
        assert not out.exists()


class TestScenarioForms:
    def test_pauli_string_form_matches_dense(self, corpus, tmp_path):
        doc = load_report(corpus / "otoc-ising-chain.json")
        assert isinstance(doc["payload"]["scenario"]["h"], list)
        out = tmp_path / "string.report.json"
        assert main(["run", write_doc(tmp_path, "c.json", doc), "-o", str(out)]) == 0
        rep = load_report(out)
        assert abs(rep["result"]["direct"] - 0.5318542611700483) < 1e-9
        # the echo resolves strings to dense matrices
        assert isinstance(rep["inputs"]["scenario"]["h"], dict)

    def test_mismatched_sites_rejected(self, corpus, tmp_path):
        doc = load_report(corpus / "otoc-ising-chain.json")
        doc["payload"]["scenario"]["w0"] = "XI"
        assert main(["run", write_doc(tmp_path, "w.json", doc)]) == 2


def reference_problem(doc):
    """validate_document's answer from plain Draft202012Validator instances."""
    err = best_match(Draft202012Validator(TOP_SCHEMA).iter_errors(doc))
    if err is not None:
        return f"{err.json_path}: {err.message}"
    err = best_match(Draft202012Validator(PAYLOAD_SCHEMAS[doc["kind"]]).iter_errors(doc["payload"]))
    if err is not None:
        return f"{err.json_path.replace('$', '$.payload', 1)}: {err.message}"
    return None


# True stands in for a bool in a number slot; the last five are near misses too: 2.0 for
# a dim (jsonschema counts it an integer), a repeated theta, a space entry with an extra
# key, a word outside an enum, and a tuple, which is not a JSON array
REPLACEMENTS = [None, True, 0, 1, -2.5, "x", [], [1], [1, 2], [1, 2, 3], [[1]], [[1, 2]],
                [[[1, 2]]], [["a"]], [[True]], [[1, [1, 2, 3]]], {}, {"a": 1}, [[1.0, 2.0], [3.0]],
                2.0, [0.01, 0.01], {"name": "S", "dim": 2, "extra": 0}, "optimise", (1.0, 2.0)]


def node_paths(obj, prefix=()):
    yield prefix
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for k, v in items:
        yield from node_paths(v, prefix + (k,))


def parent_of(doc, path):
    """The container that holds the node at path."""
    for k in path[:-1]:
        doc = doc[k]
    return doc


def mutated(doc, rng):
    """doc with one to three nodes deleted or replaced; most nodes are matrix entries."""
    doc = json.loads(json.dumps(doc))
    for _ in range(rng.randint(1, 3)):
        path = rng.choice(list(node_paths(doc))[1:])
        parent = parent_of(doc, path)
        if rng.random() < 0.2:
            del parent[path[-1]]
        else:
            parent[path[-1]] = copy.deepcopy(rng.choice(REPLACEMENTS))
    return doc


class TestValidation:
    def test_messages_match_plain_jsonschema(self, corpus):
        rng = random.Random(0)
        docs = [load_report(corpus / f"{n}.json") for n in fixture_names()]
        problems = []
        for i in range(300):
            doc = docs[i % len(docs)] if i < len(docs) else mutated(docs[i % len(docs)], rng)
            problem = validate_document(doc)
            assert problem == reference_problem(doc), doc
            problems.append(problem)
        assert problems[: len(docs)] == [None] * len(docs)
        assert sum(p is not None and "matrix" in p for p in problems) > 75


NUMBERS = st.one_of(st.integers(), st.floats())
PAIRS = st.lists(NUMBERS, min_size=2, max_size=2)
JSON_VALUES = st.one_of(
    NUMBERS,
    PAIRS,
    st.booleans(),
    st.none(),
    st.text(max_size=2),
    st.lists(st.one_of(NUMBERS, st.booleans(), st.text(max_size=1), st.lists(NUMBERS)), max_size=3),
    st.dictionaries(st.text(max_size=1), NUMBERS, max_size=1),
)
FOREIGN_VALUES = st.one_of(
    st.floats().map(np.float64),
    st.integers(-9, 9).map(np.int64),
    st.booleans().map(np.bool_),
    st.tuples(NUMBERS, NUMBERS),
    PAIRS.map(type("ListSubclass", (list,), {})),
)
MATRIX_SCHEMA = Draft202012Validator(_MATRIX)


@st.composite
def matrices(draw, values):
    """A valid matrix, or one with the whole, a row or an entry replaced by a drawn value."""
    m = draw(st.lists(st.lists(st.one_of(NUMBERS, PAIRS), min_size=1, max_size=3), min_size=1, max_size=3))
    where = draw(st.sampled_from(["none", "matrix", "row", "entry"]))
    if where == "matrix":
        return draw(values)
    if where != "none":
        row = draw(st.integers(0, len(m) - 1))
        if where == "row":
            m[row] = draw(st.one_of(values, st.lists(values, max_size=2)))
        else:
            m[row][draw(st.integers(0, len(m[row]) - 1))] = draw(values)
    return m


class TestMatrixPredicate:
    @settings(deadline=None, derandomize=True, max_examples=200)
    @given(matrices(JSON_VALUES))
    def test_agrees_with_schema_on_json_values(self, x):
        assert _is_matrix(x) == MATRIX_SCHEMA.is_valid(x)

    @settings(deadline=None, derandomize=True, max_examples=200)
    @given(matrices(st.one_of(JSON_VALUES, FOREIGN_VALUES)))
    def test_accepts_only_what_the_schema_accepts(self, x):
        if _is_matrix(x):
            assert MATRIX_SCHEMA.is_valid(x)
        assert not _accepts(_MATRIX, x) or MATRIX_SCHEMA.is_valid(x)


DOCS = {n: json.loads(canonical_json(build_fixture(n))) for n in fixture_names()}
# no fixture sets every extraction field, so each kind that takes them gets a copy that does
EXTRACTION = {
    "method": "analytic",
    "thetas": [0.02, 0.01],
    "fit_tol": 1e-6,
    "optimizer": {"seed": 1, "max_iters": 5, "step": 0.1, "restarts": 0, "tol": 0.0},
}
DOCS |= {
    f"{n}+extraction": dict(doc, payload=dict(doc["payload"], extraction=EXTRACTION))
    for n, doc in DOCS.items()
    if "extraction" in PAYLOAD_SCHEMAS[doc["kind"]]["properties"]
}
REFERENCE = {"top": Draft202012Validator(TOP_SCHEMA)} | {
    kind: Draft202012Validator(schema) for kind, schema in PAYLOAD_SCHEMAS.items()
}


def slot_paths(doc):
    """node paths of doc down to its matrices; TestMatrixPredicate covers what is inside them"""
    matrices = ("matrix", "kraus", "u")
    return [p for p in node_paths(doc) if not any(k in matrices and len(p) - i > 1 for i, k in enumerate(p))]


SLOTS = [(n, p) for n, doc in DOCS.items() for p in slot_paths(doc)[1:]]


def shrunk(schema, x):
    """x with each matrix under schema cut to [[1.0]], which every matrix slot takes"""
    if schema is _MATRIX:
        return [[1.0]]
    if "oneOf" in schema:
        return shrunk(next(b for b in schema["oneOf"] if _accepts(b, x)), x)
    if type(x) is dict:
        named = schema.get("properties", {})
        return {k: shrunk(named[k], v) if k in named else v for k, v in x.items()}
    if type(x) is list and type(schema.get("items")) is dict:
        return [shrunk(schema["items"], v) for v in x]
    return x


def matrix_paths(schema, x, path=()):
    """paths in x of the matrices under schema"""
    if schema is _MATRIX:
        yield path
    elif "oneOf" in schema:
        yield from matrix_paths(next(b for b in schema["oneOf"] if _accepts(b, x)), x, path)
    elif type(x) is dict:
        named = schema.get("properties", {})
        for k, v in x.items():
            if k in named:
                yield from matrix_paths(named[k], v, path + (k,))
    elif type(x) is list and type(schema.get("items")) is dict:
        for i, v in enumerate(x):
            yield from matrix_paths(schema["items"], v, path + (i,))


@st.composite
def near_misses(draw):
    """A fixture document with one slot replaced or given an extra key, then maybe mutated."""
    name, path = draw(st.sampled_from(SLOTS))
    doc = copy.deepcopy(DOCS[name])
    parent = parent_of(doc, path)
    if type(parent[path[-1]]) is dict and draw(st.booleans()):
        parent[path[-1]]["extra"] = draw(st.sampled_from(REPLACEMENTS))
    else:
        parent[path[-1]] = copy.deepcopy(draw(st.sampled_from(REPLACEMENTS)))
    if draw(st.booleans()):
        doc = mutated(doc, random.Random(draw(st.integers(0, 2**32))))
    return doc


class TestAcceptor:
    @settings(deadline=None, derandomize=True, max_examples=200)
    @given(near_misses())
    def test_accepts_only_what_the_schema_accepts(self, doc):
        # every payload schema on every payload, not only its own kind's
        if _accepts(TOP_SCHEMA, doc):
            assert REFERENCE["top"].is_valid(doc)
        payload = doc.get("payload")
        for kind, schema in PAYLOAD_SCHEMAS.items():
            if _accepts(schema, payload):
                assert REFERENCE[kind].is_valid(payload), kind

    def test_every_single_edit_is_sound(self):
        # each slot of each schema, replaced by each value or given an extra key; slots that
        # differ only by list index are one, and the matrices are cut down first, or the
        # plain reference schemas take ~10 s
        unsound, seen = [], set()
        for name, doc in DOCS.items():
            kind = doc["kind"]
            doc = dict(doc, payload=shrunk(PAYLOAD_SCHEMAS[kind], doc["payload"]))
            for path in slot_paths(doc)[1:]:
                slot = (id(PAYLOAD_SCHEMAS[kind]), tuple(0 if type(k) is int else k for k in path))
                if slot in seen:
                    continue
                seen.add(slot)
                parent = parent_of(doc, path)
                original = parent[path[-1]]
                edits = [*REPLACEMENTS, dict(original, extra=0)] if type(original) is dict else REPLACEMENTS
                for value in edits:
                    parent[path[-1]] = value
                    if len(path) == 1 and _accepts(TOP_SCHEMA, doc) and not REFERENCE["top"].is_valid(doc):
                        unsound.append((name, path, value, "top"))
                    payload = doc["payload"]
                    if _accepts(PAYLOAD_SCHEMAS[kind], payload) and not REFERENCE[kind].is_valid(payload):
                        unsound.append((name, path, value, kind))
                parent[path[-1]] = original
        assert unsound == []

    @pytest.mark.parametrize(
        "name, path, value",
        [
            pytest.param("lt-error-qubit", ("state", "space", 0, "dim"), 2.0, id="dim-2.0"),
            pytest.param("way-error-tight", ("tolerance",), True, id="bool-number"),
            pytest.param("eta-projective-qubit+extraction", ("extraction", "thetas", 1), 0.02, id="repeated-theta"),
            pytest.param("lt-error-qubit", ("state", "space", 0, "extra"), 0, id="extra-key"),
            pytest.param("eta-projective-qubit", ("recovery",), "optimise", id="enum-word"),
            pytest.param("lt-error-qubit", ("state", "space"), ({"name": "S", "dim": 2},), id="tuple"),
        ],
    )
    def test_near_misses_are_left_to_jsonschema(self, name, path, value):
        doc = copy.deepcopy(DOCS[name])
        parent_of(doc["payload"], path)[path[-1]] = value
        assert not _accepts(PAYLOAD_SCHEMAS[doc["kind"]], doc["payload"])
        assert validate_document(doc) == reference_problem(doc)

    @pytest.mark.parametrize(
        "schema, x",
        [
            pytest.param({"type": "string", "maxLength": 2}, "ab", id="unknown-keyword"),
            pytest.param({"type": ["string", "null"]}, "a", id="type-list"),
            pytest.param(True, 1, id="boolean-schema"),
            pytest.param({"type": "array", "uniqueItems": True}, ["a", "b"], id="unique-strings"),
            pytest.param({"enum": [1, 2]}, 1, id="number-enum"),
        ],
    )
    def test_what_it_does_not_know_is_undecided(self, schema, x):
        assert Draft202012Validator(schema).is_valid(x)
        assert not _accepts(schema, x)

    def test_fixtures_and_sweep_points_skip_jsonschema(self, corpus, tmp_path, monkeypatch):
        # a document _accepts leaves undecided would reach these and fail the test
        class Undecided:
            def iter_errors(self, instance):
                raise AssertionError(f"left to jsonschema: {instance!r:.200}")

        monkeypatch.setattr(cli, "_stock_validator", lambda kind=None: Undecided())
        assert all(validate_document(doc) is None for doc in DOCS.values())
        swept = 0
        for n in fixture_names():
            src = str(corpus / f"{n}.json")
            assert main(["validate", src]) == 0
            properties = PAYLOAD_SCHEMAS[DOCS[n]["kind"]]["properties"]
            out = str(tmp_path / "sweep.csv")
            if "scenario" in properties:
                assert main(["sweep", src, "-p", "tau", "-g", "0,0.5", "-o", out]) == 0
                swept += 1
            if "extraction" in properties:
                # a way bound keeps no theta grid, which sweep reports before validating the grid
                code = 2 if DOCS[n]["kind"].startswith("way-") else 0
                assert main(["sweep", src, "-p", "theta", "-g", "0.01,0.005", "-o", out]) == code
                swept += 1
        assert swept == 10


# in a fresh process, since this module imports jsonschema itself: the ten fixtures are
# validated and run one by one and swept once over theta and once over tau, then a fixture
# with one extra payload key is validated; argv is the ten paths, then the extra-key file
COLD_START = """
import json, sys
import irrevkit, irrevkit.cli
seen = {"import": "jsonschema" in sys.modules}
from irrevkit.cli import main
*paths, extra = sys.argv[1:]
named = {p.rsplit("/", 1)[-1]: p for p in paths}
codes = [main(["validate", p]) for p in paths] + [main(["run", p]) for p in paths]
codes.append(main(["sweep", named["epsilon-projective-qubit.json"], "-p", "theta", "-g", "0.01,0.005"]))
codes.append(main(["sweep", named["otoc-ising-chain.json"], "-p", "tau", "-g", "0,0.5"]))
seen["valid"] = "jsonschema" in sys.modules
rejected = main(["validate", extra])
seen["rejected"] = "jsonschema" in sys.modules
print(json.dumps({"codes": codes, "rejected": rejected, "seen": seen}))
"""


class TestColdStart:
    @pytest.fixture(scope="class")
    def cold(self, corpus, tmp_path_factory):
        d = tmp_path_factory.mktemp("cold")
        paths = [str(shutil.copy(corpus / f"{n}.json", d)) for n in fixture_names()]
        doc = load_report(corpus / "lt-error-qubit.json")
        doc["payload"]["extra"] = 0
        extra = write_doc(d, "extra.json", doc)
        proc = subprocess.run(
            [sys.executable, "-c", COLD_START, *paths, extra], capture_output=True, text=True, env=ENV
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.splitlines()[-1]), proc.stderr, doc, extra

    def test_import_leaves_jsonschema_out(self, cold):
        assert cold[0]["seen"]["import"] is False

    def test_valid_runs_and_sweeps_leave_jsonschema_out(self, cold):
        assert cold[0]["codes"] == [0] * 22
        assert cold[0]["seen"]["valid"] is False

    def test_a_rejection_is_worded_by_the_stock_validator(self, cold):
        result, err, doc, extra = cold
        assert result["rejected"] == 2
        assert err == f"{extra}: schema violation at {reference_problem(doc)}\n"
        assert "Additional properties" in err
        assert result["seen"]["rejected"] is True


def subschemas(schema):
    yield schema
    for key, arg in schema.items():
        children = arg.values() if key == "properties" else arg if key in ("prefixItems", "oneOf") else [arg]
        yield from (s for c in children if isinstance(c, dict) for s in subschemas(c))


SHIPPED = [s for root in (TOP_SCHEMA, *PAYLOAD_SCHEMAS.values()) for s in subschemas(root)]
JSON_TYPE_OF = {str: "string", int: "number", float: "number", bool: "boolean", dict: "object", list: "array"}


class TestShippedSchemas:
    def test_one_kind_list_in_one_order(self):
        kinds = ["delta", "epsilon", "eta", "blw", "lt", "way-error", "way-disturbance", "otoc", "otoc-cp", "way-otoc"]
        assert TOP_SCHEMA["properties"]["kind"]["enum"] == list(PAYLOAD_SCHEMAS) == list(cli._KIND_TABLE) == kinds
        assert PAYLOAD_SCHEMAS["eta"] is PAYLOAD_SCHEMAS["epsilon"]
        assert PAYLOAD_SCHEMAS["way-disturbance"] is PAYLOAD_SCHEMAS["way-error"]

    def test_use_only_keywords_the_acceptor_decides(self):
        assert set().union(*SHIPPED) <= set(cli._KEYWORDS)

    def test_one_of_branches_admit_disjoint_types(self):
        # a branch _accepts leaves undecided must not be able to match alongside one it accepts
        def types(branch):
            if "type" in branch:
                return {"number" if branch["type"] == "integer" else branch["type"]}
            values = branch["enum"] if "enum" in branch else [branch["const"]]
            return {JSON_TYPE_OF[type(v)] for v in values}

        one_ofs = [s["oneOf"] for s in SHIPPED if "oneOf" in s]
        assert len(one_ofs) >= 5
        for branches in one_ofs:
            seen = [types(b) for b in branches]
            assert all(seen), branches
            assert sum(map(len, seen)) == len(set().union(*seen)), branches

    def test_stock_validator_takes_every_fixture_file(self, corpus):
        # and refuses a string for its state matrix
        for n in fixture_names():
            doc = load_report(corpus / f"{n}.json")
            Draft202012Validator(TOP_SCHEMA).validate(doc)
            validator = Draft202012Validator(PAYLOAD_SCHEMAS[doc["kind"]])
            validator.validate(doc["payload"])
            if "state" in doc["payload"]:
                doc["payload"]["state"]["matrix"] = "garbage"
                assert not validator.is_valid(doc["payload"]), n

    def test_are_plain_draft_2020_12_schemas(self):
        # any standard validator checks the matrices: none needs an extension keyword
        for schema in (TOP_SCHEMA, *PAYLOAD_SCHEMAS.values()):
            Draft202012Validator.check_schema(schema)
        slots = 0
        for doc in DOCS.values():
            schema = PAYLOAD_SCHEMAS[doc["kind"]]
            payload = shrunk(schema, doc["payload"])
            for path in matrix_paths(schema, payload):
                parent = parent_of(payload, path)
                original, parent[path[-1]] = parent[path[-1]], "garbage"
                assert not Draft202012Validator(schema).is_valid(payload), (doc["kind"], path)
                parent[path[-1]] = original
                slots += 1
        assert slots >= 90
