import json
import os
import random
import shutil
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator
from jsonschema.exceptions import best_match

from irrevkit import cli, fixture_names
from irrevkit.cli import PAYLOAD_SCHEMAS, TOP_SCHEMA, _MATRIX, _MATRIX_NODE, _is_matrix, main, validate_document
from irrevkit.serialize import canonical_json


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
        assert abs(rep["result"]["value"] - 1.0) < 1e-9
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

    def test_multiple_scenarios_threaded(self, corpus, tmp_path, monkeypatch):
        # the validators and the emitter are shared by the pool; four workers on
        # two cores, with frequent thread switches, must write the one-file reports
        alone = {}
        for n in fixture_names():
            out = tmp_path / f"{n}.alone.json"
            assert main(["run", str(corpus / f"{n}.json"), "-o", str(out)]) == 0
            alone[n] = out.read_bytes()
        batch = tmp_path / "batch"
        batch.mkdir()
        for n in fixture_names():
            shutil.copy(corpus / f"{n}.json", batch / f"{n}.json")
        monkeypatch.setenv("IRREVKIT_THREADS", "4")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            assert main(["run", *(str(batch / f"{n}.json") for n in fixture_names())]) == 0
        finally:
            sys.setswitchinterval(interval)
        for n in fixture_names():
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
    def test_cp_branch_delta_needs_a_fixed_recovery(self, corpus, tmp_path, recovery):
        assert main(["run", write_doc(tmp_path, "b.json", self.branch_doc(corpus, recovery))]) == 2


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

    def test_undecodable_file_is_2(self, tmp_path, capsys):
        p = tmp_path / "utf16.json"
        p.write_bytes(b"\xff\xfe{\x00}\x00")
        assert main(["validate", str(p)]) == 2
        assert main(["run", str(p)]) == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_otoc_optimize_recovery_is_2(self, corpus, tmp_path):
        doc = load_report(corpus / "otoc-ising-chain.json")
        doc["payload"]["recovery"] = "optimize"
        assert main(["validate", write_doc(tmp_path, "o.json", doc)]) == 2

    def test_conservation_failure_is_3(self, corpus, tmp_path):
        doc = load_report(corpus / "way-error-tight.json")
        charges = json.loads(json.dumps(doc["payload"]["implementation"]["charges"]))
        charges["alpha"]["matrix"][0][0] = [5.0, 0.0]
        doc["payload"]["charges"] = charges
        assert main(["run", write_doc(tmp_path, "t.json", doc)]) == 3

    def test_tolerance_violation_is_4(self, corpus, tmp_path):
        # the tight scenario sits at slack ~ -3e-16; tolerance 0 trips it
        doc = load_report(corpus / "way-error-tight.json")
        doc["payload"]["tolerance"] = 0.0
        doc["output"] = "strict.report.json"
        assert main(["run", write_doc(tmp_path, "strict.json", doc)]) == 4
        rep = load_report(tmp_path / "strict.report.json")
        assert rep["result"]["pass"] is False


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

    def test_unknown_parameter_is_2(self, corpus):
        assert main(["sweep", str(corpus / "otoc-ising-chain.json"), "-p", "no.such", "-g", "1"]) == 2

    def test_violating_sweep_is_4(self, corpus, tmp_path):
        doc = load_report(corpus / "way-error-tight.json")
        doc["payload"]["tolerance"] = 0.0
        src = write_doc(tmp_path, "strict.json", doc)
        out = tmp_path / "strict.csv"
        assert main(["sweep", src, "-p", "tolerance", "-g", "0", "-o", str(out)]) == 4
        assert out.exists()


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


def standard_schema(schema):
    """schema with the plain _MATRIX in place of each fast-path matrix node."""
    if schema is _MATRIX_NODE:
        return _MATRIX
    if isinstance(schema, dict):
        return {k: standard_schema(v) for k, v in schema.items()}
    if isinstance(schema, list):
        return [standard_schema(v) for v in schema]
    return schema


def reference_problem(doc):
    """validate_document's answer from plain Draft202012Validator instances."""
    err = best_match(Draft202012Validator(TOP_SCHEMA).iter_errors(doc))
    if err is not None:
        return f"{err.json_path}: {err.message}"
    schema = standard_schema(PAYLOAD_SCHEMAS[doc["kind"]])
    err = best_match(Draft202012Validator(schema).iter_errors(doc["payload"]))
    if err is not None:
        return f"{err.json_path.replace('$', '$.payload', 1)}: {err.message}"
    return None


REPLACEMENTS = [None, True, 0, 1, -2.5, "x", [], [1], [1, 2], [1, 2, 3], [[1]], [[1, 2]],
                [[[1, 2]]], [["a"]], [[True]], [[1, [1, 2, 3]]], {}, {"a": 1}, [[1.0, 2.0], [3.0]]]


def node_paths(obj, prefix=()):
    yield prefix
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for k, v in items:
        yield from node_paths(v, prefix + (k,))


def mutated(doc, rng):
    """doc with one to three nodes deleted or replaced; most nodes are matrix entries."""
    doc = json.loads(json.dumps(doc))
    for _ in range(rng.randint(1, 3)):
        path = rng.choice(list(node_paths(doc))[1:])
        parent = doc
        for k in path[:-1]:
            parent = parent[k]
        if rng.random() < 0.2:
            del parent[path[-1]]
        else:
            parent[path[-1]] = json.loads(json.dumps(rng.choice(REPLACEMENTS)))
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
