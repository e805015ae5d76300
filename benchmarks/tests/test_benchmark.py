"""Checks of the benchmark itself: span arithmetic, workloads, determinism.

Run with `python3 -m pytest benchmarks/tests -q` from the repository root.
"""

import json

import irrevkit as ik
import irrevkit.cli  # noqa: F401  (scenario-corpus calls ik.cli.main)
import numpy as np
import pytest
from conftest import BENCH

from tracer import Tracer, layer_of, summarize
from worker import Loop, _traced_phase, calibration_kernel
from workloads import WORKLOADS, InputHash

# (name, start, end, parent): cli.main covers decode, a compute that runs an
# extraction, and a second qcore entry; qcore.apply nests qcore.embed.
SPANS = [
    ("cli.main", 0.0, 100.0, -1),                   # 0
    ("serialize.decode_state", 5.0, 15.0, 0),       # 1
    ("qcore.DensityMatrix", 8.0, 12.0, 1),          # 2
    ("cli.compute", 20.0, 90.0, 0),                 # 3
    ("comb.extract_epsilon", 25.0, 85.0, 3),        # 4
    ("qcore.apply", 30.0, 50.0, 4),                 # 5
    ("qcore.embed", 32.0, 40.0, 5),                 # 6
    ("irrev.delta_with_recovery", 55.0, 80.0, 4),   # 7
    ("qcore.apply", 60.0, 70.0, 7),                 # 8
    ("serialize.decode_channel", 92.0, 95.0, 0),    # 9
    ("serialize.decode_state", 93.0, 94.0, 9),      # 10
]


def _covered_by_other_layers(spans, layer):
    """Busy time of `layer` minus the time its spans' children in other layers cover."""
    busy = covered = 0.0
    for i, (name, start, end, parent) in enumerate(spans):
        if layer_of(name) != layer:
            continue
        if parent < 0 or layer_of(spans[parent][0]) != layer:
            busy += end - start
        covered += sum(e - s for n, s, e, p in spans if p == i and layer_of(n) != layer)
    return busy - covered


def test_self_time_is_busy_minus_child_coverage():
    summary = summarize(SPANS, groups=("serialize.decode",))
    for layer in ("cli", "serialize", "qcore", "comb", "irrev"):
        assert summary["self_ms"][layer] == pytest.approx(_covered_by_other_layers(SPANS, layer))
    assert summary["ms"]["cli"] == 100.0
    assert summary["self_ms"]["cli"] == 100.0 - 10.0 - 70.0 - 3.0 + 70.0 - 60.0
    assert summary["ms"]["qcore"] == 4.0 + 20.0 + 10.0  # the nested embed is inside apply
    assert summary["self_ms"]["qcore"] == 34.0
    assert summary["calls"]["qcore"] == 4
    assert summary["self_ms"]["qcore.apply"] == 12.0 + 10.0
    assert summary["ms"]["serialize.decode"] == 10.0 + 3.0  # group, nested decode_state once
    assert summary["ms"]["serialize.decode_state"] == 10.0 + 1.0


def _pool(name, seed, tmp_path, size=1):
    generate, run_instance, _ = WORKLOADS[name]
    digest = InputHash()
    pool = generate(ik, seed, size, str(tmp_path / f"{name}-{seed}"), digest)
    return pool, run_instance, digest.hexdigest()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_instance_passes_its_checks(name, tmp_path):
    pool, run_instance, _ = _pool(name, 7, tmp_path)
    assert run_instance(ik, pool[0], lambda: None) == []


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs(name, tmp_path):
    first = _pool(name, 3, tmp_path)[2]
    assert _pool(name, 3, tmp_path)[2] == first
    assert _pool(name, 4, tmp_path)[2] != first


def test_tracer_records_nested_spans_and_restores_originals(tmp_path):
    pool, run_instance, _ = _pool("extract-canonical", 5, tmp_path)
    original = ik.qcore.embed
    tracer = Tracer()
    tracer.install()
    try:
        assert run_instance(ik, pool[0], lambda: None) == []
    finally:
        tracer.uninstall()
    assert ik.qcore.embed is original
    names = [s[0] for s in tracer.spans]
    parents = {(tracer.spans[p][0], n) for n, _, _, p in tracer.spans if p >= 0}
    assert ("qcore.apply", "qcore.embed") in parents
    assert ("comb.extract_epsilon", "qcore.embed") in parents
    assert "qcore.KrausChannel" in names and tracer.counts["numpy.eigh.calls"] > 0
    assert all(s[1] <= s[2] for s in tracer.spans)


def test_traced_metrics_are_the_declared_per_layer_metrics(tmp_path):
    pool, run_instance, _ = _pool("recover-mixed", 2, tmp_path)
    loop = Loop(ik, run_instance, calibration_kernel(np))
    traced = _traced_phase(loop, pool, 0.0, tmp_path / "spans.jsonl")
    assert traced["passes"] == 1 and loop.failed == 0
    # worker.main adds these two around the traced phase
    names = set(traced["metrics"]) | {"trace.overhead_ratio", "warmup.instance_ms"}
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]
    assert names == {m["name"] for m in declared}
    assert traced["metrics"]["irrev.delta_min.d6.ms"][0] > 0
    assert traced["metrics"]["serialize.canonical_json.ms"][0] == 0
