"""One workload process: set up, then optionally measure, and print one JSON line.

Started by ``run.py``. Set-up is timed from before the library import to the
end of one untimed warm-up instance, and so includes input generation. With
``--setup-only`` the process stops there. Otherwise it runs instances in a
closed loop, one after another, for ``--seconds`` and for at least
``MIN_INSTANCES``, so that the 90th percentile has ten samples beyond it.
With ``--trace 1`` the loop runs untraced for half the time and then traced,
in whole passes over the first ``TRACE_INSTANCES`` of the input pool, for
the other half.

Speed normalization: the reference CPU moves between faster and slower states
(about 1.5x apart) every few seconds, so raw latencies are multimodal and a
run's median follows the share of time it spent slow. A fixed calibration
kernel, small ``eigh``/``matmul`` calls and dict churn like the library's
own work, is timed before and after every instance, and between the parts
of the longer instances (the two extractions of ``recover-pure``, the three
channels of ``recover-mixed``, the ten documents of ``scenario-corpus``), so
that fewer segments straddle a change of state. Each segment's latency is scaled by
``CALIBRATION_REF_S / mean(calibration before, calibration after)``;
calibration time is not instance time. The reported times are thus
milliseconds at the speed where the kernel takes ``CALIBRATION_REF_S``; on
the reference machine (2-core x86-64 virtual machine, Python 3.11.7, numpy 2.4.6,
OpenBLAS 0.3.31) it takes about 1.3 ms in the faster state and 2.0-2.5 ms
in the slower one. On that machine the kernel's
slowdown matches the workloads' within 2-6%, against about 50% unscaled. Set-up time is scaled the same
way by the calibrations just before and just after it; numpy is imported
before set-up starts, so that the kernel can run. Raw wall-clock figures are
reported alongside in the details.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

MIN_INSTANCES = 100
CALIBRATION_REF_S = 1.5e-3
TRACE_INSTANCES = 18  # traced passes repeat this prefix of the pool, so counts repeat exactly
EXTRA_SECONDS = 40  # hard stop past --seconds when MIN_INSTANCES is not reached
MAX_PROBLEMS = 5  # failure messages kept per process
ROOT = Path(__file__).resolve().parent.parent

# per-layer function metrics: (metric, summary table, key)
FUNCTION_METRICS = [
    *((f"qcore.{f}.self_ms", "self_ms", f"qcore.{f}")
      for f in ("embed", "embed_matrix", "compose", "minimal_kraus", "apply", "purified_distance")),
    ("comb.extract_epsilon.ms", "ms", "comb.extract_epsilon"),
    ("comb.extract_eta.ms", "ms", "comb.extract_eta"),
    ("comb.extract_two_copy.ms", "ms", "comb.extract_two_copy"),
    ("comb.canonical_recovery.self_ms", "self_ms", "comb.canonical_recovery"),
    ("comb.build_loss.self_ms", "self_ms", "comb.build_loss"),
    ("irrev.delta_min.self_ms", "self_ms", "irrev.delta_min"),
    ("irrev.delta_with_recovery.self_ms", "self_ms", "irrev.delta_with_recovery"),
    ("irrev.petz_recovery.self_ms", "self_ms", "irrev.petz_recovery"),
    ("way.way_bound_error.ms", "ms", "way.way_bound_error"),
    ("way.way_bound_disturbance.ms", "ms", "way.way_bound_disturbance"),
    ("otoc.otoc_iep.ms", "ms", "otoc.otoc_iep"),
    ("otoc.otoc_iep_cp.ms", "ms", "otoc.otoc_iep_cp"),
    ("otoc.way_bound_otoc.ms", "ms", "otoc.way_bound_otoc"),
    ("serialize.canonical_json.ms", "ms", "serialize.canonical_json"),
    ("serialize.decode.ms", "ms", "serialize.decode"),
    ("cli.validate_document.ms", "ms", "cli.validate_document"),
]
GROUPS = ("comb.build_loss", "serialize.decode")
DELTA_MIN_DIMS = (2, 4, 6)


def calibration_kernel(np):
    """A timer for fixed interpreter and small-matrix work (see the module docstring)."""
    eigh = np.linalg.eigh  # bound now, so a traced eigh does not count these calls
    m = np.arange(16, dtype=complex).reshape(4, 4)
    m = m + m.conj().T
    eye = np.eye(4)

    def calibrate() -> float:
        start = perf_counter()
        acc = 0.0
        for i in range(60):
            vals, vecs = eigh(m + i * eye)
            acc += float((vecs @ np.diag(vals) @ vecs.conj().T)[0, 0].real)
            acc += sum({str(j): j for j in range(20)}.values())
        return perf_counter() - start

    return calibrate


class Loop:
    """Runs instances one after another, keeping latencies, calibrations and failures."""

    def __init__(self, ik, run_instance, calibrate):
        self.ik = ik
        self.run_instance = run_instance
        self.calibrate = calibrate
        self.samples = []  # (raw, normalized) latency per measured instance, seconds
        self.calibrations = []
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self._last = None
        self._mark = 0.0
        self._segments = []

    def instance(self, item, checkpoint=lambda: None) -> float:
        """Run and check one instance; return its wall time in seconds."""
        self.attempted += 1
        start = perf_counter()
        try:
            problems = self.run_instance(self.ik, item, checkpoint)
        except Exception as exc:  # an instance that raises is a failed instance
            problems = [f"{type(exc).__name__}: {exc}"]
        latency = perf_counter() - start
        if problems:
            self.failed += 1
            self.problems.extend(problems[: max(0, MAX_PROBLEMS - len(self.problems))])
        return latency

    def measured(self, item) -> None:
        """One instance, each of its segments bracketed by calibrations."""
        if self._last is None:
            self._last = self._calibrate()
        self._segments = []
        self._mark = perf_counter()
        self.instance(item, self._checkpoint)
        self._checkpoint()
        self.samples.append((
            sum(latency for latency, _ in self._segments),
            sum(latency * CALIBRATION_REF_S / cal for latency, cal in self._segments),
        ))

    def _checkpoint(self) -> None:
        """Close the running segment and calibrate; calibration is not instance time."""
        latency = perf_counter() - self._mark
        after = self._calibrate()
        self._segments.append((latency, (self._last + after) / 2))
        self._last = after
        self._mark = perf_counter()

    def _calibrate(self) -> float:
        c = self.calibrate()
        self.calibrations.append(c)
        return c

    def timed(self, pool, seconds: float, min_instances: int = 0) -> int:
        """Closed loop over the pool for `seconds`; returns the instance count."""
        start = perf_counter()
        count = 0
        while True:
            self.measured(pool[count % len(pool)])
            count += 1
            elapsed = perf_counter() - start
            if (elapsed >= seconds and count >= min_instances) or elapsed >= seconds + EXTRA_SECONDS:
                return count


def _blas_info(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        return {"name": "unknown", "version": "unknown"}


def _traced_phase(loop: Loop, pool, seconds: float, spans_path: Path) -> dict:
    """Whole traced passes over the pool; per-layer values are per instance.

    Times are scaled like the latencies, by the pass's normalized-to-raw
    latency ratio, so that they compare across runs as well.
    """
    from tracer import LAYERS, Tracer, summarize

    tracer = Tracer()
    totals = {"ms": {}, "self_ms": {}, "calls": {}}
    eigh_calls = 0
    dim_ms = {d: 0.0 for d in DELTA_MIN_DIMS}
    accepted = calls = wins = 0
    passes = 0
    start = perf_counter()
    tracer.install()
    try:
        while passes == 0 or perf_counter() - start < seconds:
            tracer.reset()
            first = len(loop.samples)
            for item in pool:
                loop.measured(item)
            raw, norm = (sum(col) for col in zip(*loop.samples[first:]))
            for table, values in summarize(tracer.spans, GROUPS).items():
                scale = 1 if table == "calls" else norm / raw
                for key, v in values.items():
                    totals[table][key] = totals[table].get(key, 0) + v * scale
            eigh_calls += tracer.counts["numpy.eigh.calls"]
            for index, dim, steps in tracer.delta_min_calls:
                _, s, e, _ = tracer.spans[index]
                if dim in dim_ms:
                    dim_ms[dim] += (e - s) * norm / raw
                accepted += steps
                calls += 1
                wins += steps > 0
            if passes == 0:
                _write_spans(spans_path, tracer.spans)
            passes += 1
    finally:
        tracer.uninstall()

    n = passes * len(pool)
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = (totals["calls"].get(layer, 0) / n, "count")
        out[f"{layer}.busy_ms"] = (1e3 * totals["ms"].get(layer, 0.0) / n, "ms")
        out[f"{layer}.self_ms"] = (1e3 * totals["self_ms"].get(layer, 0.0) / n, "ms")
    for cls in ("KrausChannel", "DensityMatrix", "Observable"):
        out[f"qcore.{cls}.constructed"] = (totals["calls"].get(f"qcore.{cls}", 0) / n, "count")
    out["numpy.eigh.calls"] = (eigh_calls / n, "count")
    for metric, table, key in FUNCTION_METRICS:
        out[metric] = (1e3 * totals[table].get(key, 0.0) / n, "ms")
    for d in DELTA_MIN_DIMS:
        out[f"irrev.delta_min.d{d}.ms"] = (1e3 * dim_ms[d] / n, "ms")
    out["irrev.delta_min.accepted_steps"] = (accepted / n, "count")
    out["irrev.delta_min.ascent_win_ratio"] = (wins / calls if calls else 0.0, "ratio")
    return {"metrics": out, "instances": n, "passes": passes}


def _write_spans(path: Path, spans) -> None:
    """Spans of the first traced pass, one JSON array per line, times relative to the first."""
    t0 = spans[0][1] if spans else 0.0
    with open(path, "w") as fh:
        for name, start, end, parent in spans:
            fh.write(json.dumps([name, start - t0, end - t0, parent]) + "\n")


def _latency_summary(latencies) -> dict:
    return {
        "instances_per_s": len(latencies) / sum(latencies),
        "p50_ms": 1e3 * statistics.median(latencies),
        "p90_ms": 1e3 * statistics.quantiles(latencies, n=10)[8],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    # numpy comes first so the kernel can time the machine state before set-up
    import numpy as np

    calibrate = calibration_kernel(np)
    calibrate()  # the first call pays numpy's own lazy initialization
    setup_cal = calibrate()
    clock = perf_counter()
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import irrevkit
    import irrevkit.cli  # noqa: F401  (set-up includes the CLI import)

    if Path(irrevkit.__file__).resolve().parent != src / "irrevkit":
        print(f"irrevkit imported from {irrevkit.__file__}, not from {src}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, InputHash

    generate, run_instance, pool_size = WORKLOADS[args.workload]
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    work_dir = out_dir / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    digest = InputHash()
    try:
        pool = generate(irrevkit, args.seed, pool_size, str(work_dir), digest)
        loop = Loop(irrevkit, run_instance, calibrate)
        warmup_s = loop.instance(pool[0])
        setup_s = perf_counter() - clock
        setup_cal = (setup_cal + calibrate()) / 2
        result = {
            "setup_s": setup_s * CALIBRATION_REF_S / setup_cal,
            "setup_raw_s": setup_s,
            "warmup_ms": 1e3 * warmup_s,
            "input_hash": digest.hexdigest(),
            "pool_size": len(pool),
            "env": {
                "python": sys.version.split()[0],
                "numpy": np.__version__,
                "blas": _blas_info(np),
            },
        }
        if args.trace and not args.setup_only:
            half = args.seconds / 2
            count = loop.timed(pool, half)
            traced = _traced_phase(
                loop, pool[:TRACE_INSTANCES], half, out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
            )
            norm = [n for _, n in loop.samples]
            metrics = traced.pop("metrics")
            ratio = statistics.fmean(norm[:count]) / statistics.fmean(norm[count:])
            metrics["trace.overhead_ratio"] = (ratio, "ratio")
            metrics["warmup.instance_ms"] = (1e3 * warmup_s, "ms")
            result["per_layer"] = metrics
            result["traced"] = traced
            result["untraced"] = {"instances": count}
        elif not args.setup_only:
            loop.timed(pool, args.seconds, MIN_INSTANCES)
            result["untraced"] = dict(
                _latency_summary([n for _, n in loop.samples]),
                instances=len(loop.samples),
                raw=_latency_summary([raw for raw, _ in loop.samples]),
                calibration_ms={
                    "min": 1e3 * min(loop.calibrations),
                    "median": 1e3 * statistics.median(loop.calibrations),
                },
                peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            )
        result["attempted"] = loop.attempted
        result["failed"] = loop.failed
        result["problems"] = loop.problems
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
