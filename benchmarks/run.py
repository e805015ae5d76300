"""irrevkit benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 benchmarks/run.py --workload extract-canonical --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout that has ``src/irrevkit``. Each workload
runs in its own worker process (``worker.py``), closed loop, one client: the
next instance starts when the previous one returns. ``--trace 0`` starts one
measuring worker plus ``SETUP_SAMPLES - 1`` set-up-only workers and reports
the end-to-end metrics, with ``setup_s`` the median of the set-up times.
``--trace 1`` starts one worker that measures untraced and then traced, and
reports the per-layer metrics. The last line of standard output is the
result object; the line before it holds the environment, the sample counts,
the input hash and any failure messages. See ``README.md`` for the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3
DEADLINE_S = 170  # every worker has ended within this many seconds of the start
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class WorkerError(RuntimeError):
    pass


def run_worker(args, deadline: float, setup_only: bool) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    timeout = deadline - monotonic()
    if timeout <= 0:
        raise WorkerError("no time left for another worker")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=timeout, text=True)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the worker
        raise WorkerError(f"worker exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def git_commit() -> str | None:
    """HEAD of the checkout's own .git, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "irrevkit" / "__init__.py").is_file():
        print(f"no irrevkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = monotonic() + DEADLINE_S
    try:
        workers = [run_worker(args, deadline, setup_only=False)]
        if not args.trace:
            workers += [run_worker(args, deadline, setup_only=True) for _ in range(SETUP_SAMPLES - 1)]
    except WorkerError as exc:
        print(f"{args.workload}: {exc}", file=sys.stderr)
        return 1

    main_worker = workers[0]
    hashes = sorted({w["input_hash"] for w in workers})
    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    problems = [p for w in workers for p in w["problems"]]
    if len(hashes) > 1:
        problems.append(f"same seed gave different inputs: {hashes}")

    if args.trace:
        metrics = main_worker["per_layer"]
    else:
        u = main_worker["untraced"]
        metrics = {
            "instances_per_s": (u["instances_per_s"], "1/s"),
            "instance_p50_ms": (u["p50_ms"], "ms"),
            "instance_p90_ms": (u["p90_ms"], "ms"),
            "setup_s": (statistics.median(w["setup_s"] for w in workers), "s"),
            "peak_rss_mb": (u["peak_rss_mb"], "MB"),
        }

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "input_hash": hashes[0],
        "pool_size": main_worker["pool_size"],
        "samples": main_worker["untraced"]["instances"],
        "untraced": main_worker["untraced"],
        "failed_ratio": failed / attempted,
        "setup_samples_s": [w["setup_s"] for w in workers],
        "setup_raw_s": [w["setup_raw_s"] for w in workers],
        "warmup_ms": [w["warmup_ms"] for w in workers],
        "problems": problems,
        "env": dict(
            main_worker["env"],
            nproc=len(os.sched_getaffinity(0)),
            cpu_count=os.cpu_count(),
            blas_threads={v: os.environ.get(v) for v in BLAS_THREAD_VARS},
            git_commit=git_commit(),
            src_lines=src_lines(),
        ),
    }
    if args.trace:
        details["traced"] = main_worker["traced"]
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    result = {
        "correct": failed == 0 and len(hashes) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }
    record = out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"details": details, "result": result}, indent=1) + "\n")
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
