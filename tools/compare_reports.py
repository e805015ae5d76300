#!/usr/bin/env python3
"""Compare the documents and reports of the working tree with those of a git revision.

    python3 tools/compare_reports.py REV

Each side writes the 10 fixture documents and the seed-1 and seed-2
scenario-corpus documents (benchmarks/workloads.py's gen_scenario_corpus,
16 instances a seed) and runs every document through irrevkit.cli.main,
recording its exit code. The working tree is one side; REV, unpacked from
`git archive` into a temporary directory, is the other. Each side runs in a
process of its own, on its own src/ and benchmarks/, with
PYTHONDONTWRITEBYTECODE=1, so neither tree gains a file. Every file but the
.meta.json sidecars, which hold a wall clock, is compared byte for byte.
Each difference is named; the exit status is 1 if there is any, else 0.
Uses the standard library only.
"""

from __future__ import annotations

import argparse
import io
import os
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# argv: side root, output directory. Runs on the side's own irrevkit.
BUILD = r"""
import contextlib, importlib.util, os, sys

root, out = sys.argv[1:3]
import irrevkit
import irrevkit.cli

spec = importlib.util.spec_from_file_location("workloads", os.path.join(root, "benchmarks", "workloads.py"))
workloads = importlib.util.module_from_spec(spec)
spec.loader.exec_module(workloads)

codes = []
with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
    fixtures = os.path.join(out, "fixtures")
    codes.append(("fixtures", irrevkit.cli.main(["fixtures", "--dir", fixtures])))
    for name in sorted(os.listdir(fixtures)):
        codes.append((name, irrevkit.cli.main(["run", os.path.join(fixtures, name)])))
    for seed in (1, 2):
        pool = workloads.gen_scenario_corpus(irrevkit, seed, 16, os.path.join(out, f"corpus-{seed}"), workloads.InputHash())
        for item in pool:
            for _, path, report, _ in item:
                codes.append((os.path.relpath(path, out), irrevkit.cli.main(["run", path, "-o", report])))
with open(os.path.join(out, "exit-codes.txt"), "w") as fh:
    fh.writelines(f"{name} {code}\n" for name, code in codes)
"""


def _files(top: str) -> dict:
    """Relative path -> bytes of every file under top but the .meta.json sidecars."""
    found = {}
    for folder, _, names in os.walk(top):
        for name in names:
            if not name.endswith(".meta.json"):
                path = os.path.join(folder, name)
                with open(path, "rb") as fh:
                    found[os.path.relpath(path, top)] = fh.read()
    return found


def _start(root: str, out: str) -> subprocess.Popen:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=os.path.join(root, "src"))
    return subprocess.Popen([sys.executable, "-c", BUILD, root, out], cwd=root, env=env, stderr=subprocess.PIPE)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="git revision to compare the working tree against")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="compare-reports-") as tmp:
        archive = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", args.rev], capture_output=True)
        if archive.returncode:
            sys.stderr.write(archive.stderr.decode())
            return 2
        rev_root = os.path.join(tmp, "rev")
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(rev_root, filter="data")
        sides = {"working tree": ROOT, args.rev: rev_root}
        outs = {name: os.path.join(tmp, f"out-{i}") for i, name in enumerate(sides)}
        procs = {name: _start(root, outs[name]) for name, root in sides.items()}
        for name, proc in procs.items():
            err = proc.communicate()[1]
            if proc.returncode:
                sys.stderr.write(f"building the {name} side failed:\n{err.decode()}")
                return 2
        ours, theirs = (_files(outs[name]) for name in sides)
    differences = [f"only in the working tree: {p}" for p in sorted(ours.keys() - theirs.keys())]
    differences += [f"only in {args.rev}: {p}" for p in sorted(theirs.keys() - ours.keys())]
    differences += [f"differs: {p}" for p in sorted(ours.keys() & theirs.keys()) if ours[p] != theirs[p]]
    print("\n".join(differences) or f"no difference in {len(ours)} files")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
