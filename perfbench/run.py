#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/BENCH.md).

Run from the repository root:

    python3 perfbench/run.py --workload lockstep-ess --seed 42 --seconds 20 --trace 0

Builds perfbench/main.exe with dune, runs the one workload for the given
time, and passes its output through. The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics:
the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1. The exit code is 0 only when every operation was correct;
a missing source tree or a failed build exits 2 without a result.
"""

import argparse
import glob
import hashlib
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("lockstep-ess", "rsm-knee", "mc-es-n4")
EXE = os.path.join("_build", "default", "perfbench", "main.exe")
SPANS_DIR = os.path.join("perfbench", "_out")
RUN_TIMEOUT_S = 170


def revision():
    """The git commit when run in a git checkout, else a digest of the sources."""
    if os.path.isdir(".git"):
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    digest = hashlib.sha256()
    for top in ("dune-project", "lib", "perfbench"):
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f)
            for d, dirs, files in os.walk(top)
            if not os.path.relpath(d, top).startswith("_")
            for f in files
        )
        for path in paths:
            if path.endswith((".ml", ".mli", "dune", "dune-project")):
                digest.update(path.encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def build_env():
    """The environment for dune: shared cache off, and the opam switch's
    tools on PATH when the caller's PATH lacks them."""
    env = dict(os.environ, DUNE_CACHE="disabled")
    if shutil.which("dune") is None:
        found = sorted(glob.glob(os.path.expanduser("~/.opam/*/bin/dune")))
        if found:
            env["PATH"] = os.path.dirname(found[-1]) + os.pathsep + env.get("PATH", "")
    return env


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("run.py: run from the repository root (dune-project and lib/ not found)",
              file=sys.stderr)
        return 2
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--cache=disabled", "./perfbench/main.exe"],
            capture_output=True, text=True, env=build_env())
    except FileNotFoundError:
        print("run.py: dune not found", file=sys.stderr)
        return 2
    if build.returncode != 0:
        sys.stderr.write(build.stdout + build.stderr)
        print("run.py: build failed", file=sys.stderr)
        return 2

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--revision", revision()]
    if args.trace == 1:
        os.makedirs(SPANS_DIR, exist_ok=True)
        cmd += ["--spans", os.path.join(
            SPANS_DIR, f"{args.workload}-seed{args.seed}.spans.jsonl")]
    try:
        run = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        sys.stderr.write((e.stderr or b"").decode(errors="replace")
                         if isinstance(e.stderr, bytes) else (e.stderr or ""))
        print(f"run.py: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    sys.stderr.write(run.stderr)
    lines = run.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        sys.stdout.write(run.stdout)
        print(f"run.py: no result line (exit {run.returncode})", file=sys.stderr)
        return run.returncode or 3
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
