#!/usr/bin/env python3
"""Builds and runs the FUSE performance benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload sim-grid --seed 1 --seconds 30 --trace 0

Builds the `perfbench` package (release, offline) into `$CARGO_TARGET_DIR`
(default `.bench_build`), prints a host fingerprint line, then runs the
benchmark binary, whose last output line is the JSON result. See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["sim-grid", "sim-cell", "serve-mixed"]
# The simulator sources the benchmark builds from.
SOURCES = ["Cargo.toml", "Cargo.lock", "src", "crates", "perfbench"]
SKIP_DIRS = {"target", ".bench_build", ".git", "__pycache__"}


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_digest():
    """SHA-256 over the simulator and benchmark sources, so a result from
    a checkout without git history still names the code it measured."""
    h = hashlib.sha256()
    for top in SOURCES:
        path = os.path.join(ROOT, top)
        if os.path.isfile(path):
            files = [path]
        else:
            files = []
            for d, dirs, names in os.walk(path):
                dirs[:] = sorted(x for x in dirs if x not in SKIP_DIRS)
                files += [os.path.join(d, n) for n in sorted(names)]
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def command_output(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=30, cwd=ROOT)
        return out.stdout.strip() if out.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=["0", "1"])
    args = p.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 600:
        fail("--seed must be >= 0 and --seconds in (0, 600]")

    for needed in ["Cargo.toml", "src/lib.rs", "crates"]:
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} is missing: run from a full checkout of the repository")

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    build = ["cargo", "build", "--release", "--offline", "--manifest-path", manifest]
    try:
        built = subprocess.run(build, cwd=ROOT, env=env, stdout=sys.stderr, timeout=870)
    except subprocess.TimeoutExpired:
        fail("build timed out", 3)
    if built.returncode != 0:
        fail(f"build failed with code {built.returncode}", 3)

    host = {
        "workload": args.workload,
        "seed": args.seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "rustc": command_output(["rustc", "-V"]) or "unknown",
        "git_revision": os.path.isdir(os.path.join(ROOT, ".git"))
        and command_output(["git", "rev-parse", "HEAD"])
        or "none",
        "source_sha256": source_digest(),
        "profile": "release (perfbench/Cargo.toml)",
    }
    print("# host " + json.dumps(host, sort_keys=True), flush=True)

    binary = os.path.join(target, "release", "perfbench")
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--out-dir", os.path.join(target, "perfbench"),
    ]
    start = time.monotonic()
    try:
        ran = subprocess.run(cmd, cwd=ROOT, timeout=2 * args.seconds + 90)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {2 * args.seconds + 90:.0f} s", 4)
    print(f"# wall_s {time.monotonic() - start:.1f}", file=sys.stderr)
    sys.exit(ran.returncode)


if __name__ == "__main__":
    main()
