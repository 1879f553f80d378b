#!/usr/bin/env python3
"""Host-performance benchmark of the smtlimits simulator.

Run from the repository root:

    python3 hostbench/run.py --workload W --seed N --seconds S --trace 0|1

It builds hostbench/ (and through it the simulator sources under src/)
into $CARGO_TARGET_DIR/hostbench, default .bench_build/hostbench; brings
the result store the replay workload reads up to date; then runs the
benchmark binary. The store lives in a state directory named after the
binary's content hash, so a rebuilt simulator never replays reports an
older one stored. The binary's last stdout line is the JSON result;
build and warm-up output goes to stderr. The exit code is the binary's:
0 only when every correctness check passed.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("issue-bound", "memory-bound", "observed", "replay")
BUILD_JOBS = "3"


def log(msg):
    print(f"hostbench/run.py: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "hostbench"


def build(bdir):
    """Configures once, then builds incrementally; returns the binary."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"simulator sources not found under {ROOT / 'src'}")
        return None
    if not (bdir / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cfg = ["cmake", "-S", str(HERE), "-B", str(bdir), *gen,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cfg, stdout=sys.stderr).returncode != 0:
            return None
    step = ["cmake", "--build", str(bdir), "-j", BUILD_JOBS]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        return None
    return bdir / "hostbench"


def state_dir(bdir, binary):
    """The binary's own state directory; removes those of older builds."""
    digest = hashlib.sha256(binary.read_bytes()).hexdigest()[:16]
    root = bdir / "state"
    if root.is_dir():
        for old in root.iterdir():
            if old.name == digest:
                continue
            if old.is_dir():
                shutil.rmtree(old, ignore_errors=True)
            else:
                old.unlink()
    return root / digest


def warm(binary, state):
    """Stores every default-manifest job not stored yet and rewrites the
    expected report bytes from the store."""
    log("warming the result store (benchmark preparation, not measured)")
    cmd = [str(binary), "--warm", "--state", str(state)]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    bdir = build_dir()
    binary = build(bdir)
    if binary is None:
        log("build failed")
        return 2
    state = state_dir(bdir, binary)
    if not warm(binary, state):
        log("store warm-up failed")
        return 2
    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--history", str(ROOT / "bench" / "history"),
           "--scaled-baselines", str(HERE / "scaled_baselines.json"),
           "--state", str(state)]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
