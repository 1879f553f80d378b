#!/usr/bin/env python3
"""Self-test of the hostbench benchmark.

Run from the repository root (takes a few minutes):

    python3 hostbench/selftest.py

It builds and warms exactly as run.py does, then proves against the real
binary that
  1. every run of every workload prints each metric BENCHMARK.json names,
     with its unit (--trace 0: end_to_end, --trace 1: per_layer), and
     error_rate, passes its own correctness gate, and reports no metric
     BENCHMARK.json lacks;
  2. the gate trips on a wrong expected cycle count: with a copy of
     bench/history whose baseline for one experiment is off by one cycle,
     a replay run and a seed-0 issue-bound run both fail, and with a copy
     of hostbench/scaled_baselines.json whose pin for one scaled job is
     off by one cycle, a seed-0 memory-bound run fails;
  3. the gate trips on a corrupted store object: a truncated meta.json
     (which ResultStore turns into a miss) and an altered report.json
     each make a replay run fail.
A failing run must exit nonzero and print correct=false with failed > 0.
Exits 0 when every check holds.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (hostbench/run.py: build and warm-up)

PROBE = "lu.serial.n64"  # the experiment whose baseline / object is broken
SCALED_PROBE = "bt.serial[lines=32]"  # the scaled job whose pin is broken
SCALED = run.HERE / "scaled_baselines.json"
failures = []


def expect(cond, what):
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        failures.append(what)


def bench(binary, workload, trace, history, state, seed=0, seconds=1,
          scaled=SCALED):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--history", str(history), "--scaled-baselines", str(scaled),
           "--state", str(state)]
    p = subprocess.run(cmd, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return p.returncode, lines, result


def check_metrics(binary, spec, history, state):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for w in spec["workloads"]:
            name = f"{w['name']} --trace {trace}"
            rc, lines, res = bench(binary, w["name"], trace, history, state)
            expect(rc == 0 and res is not None and res["correct"] and
                   res["failed"] == 0 and res["attempted"] >= 1,
                   f"{name}: exits 0 with a passing gate")
            expect(any(line.split()[:1] == ["error_rate"] and
                       "ratio" in line.split() for line in lines[:-1]),
                   f"{name}: error_rate printed with unit ratio")
            got = res["metrics"] if res else {}
            expect(set(got) == set(want),
                   f"{name}: JSON metrics are exactly BENCHMARK.json's {key}")
            for m, unit in want.items():
                v = got.get(m, {})
                printed = any(line.split()[:1] == [m] and unit in line.split()
                              for line in lines[:-1])
                expect(v.get("unit") == unit and printed and
                       isinstance(v.get("value"), (int, float)) and
                       math.isfinite(v["value"]),
                       f"{name}: {m} printed with unit {unit}")
                if trace == 0:
                    expect(v.get("value", 0) > 0, f"{name}: {m} is nonzero")


def expect_gate_trips(binary, what, workload, history, state,
                      scaled=SCALED):
    rc, _, res = bench(binary, workload, 0, history, state, scaled=scaled)
    expect(rc != 0 and res is not None and not res["correct"] and
           res["failed"] > 0, f"gate trips on {what} ({workload})")


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    bdir = run.build_dir()
    binary = run.build(bdir)
    if binary is None:
        print("FAIL build", file=sys.stderr)
        return 1
    state = run.state_dir(bdir, binary)
    if not run.warm(binary, state):
        print("FAIL warm-up", file=sys.stderr)
        return 1
    history = run.ROOT / "bench" / "history"
    scratch = bdir / "selftest"
    shutil.rmtree(scratch, ignore_errors=True)

    check_metrics(binary, spec, history, state)

    # 2. A wrong expected cycle count in a copy of bench/history.
    bad_history = scratch / "history"
    shutil.copytree(history, bad_history)
    for f in bad_history.glob("*.json"):
        doc = json.loads(f.read_text())
        if doc.get("experiment") != PROBE:
            continue
        for t in doc["trajectories"]:
            for r in t["runs"]:
                r["metrics"]["cycles"] += 1
        f.write_text(json.dumps(doc))
    expect_gate_trips(binary, "a wrong bench/history cycle count", "replay",
                      bad_history, state)
    expect_gate_trips(binary, "a wrong bench/history cycle count",
                      "issue-bound", bad_history, state)
    bad_scaled = scratch / "scaled_baselines.json"
    doc = json.loads(SCALED.read_text())
    expect(SCALED_PROBE in doc["jobs"], f"{SCALED_PROBE} is pinned")
    doc["jobs"].setdefault(SCALED_PROBE, {"cycles": 0})["cycles"] += 1
    bad_scaled.write_text(json.dumps(doc))
    expect_gate_trips(binary, "a wrong scaled-baseline cycle count",
                      "memory-bound", history, state, scaled=bad_scaled)

    # 3. Corrupted objects in a copy of the warm store.
    for corruption in ("truncated meta.json", "altered report.json"):
        bad_state = scratch / "state"
        shutil.rmtree(bad_state, ignore_errors=True)
        shutil.copytree(state, bad_state)
        hit = None
        for meta in (bad_state / "store" / "objects").glob("*/meta.json"):
            if json.loads(meta.read_text()).get("experiment") == PROBE:
                hit = meta.parent
        expect(hit is not None, f"store holds an object for {PROBE}")
        if hit is None:
            continue
        if corruption.endswith("meta.json"):
            meta = hit / "meta.json"
            meta.write_text(meta.read_text()[:20])
        else:
            report = hit / "report.json"
            report.write_text(report.read_text().replace('"cycles":',
                                                          '"cycles": ', 1))
        expect_gate_trips(binary, f"a {corruption}", "replay", history,
                          bad_state)

    shutil.rmtree(scratch, ignore_errors=True)
    print(f"{len(failures)} check(s) failed" if failures else "all checks hold")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
