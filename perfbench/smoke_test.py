#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at a tiny size.

Run from the repository root:

    python3 perfbench/smoke_test.py

For every workload it checks that a timed run prints every end-to-end
metric of BENCHMARK.json with its unit, that a traced run prints every
per-layer metric with its unit, and that the correctness gate passes.
It then feeds the gate one deliberately wrong pinned digest and checks
that a failed job is reported. Exits 0 when all checks hold.
"""

import json
import os
import subprocess
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
TINY_SCALE = "0.01"


def run(workload, trace, pins, write_pins=""):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", "0.1",
           "--trace", str(trace), "--scale", TINY_SCALE, "--pins", pins]
    if write_pins:
        cmd += ["--write-pins", write_pins]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit("%s exited with %d" % (" ".join(cmd),
                                                 proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(result, expected, what):
    got = result["metrics"]
    missing = [m["name"] for m in expected if m["name"] not in got]
    wrong_unit = [m["name"] for m in expected if m["name"] in got
                  and got[m["name"]]["unit"] != m["unit"]]
    extra = sorted(set(got) - {m["name"] for m in expected})
    if missing or wrong_unit or extra:
        raise SystemExit("%s: missing %s, wrong unit %s, unexpected %s"
                         % (what, missing, wrong_unit, extra))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        pins = os.path.join(tmp, "pins.txt")
        for wl in [w["name"] for w in spec["workloads"]]:
            # First run records the tiny-size digests; the rest check them.
            timed = run(wl, 0, pins, write_pins=pins)
            check_metrics(timed, spec["end_to_end"], wl + " timed")
            traced = run(wl, 1, pins)
            check_metrics(traced, spec["per_layer"], wl + " traced")
            for name, r in (("timed", timed), ("traced", traced)):
                ok = r["correct"] and r["failed"] == 0 and r["attempted"] > 0
                print("%-12s %-6s attempted=%d failed=%d %s"
                      % (wl, name, r["attempted"], r["failed"],
                         "ok" if ok else "FAIL"))
                failures += not ok

            with open(pins) as f:
                lines = f.read().splitlines()
            # Flip one bit of exactly one of this workload's digests.
            bad = os.path.join(tmp, "bad_pins.txt")
            target = next(i for i, line in enumerate(lines)
                          if line.split()[0] == wl)
            parts = lines[target].split()
            parts[3] = "%016x" % (int(parts[3], 16) ^ 1)
            lines[target] = " ".join(parts)
            with open(bad, "w") as f:
                f.write("\n".join(lines) + "\n")
            gated = run(wl, 0, bad)
            ok = gated["failed"] >= 1 and not gated["correct"]
            print("%-12s wrong pinned digest -> failed=%d %s"
                  % (wl, gated["failed"], "ok" if ok else "FAIL"))
            failures += not ok
    print("smoke test: %s" % ("PASS" if failures == 0 else "FAIL"))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
