#!/usr/bin/env python3
"""Benchmark gate: benchsuite against a base commit, and worker scaling.

    python3 tools/bench_gate.py [--base REV] [--head DIR]

Benchsuite gate. For every workload in BENCHMARK.json, runs
`bash benchsuite/run.sh --workload W --seed 1 --seconds 2 --trace 0`
from a `git worktree` of REV and from DIR (default: this checkout), as
3 alternating pairs. Every DIR result must be "correct": true, and for
every end-to-end metric the DIR median may be worse than the REV median
by at most the metric's `bound` (a share, in its `better` direction).
With no REV (an empty one or the all-zero sha of a new branch) only
correctness is checked.

Worker-scaling check. Best of 3 runs of DIR's `mcdft optimize leapfrog5
--points-per-decade 10` at -j 1 and at -j 2; -j 2 fails when it is
slower than max(1.05x, +0.05 s) of -j 1. With fewer than 2 CPUs it
prints UNARMED and checks nothing.

Exits 1 when any check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRS = 3


def bench(checkout, workload):
    out = subprocess.run(
        ["bash", "benchsuite/run.sh", "--workload", workload, "--seed", "1",
         "--seconds", "2", "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def benchsuite_gate(base, head, spec):
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        checkouts = {"head": head} if base is None else {"base": base, "head": head}
        runs = {side: [] for side in checkouts}
        for i in range(PAIRS):
            for side in (list(checkouts) if i % 2 == 0 else list(checkouts)[::-1]):
                runs[side].append(bench(checkouts[side], workload))
        for result in runs["head"]:
            if result["correct"] is not True:
                print(f"{workload}: head result not correct: {json.dumps(result)}")
                ok = False
        if base is None:
            print(f"{workload}: correct (no base, bounds not checked)")
            continue
        for m in spec["end_to_end"]:
            b, h = (statistics.median(r["metrics"][m["name"]]["value"] for r in runs[s])
                    for s in ("base", "head"))
            worse = (h - b if m["better"] == "lower" else b - h) / b
            verdict = "ok" if worse <= m["bound"] else "FAIL"
            ok = ok and verdict == "ok"
            print(f"{workload:22} {m['name']:14} base {b:12.4f}  head {h:12.4f}  "
                  f"worse {100 * worse:+6.1f} % (bound {100 * m['bound']:.0f} %) {verdict}")
    return ok


def scaling_check(head):
    if len(os.sched_getaffinity(0)) < 2:
        print("worker scaling: UNARMED (fewer than 2 CPUs)")
        return True
    subprocess.run(["dune", "build", "--root", head, "--display", "quiet",
                    "bin/mcdft.exe"], cwd=head, check=True)
    exe = os.path.join(head, "_build/default/bin/mcdft.exe")
    best = {1: float("inf"), 2: float("inf")}
    for _ in range(3):
        for jobs in best:
            t0 = time.perf_counter()
            subprocess.run([exe, "optimize", "leapfrog5", "--points-per-decade", "10",
                            "-j", str(jobs)], stdout=subprocess.DEVNULL, check=True)
            best[jobs] = min(best[jobs], time.perf_counter() - t0)
    allowed = max(best[1] * 1.05, best[1] + 0.05)
    ok = best[2] <= allowed
    print(f"worker scaling: -j 1 {best[1]:.3f} s, -j 2 {best[2]:.3f} s "
          f"(allowed {allowed:.3f} s) {'ok' if ok else 'FAIL'}")
    return ok


def main():
    sys.stdout.reconfigure(line_buffering=True)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="", help="git revision to compare against")
    parser.add_argument("--head", default=REPO, help="checkout to measure")
    args = parser.parse_args()
    head = os.path.abspath(args.head)
    with open(os.path.join(head, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.base.strip("0") == "":
        print("benchsuite gate: no base commit, correctness only")
        ok = benchsuite_gate(None, head, spec)
    else:
        with tempfile.TemporaryDirectory(prefix="bench-gate-") as tmp:
            base = os.path.join(tmp, "base")
            subprocess.run(["git", "-C", REPO, "worktree", "add", "--detach", base,
                            args.base], check=True)
            try:
                ok = benchsuite_gate(base, head, spec)
            finally:
                subprocess.run(["git", "-C", REPO, "worktree", "remove", "--force",
                                base], check=True)
    ok = scaling_check(head) and ok
    print("bench gate:", "ok" if ok else "FAILED")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
