#!/usr/bin/env python3
"""Cover-output guard: `mcdft optimize` against a base commit.

    python3 tools/optimize_diff.py --base REV [--head DIR]

Builds bin/mcdft.exe in a `git worktree` of REV and in DIR (default:
this checkout), then runs `mcdft optimize` on both for every registry
circuit (as `mcdft list` in DIR names them) x criterion
{envelope:0.04:0.02, fixed:0.1, phase:0.1} x faults {deviation,
catastrophic} at --points-per-decade 10, plain and with --json. The
registry circuits are small; so that a large sparse system is compared
too, DIR's test/fixtures/bigladder200.cir (a 200-stage RC double
ladder) runs under fixed:0.1 and the default criterion, with deviation
faults. Each run's exit code, stdout and stderr must be
byte-identical on both sides; a unified diff of every run that
differs is printed.

Exits 1 when any run differs.
"""

import argparse
import difflib
import os
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CRITERIA = ["envelope:0.04:0.02", "fixed:0.1", "phase:0.1"]
FAULTS = ["deviation", "catastrophic"]
LADDER = "test/fixtures/bigladder200.cir"
LADDER_CRITERIA = [["--criterion", "fixed:0.1"], []]


def build(checkout):
    subprocess.run(["dune", "build", "--root", checkout, "--display", "quiet",
                    "bin/mcdft.exe"], cwd=checkout, check=True)
    return os.path.join(checkout, "_build/default/bin/mcdft.exe")


def circuits(exe):
    out = subprocess.run([exe, "list"], stdout=subprocess.PIPE, text=True,
                         check=True).stdout
    # a header line and a rule of dashes, then one circuit per line
    return [line.split()[0] for line in out.splitlines()[2:] if line.strip()]


def run(exe, args):
    p = subprocess.run([exe, "optimize", *args], stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True)
    return f"exit {p.returncode}\n--- stdout\n{p.stdout}--- stderr\n{p.stderr}"


def compare(base_exe, head_exe, head):
    names = circuits(head_exe)
    cases = [[name, "--criterion", criterion, "--faults", faults]
             for name in names for criterion in CRITERIA for faults in FAULTS]
    ladder = os.path.join(head, LADDER)
    cases += [[ladder, "--source", "V1", "--output", "e100", *criterion]
              for criterion in LADDER_CRITERIA]
    differing = 0
    for case in cases:
        args = case + ["--points-per-decade", "10"]
        for extra in ([], ["--json"]):
            label = " ".join(["optimize", *args, *extra])
            b, h = run(base_exe, args + extra), run(head_exe, args + extra)
            if b != h:
                differing += 1
                sys.stdout.writelines(difflib.unified_diff(
                    b.splitlines(keepends=True), h.splitlines(keepends=True),
                    f"base: {label}", f"head: {label}"))
    print(f"optimize diff: {len(cases)} cases ({len(names)} registry circuits and "
          f"the 200-stage ladder), plain and --json: {differing} outputs differ")
    return differing == 0


def main():
    sys.stdout.reconfigure(line_buffering=True)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--head", default=REPO, help="checkout to compare")
    args = parser.parse_args()
    head = os.path.abspath(args.head)
    head_exe = build(head)
    with tempfile.TemporaryDirectory(prefix="optimize-diff-") as tmp:
        base = os.path.join(tmp, "base")
        subprocess.run(["git", "-C", REPO, "worktree", "add", "--detach", base,
                        args.base], check=True)
        try:
            ok = compare(build(base), head_exe, head)
        finally:
            subprocess.run(["git", "-C", REPO, "worktree", "remove", "--force", base],
                           check=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
