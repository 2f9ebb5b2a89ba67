#!/usr/bin/env bash
# Build the campaign benchmark from source, then run it with the given
# arguments (see benchsuite/README.md), e.g.
#
#   bash benchsuite/run.sh --workload lf5-envelope --seed 1 --seconds 12 --trace 0
#
# Build output goes to stderr, so the last line of stdout is the
# benchmark's JSON result. The shared dune cache stays off: the build
# reads and writes only inside this checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
dune build --root . --display quiet benchsuite/main.exe 1>&2
exec ./_build/default/benchsuite/main.exe "$@"
