#!/usr/bin/env bash
# Build the benchmark from source, then run it with the given arguments:
#   bash perfbench/run.sh --workload W --seed N --seconds S --trace 0|1
# Run from the repository root.  Build output goes to stderr; the
# benchmark's last line of stdout is its JSON result.
set -euo pipefail
# keep the build inside the checkout: no shared dune cache
export DUNE_CACHE=disabled
dune build --root . --display quiet perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
