#!/usr/bin/env bash
# Build the benchmark from source in this checkout, then run it.
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Build output goes to stderr; the benchmark's last stdout line is its JSON
# result.  Exits non-zero without a result if the build fails.
set -euo pipefail
dune build --root . --display quiet ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
