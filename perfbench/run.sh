#!/usr/bin/env bash
# Build the benchmark and the migsyn CLI from source, then run the
# benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload table2_map --seed 1 --seconds 5 --trace 0
#
# Build output goes to stderr; the last stdout line is the JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
dune build --root . ./perfbench/perfbench.exe ./bin/migsyn.exe 1>&2
exec ./_build/default/perfbench/perfbench.exe "$@"
