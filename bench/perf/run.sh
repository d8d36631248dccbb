#!/usr/bin/env bash
# Build the benchmark from source and run one workload:
#
#   bash bench/perf/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Any dmll_bench arguments work (see README.md).  Builds into ./_build of
# the repository root; fails without printing a result when the build
# fails (for example outside a full checkout).
set -euo pipefail
cd "$(dirname "$0")/../.."
export DUNE_CACHE=disabled
dune build --root . --display quiet ./bench/perf/dmll_bench.exe >&2
exec ./_build/default/bench/perf/dmll_bench.exe "$@"
