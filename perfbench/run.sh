#!/usr/bin/env bash
# Build the benchmark harness from this checkout's sources, then run it.
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   bash perfbench/run.sh --self-test
#
# Exits non-zero without printing a result when the build fails, e.g. in
# a directory holding only the benchmark and not the libraries.
set -u
cd "$(dirname "$0")/.." || exit 1
# Keep every build product inside the checkout: no shared dune cache.
export DUNE_CACHE=disabled
dune build --root . ./perfbench/main.exe >&2 || exit 1
exec ./_build/default/perfbench/main.exe "$@"
