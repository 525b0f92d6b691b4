#!/bin/sh
# Build the wl binary and the benchmark from source, then run the
# benchmark with the given arguments:
#   sh benchmark/run.sh --workload churn-warm --seed 1 --seconds 15 --trace 0
# Run from the root of the repository.  Build output goes to stderr so the
# last line on stdout stays the benchmark's JSON result.
set -eu
# Keep every write inside the working directory: no shared dune cache,
# and the compilers' temporary files under .wlbench/.
export DUNE_CACHE=disabled
mkdir -p .wlbench/tmp
export TMPDIR="$PWD/.wlbench/tmp"
dune build --root . --display quiet ./bin/wl.exe ./benchmark/wlbench.exe 1>&2
exec ./_build/default/benchmark/wlbench.exe run --wl ./_build/default/bin/wl.exe "$@"
