#!/usr/bin/env bash
# Build the benchmark from the checkout's sources, then run it:
#   bash perfbench/run.sh --workload plan-batch --seed 1 --seconds 10 --trace 0
# Run from the root of the repository.  Build output goes to .bench_build
# and to standard error, so the last line of standard output is the
# benchmark's JSON result.
set -euo pipefail
dune build --root . --build-dir .bench_build --profile release --cache disabled \
  ./perfbench/perfbench.exe 1>&2
exec ./.bench_build/default/perfbench/perfbench.exe "$@"
