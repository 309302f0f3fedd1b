#!/usr/bin/env bash
# The traced benchmark smoke run: every workload for one second with the
# tracer on.  A public name that the tracer or library_dense_1h still uses and
# the package no longer has, or a workload whose output is wrong, fails it.
# Run from the root of the repository:
#
#   bash scripts/bench_smoke.sh
#
# The log is kept in bench-smoke.log; an error or a wrong output ends the
# script with a non-zero status.
set -euo pipefail

python3 benchmarks/run.py --workload all --seconds 1 --trace 1 | tee bench-smoke.log
if grep -q "output WRONG" bench-smoke.log; then
    echo "bench_smoke: a workload's output is wrong" >&2
    exit 1
fi
