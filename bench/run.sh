#!/usr/bin/env bash
# The benchmark's one command. Builds bench/snetbench from source into
# .bench_build/ at the repository root (build cache included: nothing is
# read or written outside the checkout) and runs it with the given
# arguments from the repository root:
#
#   bench/run.sh                      one full set: every workload, 10 runs
#                                     untraced, then the traced run; the set
#                                     is appended to bench/out/
#   bench/run.sh -sets 2              two sets back to back, then compare
#   bench/run.sh --workload W --seed N --seconds S --trace 0|1
#                                     one run of one workload; the last line
#                                     of output is the result as JSON
#   bench/run.sh compare A.json B.json
#   bench/run.sh -smoke               every workload for 200 ms, names checked
#
# Exits non-zero, printing no result, when the build fails, when a guard
# rail trips or when any output differs from its reference.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
build=$root/.bench_build
mkdir -p "$build"
env GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
    XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off \
    go build -C bench -o "$build/snetbench" ./snetbench
exec "$build/snetbench" "$@"
