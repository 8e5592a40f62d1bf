#!/usr/bin/env bash
# Builds bench/memload from the checkout's sources and runs it with the
# given arguments, from the root of the checkout:
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Every Go artifact (build cache, module cache, binary) stays under
# .bench_build in the checkout, and nothing is fetched: the module has no
# dependencies beyond the repository it sits in. A failed build exits
# non-zero before the benchmark prints anything.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/config" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off

(cd "$root/bench" && go build -o "$build/memload" ./memload) >&2
exec "$build/memload" "$@"
