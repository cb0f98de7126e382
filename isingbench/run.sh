#!/usr/bin/env bash
# Builds isingd and the benchmark from source in this checkout, then runs the
# benchmark with the given arguments, e.g. from the repository root:
#
#   bash isingbench/run.sh --workload chain-2048 --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# repository root, the Go build cache included.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build/isingbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOWORK=off GOENV=off GOFLAGS=
(cd "$root" && go build -o "$out/isingd" ./cmd/isingd)
(cd "$here" && go build -o "$out/isingbench" .)
exec "$out/isingbench" -isingd "$out/isingd" -workdir "$out" "$@"
