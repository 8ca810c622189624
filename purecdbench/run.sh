#!/usr/bin/env bash
# Builds the purecd benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash purecdbench/run.sh --workload warm-hit --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the current directory: the Go build cache, the binary, the daemon's
# cache directories and the span dumps.
set -euo pipefail

root=$(pwd)
bench=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build/purecdbench"
mkdir -p "$out/gocache" "$out/tmp"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=-mod=readonly GOENV=off

(cd "$bench" && go build -o "$out/purecdbench" .)
exec "$out/purecdbench" --workdir "$out" "$@"
