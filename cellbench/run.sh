#!/usr/bin/env bash
# Builds the cell benchmark from source and runs it. Run from the root of
# the repository:
#
#   bash cellbench/run.sh --workload bulk --seed 1 --seconds 10 --trace 0
#
# Build outputs (the binary and the Go build cache) stay in .bench_build
# under the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOENV=off GOWORK=off
(cd "$root/cellbench" && go build -o "$out/cellbench" .) >&2
exec "$out/cellbench" "$@"
