#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# from the repository root:
#
#   bash perfbench/run.sh --workload paper_direct --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh compare OLD.jsonl NEW.jsonl
#
# Everything the build and the runs write stays under the repository root:
# the binary and the Go build cache in .bench_build, run records and spans
# in .bench_out.
set -euo pipefail

root="$(pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/home" "$build/tmp"
export HOME="$build/home"
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export GOTOOLCHAIN=local
export GOFLAGS=-buildvcs=false
export GOTELEMETRY=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
