#!/usr/bin/env bash
# Builds the benchmark (and with it the program under test) from source
# into .bench_build/ of the current checkout and runs it. Everything the
# build and the run write stays inside the checkout: the Go build cache and
# temp dir are redirected there too.
#
#   bash benchmark/run.sh --workload scale_table --seed 1 --seconds 20 --trace 0
#   bash benchmark/run.sh -compare a.jsonl b.jsonl
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/benchmark/go.mod" ] || [ ! -f "$root/go.mod" ]; then
	echo "benchmark/run.sh: run from the root of a checkout of the repository (need go.mod and benchmark/go.mod)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS= GOWORK=off GOTOOLCHAIN=local
go build -C "$root/benchmark" -o "$build/vodbench-bench" .
exec "$build/vodbench-bench" "$@"
