#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binary and the temp dirs of the journal
# and plan-cache workloads (so their fsyncs hit the checkout's disk).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off
export XDG_CONFIG_HOME="$build/config" TMPDIR="$build/tmp"
go build -C "$here" -o "$build/rapidbench" .
cd "$root"
exec "$build/rapidbench" "$@"
