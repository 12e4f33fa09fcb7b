#!/usr/bin/env bash
# The BENCHMARK.json command: builds the harness from source inside the
# checkout and runs it with the driver's arguments
# (--workload <name> --seed <n> --seconds <s> --trace <0|1>).
#
# Everything the Go toolchain writes - build cache, temporary work
# directories, telemetry counters - is redirected under .bench_build/ in
# the checkout, so a run reads and writes nothing outside it.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0

(cd "$here" && go build -o "$build/avmem-bench" .)
cd "$root"
exec "$build/avmem-bench" "$@"
