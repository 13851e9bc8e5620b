#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it. Everything the
# build and the run write stays inside the checkout: the Go build cache,
# Go's temp and config dirs and the binary under .bench_build/, the
# harness's traces, records and temp data under bench/out/.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOPROXY=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/chaos-bench" .)
exec "$build/chaos-bench" -out "$here/out" "$@"
