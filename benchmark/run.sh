#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the root of a checkout: `bash benchmark/run.sh --workload p2p-intra
# --seed 1 --seconds 10 --trace 0`.  Everything the build writes (Go build
# cache, binary) stays inside the checkout under .bench_build/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
# Keep the toolchain's own files in the checkout too: build cache, module
# cache (unused: the module has no dependencies outside the repository) and
# the telemetry counters Go keeps under the user's config directory.
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOWORK=off GOFLAGS=
go -C "$here" build -o "$build/purebench" .
exec "$build/purebench" "$@"
