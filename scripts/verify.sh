#!/bin/sh
# verify.sh — the repository's full verification gate: a list of go and make
# commands whose exit status is the only verdict.  What a step asserts, a Go
# test or the command's own exit code asserts; docs/TESTING.md maps each one.
# No test runs twice in one mode: `make test` leaves the idle-machine gates
# to `make gates`.  CI and `make verify` both run exactly this script.
set -eu
cd "$(dirname "$0")/.."

echo "== go build ./... && go vet ./..."
go build ./...
go vet ./...

echo "== make test (the suite: gofmt, the option gates, every allocation table)"
make --no-print-directory test

echo "== make race (concurrent packages, the MPI baseline, the pure/comm APIs and the launcher)"
make --no-print-directory race

echo "== deterministic schedule checker (the model tests, short budget; full run: make check)"
PURE_CHECK_SEEDS=64 go test -tags purecheck -count=1 -run '^TestCheck' ./internal/check
PURE_CHECK_SEEDS=16 go test -race -tags purecheck -count=1 -run 'TestCheckShmem|TestCheckRMARegistry' ./internal/check

echo "== fuzz smoke (short budget; full run: make fuzz)"
make --no-print-directory fuzz FUZZTIME=5s

echo "== make gates (idle-machine bounds, each gate alone)"
make --no-print-directory gates

# The command smokes: each command exits non-zero when its run is wrong.
tmp="$(mktemp -d /tmp/pure-verify.XXXXXX)"
trap 'rm -rf "$tmp"' EXIT

echo "== purerun multi-process smoke (2 nodes x 4 ranks over real TCP; a wrong Allreduce panics its worker; puretrace merges the per-node dumps)"
go build -o "$tmp/worker" ./examples/purerun
PURE_TRACE_BIN="$tmp/trace.bin" go run ./cmd/purerun -n 2 -ranks 4 -timeout 60s "$tmp/worker"
go run ./cmd/puretrace merge -o "$tmp/merged.bin" "$tmp/trace.bin.node0" "$tmp/trace.bin.node1"

echo "== statsd pipeline smoke (exit 1 on an inexact flush; docs/STATSD.md)"
go run ./cmd/purestatsd -events 20000 -rounds 2
# Every queue, batch, frame and drain threshold below its default, so the
# queues fill, shed load and drain often; stealing over 4 sub-shards.
go run ./cmd/purestatsd -events 20000 -rounds 2 -drop -pbq 4 -batch 16 -frame 512 -drain 64 -zipf 1.2 -steal -subshards 4 -workscale 32

echo "== trace analytics smoke (traced stencil -> binary dump -> puretrace analyze)"
go run ./cmd/purebench -trace-bin "$tmp/stencil.bin"
go run ./cmd/puretrace analyze "$tmp/stencil.bin"

echo "verify: OK"
