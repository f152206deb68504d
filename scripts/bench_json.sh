#!/bin/sh
# bench_json.sh — run the PR's headline microbenchmarks and emit their
# ns/op AND allocs/op as machine-readable JSON (BENCH_pr10.json), so perf
# and allocation regressions in the hot loops are visible across commits.
# This PR adds cluster-wide observability (docs/OBSERVABILITY.md): the new
# monitored-TCP pair measures the per-peer link telemetry's cost on the
# cross-node frame path, which TestTCPMonitoredOverhead gates under 5%.
#
# Usage: sh scripts/bench_json.sh [output.json]
set -eu
cd "$(dirname "$0")/.."

out=${1:-BENCH_pr10.json}
benchtime=${PURE_BENCHTIME:-1s}
tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

echo "== PBQ ping-pong (internal/queue)"
go test -run XXX -bench 'BenchmarkPBQPingPong$' -benchmem -benchtime "$benchtime" ./internal/queue | tee -a "$tmp"

echo "== SPTD allreduce (internal/collective)"
go test -run XXX -bench 'BenchmarkSPTDAllreduce8B$' -benchmem -benchtime "$benchtime" ./internal/collective | tee -a "$tmp"

echo "== RMA put/fence (internal/core)"
go test -run XXX -bench 'BenchmarkRMAPut$' -benchmem -benchtime "$benchtime" ./internal/core | tee -a "$tmp"

echo "== Pure ping-pong, wrapper path (internal/core)"
go test -run XXX -bench 'BenchmarkPurePingPong$' -benchmem -benchtime "$benchtime" ./internal/core | tee -a "$tmp"

echo "== Pure ping-pong, persistent channel endpoints (internal/core)"
go test -run XXX -bench 'BenchmarkChannelPingPong$' -benchmem -benchtime "$benchtime" ./internal/core | tee -a "$tmp"

echo "== Channel ping-pong with tracing+metrics enabled (internal/core)"
go test -run XXX -bench 'BenchmarkChannelPingPongObserved$' -benchmem -benchtime "$benchtime" ./internal/core | tee -a "$tmp"

echo "== Channel pooled Isend/Irecv (internal/core)"
go test -run XXX -bench 'BenchmarkChannelIsendIrecv$' -benchmem -benchtime "$benchtime" ./internal/core | tee -a "$tmp"

echo "== Pure ping-pong, live monitor enabled (internal/core)"
go test -run XXX -bench 'BenchmarkPurePingPongMonitored$' -benchmem -benchtime "$benchtime" ./internal/core | tee -a "$tmp"

echo "== TCP ping-pong, 2 nodes over real sockets (internal/core)"
go test -run XXX -bench 'BenchmarkTCPPingPong8B$' -benchmem -benchtime "$benchtime" ./internal/core | tee -a "$tmp"

echo "== TCP ping-pong with per-node live monitors + link telemetry (internal/core)"
go test -run XXX -bench 'BenchmarkTCPPingPong8BMonitored$' -benchmem -benchtime "$benchtime" ./internal/core | tee -a "$tmp"

echo "== TCP Allreduce, 2 nodes x 2 ranks over real sockets (internal/core)"
go test -run XXX -bench 'BenchmarkTCPAllreduce8B$' -benchmem -benchtime "$benchtime" ./internal/core | tee -a "$tmp"

echo "== Channel batched vs unbatched sends, 25B records (internal/core)"
go test -run XXX -bench 'BenchmarkChannelSendBatch$|BenchmarkChannelSendUnbatched$' \
    -benchmem -benchtime "$benchtime" ./internal/core | tee -a "$tmp"

echo "== shmem intra-node Put / atomics / mailbox round trip (internal/core)"
go test -run XXX -bench 'BenchmarkShmemPut$|BenchmarkShmemAtomicAdd$|BenchmarkShmemFetchAdd$|BenchmarkShmemMailboxPingPong$' \
    -benchmem -benchtime "$benchtime" ./internal/core | tee -a "$tmp"

echo "== statsd steady-state parse + aggregation (internal/statsd)"
go test -run XXX -bench 'BenchmarkStatsdParse$|BenchmarkStatsdAggregate$' \
    -benchmem -benchtime "$benchtime" ./internal/statsd | tee -a "$tmp"

echo "== statsd pipeline, per-event end to end (internal/apps/statsd)"
# Fixed iteration counts: the zipf pair must run identical event volumes for
# the steal-on vs steal-off ns/op comparison to be apples-to-apples.
go test -run XXX -bench 'BenchmarkStatsdPipeline/uniform' -benchtime 500000x ./internal/apps/statsd | tee -a "$tmp"
go test -run XXX -bench 'BenchmarkStatsdPipeline/zipf' -benchtime 400000x ./internal/apps/statsd | tee -a "$tmp"
go test -run XXX -bench 'BenchmarkStatsdPipeline/drop-policy' -benchtime 500000x ./internal/apps/statsd | tee -a "$tmp"

# Parse `BenchmarkName[/sub]-P  N  123.4 ns/op  0 B/op  0 allocs/op` lines
# into JSON: ns under the bench name, allocs/op under "<name>:allocs", and
# the pipeline's custom events/s and stolen-chunks metrics under their own
# suffixed keys.
awk '
BEGIN { print "{"; first = 1 }
function emit(key, val) {
    if (!first) printf ",\n"
    first = 0
    printf "  \"%s\": %s", key, val
}
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    for (i = 2; i < NF; i++) {
        if ($(i + 1) == "ns/op") emit(name, $i)
        if ($(i + 1) == "allocs/op") emit(name ":allocs", $i)
        if ($(i + 1) == "events/s") emit(name ":events/s", $i)
        if ($(i + 1) == "stolen-chunks") emit(name ":stolen-chunks", $i)
    }
}
END { print "\n}" }
' "$tmp" >"$out"

echo "wrote $out:"
cat "$out"
