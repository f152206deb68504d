#!/bin/sh
# verify.sh — the repository's full verification gate: build, vet, the
# complete test suite, the race detector over every concurrent package,
# a short-budget pass of the deterministic schedule checker and the
# wire-format fuzzers, and the chaos suite.  CI and `make verify` both
# run exactly this script.
set -eu
cd "$(dirname "$0")/.."

# zero_allocs WHAT PACKAGE BENCH_REGEXP: run the benchmarks and fail unless
# every one reports 0 allocs/op — a machine-independent gate (a count, not
# ns/op), so it holds on any hardware.
zero_allocs() {
    allocout="$(go test -run XXX -bench "$3" -benchmem -benchtime 5000x "$2")"
    echo "$allocout" | grep '^Benchmark'
    bad="$(echo "$allocout" | awk '/^Benchmark/ {
        for (i = 2; i < NF; i++)
            if ($(i + 1) == "allocs/op" && $i + 0 != 0) print $1, $i, "allocs/op"
    }')"
    if [ -n "$bad" ]; then
        echo "verify: FAIL — $1 benchmarks allocate:" >&2
        echo "$bad" >&2
        exit 1
    fi
}

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

echo "== go test ./..."
go test ./...

echo "== go test -race (concurrent core packages)"
go test -race ./internal/queue ./internal/collective ./internal/obs ./internal/rma \
    ./internal/sched ./internal/netsim ./internal/ssw ./internal/core ./internal/transport \
    ./internal/statsd ./internal/shmem ./internal/apps/shmem

echo "== deterministic schedule checker (short budget; full run: make check)"
PURE_CHECK_SEEDS=64 go test -tags purecheck -count=1 ./internal/check

echo "== fuzz smoke (wire-format decoders, short budget; full run: make fuzz)"
go test -count=1 -fuzz FuzzFrameDecode -fuzztime 5s ./internal/rma
go test -count=1 -fuzz FuzzCodecRoundTrip -fuzztime 5s ./internal/codec
go test -count=1 -fuzz FuzzFrameDecode -fuzztime 5s ./internal/transport
go test -count=1 -fuzz FuzzControlDecode -fuzztime 5s ./internal/transport
go test -count=1 -fuzz FuzzStatsdParse -fuzztime 5s ./internal/statsd
go test -count=1 -fuzz FuzzShmemFrame -fuzztime 5s ./internal/shmem

echo "== chaos suite (watchdog/abort/lossy links under -race)"
go test -race -count=1 \
    -run 'TestChaos|TestWatchdog|TestPanic|TestRankAbort|TestAllPanicked|TestDeadline|TestNilRank|TestAbortEmits|TestPoison|TestDeadlockDiagnosis|TestAbortFrom|TestFaultInjection|TestRMA' \
    ./internal/core ./internal/ssw ./pure

echo "== zero-allocation gate (eager persistent-channel endpoint hot paths)"
# The Channel API's whole point is an allocation-free eager fast path: both
# blocking endpoints and the pooled nonblocking pair must report 0 allocs/op
# (tier-1's TestChannelPingPongAllocs holds the same line with the counter
# cells atomic, i.e. Config.Metrics set).
zero_allocs "eager endpoint" ./internal/core 'BenchmarkChannelPingPong$|BenchmarkChannelIsendIrecv$'
# Same for the small collectives: every SPTD wait is a preallocated
# per-thread condition (tier-1's TestSPTDCollectiveAllocs holds the line too).
zero_allocs "SPTD collective" ./internal/core 'BenchmarkPureBarrier$|BenchmarkPureAllreduce8B$'

echo "== cross-node allocation and count gates (link <= 1 alloc/frame, TCP ping-pong <= 2/round trip and ack-free, remote Put+Fence <= 8)"
# The same machine-independent quantities on the inter-node path: the link
# encodes into reused buffers and the runtime recycles requests and mailbox
# payloads, so the steady state stays (nearly) allocation-free; and a woken
# rank carries its frame's ack, so a ping-pong writes (nearly) no ack
# frames.  The tests count — testing.AllocsPerRun, the links' own counters —
# over real loopback TCP.  The ack count also depends on how promptly woken
# ranks get a CPU, so its tight bound (3 %, best of three runs) is asked for
# here, where nothing runs beside it; everywhere else the test holds a loose
# one.
go test -count=1 -run 'TestLinkFrameAllocs$' -v ./internal/transport
go test -count=1 -run 'TestTCPPingPongAllocs$|TestTCPPutFenceAllocs$|TestTCPPingPongAckFree$' -v ./internal/core -ackfree.tight

echo "== TCP transport chaos (real sockets; full run: make chaos-net)"
go test -race -count=1 -run 'TestChaosTCP' ./internal/core
go test -count=1 ./internal/livechaos

echo "== purerun multi-process smoke (2 nodes x 4 ranks over real TCP)"
workerbin="$(mktemp /tmp/pure-worker.XXXXXX)"
trap 'rm -f "$workerbin"' EXIT
go build -o "$workerbin" ./examples/purerun
runout="$(go run ./cmd/purerun -n 2 -ranks 4 -timeout 60s "$workerbin")"
echo "$runout" | tail -2
case "$runout" in
*"[node 0] OK ranks=4 nodes=2"*) ;;
*)
    echo "verify: FAIL — purerun smoke never printed node 0's OK line" >&2
    echo "$runout" >&2
    exit 1 ;;
esac

echo "== cluster observability smoke (per-node dumps -> puretrace merge -> cross-node match)"
# The full pipeline from docs/OBSERVABILITY.md "Cluster observability": a
# real 2-process job writes one v2 trace dump per node (clock samples, link
# events, placement), puretrace merge aligns them on the heartbeat-derived
# clock offsets, and the merged analysis must pair remote sends with their
# receives on the other machine and report sequence-matched link flows.
obsdir="$(mktemp -d /tmp/pure-obs.XXXXXX)"
trap 'rm -f "$workerbin"; rm -rf "$obsdir"' EXIT
# 5ms heartbeats + enough iterations that both directions collect clock
# samples (each sample needs a heartbeat echoed back).
runout="$(PURE_HB_MS=5 PURE_ITERS=2000 PURE_TRACE_BIN="$obsdir/trace.bin" \
    go run ./cmd/purerun -n 2 -ranks 4 -timeout 60s "$workerbin")"
echo "$runout" | tail -2
for node in 0 1; do
    if [ ! -f "$obsdir/trace.bin.node$node" ]; then
        echo "verify: FAIL — node $node never wrote its trace dump" >&2
        echo "$runout" >&2
        exit 1
    fi
done
mergeout="$(go run ./cmd/puretrace merge -o "$obsdir/merged.bin" \
    "$obsdir/trace.bin.node0" "$obsdir/trace.bin.node1")"
echo "$mergeout"
case "$mergeout" in
*"offset "*"via node"*) ;;
*)
    echo "verify: FAIL — merge aligned no node clocks (no offset line)" >&2
    exit 1 ;;
esac
mergedout="$(go run ./cmd/puretrace analyze "$obsdir/merged.bin")"
echo "$mergedout" | head -3
crossmatched="$(echo "$mergedout" | awk '$1 == "remote" {
    for (i = 2; i <= NF; i++) if (sub(/^matched=/, "", $i)) print $i }')"
if [ -z "$crossmatched" ] || [ "$crossmatched" -eq 0 ]; then
    echo "verify: FAIL — merged analyze matched no cross-node message pairs" >&2
    echo "$mergedout" >&2
    exit 1
fi
echo "cross-node matched pairs: $crossmatched"
case "$mergedout" in
*"seq-matched="*) ;;
*)
    echo "verify: FAIL — merged analyze reports no cross-node link flows" >&2
    echo "$mergedout" >&2
    exit 1 ;;
esac

echo "== cluster monitor smoke (purerun -monitor serves every node's link telemetry)"
go test -count=1 -run 'TestRunMonitorServesClusterView' ./cmd/purerun

echo "== monitored TCP overhead gate (min-over-runs ping-pong, <5%)"
# Per-peer link telemetry must be effectively free on the frame path: the
# counters are lock-free atomics that the registry reads only when a snapshot
# is taken.  Minimum-over-6-runs filters scheduler noise on shared CI boxes; a
# persistently high ratio across 3 attempts is a real regression.
attempts=0
while :; do
    attempts=$((attempts + 1))
    benchout="$(go test -run XXX -bench 'BenchmarkTCPPingPong8B$|BenchmarkTCPPingPong8BMonitored$' \
        -benchtime 2000x -count=6 ./internal/core)"
    echo "$benchout" | grep '^Benchmark'
    verdict="$(echo "$benchout" | awk '
        /^BenchmarkTCPPingPong8B-/          { if (!p || $3 + 0 < p) p = $3 + 0 }
        /^BenchmarkTCPPingPong8BMonitored-/ { if (!m || $3 + 0 < m) m = $3 + 0 }
        END {
            if (!p || !m) { print "unparsed"; exit }
            printf "plain=%.0fns monitored=%.0fns ratio=%.3f %s\n",
                p, m, m / p, (m <= p * 1.05 ? "ok" : "high")
        }')"
    echo "monitored-overhead: $verdict"
    case "$verdict" in
    *ok) break ;;
    *high)
        if [ "$attempts" -ge 3 ]; then
            echo "verify: FAIL — monitored TCP ping-pong stayed >5% over plain for $attempts attempts" >&2
            exit 1
        fi ;;
    *)
        echo "verify: FAIL — overhead gate could not parse benchmark output" >&2
        exit 1 ;;
    esac
done

echo "== statsd pipeline smoke (checksum-asserted flush totals; docs/STATSD.md)"
# Three shapes: blocking (every event applied), drop-policy backpressure
# (shed load still exactly accounted), and skewed stealing drains.  EXACT
# means the zero-sum Allreduce proof held: applied == committed on every
# counter, sum and histogram bin, so any lost or double-counted event fails.
smokeout="$(go run ./cmd/purestatsd -events 20000 -rounds 2)"
echo "$smokeout"
case "$smokeout" in *"EXACT"*) ;; *)
    echo "verify: FAIL — statsd blocking smoke not EXACT" >&2; exit 1 ;;
esac
case "$smokeout" in *"applied 20000, dropped 0"*) ;; *)
    echo "verify: FAIL — statsd blocking smoke lost events" >&2; exit 1 ;;
esac
smokeout="$(go run ./cmd/purestatsd -events 20000 -rounds 2 -drop -pbq 4 -batch 16 -zipf 1.2 -steal -workscale 32)"
echo "$smokeout"
case "$smokeout" in *"EXACT"*) ;; *)
    echo "verify: FAIL — statsd drop/steal smoke not EXACT" >&2; exit 1 ;;
esac

echo "== statsd zero-allocation gate (steady-state parse + aggregation paths)"
# The serving pipeline's throughput claim rests on an allocation-free
# steady state: parse is zero-copy and aggregation hits the slab.
zero_allocs "statsd steady-state" ./internal/statsd 'BenchmarkStatsdParse$|BenchmarkStatsdAggregate$'

echo "== shmem PGAS smoke (exactness-gated histogram/BFS/mailbox table; docs/SHMEM.md)"
# Every row of the shmem table is exactness-gated: the last column is
# "yes" only if the run's bit-exact comparison against the serial oracle
# held (a lost remote AtomicAdd or reordered mailbox message flips it to
# "NO"), so grepping for NO asserts histogram + BFS + mailbox exactness.
shmemout="$(go run ./cmd/purebench -quick -exp shmem)"
echo "$shmemout"
case "$shmemout" in *" NO"*)
    echo "verify: FAIL — shmem table has an inexact row" >&2; exit 1 ;;
esac

echo "== shmem model tests under -race (short budget; full run: make check)"
PURE_CHECK_SEEDS=16 go test -race -tags purecheck -count=1 -run 'TestCheckShmem|TestCheckRMARegistry' ./internal/check

echo "== shmem zero-allocation gate (intra-node Put/AtomicAdd hot paths)"
# The PGAS claim rests on intra-node addressed ops being direct copies
# and hardware atomics — allocation-free.
zero_allocs "shmem intra-node" ./internal/core 'BenchmarkShmemPut$|BenchmarkShmemAtomicAdd$'

echo "== purebench RMA smoke (one-sided vs two-sided halo, quick scale)"
go run ./cmd/purebench -quick -exp rma

echo "== trace analytics smoke (traced stencil -> binary dump -> puretrace analyze)"
tracebin="$(mktemp /tmp/pure-trace.XXXXXX.bin)"
trap 'rm -f "$workerbin" "$tracebin"; rm -rf "$obsdir"' EXIT
go run ./cmd/purebench -trace-bin "$tracebin"
out="$(go run ./cmd/puretrace analyze "$tracebin")"
echo "$out" | head -3
case "$out" in
*"matched messages: 0 "*)
    echo "verify: FAIL — puretrace analyze matched no messages" >&2
    exit 1 ;;
*"matched messages: "*) ;;
*)
    echo "verify: FAIL — puretrace analyze produced no matched-message summary" >&2
    exit 1 ;;
esac

echo "verify: OK"
