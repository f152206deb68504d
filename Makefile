# Convenience entry points; everything is plain `go` underneath.

.PHONY: build test race chaos chaos-net check fuzz verify bench bench-json benchpair analyze statsd shmem

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./internal/queue ./internal/collective ./internal/obs ./internal/rma \
		./internal/sched ./internal/netsim ./internal/ssw ./internal/core ./internal/transport \
		./internal/statsd ./internal/shmem ./internal/apps/shmem

# The deterministic schedule explorer: model tests for the lock-free
# protocols (PBQ/ring FIFO refinement, SPTD no-lost-contribution, RMA
# epochs, work-stealing exactly-once) over PCT seeds plus bounded
# exhaustive runs; park/unpark under socket-completed waits: no lost
# wake-up.  Override the seed count with PURE_CHECK_SEEDS=n;
# replay one failing schedule with PURE_CHECK_SEED=n.
check:
	go test -tags purecheck -count=1 ./internal/check

# Short local fuzz pass over the wire-format decoders (CI runs the same
# targets with a longer budget).
fuzz:
	go test -count=1 -fuzz FuzzFrameDecode -fuzztime 30s ./internal/rma
	go test -count=1 -fuzz FuzzCodecRoundTrip -fuzztime 30s ./internal/codec
	go test -count=1 -fuzz FuzzFrameDecode -fuzztime 30s ./internal/transport
	go test -count=1 -fuzz FuzzControlDecode -fuzztime 30s ./internal/transport
	go test -count=1 -fuzz FuzzStatsdParse -fuzztime 30s ./internal/statsd
	go test -count=1 -fuzz FuzzShmemFrame -fuzztime 30s ./internal/shmem

# The robustness suite under the race detector: watchdog/abort containment
# plus the lossy-link chaos tests — one runtime per node over loopback TCP
# with Transport.Faults (drops, delays, and the duplicates and out-of-order
# discards go-back-N makes of them) — across several seeds (override with
# PURE_CHAOS_SEEDS=comma,separated,ints).  Sized to stay CI-friendly on a
# single CPU.
chaos:
	go test -race -count=1 \
		-run 'TestChaos|TestWatchdog|TestPanic|TestRankAbort|TestAllPanicked|TestDeadline|TestNilRank|TestAbortEmits|TestPoison|TestDeadlockDiagnosis|TestAbortFrom|TestFaultInjection|TestRMA' \
		./internal/core ./internal/ssw ./pure ./internal/apps/shmem

# Chaos against the real TCP transport: full runtimes over real sockets
# in one process (lossy links, kill-link reconnect, partition-to-death)
# and the transport unit suite (the link's two-lock writer included) under
# the race detector, then real OS processes (SIGKILL a node mid-Allreduce,
# 15%-lossy two-process run) and the purerun launcher tests.  See
# docs/TRANSPORT.md.
chaos-net:
	go test -race -count=1 -run 'TestChaosTCP' ./internal/core
	go test -race -count=1 ./internal/transport
	go test -count=1 ./internal/livechaos ./cmd/purerun

# The full gate: build + vet + tests + race detector on the lock-free
# packages.  Same script CI runs.
verify:
	sh scripts/verify.sh

bench:
	go test -run XXX -bench . -benchtime=1s ./internal/core

# Headline microbenchmarks as JSON (BENCH_pr9.json) for cross-commit
# comparison.
bench-json:
	sh scripts/bench_json.sh

# Interleaved parent/change pairs of one benchmark workload with medians,
# the parent's quartiles and wins/pairs (docs/TESTING.md "Comparing two
# commits"): make benchpair PARENT=/root/scratch/parent WORKLOAD=xnode-tcp
CHANGE ?= .
PAIRS ?= 10
benchpair:
	sh scripts/benchpair.sh $(PARENT) $(CHANGE) $(WORKLOAD) $(PAIRS)

# Trace-analytics smoke: run a traced stencil, dump the binary trace, and
# analyze it with puretrace (the same pipeline verify.sh gates on).
analyze:
	go run ./cmd/purebench -trace-bin /tmp/pure-trace.bin
	go run ./cmd/puretrace analyze /tmp/pure-trace.bin

# The statsd aggregation pipeline (docs/STATSD.md): protocol + app tests
# (the shared interner under -race), a verified single-process run, and the
# steal-on vs steal-off comparison table.
statsd:
	go test -count=1 ./internal/statsd ./internal/apps/statsd
	go test -race -count=1 ./internal/statsd
	go run ./cmd/purestatsd -events 200000 -zipf 1.2 -steal -workscale 64
	go run ./cmd/purebench -quick -exp statsd

# The PGAS layer (docs/SHMEM.md): symmetric-heap/mailbox unit tests and
# the exactness-proof apps (the lossy-link chaos runs, one runtime per
# node over loopback TCP, under -race), then the exactness-gated benchmark
# table.
shmem:
	go test -count=1 ./internal/shmem ./internal/apps/shmem ./pure
	go test -race -count=1 ./internal/shmem ./internal/apps/shmem
	go run ./cmd/purebench -quick -exp shmem
