# Convenience entry points; everything is plain `go` underneath.

.PHONY: build test gates race chaos chaos-net check fuzz verify bench bench-json benchpair analyze statsd shmem

build:
	go build ./...

# The gates whose bounds assume a machine doing nothing else: the cross-node
# allocation and ack counts over real loopback TCP, the link's per-frame
# allocations and the monitored-overhead ratio.  `go test ./...` runs them
# with loose bounds that hold under load; `make gates` runs them by name,
# alone, uncached, with their idle-machine bounds (-idle, core's one
# quiet-machine flag).
GATES = ^(TestTCPPingPongAckFree|TestTCPMonitoredOverhead|TestTCPPingPongAllocs|TestTCPPutFenceAllocs|TestLinkFrameAllocs)$$

# The suite, less the gates `make gates` runs.
test:
	go test -skip '$(GATES)' ./...

gates:
	go test -count=1 -run '$(GATES)' -v ./internal/transport
	go test -count=1 -run '$(GATES)' -v ./internal/core -idle

race:
	go test -race ./internal/queue ./internal/collective ./internal/obs ./internal/obs/cluster \
		./internal/rma ./internal/sched ./internal/ssw ./internal/core ./internal/transport \
		./internal/statsd ./internal/shmem ./internal/apps/shmem ./internal/apps/comd \
		./mpibase ./pure ./comm ./cmd/purerun

# The deterministic schedule explorer: model tests for the lock-free
# protocols (PBQ FIFO refinement, rendezvous-cell handoffs, SPTD
# no-lost-contribution, RMA epochs, work-stealing exactly-once) over PCT
# seeds plus bounded exhaustive runs; park/unpark under socket-completed
# waits: no lost wake-up.  Override the seed count with PURE_CHECK_SEEDS=n;
# replay one failing schedule with PURE_CHECK_SEED=n.
check:
	go test -tags purecheck -count=1 ./internal/check

# A fuzz pass over the wire-format, trace-dump and cluster-scrape decoders,
# FUZZTIME per target (scripts/verify.sh passes FUZZTIME=5s).  -run '^$'
# keeps each pass from first rerunning its package's tests.
FUZZTIME ?= 30s
fuzz:
	go test -count=1 -run '^$$' -fuzz FuzzFrameDecode -fuzztime $(FUZZTIME) ./internal/rma
	go test -count=1 -run '^$$' -fuzz FuzzCodecRoundTrip -fuzztime $(FUZZTIME) ./internal/codec
	go test -count=1 -run '^$$' -fuzz FuzzFrameDecode -fuzztime $(FUZZTIME) ./internal/transport
	go test -count=1 -run '^$$' -fuzz FuzzControlDecode -fuzztime $(FUZZTIME) ./internal/transport
	go test -count=1 -run '^$$' -fuzz FuzzStatsdParse -fuzztime $(FUZZTIME) ./internal/statsd
	go test -count=1 -run '^$$' -fuzz FuzzShardFrame -fuzztime $(FUZZTIME) ./internal/statsd
	go test -count=1 -run '^$$' -fuzz FuzzReadTraceBin -fuzztime $(FUZZTIME) ./internal/obs
	go test -count=1 -run '^$$' -fuzz FuzzMergeExposition -fuzztime $(FUZZTIME) ./internal/obs/cluster

# The robustness suite under the race detector: watchdog/abort containment
# plus the lossy-link chaos tests — one runtime per in-process node, joined
# by the link layer, with Transport.Faults (drops, delays, and the
# duplicates and out-of-order discards go-back-N makes of them) — across
# several seeds (override with PURE_CHAOS_SEEDS=comma,separated,ints).
# Sized to stay CI-friendly on a single CPU.  Every test it selects is in
# `make race` too, which scripts/verify.sh runs.
chaos:
	go test -race -count=1 \
		-run 'TestChaos|TestWatchdog|TestPanic|TestRankAbort|TestAllPanicked|TestDeadline|TestNilRank|TestAbortEmits|TestPoison|TestDeadlockDiagnosis|TestAbortFrom|TestFaultInjection|TestRMA' \
		./internal/core ./internal/ssw ./pure ./internal/apps/shmem

# Chaos against the transport: core's four socket-subject chaos tests (drain
# accounting, kill-link reconnect, partition to death and write combining,
# over real sockets in one process) and the transport unit suite (the link's
# two-lock writer included) under the race detector, then real OS processes
# (SIGKILL a node mid-Allreduce, 15%-lossy two-process runs) and the purerun
# launcher tests.  See docs/TRANSPORT.md.
chaos-net:
	go test -race -count=1 -run '^TestChaosTCP(DrainIsCounted|KillLinkReconnect|PartitionDeath|StreamCombines)$$' ./internal/core
	go test -race -count=1 ./internal/transport
	go test -count=1 ./internal/livechaos ./cmd/purerun

# The full gate (scripts/verify.sh): build, vet, the suite, the race
# detector, the checker, fuzzing, the gates and the command smokes, each
# step's verdict its exit status.  Same script CI runs.
verify:
	sh scripts/verify.sh

bench:
	go test -run XXX -bench . -benchtime=1s ./internal/queue ./internal/core ./internal/transport

# Headline microbenchmarks as JSON (BENCH_pr10.json) for cross-commit
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
# analyze it with puretrace (the pipeline verify.sh runs).
analyze:
	go run ./cmd/purebench -trace-bin /tmp/pure-trace.bin
	go run ./cmd/puretrace analyze /tmp/pure-trace.bin

# The statsd aggregation pipeline (docs/STATSD.md): protocol + app tests,
# the live multi-process deployment under SIGKILL and loss, the shared
# interner under -race, a verified single-process run, and the steal-on vs
# steal-off comparison table.
statsd:
	go test -count=1 ./internal/statsd ./internal/apps/statsd
	go test -count=1 -run TestStatsdChaos ./internal/livechaos
	go test -race -count=1 ./internal/statsd
	go run ./cmd/purestatsd -events 200000 -zipf 1.2 -steal -workscale 64
	go run ./cmd/purebench -quick -exp statsd

# The PGAS layer (docs/SHMEM.md): symmetric-heap/mailbox unit tests and
# the exactness-proof apps (the lossy-link chaos runs on in-process nodes,
# under -race), then the exactness-gated benchmark table.
shmem:
	go test -count=1 ./internal/shmem ./internal/apps/shmem ./pure
	go test -race -count=1 ./internal/shmem ./internal/apps/shmem
	go run ./cmd/purebench -quick -exp shmem
