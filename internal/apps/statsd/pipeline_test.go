package statsd

import (
	"testing"
	"time"

	proto "repro/internal/statsd"
	"repro/pure"
)

// pipelineMain is the rank body of a pipeline run; rank 0 leaves its Result
// in res (every rank receives the identical Allreduce, so one is enough).
func pipelineMain(cfg Config, res *Result) func(r *pure.Rank) {
	if cfg.Interner == nil {
		cfg.Interner = proto.NewInterner(4096)
	}
	return func(r *pure.Rank) {
		got, err := Run(r, cfg)
		if err != nil {
			r.Abort(err)
		}
		if r.ID() == 0 {
			*res = got
		}
	}
}

// runPipeline executes the pipeline under pure.Run and returns rank 0's
// Result.
func runPipeline(t *testing.T, pcfg pure.Config, cfg Config) Result {
	t.Helper()
	var res Result
	if err := pure.Run(pcfg, pipelineMain(cfg, &res)); err != nil {
		t.Fatal(err)
	}
	return res
}

func checkExact(t *testing.T, res Result, wantEvents int64) {
	t.Helper()
	if !res.Exact {
		t.Errorf("zero-sum proof failed: applied %d events (sum %#x) vs committed %d",
			res.Applied, res.Sum, res.Committed)
	}
	if res.Applied != res.Committed {
		t.Errorf("applied %d != committed %d", res.Applied, res.Committed)
	}
	if got := res.Applied + res.Dropped; got != uint64(wantEvents) {
		t.Errorf("applied %d + dropped %d = %d, want every generated event (%d)",
			res.Applied, res.Dropped, got, wantEvents)
	}
	if res.Keys <= 0 {
		t.Error("no series aggregated")
	}
	if res.Sum == 0 {
		t.Error("flush snapshot checksum is zero")
	}
}

func TestPipelineExactBlocking(t *testing.T) {
	const events = 20000
	res := runPipeline(t,
		pure.Config{NRanks: 4},
		Config{Ingesters: 2, Aggregators: 2, Events: events, Rounds: 3})
	checkExact(t, res, events)
	if res.Dropped != 0 {
		t.Errorf("blocking policy dropped %d events", res.Dropped)
	}
	if res.Applied != events {
		t.Errorf("applied %d of %d events", res.Applied, events)
	}
}

func TestPipelineExactDropPolicy(t *testing.T) {
	// Tiny queues, eager flushing and slow drains force TrySendBatch
	// refusals; the totals must stay exact with the drops accounted.
	const events = 20000
	res := runPipeline(t,
		pure.Config{NRanks: 3, PBQSlots: 2},
		Config{Ingesters: 2, Aggregators: 1, Events: events, Rounds: 2,
			Drop: true, BatchEvents: 16, DrainEvents: 512, WorkScale: 64})
	checkExact(t, res, events)
	t.Logf("drop policy: applied %d, dropped %d", res.Applied, res.Dropped)
}

func TestPipelineExactUnderLoss(t *testing.T) {
	// Two in-process nodes (ingesters on node 0, aggregators on node 1
	// under SMP placement), joined by links where 15% of first
	// transmissions reset the connection.  The link layer redials and
	// replays; the pipeline totals must stay exact.
	const events = 8000
	var res Result
	met := pure.NewMetrics()
	err := pure.Run(pure.Config{
		NRanks:      4,
		Spec:        pure.Spec{Nodes: 2, SocketsPerNode: 1, CoresPerSocket: 2, ThreadsPerCore: 1},
		HangTimeout: 30 * time.Second,
		Metrics:     met,
		Transport: &pure.TransportConfig{
			Faults: pure.TransportFaults{Seed: 7, ResetProb: 0.15},
		},
	}, pipelineMain(Config{Ingesters: 2, Aggregators: 2, Events: events, Rounds: 2}, &res))
	if err != nil {
		t.Fatal(err)
	}
	c := map[string]int64{}
	for _, s := range met.Snapshot().Counters {
		c[s.Name] = s.Value
	}
	checkExact(t, res, events)
	if res.Applied != events {
		t.Errorf("lossy links lost events: applied %d of %d", res.Applied, events)
	}
	if c["pure_tp_resets_injected_total"] == 0 || c["pure_tp_retransmits_total"] == 0 {
		t.Errorf("the links injected %d resets and replayed %d frames; the test exercised nothing",
			c["pure_tp_resets_injected_total"], c["pure_tp_retransmits_total"])
	}
}

func TestPipelineZipfSteal(t *testing.T) {
	// A zipf-hot keyspace concentrates drain work on few sub-shards; with
	// Steal the drain runs as a Pure Task whose chunks parked ranks steal.
	const events = 30000
	cfg := Config{Ingesters: 2, Aggregators: 2, Events: events, Rounds: 2,
		Steal: true, Subshards: 16, WorkScale: 32,
		Gen: proto.GenConfig{ZipfS: 1.2}}
	res := runPipeline(t, pure.Config{NRanks: 4}, cfg)
	checkExact(t, res, events)
	if res.Owner+res.Stolen == 0 {
		t.Error("steal mode executed no drain chunks")
	}
	t.Logf("zipf steal: %d owner chunks, %d stolen", res.Owner, res.Stolen)
}

func TestPipelineSharedInterner(t *testing.T) {
	// All ingesters share one interner (the node-shared configuration):
	// concurrent first-interns under real scheduling, exactness preserved.
	const events = 16000
	it := proto.NewInterner(1024)
	res := runPipeline(t,
		pure.Config{NRanks: 4},
		Config{Ingesters: 3, Aggregators: 1, Events: events,
			Interner: it, Gen: proto.GenConfig{Tagsets: 96}})
	checkExact(t, res, events)
	if it.Len() == 0 {
		t.Error("shared interner interned nothing")
	}
	hits, misses, _ := it.Stats()
	t.Logf("shared interner: %d entries, %d hits, %d misses", it.Len(), hits, misses)
}

func TestPipelineManyRounds(t *testing.T) {
	// More rounds than events per ingester per round stays exact (empty
	// rounds still carry markers and join the rollup).
	res := runPipeline(t,
		pure.Config{NRanks: 2},
		Config{Ingesters: 1, Aggregators: 1, Events: 100, Rounds: 8})
	checkExact(t, res, 100)
}

func TestPipelineConfigErrors(t *testing.T) {
	err := pure.Run(pure.Config{NRanks: 2}, func(r *pure.Rank) {
		if _, err := Run(r, Config{Ingesters: 2, Aggregators: 2, Events: 10}); err == nil {
			t.Error("rank-count mismatch not rejected")
		}
		if _, err := Run(r, Config{Ingesters: 2, Aggregators: 0, Events: 10}); err == nil {
			t.Error("zero aggregators not rejected")
		}
		if _, err := Run(r, Config{Ingesters: 1, Aggregators: 1}); err == nil {
			t.Error("zero events not rejected")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
