// Command purestatsd runs the DogStatsD-style sharded aggregation pipeline
// (docs/STATSD.md): ingestion ranks parse and intern generated traffic,
// shard it by key hash over persistent batched channels, aggregator ranks
// drain into per-series aggregates, and every round rolls up into a
// zero-sum checksum-verified global flush snapshot.
//
// Usage:
//
//	purestatsd -events 1000000                  # single process, 2+2 ranks
//	purestatsd -zipf 2.0 -steal -workscale 512  # skewed load, stealing drains
//	purestatsd -drop -pbq 16                    # shed load instead of blocking
//	purestatsd -monitor :8080                   # serve the live monitor
//	purerun -n 2 ./purestatsd -events 100000    # ingest node + aggregate node over TCP
//
// Under purerun the PURE_NODE/PURE_ADDRS/PURE_JOB environment selects the
// real transport, and `purerun -monitor` hands each node a PURE_MONITOR
// address that -monitor defaults to, so every process of the job serves its
// own live monitor without extra flags; ranks are laid out SMP-style, so with
// the 2+2 split and two nodes the ingesters share node 0 and the aggregators
// node 1.  Exit codes follow the launcher convention: 0 success (prints the
// verified flush totals), 3 a peer node died (prints "NODEDEAD
// dead=<nodes>"), 1 anything else — including an inexact flush, which is a
// bug, never load.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	appstatsd "repro/internal/apps/statsd"
	proto "repro/internal/statsd"
	"repro/pure"
)

func main() {
	events := flag.Int64("events", 1_000_000, "events generated per run (all ingesters combined)")
	rounds := flag.Int("rounds", 4, "flush rounds (each ends in a verified rollup)")
	batch := flag.Int("batch", 0, "events per shard batch (0 = default)")
	frame := flag.Int("frame", 0, "flush a shard batch at this many pending bytes (0 = default)")
	drop := flag.Bool("drop", false, "shed load when a shard queue is full instead of blocking")
	steal := flag.Bool("steal", false, "drain as a stealable Pure Task (skew absorption)")
	subshards := flag.Int("subshards", 0, "drain sub-shards per aggregator = steal granularity (0 = default)")
	workscale := flag.Int("workscale", 0, "extra per-record drain work (models real aggregation cost)")
	drain := flag.Int("drain", 0, "staged events per source that trigger a drain (0 = default)")
	zipf := flag.Float64("zipf", 0, "zipf skew exponent for the generated keys (0 = uniform)")
	pbq := flag.Int("pbq", 0, "PBQ slots per channel (0 = default; small values exercise backpressure)")
	monitor := flag.String("monitor", os.Getenv("PURE_MONITOR"), "serve the live runtime monitor on this address (e.g. :8080; default $PURE_MONITOR)")
	flag.Parse()

	cfg := appstatsd.Config{
		Ingesters:   2,
		Aggregators: 2,
		Events:      *events,
		Rounds:      *rounds,
		BatchEvents: *batch,
		FrameBytes:  *frame,
		Drop:        *drop,
		Steal:       *steal,
		Subshards:   *subshards,
		WorkScale:   *workscale,
		DrainEvents: *drain,
		Gen:         proto.GenConfig{ZipfS: *zipf},
		Interner:    proto.NewInterner(4096), // node-shared across this process's ingesters
	}
	nranks := cfg.Ingesters + cfg.Aggregators
	pcfg := pure.Config{NRanks: nranks, PBQSlots: *pbq, MonitorAddr: *monitor}

	tcfg, err := pure.TransportFromEnv()
	if err != nil {
		fmt.Fprintln(os.Stderr, "purestatsd:", err)
		os.Exit(1)
	}
	if tcfg != nil {
		nodes := len(tcfg.Addrs)
		if nranks%nodes != 0 {
			fmt.Fprintf(os.Stderr, "purestatsd: %d ranks do not divide over %d nodes\n", nranks, nodes)
			os.Exit(1)
		}
		pcfg.Transport = tcfg
		pcfg.Spec = pure.Spec{Nodes: nodes, SocketsPerNode: 1, CoresPerSocket: nranks / nodes, ThreadsPerCore: 1}
	}

	var res appstatsd.Result
	haveRes := false // true iff this process hosts rank 0
	err = pure.Run(pcfg, func(r *pure.Rank) {
		got, rerr := appstatsd.Run(r, cfg)
		if rerr != nil {
			r.Abort(rerr)
			return
		}
		if r.ID() == 0 {
			res, haveRes = got, true
		}
	})
	if err != nil {
		var re *pure.RunError
		if errors.As(err, &re) && re.Cause == pure.CauseNodeDead {
			fmt.Printf("NODEDEAD dead=%v\n", re.DeadNodes)
			fmt.Fprintln(os.Stderr, "purestatsd:", err)
			os.Exit(3)
		}
		fmt.Fprintln(os.Stderr, "purestatsd:", err)
		os.Exit(1)
	}
	if haveRes {
		fmt.Printf("purestatsd: applied %d, dropped %d, %d series, %d drain chunks stolen, flush sum %#x\n",
			res.Applied, res.Dropped, res.Keys, res.Stolen, res.Sum)
		if !res.Exact {
			fmt.Printf("INEXACT: applied %d of %d committed events\n", res.Applied, res.Committed)
			os.Exit(1)
		}
		fmt.Println("EXACT")
	}
}
