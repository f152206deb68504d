// Stencil is the paper's §2 running example (Listing 2): a 1-D stencil
// whose per-element "random work" takes variable time, creating load
// imbalance that Pure Tasks absorb — blocked neighbours steal chunks of the
// rand_work task while they wait for messages.
//
//	go run ./examples/stencil
//	go run ./examples/stencil -trace trace.json -metrics metrics.prom
//	go run ./examples/stencil -trace-bin trace.bin -monitor :8080
//
// -trace writes the tasked run's event timeline in the Chrome trace_event
// format (load it in chrome://tracing or https://ui.perfetto.dev); -metrics
// writes a Prometheus text-format snapshot of the runtime counters;
// -trace-bin writes the binary trace dump that `puretrace analyze` consumes;
// -monitor serves the live runtime monitor (/metrics, /ranks, /debug/pprof)
// while the tasked run executes.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/comm"
	"repro/internal/apps/stencil"
	"repro/pure"
)

func main() {
	traceOut := flag.String("trace", "", "write a Chrome trace of the tasked run to this file")
	metricsOut := flag.String("metrics", "", "write a Prometheus metrics snapshot of the tasked run to this file")
	traceBinOut := flag.String("trace-bin", "", "write a binary trace dump of the tasked run (for puretrace) to this file")
	monitorAddr := flag.String("monitor", "", "serve the live runtime monitor on this address during the tasked run (e.g. :8080)")
	flag.Parse()

	const nranks = 8
	params := stencil.Params{ArrSize: 512, Iters: 20, WorkScale: 24}

	run := func(useTask, observed bool) (time.Duration, float64) {
		p := params
		p.UseTask = useTask
		cfg := pure.Config{NRanks: nranks}
		if observed && (*traceOut != "" || *traceBinOut != "") {
			cfg.Trace = pure.NewTrace(nranks, 0)
		}
		if observed && *metricsOut != "" {
			cfg.Metrics = pure.NewMetrics()
		}
		if observed && *monitorAddr != "" {
			cfg.MonitorAddr = *monitorAddr
			if cfg.Metrics == nil {
				cfg.Metrics = pure.NewMetrics() // give /metrics the runtime series
			}
		}
		var checksum float64
		start := time.Now()
		rep, err := comm.RunPureWithReport(cfg, func(b comm.Backend) {
			res, err := stencil.Run(b, p)
			if err != nil {
				log.Fatal(err)
			}
			if b.Rank() == 0 {
				checksum = res.Checksum
			}
		})
		if err != nil {
			log.Fatal(err)
		}
		elapsed := time.Since(start)
		if observed {
			writeObservability(&rep, *traceOut, *metricsOut, *traceBinOut)
		}
		return elapsed, checksum
	}

	// The one-sided variant: halo exchange by Put + Notify into the
	// neighbours' windows instead of message pairs.
	runRMA := func() (time.Duration, float64) {
		var checksum float64
		start := time.Now()
		if err := pure.Run(pure.Config{NRanks: nranks}, func(r *pure.Rank) {
			res, err := stencil.RunRMA(r, params)
			if err != nil {
				log.Fatal(err)
			}
			if r.ID() == 0 {
				checksum = res.Checksum
			}
		}); err != nil {
			log.Fatal(err)
		}
		return time.Since(start), checksum
	}

	// The persistent-channel variant: identical stencil, but the halo
	// exchange binds its four neighbour endpoints once before the loop
	// (stencil.RunChannels) instead of re-resolving the pair on every
	// Sendrecv call — the endpoint idiom new code should prefer.
	//
	// Before (wrapper path, per iteration):
	//	comm.SendrecvFloat64s(b, temp[:1], rank-1, 0, one, rank-1, 0)
	// After (persistent channels, bound once):
	//	loSend := comm.SendChannelOf(b, rank-1, 0)   // outside the loop
	//	loRecv := comm.RecvChannelOf(b, rank-1, 0)
	//	... per iteration: loRecv.Irecv(loIn); loSend.Send(loOut)
	runChannels := func() (time.Duration, float64) {
		var checksum float64
		start := time.Now()
		if err := comm.RunPure(pure.Config{NRanks: nranks}, func(b comm.Backend) {
			res, err := stencil.RunChannels(b, params)
			if err != nil {
				log.Fatal(err)
			}
			if b.Rank() == 0 {
				checksum = res.Checksum
			}
		}); err != nil {
			log.Fatal(err)
		}
		return time.Since(start), checksum
	}

	plain, sum1 := run(false, false)
	tasked, sum2 := run(true, true)
	fmt.Printf("rand-stencil over %d Pure ranks, %d iters\n", nranks, params.Iters)
	fmt.Printf("  without tasks: %v (checksum %.6f)\n", plain, sum1)
	fmt.Printf("  with tasks:    %v (checksum %.6f)\n", tasked, sum2)
	if sum1 != sum2 {
		log.Fatalf("checksums diverged: %v vs %v", sum1, sum2)
	}
	fmt.Println("checksums match: task execution is semantics-preserving")
	chTime, sum4 := runChannels()
	fmt.Printf("  persistent channels: %v (checksum %.6f)\n", chTime, sum4)
	if sum4 != sum1 {
		log.Fatalf("channel checksum diverged: %v vs %v", sum4, sum1)
	}
	fmt.Println("persistent-channel halo exchange matches the wrapper trajectory")
	oneSided, sum3 := runRMA()
	fmt.Printf("  one-sided halo (Put+Notify): %v (checksum %.6f)\n", oneSided, sum3)
	if sum3 != sum1 {
		log.Fatalf("RMA checksum diverged: %v vs %v", sum3, sum1)
	}
	fmt.Println("RMA halo exchange matches the message-passing trajectory")
}

// writeObservability exports the tasked run's trace and metrics to the files
// requested on the command line.
func writeObservability(rep *pure.Report, traceOut, metricsOut, traceBinOut string) {
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			log.Fatal(err)
		}
		if err := rep.WriteChromeTrace(f); err != nil {
			log.Fatal(err)
		}
		f.Close()
		fmt.Printf("wrote %d trace events (%d dropped) to %s\n",
			rep.Trace.Len(), rep.Trace.Dropped(), traceOut)
	}
	if traceBinOut != "" {
		f, err := os.Create(traceBinOut)
		if err != nil {
			log.Fatal(err)
		}
		if err := rep.WriteTraceBin(f); err != nil {
			log.Fatal(err)
		}
		f.Close()
		fmt.Printf("wrote binary trace dump to %s (inspect with `puretrace analyze %s`)\n",
			traceBinOut, traceBinOut)
	}
	if metricsOut != "" {
		f, err := os.Create(metricsOut)
		if err != nil {
			log.Fatal(err)
		}
		if err := rep.Metrics.Snapshot().WritePrometheus(f); err != nil {
			log.Fatal(err)
		}
		f.Close()
		fmt.Printf("wrote metrics snapshot to %s\n", metricsOut)
	}
}
