package main

import (
	proto "repro/internal/statsd"

	"repro/internal/apps/statsd"
	"repro/pure"
)

// statsdSizes is the size table row of statsd-stream.
type statsdSizes struct {
	windows         int // flush windows per repetition
	eventsPerWindow int64
}

func (s statsdSizes) scaled(f float64) statsdSizes {
	// Fewer windows, not smaller ones: a window's fixed cost (fresh
	// aggregates, one rollup) keeps its share of the work at any scale.
	return statsdSizes{windows: scaleInt(s.windows, f, 1), eventsPerWindow: s.eventsPerWindow}
}

// statsdWorkload is statsd-stream: the serving pipeline with 1 ingester and
// 1 aggregator inside one pure.Run, driven one flush window after another
// the way a statsd server is — each window is one statsd.Run (parse, intern,
// shard, batch, ship, stage, drain, one partitioned-reducer rollup) over
// the node-shared Interner, timed on the ingester and proven exact.
type statsdWorkload struct {
	sz   statsdSizes
	seed uint64
}

func newStatsd(sz statsdSizes, seed uint64) *statsdWorkload {
	return &statsdWorkload{sz: sz, seed: seed}
}

func (w *statsdWorkload) config(window int, it *proto.Interner) statsd.Config {
	return statsd.Config{
		Ingesters:   1,
		Aggregators: 1,
		Events:      w.sz.eventsPerWindow,
		Rounds:      1,
		Steal:       true,
		Gen:         proto.GenConfig{ZipfS: 1.2, Seed: w.seed + uint64(window)},
		Interner:    it,
	}
}

func (w *statsdWorkload) rep(o obsOpts) (*repResult, error) {
	h, root, run := repSpans(o)
	it := proto.NewInterner(4096)
	stamps := make([]int64, w.sz.windows+1)
	var stolen int64
	g := newRegion()
	reports, err := launch(oneNode, o, func(cfg pure.Config) (pure.Report, error) {
		return pure.RunWithReport(cfg, func(r *pure.Rank) {
			me := r.ID()
			c := r.World()
			ln := o.spans.lane(1+me, o.rep)
			s := ln.begin("setup", run)
			g.start(me, c.Barrier)
			ln.end(s)

			s = ln.begin("phase:windows", run)
			var failed int64
			if me == 0 {
				stamps[0] = now()
			}
			for win := 0; win < w.sz.windows; win++ {
				res, err := statsd.Run(r, w.config(win, it))
				if err != nil {
					r.Abort(err)
				}
				if me == 0 {
					stamps[win+1] = now()
					failed += checkStatsd(res, w.sz.eventsPerWindow)
					stolen += res.Stolen
				}
			}
			ln.end(s)
			g.failed.Add(failed)
			g.finish(me, c.Barrier)
		})
	})
	h.end(run)
	if err != nil {
		return nil, err
	}
	events := int64(w.sz.windows) * w.sz.eventsPerWindow
	res := g.result(events, reports)
	// A failed window fails every event in it.
	res.failed *= w.sz.eventsPerWindow
	res.opLat = latencies(stamps)
	res.rate = ratio(float64(w.sz.eventsPerWindow)*1e9, percentile(res.opLat, 50))
	res.named["events_per_s"] = float64(events) / res.wallS
	res.named["statsd.stolen_chunks"] = float64(stolen)
	h.end(root)
	return res, nil
}
