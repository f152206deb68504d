package main

import (
	"slices"

	"repro/pure"
)

// pgasSizes is the size table row of pgas-hist.
type pgasSizes struct{ updatesPerRank int }

func (s pgasSizes) scaled(f float64) pgasSizes {
	return pgasSizes{updatesPerRank: scaleInt(s.updatesPerRank, f, pgasRounds*pgasBatch)}
}

const (
	pgasBins   = 4096
	pgasRounds = 8    // barrier-separated rounds per repetition
	pgasBatch  = 4096 // updates per timed batch (the primary operation)
)

// pgasWorkload is pgas-hist: a driver on the public pure.Shmem API.  Bin b
// lives on rank b%2 at index b/2, so half of every rank's AtomicAdds land
// on the peer.  The bins are compared bit-exactly with a serial oracle
// after the timed region (internal/apps/shmem.RunHistogram times its oracle
// inside the run, so it is not used).
type pgasWorkload struct {
	sz     pgasSizes
	seed   uint64
	oracle []int64
}

// pgasValue is update i of rank: a pure function of the seed, so the serial
// oracle regenerates both ranks' streams.
func pgasValue(seed uint64, rank, i int) uint64 {
	x := seed ^ uint64(rank)<<56 ^ uint64(i)
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

func newPgas(sz pgasSizes, seed uint64) *pgasWorkload {
	w := &pgasWorkload{sz: sz, seed: seed, oracle: make([]int64, pgasBins)}
	for rank := 0; rank < nRanks; rank++ {
		for i := 0; i < sz.updatesPerRank; i++ {
			w.oracle[pgasValue(seed, rank, i)%pgasBins]++
		}
	}
	return w
}

func (w *pgasWorkload) rep(o obsOpts) (*repResult, error) {
	h, root, run := repSpans(o)
	const perRank = pgasBins / nRanks
	perRound := w.sz.updatesPerRank / pgasRounds
	stamps := make([]int64, 0, w.sz.updatesPerRank/pgasBatch+pgasRounds+1)
	bins := make([]int64, pgasBins)
	g := newRegion()
	reports, err := launch(oneNode, o, func(cfg pure.Config) (pure.Report, error) {
		return pure.RunWithReport(cfg, func(r *pure.Rank) {
			me := r.ID()
			c := r.World()
			ln := o.spans.lane(1+me, o.rep)
			s := ln.begin("setup", run)
			heap := c.ShmemCreate(perRank*8+64, 0)
			off := heap.Malloc(perRank * 8)
			g.start(me, heap.Barrier) // the bins are zeroed symmetric memory before anyone adds
			ln.end(s)

			s = ln.begin("phase:updates", run)
			for rd := 0; rd < pgasRounds; rd++ {
				for lo := rd * perRound; lo < (rd+1)*perRound; lo += pgasBatch {
					if me == 0 {
						stamps = append(stamps, now())
					}
					for i := lo; i < lo+pgasBatch; i++ {
						b := int64(pgasValue(w.seed, me, i) % pgasBins)
						heap.AtomicAdd(int(b%nRanks), off+b/nRanks*8, 1)
					}
				}
				if me == 0 {
					// Close the round's last batch before the barrier so
					// a batch never spans one.
					stamps = append(stamps, now())
				}
				heap.Barrier() // every rank's adds of this round are applied everywhere
			}
			ln.end(s)
			g.finish(me, c.Barrier)
			// Read this rank's bins back for the comparison below, outside
			// the timed region.
			for b := me; b < pgasBins; b += nRanks {
				bins[b] = heap.AtomicLoad(me, off+int64(b/nRanks)*8)
			}
			heap.FreeHeap()
		})
	})
	h.end(run)
	if err != nil {
		return nil, err
	}
	v := h.begin("verify", root)
	updates := int64(nRanks * w.sz.updatesPerRank)
	g.failed.Add(min(checkBins(bins, w.oracle), updates))
	h.end(v)
	res := g.result(updates, reports)
	res.opLat = batchLatencies(stamps, perRound/pgasBatch)
	res.rate = ratio(nRanks*pgasBatch*1e9, percentile(res.opLat, 50))
	res.named["updates_per_s"] = float64(updates) / res.wallS
	h.end(root)
	return res, nil
}

// batchLatencies turns the stamp stream — per round, one stamp at the start
// of each batch and one after the last — into sorted batch latencies.
func batchLatencies(stamps []int64, batchesPerRound int) []int64 {
	var lat []int64
	for lo := 0; lo+batchesPerRound < len(stamps); lo += batchesPerRound + 1 {
		round := stamps[lo : lo+batchesPerRound+1]
		for i := 1; i < len(round); i++ {
			lat = append(lat, round[i]-round[i-1])
		}
	}
	slices.Sort(lat)
	return lat
}
