package main

import (
	"testing"

	"repro/comm"
	"repro/internal/apps/comd"
	"repro/pure"
)

// TestTimedBackendPassThrough runs CoMD over the pure backend bare and
// decorated: the decorator must not change the Result, and must account for
// every family it delegates.
func TestTimedBackendPassThrough(t *testing.T) {
	p := comd.Params{
		Grid: [3]int{nRanks, 1, 1}, CellsPerRank: [3]int{3, 3, 3}, AtomsPerCell: 4,
		Steps: 20, PrintRate: 5, UseTask: true,
		Voids: []comd.Sphere{{Center: comd.Vec3{X: 4.5, Y: 1.5, Z: 1.5}, Radius: 1}},
	}
	run := func(decorate bool) (comd.Result, [nRanks]backendTotals) {
		var res comd.Result
		var totals [nRanks]backendTotals
		err := comm.RunPure(pure.Config{NRanks: nRanks}, func(b comm.Backend) {
			be := b
			var timed *timedBackend
			if decorate {
				timed = newTimedBackend(b, nil, noSpan)
				be = timed
			}
			r, err := comd.Run(be, p)
			if err != nil {
				t.Error(err)
			}
			if b.Rank() == 0 {
				res = r
			}
			if timed != nil {
				totals[b.Rank()] = *timed.tot
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, totals
	}
	bare, _ := run(false)
	decorated, totals := run(true)
	if bare != decorated {
		t.Fatalf("the decorator changed the result:\n bare      %+v\n decorated %+v", bare, decorated)
	}
	if bare.Atoms == 0 {
		t.Fatal("empty simulation")
	}
	for rank, tot := range totals {
		// One halo exchange before the first step and one per step, four
		// Sendrecv each; Steps/PrintRate energy reductions plus the four
		// of the Result; one force task before the first step and one per step.
		if want := int64(4 * (p.Steps + 1)); tot.P2PCalls != want || tot.MsgsSent != want {
			t.Errorf("rank %d: %d p2p calls, %d messages, want %d", rank, tot.P2PCalls, tot.MsgsSent, want)
		}
		if want := int64(p.Steps/p.PrintRate + 4); tot.CollectiveCalls != want {
			t.Errorf("rank %d: %d collective calls, want %d", rank, tot.CollectiveCalls, want)
		}
		if want := int64(p.Steps + 1); tot.TaskCalls != want {
			t.Errorf("rank %d: %d task executions, want %d", rank, tot.TaskCalls, want)
		}
		if tot.P2PNs <= 0 || tot.CollectiveNs <= 0 || tot.TaskNs <= 0 || tot.BytesSent <= 0 {
			t.Errorf("rank %d: a family has no time or bytes: %+v", rank, tot)
		}
	}
}

// TestTimedBackendChannels checks the ChannelBackend half of the decorator.
func TestTimedBackendChannels(t *testing.T) {
	var totals [nRanks]backendTotals
	err := comm.RunPure(pure.Config{NRanks: nRanks}, func(b comm.Backend) {
		timed := newTimedBackend(b, nil, noSpan)
		peer := 1 - b.Rank()
		buf := make([]byte, 8)
		if b.Rank() == 0 {
			buf[0] = 42
			comm.SendChannelOf(timed, peer, 9).Send(buf)
		} else {
			comm.RecvChannelOf(timed, peer, 9).Recv(buf)
			if buf[0] != 42 {
				t.Errorf("payload %d did not pass through", buf[0])
			}
		}
		totals[b.Rank()] = *timed.tot
	})
	if err != nil {
		t.Fatal(err)
	}
	if totals[0].MsgsSent != 1 || totals[0].BytesSent != 8 || totals[1].P2PCalls != 1 {
		t.Errorf("totals %+v", totals)
	}
}
