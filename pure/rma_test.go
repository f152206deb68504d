package pure

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// twoNodeCfg places one rank per node on a two-node machine so every RMA
// operation between the ranks crosses the modeled network.
func twoNodeCfg() Config {
	return Config{
		NRanks:       2,
		Spec:         Spec{Nodes: 2, SocketsPerNode: 1, CoresPerSocket: 2, ThreadsPerCore: 1},
		RanksPerNode: 1,
		Net:          NetConfig{LatencyNs: 200, BytesPerNs: 10, TimeScale: 10},
		HangTimeout:  20 * time.Second,
	}
}

// TestRMAPutGetFence drives the basic fence-epoch cycle intra-node: each
// rank puts its ID-stamped pattern into its right neighbor's window, and
// after the fence everyone observes the neighbor's bytes and can Get them
// back out of any member's window.
func TestRMAPutGetFence(t *testing.T) {
	const n, sz = 4, 256
	err := Run(Config{NRanks: n}, func(r *Rank) {
		w := r.World().WinCreate(make([]byte, sz))
		me := r.ID()
		right := (me + 1) % n
		data := bytes.Repeat([]byte{byte(me + 1)}, sz)
		w.Fence() // open the epoch
		w.Put(data, right, 0)
		w.Fence()
		left := (me + n - 1) % n
		want := byte(left + 1)
		for i, b := range w.Buffer() {
			if b != want {
				r.Abort(fmt.Errorf("window[%d] = %d, want %d", i, b, want))
			}
		}
		// Get from two ranks away via the neighbor's window.
		got := make([]byte, sz)
		w.Get(got, right, 0)
		if got[0] != byte(me+1) {
			r.Abort(fmt.Errorf("Get from %d returned %d, want %d", right, got[0], me+1))
		}
		w.Fence()
		w.Free()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRMAIntraNodePutOneCopy is the zero-copy acceptance test: an
// intra-node Put of 8 KiB must move the payload with exactly one copy into
// the target's window memory, never through the send/recv protocol paths.
func TestRMAIntraNodePutOneCopy(t *testing.T) {
	const sz = 8192
	trace := NewTrace(2, 0)
	met := NewMetrics()
	err := Run(Config{NRanks: 2, Trace: trace, Metrics: met}, func(r *Rank) {
		w := r.World().WinCreate(make([]byte, sz))
		w.Fence()
		if r.ID() == 0 {
			w.Put(bytes.Repeat([]byte{0xAB}, sz), 1, 0)
		}
		w.Fence()
		if r.ID() == 1 && w.Buffer()[sz-1] != 0xAB {
			r.Abort(fmt.Errorf("put payload not visible after fence"))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	c := map[string]int64{}
	for _, s := range met.Snapshot().Counters {
		c[s.Name] = s.Value
	}
	if c["pure_rma_put_copies_total"] != 1 {
		t.Errorf("payload copies = %d, want exactly 1 (single-copy Put)", c["pure_rma_put_copies_total"])
	}
	if c["pure_rma_puts_total"] != 1 || c["pure_rma_bytes_total"] != sz {
		t.Errorf("puts = %d bytes = %d, want 1 / %d", c["pure_rma_puts_total"], c["pure_rma_bytes_total"], sz)
	}
	// The payload must not have leaked onto any message-passing path.
	for _, name := range []string{
		"pure_sends_eager_total", "pure_sends_rendezvous_total", "pure_sends_remote_total",
		"pure_rma_remote_packets_total",
	} {
		if c[name] != 0 {
			t.Errorf("%s = %d, want 0 for an intra-node Put", name, c[name])
		}
	}
	var puts, fences int
	rep := &Report{Trace: trace}
	for _, e := range rep.Timeline() {
		switch e.Kind {
		case obs.KRmaPut:
			puts++
			if e.Arg != sz {
				t.Errorf("KRmaPut Arg = %d, want %d", e.Arg, sz)
			}
		case obs.KRmaFence:
			fences++
		}
	}
	if puts != 1 {
		t.Errorf("KRmaPut events = %d, want 1", puts)
	}
	if fences != 4 {
		t.Errorf("KRmaFence events = %d, want 4 (2 ranks x 2 fences)", fences)
	}
}

// TestRMAAccumulateConcurrent hammers one target rank's window with
// concurrent overlapping Accumulates from every other rank; the per-target
// serialization must make the final sums exact (run under -race).
func TestRMAAccumulateConcurrent(t *testing.T) {
	const n, iters, cells = 6, 200, 8
	err := Run(Config{NRanks: n}, func(r *Rank) {
		w := r.World().WinCreate(make([]byte, cells*8))
		w.Fence()
		if r.ID() != 0 {
			one := Int64Bytes([]int64{1, 1, 1, 1, 1, 1, 1, 1})
			for i := 0; i < iters; i++ {
				// Whole-window adds overlap with the half-window adds below.
				w.Accumulate(one, 0, 0, Sum, Int64)
				w.Accumulate(one[:4*8], 0, 4*8, Sum, Int64)
			}
		}
		w.Fence()
		if r.ID() == 0 {
			got := make([]int64, cells)
			GetInt64s(got, w.Buffer())
			for i, v := range got {
				want := int64((n - 1) * iters)
				if i >= 4 {
					want *= 2
				}
				if v != want {
					r.Abort(fmt.Errorf("cell %d = %d, want %d", i, v, want))
				}
			}
		}
		w.Fence()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRMAPSCW exercises Post/Start/Complete/Wait neighbor epochs over
// several rounds: even ranks expose, odd ranks write, with round-stamped
// payloads so a stale epoch would be caught.
func TestRMAPSCW(t *testing.T) {
	const n, rounds = 4, 25
	err := Run(Config{NRanks: n}, func(r *Rank) {
		w := r.World().WinCreate(make([]byte, 8))
		me := r.ID()
		for round := 0; round < rounds; round++ {
			if me%2 == 0 {
				origin := (me + 1) % n
				w.Post([]int{origin})
				w.Wait()
				var got [1]int64
				GetInt64s(got[:], w.Buffer())
				want := int64(origin*1000 + round)
				if got[0] != want {
					r.Abort(fmt.Errorf("round %d: exposed value %d, want %d", round, got[0], want))
				}
			} else {
				target := (me + n - 1) % n
				w.Start([]int{target})
				w.Put(Int64Bytes([]int64{int64(me*1000 + round)}), target, 0)
				w.Complete()
			}
		}
		w.Free()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRMANotifyWait runs a put+notify producer-consumer pipeline: the
// consumer only ever observes fully written round values, and the ack slot
// throttles the producer so no round is overwritten early.
func TestRMANotifyWait(t *testing.T) {
	const rounds = 50
	err := Run(Config{NRanks: 2}, func(r *Rank) {
		w := r.World().WinCreate(make([]byte, 8))
		if r.ID() == 0 {
			for round := 0; round < rounds; round++ {
				w.Put(Int64Bytes([]int64{int64(round)}), 1, 0)
				w.Notify(1, 0) // data ready
				w.NotifyWait(1, 1)
			}
		} else {
			for round := 0; round < rounds; round++ {
				w.NotifyWait(0, 1)
				var got [1]int64
				GetInt64s(got[:], w.Buffer())
				if got[0] != int64(round) {
					r.Abort(fmt.Errorf("round %d: consumed %d", round, got[0]))
				}
				w.Notify(0, 1) // ack: safe to overwrite
			}
		}
		w.Free()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRMARputRgetWaitall checks the nonblocking variants complete through
// Waitall — including interspersed nil requests, the MPI_REQUEST_NULL
// analogue (regression: Waitall used to panic on nil entries).
func TestRMARputRgetWaitall(t *testing.T) {
	const sz = 1024
	err := Run(Config{NRanks: 2}, func(r *Rank) {
		c := r.World()
		w := c.WinCreate(make([]byte, sz))
		w.Fence()
		if r.ID() == 0 {
			q1 := w.Rput(bytes.Repeat([]byte{7}, sz/2), 1, 0)
			q2 := w.Rput(bytes.Repeat([]byte{9}, sz/2), 1, sz/2)
			c.Waitall(nil, q1, nil, q2, nil)
		}
		w.Fence()
		if r.ID() == 1 {
			if w.Buffer()[0] != 7 || w.Buffer()[sz-1] != 9 {
				r.Abort(fmt.Errorf("rput payloads missing: %d %d", w.Buffer()[0], w.Buffer()[sz-1]))
			}
			got := make([]byte, sz/2)
			q := w.Rget(got, 0, 0)
			if c.Wait(q) != sz/2 {
				r.Abort(fmt.Errorf("rget length mismatch"))
			}
		}
		w.Fence()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRMARemotePutGet moves windowed data across the modeled network (one
// rank per node): remote Put, Get and Accumulate must all round-trip, and
// the frames must be visible in the remote-packet counter.
func TestRMARemotePutGet(t *testing.T) {
	const sz = 512
	cfg := twoNodeCfg()
	cfg.Metrics = NewMetrics()
	err := Run(cfg, func(r *Rank) {
		w := r.World().WinCreate(make([]byte, sz))
		w.Fence()
		if r.ID() == 0 {
			w.Put(bytes.Repeat([]byte{0x5A}, sz), 1, 0)
			w.Accumulate(Int64Bytes([]int64{41}), 1, 0, Sum, Int64)
		}
		w.Fence()
		if r.ID() == 1 {
			var v [1]int64
			GetInt64s(v[:], w.Buffer()[:8])
			// 8 bytes of 0x5A as int64, plus 41 accumulated on top.
			var base [1]int64
			GetInt64s(base[:], bytes.Repeat([]byte{0x5A}, 8))
			if v[0] != base[0]+41 {
				r.Abort(fmt.Errorf("accumulated value %d, want %d", v[0], base[0]+41))
			}
			if w.Buffer()[sz-1] != 0x5A {
				r.Abort(fmt.Errorf("tail of remote put missing"))
			}
			got := make([]byte, sz)
			w.Get(got, 0, 0) // remote Get from rank 0's (zeroed) window
			for _, b := range got {
				if b != 0 {
					r.Abort(fmt.Errorf("remote get returned dirty bytes"))
				}
			}
		}
		w.Fence()
		w.Free()
	})
	if err != nil {
		t.Fatal(err)
	}
	var packets int64
	for _, s := range cfg.Metrics.Snapshot().Counters {
		if s.Name == "pure_rma_remote_packets_total" {
			packets = s.Value
		}
	}
	if packets == 0 {
		t.Fatal("cross-node RMA recorded zero remote packets")
	}
}

// TestRMARemoteProgressWhileBlocked pins the SSW-progress guarantee: rank 1
// blocks in a receive that only completes after rank 0's remote Put has
// been applied, so the Put must be applied by rank 1's progress hook while
// it is blocked — not by an RMA call it never makes.
func TestRMARemoteProgressWhileBlocked(t *testing.T) {
	err := Run(twoNodeCfg(), func(r *Rank) {
		c := r.World()
		w := c.WinCreate(make([]byte, 8))
		w.Fence()
		if r.ID() == 0 {
			// Put remotely, wait for target-side application, then release
			// rank 1 from its blocking receive.
			c.Wait(w.Rput(Int64Bytes([]int64{77}), 1, 0))
			c.Send(make([]byte, 1), 1, 0)
		} else {
			c.Recv(make([]byte, 1), 0, 0)
			var got [1]int64
			GetInt64s(got[:], w.Buffer())
			if got[0] != 77 {
				r.Abort(fmt.Errorf("put not applied before release message: %d", got[0]))
			}
		}
		w.Fence()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRMAStatsAndMetricsAgree cross-checks the per-rank stats harvest
// against the metrics registry for every RMA counter.
func TestRMAStatsAndMetricsAgree(t *testing.T) {
	met := NewMetrics()
	rep, err := RunWithReport(Config{NRanks: 2, Metrics: met}, func(r *Rank) {
		w := r.World().WinCreate(make([]byte, 64))
		w.Fence()
		if r.ID() == 0 {
			w.Put(make([]byte, 32), 1, 0)
			w.Accumulate(Int64Bytes([]int64{1}), 1, 32, Sum, Int64)
			got := make([]byte, 16)
			w.Get(got, 1, 0)
			w.Notify(1, 0)
		} else {
			w.NotifyWait(0, 1)
		}
		w.Fence()
	})
	if err != nil {
		t.Fatal(err)
	}
	c := map[string]int64{}
	for _, s := range met.Snapshot().Counters {
		c[s.Name] = s.Value
	}
	for name, want := range map[string]int64{
		"pure_rma_puts_total":        rep.Total.RmaPuts,
		"pure_rma_gets_total":        rep.Total.RmaGets,
		"pure_rma_accumulates_total": rep.Total.RmaAccumulates,
		"pure_rma_fences_total":      rep.Total.RmaFences,
		"pure_rma_notifies_total":    rep.Total.RmaNotifies,
	} {
		if c[name] != want {
			t.Errorf("%s = %d, stats say %d", name, c[name], want)
		}
	}
	if rep.Total.RmaPuts != 1 || rep.Total.RmaGets != 1 || rep.Total.RmaAccumulates != 1 ||
		rep.Total.RmaNotifies != 1 || rep.Total.RmaFences != 4 || rep.Total.RmaBytesPut != 40 {
		t.Errorf("unexpected stats totals: %+v", rep.Total)
	}
	// The metric covers all one-sided bytes (put 32 + acc 8 + get 16); the
	// RmaBytesPut stat covers only the write side (put 32 + acc 8).
	if c["pure_rma_bytes_total"] != 56 {
		t.Errorf("pure_rma_bytes_total = %d, want 56", c["pure_rma_bytes_total"])
	}
}

// TestWatchdogRMAHang arms the watchdog over a run where rank 1 waits for
// a notification nobody sends: the hang dump must name the RMA wait.
func TestWatchdogRMAHang(t *testing.T) {
	err := Run(Config{NRanks: 2, HangTimeout: 300 * time.Millisecond}, func(r *Rank) {
		w := r.World().WinCreate(make([]byte, 8))
		w.NotifyWait(0, 1) // never satisfied
	})
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("want *RunError, got %T: %v", err, err)
	}
	if re.Cause != CauseStall && re.Cause != CauseDeadlock {
		t.Fatalf("cause = %q, want a watchdog cause", re.Cause)
	}
	found := false
	for _, b := range re.Blocked {
		if b.Wait != nil && b.Wait.Op == "notify-wait" {
			found = true
		}
	}
	if !found {
		t.Fatalf("hang dump has no RMA wait record: %+v", re.Blocked)
	}
	if !strings.Contains(err.Error(), "notify-wait") {
		t.Fatalf("diagnostic text missing the RMA wait:\n%v", err)
	}
}
