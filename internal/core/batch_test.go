package core

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/ssw"
	"repro/internal/topology"
)

// setProcs pins GOMAXPROCS for a subtest and returns a restore func (also
// registered as a cleanup, for the early-exit paths).
func setProcs(t *testing.T, n int) func() {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	restore := func() { runtime.GOMAXPROCS(old) }
	t.Cleanup(restore)
	return restore
}

func TestSendBatchRoundTrip(t *testing.T) {
	err := Run(Config{NRanks: 2}, func(r *Rank) {
		c := r.World()
		if r.ID() == 0 {
			ch := c.SendChannel(1, 0)
			ch.SendBatch([][]byte{[]byte("alpha"), {}, []byte("gamma-gamma")})
			ch.SendBatch([][]byte{[]byte("solo")})
		} else {
			ch := c.RecvChannel(0, 0)
			buf := make([]byte, 256)
			msgs := ch.RecvBatch(buf, nil)
			want := []string{"alpha", "", "gamma-gamma"}
			if len(msgs) != len(want) {
				t.Errorf("batch 1: %d messages, want %d", len(msgs), len(want))
				return
			}
			for i, w := range want {
				if string(msgs[i]) != w {
					t.Errorf("batch 1 msg %d = %q, want %q", i, msgs[i], w)
				}
			}
			msgs = ch.RecvBatch(buf, msgs)
			if len(msgs) != 1 || string(msgs[0]) != "solo" {
				t.Errorf("batch 2 = %q", msgs)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendBatchRemote(t *testing.T) {
	// The same batch frames cross the modeled inter-node network.
	err := Run(Config{NRanks: 2, Spec: topology.Spec{Nodes: 2, SocketsPerNode: 1, CoresPerSocket: 1, ThreadsPerCore: 1}},
		func(r *Rank) {
			c := r.World()
			if r.ID() == 0 {
				c.SendChannel(1, 0).SendBatch([][]byte{[]byte("cross"), []byte("node")})
			} else {
				ch := c.RecvChannel(0, 0)
				buf := make([]byte, 256)
				var msgs [][]byte
				r.WaitFor(func() bool {
					var ok bool
					msgs, ok = ch.TryRecvBatch(buf, msgs)
					return ok
				})
				if len(msgs) != 2 || string(msgs[0]) != "cross" || string(msgs[1]) != "node" {
					t.Errorf("remote batch = %q", msgs)
				}
			}
		})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTrySendBackpressure(t *testing.T) {
	err := Run(Config{NRanks: 2, PBQSlots: 4}, func(r *Rank) {
		c := r.World()
		if r.ID() == 0 {
			ch := c.SendChannel(1, 0)
			sent := 0
			for ch.TrySend([]byte{byte(sent)}) {
				sent++
				if sent > 64 {
					t.Error("TrySend never refused on a full 4-slot queue")
					break
				}
			}
			if sent != 4 {
				t.Errorf("TrySend accepted %d messages into a 4-slot queue", sent)
			}
			c.Barrier() // queue is full; only now may the receiver drain
			// The receiver expects exactly `sent` messages then a stop byte.
			ch.Send([]byte{255, byte(sent)})
		} else {
			c.Barrier() // let the sender fill the queue first
			ch := c.RecvChannel(0, 0)
			buf := make([]byte, 8)
			got := 0
			for {
				n := ch.Recv(buf)
				if n == 2 && buf[0] == 255 {
					if int(buf[1]) != got {
						t.Errorf("received %d data messages, sender committed %d", got, buf[1])
					}
					break
				}
				if buf[0] != byte(got) {
					t.Errorf("message %d carried %d (drop-policy reordering?)", got, buf[0])
				}
				got++
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTrySendBarrierOrder(t *testing.T) {
	// TrySendBackpressure's sender fills the queue before the receiver
	// drains; this variant pins that the barrier above cannot deadlock with
	// PBQSlots=4 (the sender stops at the full queue rather than stalling).
	// Also covers TryRecv on an endpoint whose queue doesn't exist yet.
	err := Run(Config{NRanks: 2}, func(r *Rank) {
		c := r.World()
		if r.ID() == 0 {
			ch := c.RecvChannel(1, 3)
			buf := make([]byte, 16)
			if _, ok := ch.TryRecv(buf); ok {
				t.Error("TryRecv found a message before anything was sent")
			}
			if ch.RecvReady() {
				t.Error("RecvReady true before anything was sent")
			}
			c.Barrier()
			var n int
			r.WaitFor(func() bool {
				var ok bool
				n, ok = ch.TryRecv(buf)
				return ok
			})
			if n != 5 || !bytes.Equal(buf[:5], []byte("hello")) {
				t.Errorf("TryRecv got %q", buf[:n])
			}
		} else {
			c.Barrier()
			c.SendChannel(0, 3).Send([]byte("hello"))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// RecvReady is TryRecv's probe: true means the next TryRecv succeeds, a
// zero-length message counts as ready, and a drained queue reads false.
func TestRecvReadyMatchesTryRecv(t *testing.T) {
	err := Run(Config{NRanks: 2}, func(r *Rank) {
		c := r.World()
		if r.ID() == 0 {
			ch := c.SendChannel(1, 0)
			for _, m := range [][]byte{nil, []byte("ab")} {
				ch.Send(m)
				c.Barrier() // the message is queued
				c.Barrier() // the receiver has drained it
			}
			return
		}
		ch := c.RecvChannel(0, 0)
		buf := make([]byte, 16)
		for _, want := range []int{0, 2} {
			c.Barrier()
			if !ch.RecvReady() {
				t.Errorf("RecvReady false with a %d-byte message queued", want)
			}
			if n, ok := ch.TryRecv(buf); !ok || n != want {
				t.Errorf("TryRecv after RecvReady = (%d, %v), want (%d, true)", n, ok, want)
			}
			if ch.RecvReady() {
				t.Error("RecvReady true on a drained queue")
			}
			if _, ok := ch.TryRecv(buf); ok {
				t.Error("TryRecv succeeded on a drained queue")
			}
			c.Barrier()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendBatchTooLargePanics(t *testing.T) {
	err := Run(Config{NRanks: 2, SmallMsgMax: 64}, func(r *Rank) {
		c := r.World()
		if r.ID() == 0 {
			defer func() {
				if recover() == nil {
					t.Error("oversized SendBatch did not panic")
				}
				c.SendChannel(1, 0).Send([]byte("done"))
			}()
			c.SendChannel(1, 0).SendBatch([][]byte{make([]byte, 128)})
		} else {
			buf := make([]byte, 32)
			c.RecvChannel(0, 0).Recv(buf)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWaitForStealsAndAborts(t *testing.T) {
	// A rank parked in WaitFor must unwind when the runtime is poisoned
	// (here: by a peer abort), like any runtime-internal blocking site.
	err := Run(Config{NRanks: 2}, func(r *Rank) {
		if r.ID() == 0 {
			r.WaitFor(func() bool { return false }) // waits forever: only the abort frees it
			t.Error("WaitFor returned without its condition")
		} else {
			r.Abort(fmt.Errorf("statsd test abort"))
		}
	})
	if err == nil {
		t.Fatal("Run returned nil after an abort under WaitFor")
	}
}

// TestDeriveSpinBudget pins the graded budget derivation (ROADMAP item 2:
// the ssw budget must track GOMAXPROCS vs the ranks this process hosts).
func TestDeriveSpinBudget(t *testing.T) {
	cases := []struct {
		gomaxprocs, live, want int
	}{
		{8, 2, ssw.DefaultSpinBudget},  // undersubscribed: spin freely
		{4, 4, ssw.DefaultSpinBudget},  // exactly covered
		{16, 0, ssw.DefaultSpinBudget}, // degenerate
		{1, 2, 2},                      // single P: near-immediate yield
		{1, 64, 2},
		{4, 8, 32},  // graded by occupancy ratio
		{2, 16, 8},  //
		{2, 128, 4}, // graded floor
	}
	for _, c := range cases {
		if got := deriveSpinBudget(c.gomaxprocs, c.live); got != c.want {
			t.Errorf("deriveSpinBudget(%d, %d) = %d, want %d", c.gomaxprocs, c.live, got, c.want)
		}
	}
}

// TestOversubscribedWaitYieldsEarly is the satellite regression test: on an
// oversubscribed host (GOMAXPROCS=1 modeled, many live ranks) a blocked
// receive must NOT burn a full default spin budget per wakeup.  Poison runs
// exactly at each yield boundary, so counting probes between Poison calls
// measures precisely what one wakeup costs.
func TestOversubscribedWaitYieldsEarly(t *testing.T) {
	budget := deriveSpinBudget(1, 8)
	probes, yields := 0, 0
	var perWakeup []int
	last := 0
	w := ssw.Waiter{
		SpinBudget: budget,
		Poison: func() error {
			yields++
			perWakeup = append(perWakeup, probes-last)
			last = probes
			return nil
		},
	}
	w.Wait(func() bool { probes++; return yields >= 4 })
	for i, p := range perWakeup {
		if p > 2 {
			t.Fatalf("wakeup %d burned %d probes before yielding (budget %d); want <= 2 on an oversubscribed host",
				i, p, budget)
		}
	}
	if yields < 4 {
		t.Fatalf("only %d yield boundaries observed", yields)
	}
}

// TestSpinBudgetDerivedFromLiveRanks: an oversubscribed run (more ranks
// than GOMAXPROCS) must derive a reduced budget, and an exactly-covered run
// the full one.  White-box: ranks read the resolved config.
func TestSpinBudgetDerivedFromLiveRanks(t *testing.T) {
	restore := setProcs(t, 1)
	got := 0
	if err := Run(Config{NRanks: 4}, func(r *Rank) {
		if r.ID() == 0 {
			got = r.rt.cfg.SpinBudget
		}
	}); err != nil {
		t.Fatal(err)
	}
	restore()
	if got != 2 {
		t.Fatalf("4 ranks on GOMAXPROCS=1 derived budget %d, want 2", got)
	}

	setProcs(t, 4)
	if err := Run(Config{NRanks: 2}, func(r *Rank) {
		if r.ID() == 0 {
			got = r.rt.cfg.SpinBudget
		}
	}); err != nil {
		t.Fatal(err)
	}
	if got != ssw.DefaultSpinBudget {
		t.Fatalf("2 ranks on GOMAXPROCS=4 derived budget %d, want %d", got, ssw.DefaultSpinBudget)
	}
}

// BenchmarkChannelSendBatch measures the coalesced many-small-messages
// path: one enqueue per 32-message batch, against
// BenchmarkChannelSendUnbatched's message-per-enqueue baseline.  ns/op is
// per *message* in both, and both must report 0 allocs/op.
func BenchmarkChannelSendBatch(b *testing.B) {
	const batch = 32
	benchProcs(b)
	b.ReportAllocs()
	benchBatchedPipe(b, batch)
}

// BenchmarkChannelSendUnbatched is the per-message baseline for
// BenchmarkChannelSendBatch.
func BenchmarkChannelSendUnbatched(b *testing.B) {
	benchProcs(b)
	b.ReportAllocs()
	benchBatchedPipe(b, 1)
}

func benchBatchedPipe(b *testing.B, batch int) {
	const msgSize = 25 // one statsd record
	err := Run(Config{NRanks: 2, PBQSlots: 64}, func(r *Rank) {
		c := r.World()
		iters := (b.N + batch - 1) / batch
		if r.ID() == 0 {
			ch := c.SendChannel(1, 0)
			ack := c.RecvChannel(1, 1)
			msgs := make([][]byte, batch)
			payload := make([]byte, msgSize*batch)
			for i := range msgs {
				msgs[i] = payload[i*msgSize : (i+1)*msgSize]
			}
			ackBuf := make([]byte, 8)
			c.Barrier()
			b.ResetTimer()
			for i := 0; i < iters; i++ {
				if batch == 1 {
					ch.Send(msgs[0])
				} else {
					ch.SendBatch(msgs)
				}
				if i%16 == 15 {
					ack.Recv(ackBuf) // keep the queue from being the bottleneck
				}
			}
			b.StopTimer()
		} else {
			ch := c.RecvChannel(0, 0)
			ack := c.SendChannel(0, 1)
			buf := make([]byte, msgSize*batch+batchHeader+batchMsgHeader*batch)
			msgs := make([][]byte, 0, batch)
			c.Barrier()
			for i := 0; i < iters; i++ {
				if batch == 1 {
					ch.Recv(buf[:msgSize])
				} else {
					msgs = ch.RecvBatch(buf, msgs)
				}
				if i%16 == 15 {
					ack.Send([]byte{1})
				}
			}
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}
