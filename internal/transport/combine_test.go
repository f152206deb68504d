package transport

import (
	"runtime"
	"testing"
	"time"
)

// The write combiner's contract, on the in-memory network (membackend_test.go)
// where socket writes are counted independently of the link's own counter and
// a deaf peer holds a frame unacked for exactly as long as a test wants.

// memPair starts a two-node mesh on a fresh memNet and returns once both
// links are up and quiet, with the counters at that point as the baseline:
// the heartbeat interval is an hour, so the ticker's period (half of it) is
// half an hour: no tick, and so no heartbeat, falls inside a test.
func memPair(t *testing.T, mut func(node int, c *Config)) (tp [2]*Transport, col [2]*collector, be [2]*memBackend, base [2]linkBase) {
	t.Helper()
	net := newMemNet()
	be = [2]*memBackend{net.backend(), net.backend()}
	tp, col = startPairOn(t, [2]Backend{be[0], be[1]}, func(node int, c *Config) {
		c.HeartbeatEvery = time.Hour
		if mut != nil {
			mut(node, c)
		}
	})
	return tp, col, be, quiesce(t, tp, be)
}

// linkBase is one node's counters once its link went quiet.
type linkBase struct{ frames, writes, beWrites int64 }

func quiesce(t *testing.T, tp [2]*Transport, be [2]*memBackend) (base [2]linkBase) {
	t.Helper()
	snap := func() (b [2]linkBase, ready bool) {
		ready = true
		for node := range tp {
			st := tp[node].Stats()[1-node]
			ticks := tp[node].period < time.Minute // else no heartbeat is coming
			ready = ready && st.Up && (st.HeartbeatsSent > 0 || !ticks)
			b[node] = linkBase{st.FramesSent, st.Writes, be[node].writes.Load()}
		}
		return b, ready
	}
	// Quiet = the same counters on two polls a millisecond apart, after the
	// one heartbeat was decided.
	waitFor(t, 5*time.Second, "links up and quiet", func() bool {
		prev := base
		var ready bool
		base, ready = snap()
		return ready && base == prev
	})
	return base
}

// checkWrites asserts the link's Writes counter agrees with the writes the
// backend saw since base, and returns that count.  The link counts a write
// when it returns, the backend when it happens, so the two are given a
// moment to meet.
func checkWrites(t *testing.T, tp *Transport, peer int, be *memBackend, base linkBase) int64 {
	t.Helper()
	var w, seen int64
	deadline := time.Now().Add(2 * time.Second)
	for {
		w, seen = tp.Stats()[peer].Writes-base.writes, be.writes.Load()-base.beWrites
		if w == seen {
			return w
		}
		if time.Now().After(deadline) {
			t.Fatalf("link counted %d socket writes, the backend saw %d", w, seen)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// startEchoPair starts a two-node mesh (nil backends = TCP) for a handler-
// driven ping-pong: node 1 answers every frame from inside Deliver, node 0
// signals each answer on pong (one round trip in flight at a time).  Cleanup
// closes both.
func startEchoPair(t *testing.T, be [2]Backend, base Config) (tp [2]*Transport, pong chan struct{}) {
	t.Helper()
	pong = make(chan struct{}, 1)
	tp = startHandlerPair(t, be, base, [2]Handlers{
		{Deliver: func(*Frame) { pong <- struct{}{} }},
		{Deliver: func(f *Frame) {
			reply := Frame{Kind: KindData, Payload: f.Payload}
			if err := tp[1].Send(0, &reply); err != nil {
				t.Errorf("reply: %v", err)
			}
		}},
	})
	return tp, pong
}

// startHandlerPair starts a two-node mesh (nil backends = TCP) whose nodes
// run the given handlers.  Cleanup closes both.
func startHandlerPair(tb testing.TB, be [2]Backend, base Config, h [2]Handlers) (tp [2]*Transport) {
	tb.Helper()
	addrs := reserveAddrs(tb, 2)
	for node := range tp {
		cfg := base
		cfg.Node, cfg.Addrs, cfg.Job = node, addrs, 42
		var err error
		if tp[node], err = New(cfg, be[node], 2, h[node]); err != nil {
			tb.Fatal(err)
		}
		if err := tp[node].Start(); err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { tp[node].Close() })
	}
	return tp
}

// A lone frame on an idle link is written at once, by itself: on a strict
// ping-pong every frame — pings, pongs and node 0's explicit acks — is its
// own write, exactly as before combining.  Node 1 answers from inside
// Deliver, so its pong is written carrying the watermark before the reader
// would ack, and the explicit ack is dropped as redundant.
func TestCombineIdleFrameWrittenAtOnce(t *testing.T) {
	const rounds = 200
	net := newMemNet()
	be := [2]*memBackend{net.backend(), net.backend()}
	tp, pong := startEchoPair(t, [2]Backend{be[0], be[1]}, Config{HeartbeatEvery: time.Hour})
	base := quiesce(t, tp, be)

	payload := make([]byte, 8)
	for i := 1; i <= rounds; i++ {
		f := Frame{Kind: KindData, Payload: payload}
		if err := tp[0].Send(1, &f); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		<-pong
		// Strict: the ack of this pong is out before the next ping is sent,
		// so the two cannot share a write by coincidence.
		waitFor(t, 5*time.Second, "ack of the pong written", func() bool {
			return tp[0].Stats()[1].FramesSent-base[0].frames == int64(2*i)
		})
	}
	for node, frames := range [2]int64{2 * rounds, rounds} {
		// The last pong reaches node 0 before node 1 has counted its write.
		waitFor(t, 5*time.Second, "frame counters settled", func() bool {
			return tp[node].Stats()[1-node].FramesSent-base[node].frames >= frames
		})
		if got := tp[node].Stats()[1-node].FramesSent - base[node].frames; got != frames {
			t.Errorf("node %d sent %d frames, want %d", node, got, frames)
		}
		if w := checkWrites(t, tp[node], 1-node, be[node], base[node]); w != frames {
			t.Errorf("node %d: %d frames in %d writes, want one write per frame", node, frames, w)
		}
	}
}

// A burst behind one unacked frame stays staged until the ack comes back,
// then goes out together: in order, exactly once, in a small fraction of the
// writes.
func TestCombineBurstSharesWrites(t *testing.T) {
	const burst = 1000 // 56 bytes each: below flushBytes, so only the ack clock flushes
	tp, col, be, base := memPair(t, nil)

	be[1].setDeaf(true) // node 1 reads nothing, so it acks nothing
	sendRange(t, tp[0], 1, 0, 1)
	if w := checkWrites(t, tp[0], 1, be[0], base[0]); w != 1 {
		t.Fatalf("lone frame on an idle link: %d writes, want 1", w)
	}
	sendRange(t, tp[0], 1, 1, 1+burst)
	if w := checkWrites(t, tp[0], 1, be[0], base[0]); w != 1 {
		t.Fatalf("burst behind an unacked frame: %d writes before the ack, want still 1", w)
	}
	be[1].setDeaf(false)

	waitFor(t, 5*time.Second, "burst delivered", func() bool { return col[1].count() == 1+burst })
	checkOrdered(t, col[1], 1+burst)
	if w := checkWrites(t, tp[0], 1, be[0], base[0]); w > (1+burst)/8 {
		t.Fatalf("%d frames took %d writes, want at most 1/8 as many", 1+burst, w)
	}
	if st := tp[0].Stats()[1]; st.FramesSent-base[0].frames != 1+burst || st.Retransmits != 0 {
		t.Fatalf("burst stats: %+v", st)
	}
}

// Staged frames are in the resend window like written ones: with 5 % of
// first transmissions resetting the connection throughout, a connection
// killed while a burst sits staged replays it — and what is sent during the
// break — exactly once, in order.
func TestCombineReplayExactlyOnce(t *testing.T) {
	const third = 500
	tp, col, be, _ := memPair(t, func(node int, c *Config) {
		c.Faults = Faults{Seed: 11, ResetProb: 0.05}
	})
	sendRange(t, tp[0], 1, 0, third)
	waitFor(t, 10*time.Second, "first third delivered", func() bool { return col[1].count() == third })

	be[1].setDeaf(true) // the burst stays staged behind its first frame
	sendRange(t, tp[0], 1, third, 2*third)
	tp[0].KillLink(1)
	tp[1].KillLink(0)
	be[1].setDeaf(false)
	sendRange(t, tp[0], 1, 2*third, 3*third)

	waitFor(t, 20*time.Second, "everything delivered across the break", func() bool { return col[1].count() == 3*third })
	checkOrdered(t, col[1], 3*third)
	st := tp[0].Stats()[1]
	if st.ResetsInjected == 0 || st.Reconnects == 0 || st.Retransmits == 0 {
		t.Fatalf("the test exercised nothing: %+v", st)
	}
	if d, ok := col[0].deadReason(1); ok {
		t.Fatalf("recoverable link declared dead: %s", d)
	}
}

// Transport.Flush is what a rank about to block calls: it writes what is
// staged without waiting for the ack, and costs nothing with nothing staged.
func TestCombineFlushWritesStaged(t *testing.T) {
	tp, col, be, base := memPair(t, nil)
	be[1].setDeaf(true)
	sendRange(t, tp[0], 1, 0, 2) // the first is written, the second staged behind it
	tp[0].Flush()
	if w := checkWrites(t, tp[0], 1, be[0], base[0]); w != 2 {
		t.Fatalf("after Flush: %d writes, want 2", w)
	}
	tp[0].Flush()
	if w := checkWrites(t, tp[0], 1, be[0], base[0]); w != 2 {
		t.Fatalf("Flush with nothing staged wrote: %d writes, want 2", w)
	}
	be[1].setDeaf(false)
	waitFor(t, 5*time.Second, "both frames delivered", func() bool { return col[1].count() == 2 })
	checkOrdered(t, col[1], 2)
}

// A full resend window holds no unwritten frame — ErrBusy flushes before it
// is returned — so a one-way burst far larger than the window drains on acks
// alone, with nothing replayed.
func TestCombineFullWindowIsWritten(t *testing.T) {
	const window = 64
	tp, col, be, base := memPair(t, func(node int, c *Config) { c.MaxUnacked = window })

	be[1].setDeaf(true)
	f := Frame{Kind: KindData, Payload: make([]byte, 8)}
	sent := 0
	for ; tp[0].Send(1, &f) == nil; sent++ {
	}
	if sent != window {
		t.Fatalf("window took %d frames before ErrBusy, want %d", sent, window)
	}
	if w := checkWrites(t, tp[0], 1, be[0], base[0]); w != 2 {
		t.Fatalf("full window: %d writes, want 2 (the idle frame, then the rest at ErrBusy)", w)
	}
	if n := tp[0].Stats()[1].FramesSent - base[0].frames; n != window {
		t.Fatalf("full window: %d of %d frames written", n, window)
	}
	be[1].setDeaf(false)
	waitFor(t, 5*time.Second, "window delivered", func() bool { return col[1].count() == window })

	const n = 4096
	sendN(t, tp[0], 1, n)
	waitFor(t, 10*time.Second, "burst delivered", func() bool { return col[1].count() == window+n })
	st := tp[0].Stats()[1]
	if st.SendBusy == 0 {
		t.Fatal("the burst never filled the window; the test exercised nothing")
	}
	if st.Reconnects != 0 || st.Retransmits != 0 {
		t.Fatalf("burst needed %d reconnects (%d frames replayed), want none", st.Reconnects, st.Retransmits)
	}
}

// The frame path's allocation gate (`make gates` runs it by name): in
// steady state link.send plus the reader's delivery allocate at most once
// per frame — the resend window, staging buffers and the reader's Frame are
// all reused.  Real TCP, the handler-driven ping-pong of the benchmark's
// link rung.
func TestLinkFrameAllocs(t *testing.T) {
	tp, pong := startEchoPair(t, [2]Backend{}, Config{HeartbeatEvery: 50 * time.Millisecond, PeerDeadAfter: 5 * time.Second})
	waitUp(t, tp[0], 1)
	waitUp(t, tp[1], 0)

	payload := make([]byte, 8)
	roundTrip := func() {
		f := Frame{Kind: KindData, Payload: payload}
		if err := tp[0].Send(1, &f); err != nil {
			t.Fatalf("send: %v", err)
		}
		<-pong
	}
	for i := 0; i < 100; i++ {
		roundTrip() // buffers reach their steady size
	}
	perFrame := testing.AllocsPerRun(2000, roundTrip) / 2
	t.Logf("%.3f allocs/frame (GOMAXPROCS %d)", perFrame, runtime.GOMAXPROCS(0))
	if perFrame > 1 {
		t.Fatalf("link frame path allocates %.2f times per frame, want <= 1", perFrame)
	}
}

// BenchmarkLinkStream64B is xnode-tcp's stream phase on the link alone, over
// MemNet: node 0 sends 64 B data frames one way under a 512-frame credit
// window, and node 1 answers every 256th frame (and the last) with a credit
// frame from inside Deliver.  No kernel sits underneath, so it times the link
// code's own per-frame work: encode, stage, write, decode, deliver, ack.
func BenchmarkLinkStream64B(b *testing.B) {
	const window, every = 512, 256
	n := b.N
	credits := make(chan struct{}, n/every+1) // a slot per credit frame: Deliver never blocks
	got := 0                                  // node 1's reader only
	var tp [2]*Transport
	net := NewMemNet()
	tp = startHandlerPair(b, [2]Backend{net.Backend(), net.Backend()}, Config{}, [2]Handlers{
		{Deliver: func(*Frame) { credits <- struct{}{} }},
		{Deliver: func(*Frame) {
			if got++; got%every == 0 || got == n {
				if err := tp[1].Send(0, &Frame{Kind: KindData}); err != nil {
					b.Errorf("credit: %v", err)
				}
			}
		}},
	})
	for !tp[0].Stats()[1].Up || !tp[1].Stats()[0].Up {
		time.Sleep(time.Millisecond)
	}
	payload := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	credit, owed := window, (n+every-1)/every
	for i := 0; i < n; i++ {
		if credit == 0 {
			<-credits
			owed--
			credit += every
		}
		f := Frame{Kind: KindData, Payload: payload}
		for {
			err := tp[0].Send(1, &f)
			if err == nil {
				break
			}
			if err != ErrBusy {
				b.Fatalf("send %d: %v", i, err)
			}
			runtime.Gosched()
		}
		credit--
	}
	for ; owed > 0; owed-- {
		<-credits // every frame delivered
	}
}
