package transport

import (
	"encoding/binary"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// reserveAddrs is ReserveLoopback for tests.
func reserveAddrs(t testing.TB, n int) []string {
	t.Helper()
	addrs, err := ReserveLoopback(n)
	if err != nil {
		t.Fatal(err)
	}
	return addrs
}

// TestReserveLoopback: distinct loopback addresses, all below the kernel's
// ephemeral range (a peer's dial can never be handed one as a source port),
// and all free to bind at once.
func TestReserveLoopback(t *testing.T) {
	addrs := reserveAddrs(t, 3)
	seen := map[string]bool{}
	for _, a := range addrs {
		host, port, err := net.SplitHostPort(a)
		if err != nil || host != "127.0.0.1" {
			t.Fatalf("reserved address %q is not a loopback host:port", a)
		}
		if p, _ := strconv.Atoi(port); p < 10000 || p >= 30000 {
			t.Fatalf("reserved port %s is not below the ephemeral range", port)
		}
		if seen[a] {
			t.Fatalf("duplicate reserved address %q in %v", a, addrs)
		}
		seen[a] = true
		ln, err := net.Listen("tcp", a)
		if err != nil {
			t.Fatalf("reserved address %q cannot be bound: %v", a, err)
		}
		defer ln.Close()
	}
}

// collector gathers delivered frames (payloads copied — the handler
// contract says they are only valid during the call).
type collector struct {
	mu     sync.Mutex
	frames []Frame
	// waiting is what Deliver reports in Frame.Waiting: the test plays a
	// runtime whose destination rank was (or was not) found waiting.
	waiting atomic.Bool

	deadMu   sync.Mutex
	dead     map[int]string
	deadAt   map[int]time.Time
	byes     map[int]string
	byeAbort map[int]bool
	byeDead  map[int][]int
}

func newCollector() *collector {
	return &collector{dead: map[int]string{}, deadAt: map[int]time.Time{}, byes: map[int]string{}, byeAbort: map[int]bool{}, byeDead: map[int][]int{}}
}

func (c *collector) handlers() Handlers {
	return Handlers{
		Deliver: func(f *Frame) {
			cp := *f
			cp.Payload = append([]byte(nil), f.Payload...)
			c.mu.Lock()
			c.frames = append(c.frames, cp)
			c.mu.Unlock()
			f.Waiting = c.waiting.Load()
		},
		PeerDead: func(node int, reason string) {
			c.deadMu.Lock()
			c.dead[node] = reason
			c.deadAt[node] = time.Now()
			c.deadMu.Unlock()
		},
		PeerBye: func(node int, abort bool, reason string, dead []int) {
			c.deadMu.Lock()
			c.byes[node] = reason
			c.byeAbort[node] = abort
			c.byeDead[node] = dead
			c.deadMu.Unlock()
		},
	}
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.frames)
}

func (c *collector) deadReason(node int) (string, bool) {
	c.deadMu.Lock()
	defer c.deadMu.Unlock()
	r, ok := c.dead[node]
	return r, ok
}

func (c *collector) byeFrom(node int) (string, bool, bool) {
	c.deadMu.Lock()
	defer c.deadMu.Unlock()
	r, ok := c.byes[node]
	return r, c.byeAbort[node], ok
}

// startPair brings up a two-node mesh and returns both endpoints plus their
// collectors.  Cleanup closes both.
func startPair(t *testing.T, mut func(node int, c *Config)) (tp [2]*Transport, col [2]*collector) {
	t.Helper()
	return startPairOn(t, [2]Backend{}, mut)
}

// startPairOn is startPair over the given per-node backends (nil = TCP).
func startPairOn(t *testing.T, be [2]Backend, mut func(node int, c *Config)) (tp [2]*Transport, col [2]*collector) {
	t.Helper()
	addrs := reserveAddrs(t, 2)
	for node := 0; node < 2; node++ {
		cfg := Config{Node: node, Addrs: addrs, Job: 42}
		if mut != nil {
			mut(node, &cfg)
		}
		col[node] = newCollector()
		var err error
		tp[node], err = New(cfg, be[node], 2, col[node].handlers())
		if err != nil {
			t.Fatalf("node %d: New: %v", node, err)
		}
		if err := tp[node].Start(); err != nil {
			t.Fatalf("node %d: Start: %v", node, err)
		}
	}
	t.Cleanup(func() {
		tp[0].Close()
		tp[1].Close()
	})
	return tp, col
}

func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out after %v waiting for %s", d, what)
}

// waitUp blocks until tp's link to peer has a live connection (frames sent
// while the link is still dialing are queued and replayed without touching
// the fault plan, so lossy tests must wait).
func waitUp(t *testing.T, tp *Transport, peer int) {
	t.Helper()
	waitFor(t, 5*time.Second, fmt.Sprintf("link to node %d up", peer), func() bool {
		return tp.Stats()[peer].Up
	})
}

// sendN pushes n sequenced data frames (payload = frame index, LE64) from
// tp to dstNode, yielding through ErrBusy.
func sendN(t *testing.T, tp *Transport, dstNode, n int) {
	t.Helper()
	sendRange(t, tp, dstNode, 0, n)
}

// sendRange is sendN for the frame indices [from, to).
func sendRange(t *testing.T, tp *Transport, dstNode, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		var p [8]byte
		binary.LittleEndian.PutUint64(p[:], uint64(i))
		f := Frame{Kind: KindData, SrcRank: 1, DstRank: 2, Tag: 7, Comm: 1, Payload: p[:]}
		for {
			err := tp.Send(dstNode, &f)
			if err == nil {
				break
			}
			if err != ErrBusy {
				t.Fatalf("send %d: %v", i, err)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
}

// checkOrdered verifies the collector saw payloads 0..n-1 in order.
func checkOrdered(t *testing.T, c *collector, n int) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.frames) != n {
		t.Fatalf("delivered %d frames, want %d", len(c.frames), n)
	}
	for i, f := range c.frames {
		if got := binary.LittleEndian.Uint64(f.Payload); got != uint64(i) {
			t.Fatalf("frame %d: payload %d (out of order or lost)", i, got)
		}
		if f.SrcRank != 1 || f.DstRank != 2 || f.Tag != 7 || f.Comm != 1 {
			t.Fatalf("frame %d: routing fields corrupted: %+v", i, f)
		}
	}
}

func TestLinkDeliverOrder(t *testing.T) {
	tp, col := startPair(t, nil)
	const n = 200
	sendN(t, tp[0], 1, n)
	waitFor(t, 5*time.Second, "all frames delivered", func() bool { return col[1].count() == n })
	checkOrdered(t, col[1], n)

	// And the reverse direction (accepting side sends too).
	sendN(t, tp[1], 0, n)
	waitFor(t, 5*time.Second, "reverse frames delivered", func() bool { return col[0].count() == n })
	checkOrdered(t, col[0], n)
}

func TestLinkLossyRecovery(t *testing.T) {
	tp, col := startPair(t, func(node int, c *Config) {
		c.Faults = Faults{Seed: 7, DropProb: 0.25}
		c.RetryBackoff = 2 * time.Millisecond
		c.RetryBackoffMax = 20 * time.Millisecond
		c.RetryBudget = 1000 // drops must be recovered, not declared fatal
	})
	waitUp(t, tp[0], 1)
	const n = 300
	sendN(t, tp[0], 1, n)
	waitFor(t, 10*time.Second, "lossy stream delivered", func() bool { return col[1].count() == n })
	checkOrdered(t, col[1], n)

	st := tp[0].Stats()[1]
	if st.DropsInjected == 0 {
		t.Fatal("fault plan injected no drops; the test exercised nothing")
	}
	if st.Retransmits == 0 {
		t.Fatal("drops recovered without retransmissions?")
	}
	if d, ok := col[0].deadReason(1); ok {
		t.Fatalf("healthy lossy link declared dead: %s", d)
	}
	if d, ok := col[1].deadReason(0); ok {
		t.Fatalf("healthy lossy link declared dead: %s", d)
	}
}

func TestLinkReconnectResend(t *testing.T) {
	tp, col := startPair(t, func(node int, c *Config) {
		c.RetryBackoff = 5 * time.Millisecond
		c.PeerDeadAfter = 2 * time.Second // survive the break
	})
	const half = 100
	sendN(t, tp[0], 1, half)
	waitFor(t, 5*time.Second, "first half delivered", func() bool { return col[1].count() == half })

	// Sever the connection on both sides and keep sending through the break;
	// the dialer reconnects and the delivered watermark dedups any overlap.
	tp[0].KillLink(1)
	tp[1].KillLink(0)
	go func() {
		for i := 0; i < half; i++ {
			var p [8]byte
			binary.LittleEndian.PutUint64(p[:], uint64(half+i))
			f := Frame{Kind: KindData, SrcRank: 1, DstRank: 2, Tag: 7, Comm: 1, Payload: p[:]}
			for tp[0].Send(1, &f) == ErrBusy {
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()
	waitFor(t, 10*time.Second, "all frames across the reconnect", func() bool { return col[1].count() == 2*half })
	checkOrdered(t, col[1], 2*half)
	if d, ok := col[0].deadReason(1); ok {
		t.Fatalf("reconnectable break declared dead: %s", d)
	}
}

func TestLinkHeartbeatDeath(t *testing.T) {
	tp, col := startPair(t, func(node int, c *Config) {
		c.HeartbeatEvery = 5 * time.Millisecond
		c.PeerDeadAfter = 50 * time.Millisecond
	})
	// Make sure the link is actually up first (everUp arms the detector).
	sendN(t, tp[0], 1, 1)
	waitFor(t, 5*time.Second, "link up", func() bool { return col[1].count() == 1 })

	// A full partition silences both directions; both sides must name the
	// peer dead within a few detection intervals.
	tp[0].SetPartitioned(1, true)
	tp[1].SetPartitioned(0, true)
	waitFor(t, 2*time.Second, "node 0 declares node 1 dead", func() bool {
		_, ok := col[0].deadReason(1)
		return ok
	})
	waitFor(t, 2*time.Second, "node 1 declares node 0 dead", func() bool {
		_, ok := col[1].deadReason(0)
		return ok
	})
	reason, _ := col[0].deadReason(1)
	if !strings.Contains(reason, "no traffic from node 1") {
		t.Fatalf("death reason does not name the silence: %q", reason)
	}
	// Sends toward a dead peer fail loudly with the stored reason.
	err := tp[0].Send(1, &Frame{Kind: KindData, Payload: []byte("x")})
	var de *DeadError
	if !asDeadError(err, &de) || de.Node != 1 {
		t.Fatalf("send to dead peer: %v", err)
	}
}

func asDeadError(err error, out **DeadError) bool {
	de, ok := err.(*DeadError)
	if ok {
		*out = de
	}
	return ok
}

func TestLinkRetryBudgetExhaustion(t *testing.T) {
	tp, col := startPair(t, func(node int, c *Config) {
		c.RetryBudget = 3
		c.RetryBackoff = 2 * time.Millisecond
		c.RetryBackoffMax = 4 * time.Millisecond
		c.PeerDeadAfter = 5 * time.Second // the budget, not the heartbeat, must trip
	})
	sendN(t, tp[0], 1, 1)
	waitFor(t, 5*time.Second, "link up", func() bool { return col[1].count() == 1 })

	// Node 1 goes silent (partition eats node 0's frames and withholds acks);
	// node 0's retransmit rounds burn the budget and give up.
	tp[1].SetPartitioned(0, true)
	sendN(t, tp[0], 1, 4)
	waitFor(t, 5*time.Second, "budget exhaustion", func() bool {
		_, ok := col[0].deadReason(1)
		return ok
	})
	reason, _ := col[0].deadReason(1)
	if !strings.Contains(reason, "retry budget exhausted") || !strings.Contains(reason, "node 1") {
		t.Fatalf("death reason: %q", reason)
	}
	if st := tp[0].Stats()[1]; st.Retransmits == 0 || !st.Dead {
		t.Fatalf("stats after exhaustion: %+v", st)
	}
}

func TestLinkGracefulBye(t *testing.T) {
	tp, col := startPair(t, nil)
	sendN(t, tp[0], 1, 1)
	waitFor(t, 5*time.Second, "link up", func() bool { return col[1].count() == 1 })

	tp[0].Close()
	waitFor(t, 5*time.Second, "bye received", func() bool {
		_, _, ok := col[1].byeFrom(0)
		return ok
	})
	if _, abort, _ := col[1].byeFrom(0); abort {
		t.Fatal("graceful close delivered an abort bye")
	}
	// A departed peer is not dead: sends to it vanish silently (shutdown
	// races are benign) and no failure is reported.
	if err := tp[1].Send(0, &Frame{Kind: KindData, Payload: []byte("x")}); err != nil {
		t.Fatalf("send to departed peer: %v", err)
	}
	time.Sleep(50 * time.Millisecond)
	if d, ok := col[1].deadReason(0); ok {
		t.Fatalf("departed peer declared dead: %s", d)
	}
}

// TestLinkByeSurvivesFailedWrite: a peer that closed while we still wrote
// may have sent its last frames first — the ack of our last frame and its
// Bye — and our failed write must not throw them away unread.  Node 1's
// reader is held (the backend goes deaf) with node 0's frame X in hand; node
// 1 sends A, which node 0 acks, and node 0 closes.  Node 1's retransmission
// of A then fails against the closed connection.  When the reader hears again
// it must still find the ack and the Bye, so node 1's Close has nothing left
// to drain.  Closing the connection on the failed write lost both, and node 1
// waited out DrainTimeout for an ack it had been sent.
func TestLinkByeSurvivesFailedWrite(t *testing.T) {
	tp, col, be, _ := memPair(t, func(node int, c *Config) {
		c.RetryBackoff = 5 * time.Millisecond
		c.DrainTimeout = [2]time.Duration{10 * time.Millisecond, time.Second}[node]
	})
	be[1].setDeaf(true)
	sendN(t, tp[0], 1, 1)             // X: node 1's reader takes it and is held
	time.Sleep(20 * time.Millisecond) // so that what follows arrives behind it
	sendN(t, tp[1], 0, 1)             // A
	waitFor(t, 5*time.Second, "A acked by node 0", func() bool { return tp[0].Stats()[1].AcksSent > 0 })
	tp[0].Close() // X is unacked: its drain times out, then Bye and close
	l := tp[1].links[0]
	waitFor(t, 5*time.Second, "node 1's write to fail", func() bool {
		l.mu.Lock()
		defer l.mu.Unlock()
		return l.conn == nil
	})
	be[1].setDeaf(false)
	tp[1].Close()
	if st := tp[1].Stats()[0]; st.Unacked != 0 {
		t.Errorf("node 1 closed with %d frames unacked: the ack node 0 wrote before closing was discarded", st.Unacked)
	}
	if _, _, ok := col[1].byeFrom(0); !ok {
		t.Error("node 1 never read node 0's Bye")
	}
}

func TestLinkAbortBye(t *testing.T) {
	tp, col := startPair(t, nil)
	sendN(t, tp[0], 1, 1)
	waitFor(t, 5*time.Second, "link up", func() bool { return col[1].count() == 1 })

	tp[0].Abort("rank 3 panicked: boom", []int{7})
	waitFor(t, 5*time.Second, "abort bye received", func() bool {
		_, _, ok := col[1].byeFrom(0)
		return ok
	})
	reason, abort, _ := col[1].byeFrom(0)
	if !abort || !strings.Contains(reason, "rank 3 panicked") {
		t.Fatalf("abort bye: abort=%v reason=%q", abort, reason)
	}
	col[1].deadMu.Lock()
	gotDead := col[1].byeDead[0]
	col[1].deadMu.Unlock()
	if len(gotDead) != 1 || gotDead[0] != 7 {
		t.Fatalf("abort bye dead list = %v, want [7]", gotDead)
	}
}

// TestLinkBackoffDoublesAndCaps pins the retransmit backoff schedule on the
// real-clock link layer: doubling per round from RetryBackoff, capped at
// RetryBackoffMax, flooring at the base for round 0/negative junk.
func TestLinkBackoffDoublesAndCaps(t *testing.T) {
	l := &link{t: &Transport{cfg: Config{
		RetryBackoff:    time.Millisecond,
		RetryBackoffMax: 6 * time.Millisecond,
	}}}
	cases := []struct {
		attempts int
		want     time.Duration
	}{
		{-1, time.Millisecond},
		{0, time.Millisecond},
		{1, time.Millisecond},
		{2, 2 * time.Millisecond},
		{3, 4 * time.Millisecond},
		{4, 6 * time.Millisecond}, // 8ms capped to the 6ms max
		{50, 6 * time.Millisecond},
	}
	for _, c := range cases {
		if got := l.backoff(c.attempts); got != c.want {
			t.Errorf("backoff(%d) = %v, want %v", c.attempts, got, c.want)
		}
	}
}

// TestLinkRetryBudgetBoundary partitions the peer's receive side and counts
// retransmit rounds: with RetryBudget = N the link must survive N rounds
// and die on round N+1, naming the budget in the reason.
func TestLinkRetryBudgetBoundary(t *testing.T) {
	const budget = 3
	tp, col := startPair(t, func(node int, c *Config) {
		c.RetryBudget = budget
		c.RetryBackoff = 2 * time.Millisecond
		c.RetryBackoffMax = 2 * time.Millisecond // constant rounds: timing is arithmetic
		c.PeerDeadAfter = time.Hour              // isolate the budget detector from the heartbeat one
	})
	sendN(t, tp[0], 1, 1)
	waitFor(t, 5*time.Second, "link up", func() bool { return col[1].count() == 1 })

	tp[1].SetPartitioned(0, true) // acks stop coming back
	sendN(t, tp[0], 1, 1)
	waitFor(t, 10*time.Second, "budget exhaustion", func() bool {
		_, ok := col[0].deadReason(1)
		return ok
	})
	reason, _ := col[0].deadReason(1)
	if !strings.Contains(reason, "retry budget exhausted") ||
		!strings.Contains(reason, fmt.Sprintf("after %d retransmit rounds", budget)) {
		t.Fatalf("death reason %q does not pin %d rounds of retransmit", reason, budget)
	}
	if got := tp[0].Stats()[1].Retransmits; got < budget {
		t.Fatalf("only %d retransmits counted, want >= %d", got, budget)
	}
}

func TestLinkBackpressure(t *testing.T) {
	tp, col := startPair(t, func(node int, c *Config) {
		c.MaxUnacked = 4
		c.RetryBudget = 1 << 20
		c.RetryBackoff = time.Hour // no retransmit noise
		c.PeerDeadAfter = time.Hour
	})
	sendN(t, tp[0], 1, 1)
	waitFor(t, 5*time.Second, "link up", func() bool { return col[1].count() == 1 })
	// The first frame's ack is back before the window is filled: an ack that
	// landed during the fill would free a slot the count below expects full.
	waitFor(t, 5*time.Second, "first frame acked", func() bool { return tp[0].Stats()[1].Unacked == 0 })

	// With the peer's receive side partitioned, acks stop and the window
	// fills after MaxUnacked frames.
	tp[1].SetPartitioned(0, true)
	f := Frame{Kind: KindData, Payload: []byte("x")}
	busy := false
	for i := 0; i < 64 && !busy; i++ {
		busy = tp[0].Send(1, &f) == ErrBusy
	}
	if !busy {
		t.Fatal("window never filled: backpressure is not working")
	}
	if st := tp[0].Stats()[1]; st.SendBusy == 0 || st.Unacked != 4 {
		t.Fatalf("backpressure stats: %+v", st)
	}
}

func TestTransportSendErrors(t *testing.T) {
	tp, _ := startPair(t, nil)
	if err := tp[0].Send(0, &Frame{Kind: KindData}); err == nil {
		t.Fatal("self-send accepted")
	}
	if err := tp[0].Send(9, &Frame{Kind: KindData}); err == nil {
		t.Fatal("out-of-mesh send accepted")
	}
	if err := tp[0].Send(1, &Frame{Kind: KindHeartbeat}); err == nil {
		t.Fatal("unsequenced Send accepted")
	}
	tp[0].Close()
	if err := tp[0].Send(1, &Frame{Kind: KindData}); err != ErrClosed {
		t.Fatalf("send after close: %v", err)
	}
}

func TestJobMismatchRejected(t *testing.T) {
	addrs := reserveAddrs(t, 2)
	mk := func(node int, job uint64) *Transport {
		cfg := Config{Node: node, Addrs: addrs, Job: job, DialBackoffMax: 50 * time.Millisecond}
		tp, err := New(cfg, nil, 0, Handlers{})
		if err != nil {
			t.Fatal(err)
		}
		if err := tp.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tp.Close() })
		return tp
	}
	a := mk(0, 1)
	mk(1, 2)
	// Different jobs must never establish a link.
	time.Sleep(300 * time.Millisecond)
	if st := a.Stats()[1]; st.EverUp {
		t.Fatalf("links established across job ids: %+v", st)
	}
}

func TestTransportLargeFrames(t *testing.T) {
	tp, col := startPair(t, nil)
	payload := make([]byte, 1<<20)
	for i := range payload {
		payload[i] = byte(i * 2654435761)
	}
	f := Frame{Kind: KindData, SrcRank: 0, DstRank: 1, Tag: 1, Comm: 1, Payload: payload}
	if err := tp[0].Send(1, &f); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "large frame", func() bool { return col[1].count() == 1 })
	col[1].mu.Lock()
	got := col[1].frames[0].Payload
	col[1].mu.Unlock()
	if len(got) != len(payload) {
		t.Fatalf("payload length %d, want %d", len(got), len(payload))
	}
	for i := range got {
		if got[i] != payload[i] {
			t.Fatalf("payload corrupted at byte %d", i)
		}
	}
}

func TestThreeNodeMesh(t *testing.T) {
	addrs := reserveAddrs(t, 3)
	var tps [3]*Transport
	var cols [3]*collector
	for node := 0; node < 3; node++ {
		cols[node] = newCollector()
		tp, err := New(Config{Node: node, Addrs: addrs, Job: 9}, nil, 3, cols[node].handlers())
		if err != nil {
			t.Fatal(err)
		}
		if err := tp.Start(); err != nil {
			t.Fatal(err)
		}
		tps[node] = tp
		t.Cleanup(func() { tp.Close() })
	}
	// Every ordered pair exchanges traffic.
	const n = 20
	for src := 0; src < 3; src++ {
		for dst := 0; dst < 3; dst++ {
			if src == dst {
				continue
			}
			for i := 0; i < n; i++ {
				var p [8]byte
				binary.LittleEndian.PutUint64(p[:], uint64(src*1000+i))
				f := Frame{Kind: KindData, SrcRank: int32(src), DstRank: int32(dst), Tag: 1, Comm: 1, Payload: p[:]}
				for tps[src].Send(dst, &f) == ErrBusy {
					time.Sleep(100 * time.Microsecond)
				}
			}
		}
	}
	for node := 0; node < 3; node++ {
		node := node
		waitFor(t, 10*time.Second, fmt.Sprintf("node %d inbox", node), func() bool {
			return cols[node].count() == 2*n
		})
	}
	// Per-source ordering holds even with two senders interleaved.
	for node := 0; node < 3; node++ {
		next := map[int32]uint64{}
		cols[node].mu.Lock()
		for _, f := range cols[node].frames {
			got := binary.LittleEndian.Uint64(f.Payload)
			want := uint64(f.SrcRank)*1000 + next[f.SrcRank]
			if got != want {
				cols[node].mu.Unlock()
				t.Fatalf("node %d: frame from %d out of order: got %d want %d", node, f.SrcRank, got, want)
			}
			next[f.SrcRank]++
		}
		cols[node].mu.Unlock()
	}
}
