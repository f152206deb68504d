package transport

import (
	"testing"
	"time"
)

// The ack hand-off's contract, on the in-memory network (membackend_test.go):
// when the Deliver handler reports that a frame went to a waiting rank, the
// reader leaves the owed ack to that rank — its next frame, its next Flush —
// and writes it itself only after ackDelay; with no waiting rank nothing
// changes (combine_test.go runs unmodified against handlers that never set
// Frame.Waiting).  Counts, not times: where a test needs "the fallback did
// not fire" it stretches ackDelay to an hour.

// noAckFallback makes the links a test is about to create never write a
// deferred ack themselves.  It restores ackDelay once they are closed.
func noAckFallback(t *testing.T) {
	d := ackDelay
	ackDelay = time.Hour
	t.Cleanup(func() { ackDelay = d })
}

// handoffPair is memPair with both collectors reporting a waiting rank and,
// when never is set, a fallback that never fires.
func handoffPair(t *testing.T, never bool, mut func(node int, c *Config)) (tp [2]*Transport, col [2]*collector, be [2]*memBackend, base [2]linkBase) {
	t.Helper()
	if never {
		noAckFallback(t)
	}
	tp, col, be, base = memPair(t, mut)
	for node := range tp {
		col[node].waiting.Store(true)
	}
	return tp, col, be, base
}

// (a) A strict ping-pong between two "ranks" that were each found waiting:
// every ack rides on the answer, so no ack frame is ever written and every
// socket write is a data frame.  Then the third carrier: the rank that got
// the last pong blocks again, and its Flush writes the one ack still owed.
func TestHandoffPingPongWritesNoAcks(t *testing.T) {
	const rounds = 200
	tp, col, be, base := handoffPair(t, true, nil)
	for i := 1; i <= rounds; i++ {
		sendRange(t, tp[0], 1, i-1, i)
		waitFor(t, 5*time.Second, "ping delivered", func() bool { return col[1].count() == i })
		sendRange(t, tp[1], 0, i-1, i) // the woken rank answers: the pong carries the ping's ack
		waitFor(t, 5*time.Second, "pong delivered", func() bool { return col[0].count() == i })
	}
	for node := range tp {
		st := tp[node].Stats()[1-node]
		if st.AcksSent != 0 || st.AcksDeferred != rounds {
			t.Errorf("node %d: %d acks written, %d handed off; want 0 and %d", node, st.AcksSent, st.AcksDeferred, rounds)
		}
		if n := st.FramesSent - base[node].frames; n != rounds {
			t.Errorf("node %d sent %d frames, want %d (data only)", node, n, rounds)
		}
		if w := checkWrites(t, tp[node], 1-node, be[node], base[node]); w != rounds {
			t.Errorf("node %d: %d writes for %d data frames", node, w, rounds)
		}
	}
	if st := tp[1].Stats()[0]; st.Unacked != 1 {
		t.Fatalf("node 1 has %d frames unacked, want the last pong", st.Unacked)
	}
	tp[0].Flush()
	waitFor(t, 5*time.Second, "last pong acked by Flush", func() bool { return tp[1].Stats()[0].Unacked == 0 })
	if st := tp[0].Stats()[1]; st.AcksSent != 1 {
		t.Fatalf("Flush wrote %d acks, want 1", st.AcksSent)
	}
	tp[0].Flush()
	if st := tp[0].Stats()[1]; st.AcksSent != 1 {
		t.Fatalf("a second Flush with nothing owed wrote an ack (%d written)", st.AcksSent)
	}
}

// (b) The rank was reported waiting, and then nobody sends and nobody
// flushes: the link's own timer writes the ack — exactly one.
func TestHandoffFallbackWritesOneAck(t *testing.T) {
	tp, col, _, _ := handoffPair(t, false, nil)
	start := time.Now()
	sendRange(t, tp[0], 1, 0, 1)
	waitFor(t, 5*time.Second, "ack written by the fallback", func() bool { return tp[0].Stats()[1].Unacked == 0 })
	t.Logf("deferred ack arrived after %v (bound %v plus timer granularity)", time.Since(start), ackDelay)
	time.Sleep(20 * ackDelay)
	st := tp[1].Stats()[0]
	if col[1].count() != 1 || st.AcksDeferred != 1 || st.AcksSent != 1 {
		t.Fatalf("delivered %d, handed off %d, written %d; want 1, 1, 1", col[1].count(), st.AcksDeferred, st.AcksSent)
	}
}

// (c) With no waiting rank the ack is written when the reader goes idle, as
// ever, and nothing is counted as handed off.
func TestHandoffNoWaitingRankAcksAtOnce(t *testing.T) {
	noAckFallback(t) // a hand-off would never be written
	tp, _, _, _ := memPair(t, nil)
	sendRange(t, tp[0], 1, 0, 1)
	waitFor(t, 5*time.Second, "immediate ack", func() bool { return tp[0].Stats()[1].Unacked == 0 })
	if st := tp[1].Stats()[0]; st.AcksSent != 1 || st.AcksDeferred != 0 {
		t.Fatalf("%d acks written, %d handed off; want 1 and 0", st.AcksSent, st.AcksDeferred)
	}
}

// (d) A deferred ack is only a later ack.  Kill the connection while one is
// deferred (and can never be written): the reconnect handshake's watermark
// covers it, so nothing is replayed, nothing delivered twice and no
// retransmit round runs.
func TestHandoffKillLinkWhileDeferred(t *testing.T) {
	tp, col, _, _ := handoffPair(t, true, nil)
	sendRange(t, tp[0], 1, 0, 1)
	waitFor(t, 5*time.Second, "frame delivered", func() bool { return col[1].count() == 1 })
	if st := tp[0].Stats()[1]; st.Unacked != 1 {
		t.Fatalf("%d unacked before the kill, want 1 (its ack is deferred)", st.Unacked)
	}
	tp[0].KillLink(1)
	tp[1].KillLink(0)
	waitFor(t, 10*time.Second, "reconnect settles the window", func() bool {
		st := tp[0].Stats()[1]
		return st.Reconnects > 0 && st.Up && st.Unacked == 0
	})
	col[1].waiting.Store(false)
	sendRange(t, tp[0], 1, 1, 50)
	waitFor(t, 10*time.Second, "stream resumes", func() bool { return col[1].count() == 50 })
	checkOrdered(t, col[1], 50)
	if st := tp[0].Stats()[1]; st.RetryRounds != 0 || st.Retransmits != 0 {
		t.Fatalf("%d retransmit rounds, %d frames replayed; the handshake watermark should have covered the deferred ack", st.RetryRounds, st.Retransmits)
	}
	if st := tp[1].Stats()[0]; st.DupsDropped != 0 {
		t.Fatalf("%d duplicates reached node 1", st.DupsDropped)
	}
}

// (d, lossy) The same with 5 % of first transmissions dropped throughout and
// every frame's rank reported waiting, so every idle ack takes the fallback
// path: a kill mid-stream still replays exactly once, in order, and the
// link survives.
func TestHandoffLossyReplayExactlyOnce(t *testing.T) {
	const third = 300
	tp, col, _, _ := handoffPair(t, false, func(node int, c *Config) {
		c.Faults = Faults{Seed: 23, DropProb: 0.05}
		c.RetryBackoff = 2 * time.Millisecond
		c.RetryBackoffMax = 10 * time.Millisecond
		c.RetryBudget = 1000
	})
	sendRange(t, tp[0], 1, 0, third)
	waitFor(t, 10*time.Second, "first third delivered", func() bool { return col[1].count() == third })
	sendRange(t, tp[0], 1, third, 2*third)
	tp[0].KillLink(1)
	tp[1].KillLink(0)
	sendRange(t, tp[0], 1, 2*third, 3*third)
	waitFor(t, 20*time.Second, "everything delivered across the break", func() bool { return col[1].count() == 3*third })
	checkOrdered(t, col[1], 3*third)
	st := tp[0].Stats()[1]
	if st.DropsInjected == 0 || st.Reconnects == 0 || tp[1].Stats()[0].AcksDeferred == 0 {
		t.Fatalf("the test exercised nothing: %+v", st)
	}
	if d, ok := col[0].deadReason(1); ok {
		t.Fatalf("recoverable link declared dead: %s", d)
	}
}

// (e) A receiver that was woken once and then stays busy: the first frame's
// ack is handed off and nobody carries it, the fallback writes it, and from
// then on the stream is acked as ever — a long one-way burst needs no
// retransmit round.
func TestHandoffBurstAfterOneWake(t *testing.T) {
	const burst = 1000
	tp, col, _, _ := handoffPair(t, false, nil)
	sendRange(t, tp[0], 1, 0, 1)
	waitFor(t, 5*time.Second, "first frame delivered", func() bool { return col[1].count() == 1 })
	col[1].waiting.Store(false) // the woken rank went off computing
	sendRange(t, tp[0], 1, 1, 1+burst)
	waitFor(t, 10*time.Second, "burst delivered", func() bool { return col[1].count() == 1+burst })
	checkOrdered(t, col[1], 1+burst)
	waitFor(t, 5*time.Second, "window drained", func() bool { return tp[0].Stats()[1].Unacked == 0 })
	if st := tp[0].Stats()[1]; st.RetryRounds != 0 || st.Retransmits != 0 {
		t.Fatalf("burst needed %d retransmit rounds (%d frames), want none", st.RetryRounds, st.Retransmits)
	}
	if st := tp[1].Stats()[0]; st.AcksDeferred != 1 {
		t.Fatalf("%d acks handed off, want only the first frame's", st.AcksDeferred)
	}
}
