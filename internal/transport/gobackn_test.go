package transport

import (
	"testing"
	"time"
)

// The go-back-N receiver's two discards, counted, on the in-memory network
// (membackend_test.go): a frame at or below the delivered watermark is a
// duplicate, a frame past a gap is dropped for the sender's next round to
// bring again in order.  Either way the handler sees every frame once.

// A deaf receiver acks nothing, so the sender's retransmit timer resends the
// whole window, twice.  Once the receiver listens again it finds every frame
// at least twice more behind the original: it must deliver each once, in
// order, and count the rest as duplicates.
func TestLinkResentWindowDiscardedAsDuplicates(t *testing.T) {
	const n = 50
	tp, col, be, _ := memPair(t, func(node int, c *Config) {
		c.RetryBackoff = 2 * time.Millisecond
		c.RetryBackoffMax = 10 * time.Millisecond
		c.RetryBudget = 1000
	})
	be[1].setDeaf(true)
	sendN(t, tp[0], 1, n)
	// The first round may be the first time a staged frame reaches the wire;
	// everything the second round writes is a copy.
	waitFor(t, 5*time.Second, "two retransmit rounds", func() bool { return tp[0].Stats()[1].RetryRounds >= 2 })
	be[1].setDeaf(false)

	waitFor(t, 5*time.Second, "window acked", func() bool { return tp[0].Stats()[1].Unacked == 0 })
	checkOrdered(t, col[1], n)
	st := tp[1].Stats()[0]
	if st.DupsDropped < n {
		t.Fatalf("%d duplicates discarded, want at least the %d of the second round", st.DupsDropped, n)
	}
	if st.OooDropped != 0 {
		t.Fatalf("%d frames discarded as out of order on a link that lost nothing", st.OooDropped)
	}
	if d, ok := col[0].deadReason(1); ok {
		t.Fatalf("recoverable link declared dead: %s", d)
	}
}

// One first transmission in the middle of a burst is lost.  The receiver must
// discard every successor it gets before the sender goes back — each one
// counted as out of order — and deliver them once, in order, from the
// retransmit round.
func TestLinkGapDiscardsSuccessorsUntilResent(t *testing.T) {
	const n, lost = 100, 40
	tp, col, _, _ := memPair(t, func(node int, c *Config) {
		// Long enough that the burst is out before the first round can run
		// (checked below), short enough to wait for.
		c.RetryBackoff = 100 * time.Millisecond
		c.RetryBudget = 1000
	})
	sendRange(t, tp[0], 1, 0, lost)
	tp[0].cfg.Faults.DropProb = 1 // read per send, by the sending goroutine: this one
	sendRange(t, tp[0], 1, lost, lost+1)
	tp[0].cfg.Faults.DropProb = 0
	sendRange(t, tp[0], 1, lost+1, n)
	tp[0].Flush()
	if st := tp[0].Stats()[1]; st.DropsInjected != 1 || st.RetryRounds != 0 {
		t.Skipf("%d drops injected, %d retransmit rounds during the burst: the host stalled it past the timer, the counts below would not be exact",
			st.DropsInjected, st.RetryRounds)
	}

	waitFor(t, 5*time.Second, "burst delivered", func() bool { return col[1].count() == n })
	checkOrdered(t, col[1], n)
	if st := tp[1].Stats()[0]; st.OooDropped != n-lost-1 {
		t.Fatalf("%d frames discarded as out of order, want the %d successors of the lost one", st.OooDropped, n-lost-1)
	}
	waitFor(t, 5*time.Second, "window acked", func() bool { return tp[0].Stats()[1].Unacked == 0 })
	if st := tp[0].Stats()[1]; st.RetryRounds == 0 || st.Retransmits < n-lost {
		t.Fatalf("%d retransmit rounds resent %d frames, want the lost frame and its %d successors", st.RetryRounds, st.Retransmits, n-lost-1)
	}
}
