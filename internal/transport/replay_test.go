package transport

import (
	"testing"
	"time"

	"repro/internal/obs"
)

// The link's one recovery path — a connection that goes down is redialled
// and replays everything past the peer's delivered watermark — on the
// in-memory network (membackend_test.go): a frame past a gap tears its
// connection down, a frame at or below the watermark is a duplicate, and
// either way the handler sees every frame once, in order.

// A frame is lost on a live connection, which no reliable stream does: the
// backend swallows the one write that carries it.  Its first successor to
// arrive is past the watermark and tears the connection down; the reconnect
// replays the lost frame and every successor, each handed to the handler
// once, in order, with nothing discarded.
func TestLinkGapDiscardsSuccessorsUntilResent(t *testing.T) {
	const n, lost = 100, 40
	tp, col, be, _ := memPair(t, nil)
	sendRange(t, tp[0], 1, 0, lost)
	waitFor(t, 5*time.Second, "window acked", func() bool { return tp[0].Stats()[1].Unacked == 0 })
	be[0].lose.Store(true)
	sendRange(t, tp[0], 1, lost, lost+1) // on an idle link: written at once, by itself
	be[0].lose.Store(false)
	sendRange(t, tp[0], 1, lost+1, n) // staged behind the lost frame
	tp[0].Flush()

	waitFor(t, 5*time.Second, "stream delivered", func() bool { return col[1].count() == n })
	checkOrdered(t, col[1], n)
	waitFor(t, 5*time.Second, "window acked", func() bool { return tp[0].Stats()[1].Unacked == 0 })
	if st := tp[0].Stats()[1]; st.Reconnects != 1 || st.Retransmits != n-lost {
		t.Fatalf("%d reconnects replayed %d frames, want 1 replaying the lost frame and its %d successors",
			st.Reconnects, st.Retransmits, n-lost-1)
	}
	if st := tp[1].Stats()[0]; st.DupsDropped != 0 {
		t.Fatalf("%d duplicates discarded; the replay starts at the watermark", st.DupsDropped)
	}
}

// A reset lands while node 1's reader is held inside the handler with the
// rest of a burst in its buffer.  The redial replaces that connection, and
// the replay brings the same frames again on the new one; the old reader,
// released, delivers what it holds.  Each frame reaches the handler once, in
// order, and every frame of the overlap is counted as a duplicate.
func TestLinkResentWindowDiscardedAsDuplicates(t *testing.T) {
	const n = 50
	tp, col, be, _ := memPair(t, nil)
	held, release := make(chan struct{}), make(chan struct{})
	col[1].delivered = func(k int) {
		if k == 2 {
			close(held)
			<-release
		}
	}
	// Frame 0 goes out alone on the idle link; node 1's reader reads it and
	// is held by the deaf backend while the rest is written behind it in one
	// write.  So the reader's next read takes frames 1..n-1 whole, and it is
	// held again in the handler of frame 1 with frames 2..n-1 buffered.
	be[1].setDeaf(true)
	sendRange(t, tp[0], 1, 0, n)
	tp[0].Flush()
	be[1].setDeaf(false)
	<-held

	tp[0].KillLink(1)
	waitFor(t, 5*time.Second, "the replacement connection", func() bool {
		return tp[0].Stats()[1].Reconnects == 1 && tp[1].Stats()[0].Reconnects == 1
	})
	close(release)

	waitFor(t, 5*time.Second, "burst delivered", func() bool { return col[1].count() == n })
	waitFor(t, 5*time.Second, "window acked", func() bool { return tp[0].Stats()[1].Unacked == 0 })
	checkOrdered(t, col[1], n)
	if st := tp[0].Stats()[1]; st.Retransmits != n-2 {
		t.Fatalf("%d frames replayed, want the %d past node 1's watermark", st.Retransmits, n-2)
	}
	// The window is acked once either reader has delivered the overlap; the
	// other may still be discarding its copies.  No frame comes three times,
	// so the count can only climb to the overlap.
	waitFor(t, 5*time.Second, "the overlap discarded", func() bool { return tp[1].Stats()[0].DupsDropped >= n-2 })
	if st := tp[1].Stats()[0]; st.DupsDropped != n-2 {
		t.Fatalf("%d duplicates discarded, want the %d frames both connections carried", st.DupsDropped, n-2)
	}
	if d, ok := col[0].deadReason(1); ok {
		t.Fatalf("recoverable link declared dead: %s", d)
	}
}

// The link trace records a connection's loss and the replay that follows:
// each side's reset at its own delivered watermark, and on the side with
// unacked frames one replay from the lowest of them.
func TestLinkResetReplayEvents(t *testing.T) {
	tp, col, be, _ := memPair(t, func(node int, c *Config) { c.LinkEvents = 1024 })
	sendRange(t, tp[1], 0, 0, 3)
	sendRange(t, tp[0], 1, 0, 5)
	waitFor(t, 5*time.Second, "both ways delivered and acked", func() bool {
		return col[0].count() == 3 && col[1].count() == 5 &&
			tp[0].Stats()[1].Unacked == 0 && tp[1].Stats()[0].Unacked == 0
	})
	be[0].lose.Store(true)
	sendRange(t, tp[0], 1, 5, 9) // seq 6..9, swallowed
	tp[0].Flush()
	be[0].lose.Store(false)
	tp[0].KillLink(1)
	count := func(node int, kind obs.LinkEventKind) (evs []obs.LinkEvent) {
		for _, e := range tp[node].LinkEvents() {
			if e.Kind == kind {
				evs = append(evs, e)
			}
		}
		return evs
	}
	waitFor(t, 5*time.Second, "replayed frames delivered", func() bool { return col[1].count() == 9 })
	waitFor(t, 5*time.Second, "the reconnect recorded on both sides", func() bool {
		return tp[1].Stats()[0].Reconnects == 1 && len(count(0, obs.LinkReplay)) > 0
	})
	want := func(node int, kind obs.LinkEventKind, seq uint64, bytes int32) {
		t.Helper()
		evs := count(node, kind)
		if len(evs) != 1 || evs[0].Seq != seq || evs[0].Bytes != bytes || evs[0].Peer != int32(1-node) {
			t.Errorf("node %d: %s events %+v, want one with seq %d and %d bytes", node, kind, evs, seq, bytes)
		}
	}
	want(0, obs.LinkReset, 3, 0)  // node 0 had delivered node 1's three frames
	want(0, obs.LinkReplay, 6, 4) // the four swallowed frames, from seq 6
	want(1, obs.LinkReset, 5, 0)  // node 1 had delivered node 0's first five
	if evs := count(1, obs.LinkReplay); len(evs) != 0 {
		t.Errorf("node 1 replayed %+v with nothing unacked", evs)
	}
}
