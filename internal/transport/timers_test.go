package transport

import (
	"testing"
	"time"
)

// The link clock's contract (Transport.tickLoop): the silence timer the frame
// paths feed without reading the clock errs late, never early.  Lower bounds
// only, measured on the test's own clock: a slow host can only make the link
// later.

// TestLinkTimersNeverEarly checks (a) that a deaf node declares its peer dead
// no sooner than PeerDeadAfter after the last frame it heard, and (b) that a
// lossless ping-pong, with the ticker running among its round trips, neither
// replays nor reconnects.
func TestLinkTimersNeverEarly(t *testing.T) {
	t.Run("detector", func(t *testing.T) {
		// Node 1 ticks every 20 ms and gives up on its peer after 118 ms of
		// silence, 2 ms short of six ticks.  A detector that took the latest
		// tick's stamp as the time a frame was heard would fire up to a tick
		// early: by more than the test's slack unless the frame came within
		// 2 ms after a tick, so three trials catch it.
		const deadAfter = 118 * time.Millisecond
		for trial := 1; trial <= 3; trial++ {
			net := newMemNet()
			be := [2]*memBackend{net.backend(), net.backend()}
			tp, col := startPairOn(t, [2]Backend{be[0], be[1]}, func(node int, c *Config) {
				if node == 0 {
					c.HeartbeatEvery = time.Hour // it never ticks, so it sends no heartbeat
				} else {
					c.HeartbeatEvery, c.PeerDeadAfter = 40*time.Millisecond, deadAfter
				}
			})
			// Before the closes: a deaf node would never read node 0's redials.
			t.Cleanup(func() { be[1].setDeaf(false) })
			waitUp(t, tp[0], 1)
			waitUp(t, tp[1], 0)
			sent := time.Now() // no later than node 1 hears the frame
			sendN(t, tp[0], 1, 1)
			waitFor(t, 5*time.Second, "frame delivered", func() bool { return col[1].count() == 1 })
			be[1].setDeaf(true)
			waitFor(t, 5*time.Second, "node 1 declares node 0 dead", func() bool {
				_, ok := col[1].deadReason(0)
				return ok
			})
			col[1].deadMu.Lock()
			silent := col[1].deadAt[0].Sub(sent)
			col[1].deadMu.Unlock()
			t.Logf("trial %d: declared dead %v after the last frame was sent", trial, silent)
			if silent < deadAfter {
				t.Fatalf("trial %d: node 1 declared node 0 dead %v after the last frame it heard, before PeerDeadAfter (%v)",
					trial, silent, deadAfter)
			}
		}
	})

	t.Run("retransmit", func(t *testing.T) {
		// Paced, so that the ticks (every 12.5 ms by default) and their
		// heartbeats fall among the round trips.
		const rounds = 1000 // 2 000 frames
		net := NewMemNet()
		tp, pong := startEchoPair(t, [2]Backend{net.Backend(), net.Backend()}, Config{})
		waitUp(t, tp[0], 1)
		waitUp(t, tp[1], 0)
		payload := make([]byte, 8)
		for i := 0; i < rounds; i++ {
			if err := tp[0].Send(1, &Frame{Kind: KindData, Payload: payload}); err != nil {
				t.Fatalf("send %d: %v", i, err)
			}
			<-pong
			if i%10 == 0 {
				time.Sleep(100 * time.Microsecond)
			}
		}
		for node := range tp {
			if st := tp[node].Stats()[1-node]; st.Retransmits != 0 || st.Reconnects != 0 {
				t.Errorf("node %d: %d frames replayed over %d reconnects on a lossless link", node, st.Retransmits, st.Reconnects)
			}
		}
	})
}

// TestDetectorHearsLargeFrameArrive: a frame whose bytes take longer than
// PeerDeadAfter to arrive keeps its link alive while they flow.  The peer's
// heartbeats queue behind the frame, so a detector that heard the peer only
// per whole frame would declare it dead mid-frame.  Node 1 reads the 1 MiB
// frame 4 KiB at a time, 2 ms apart: 256 reads, at least 512 ms, past the
// 200 ms default PeerDeadAfter.
func TestDetectorHearsLargeFrameArrive(t *testing.T) {
	net := newMemNet()
	be := [2]*memBackend{net.backend(), net.backend()}
	tp, col := startPairOn(t, [2]Backend{be[0], be[1]}, nil)
	t.Cleanup(func() { be[1].pace.Store(0) })
	waitUp(t, tp[0], 1)
	waitUp(t, tp[1], 0)
	be[1].pace.Store(int64(2 * time.Millisecond))
	start := time.Now()
	if err := tp[0].Send(1, &Frame{Kind: KindData, Payload: make([]byte, 1<<20)}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "large frame", func() bool {
		_, dead := col[1].deadReason(0)
		return dead || col[1].count() == 1
	})
	took := time.Since(start)
	deadAfter := tp[1].cfg.PeerDeadAfter
	t.Logf("the frame took %v to arrive; PeerDeadAfter %v", took, deadAfter)
	for node := range col {
		if why, dead := col[node].deadReason(1 - node); dead {
			t.Fatalf("node %d declared node %d dead while the frame arrived: %s", node, 1-node, why)
		}
	}
	if took < deadAfter {
		t.Fatalf("the frame arrived in %v, within PeerDeadAfter (%v): the test proves nothing", took, deadAfter)
	}
}
