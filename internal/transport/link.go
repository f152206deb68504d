package transport

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// link is the reliable channel between this node and one peer.  Exactly one
// link exists per node pair; the lower-numbered node dials, the higher one
// accepts, and the pair never races two connections against each other.
//
// Sender side (guarded by mu): frames get consecutive sequence numbers and
// their encoded bytes sit in the resend window (win) until the peer's
// cumulative ack covers them.  The ticker retransmits the whole window when
// the ack stalls past the backoff (go-back-N), and declares the peer dead
// when RetryBudget rounds bring no progress.  A frame queued while the
// connection is down is simply buffered; (re)connection replays everything
// past the peer's delivered watermark.
//
// Writing is a self-clocking combiner.  Senders stage encoded frames in wbuf
// under mu and never write under it; flush swaps wbuf against a spare buffer
// and makes the one write(2) under the separate write-order lock wmu (lock
// order: wmu, then mu).  A frame sent on an idle link — nothing unacked — is
// flushed at once by its sender; behind unacked frames it stays staged until
// the reader processes an ack from the peer, flushBytes accumulate, a control
// frame goes out, the window fills, or the owner calls Transport.Flush (a
// rank about to block).  Every staged frame is already in the resend window,
// so each recovery path replays it like any other unacked frame; and short of
// an injected drop (which the retransmit timer recovers, staged frames
// included) the oldest unacked frame is a written one, so an ack is on its
// way to release whatever is staged behind it.
//
// Receiver side (guarded by recvMu): sequenced frames are delivered to the
// handlers strictly in order — the next expected sequence is delivered,
// duplicates (at or below the watermark) are dropped, and anything past the
// expected sequence is dropped too, to be recovered by the sender's
// retransmission.  Acks piggyback on every outgoing frame; an explicit ack
// flows when the reader drains its buffer (the stream went idle) or every
// ackEvery frames, whichever comes first — unless the handler reported that
// the newest frame woke a waiting rank, in which case that rank carries the
// ack (deferAck).
type link struct {
	t      *Transport
	peer   int
	addr   string
	dialer bool // this side initiates connections (t.cfg.Node < peer)

	mu       sync.Mutex
	conn     Conn
	unread   Conn   // a connection a write failed on, left open to its reader (writeFailedLocked)
	gen      uint64 // connection generation; readers of older generations are stale
	dialing  bool   // a dialLoop goroutine is active
	nextSeq  uint64
	ackedOut uint64 // highest seq the peer has acked
	win      []byte // resend window: encoded frames ackedOut+1..nextSeq, live from winHead
	winHead  int    // offset of frame ackedOut+1 in win
	wbuf     []byte // encoded frames staged for the next write
	wframes  int    // frames in wbuf
	wack     uint64 // Ack field of the newest frame in wbuf
	attempts int    // retransmit rounds since the last ack progress
	retryArm uint64 // tick count when the retransmit timer was re-armed; 0 once a tick set retryAt
	retryAt  int64  // link-clock stamp past which the next retransmit round is due
	rng      uint64 // send-side fault-injection stream
	hbNonce  uint64
	lastHB   time.Time

	wmu    sync.Mutex // write order: held across the buffer swap and the socket write
	spare  []byte     // the staging buffer's double (guarded by wmu)
	wconn  Conn       // the connection whose write deadline was set last (guarded by wmu)
	wstamp int64      // the link-clock stamp it was set from (guarded by wmu)

	ackedOutA atomic.Uint64 // mirror of ackedOut: the reader locks mu only for acks that advance it
	ackSent   atomic.Uint64 // highest delivered watermark written to the peer, piggybacked or explicit
	staged    atomic.Bool   // wbuf is non-empty (lock-free probe for Transport.Flush)

	ackDeferred atomic.Bool // the reader handed an owed ack to a woken rank; nobody has carried it yet
	ackTimer    *time.Timer // writes a deferred ack nobody carried within ackDelay
	windowFull  atomic.Bool // a send was refused with ErrBusy since the last ack progress

	recvMu    sync.Mutex
	delivered uint64 // highest in-order seq handed to the handlers

	deliveredA  atomic.Uint64 // mirror of delivered for lock-free reads (handshake, acks)
	heard       atomic.Bool   // a frame, or part of a large one, arrived since the last tick took the flag
	lastRecv    atomic.Int64  // link-clock stamp no earlier than the last frame heard from the peer
	everUp      atomic.Bool
	departed    atomic.Bool // peer sent Bye: stop talking to it, it is not a failure
	dead        atomic.Bool
	partitioned atomic.Bool // chaos switch: suppress all traffic both ways
	deadReason  string      // written once before dead is set

	// Clock alignment against this peer (guarded by clockMu): the newest
	// heartbeat received (echoed back on our next heartbeat), the NTP-style
	// estimator fed by echoes of our own heartbeats, and the sample history
	// recorded into trace dumps.  rttNs/offNs mirror the current estimates
	// for lock-free snapshots.
	clockMu    sync.Mutex
	peerHB     Heartbeat
	peerHBRecv int64
	clock      ClockEstimator
	samples    []obs.ClockSample // ring, newest at samplesN-1 mod len
	samplesN   uint64
	rttNs      atomic.Int64 // smoothed filtered round-trip (EWMA); 0 = no sample yet
	offNs      atomic.Int64 // current offset estimate (peer minus local)

	events *linkEventRing // transport trace ring; nil when link tracing is off

	stats linkCounters
}

// linkClockHistory bounds the per-link offset-sample history kept for trace
// dumps; at the 25ms default heartbeat cadence it spans ~25s of run.
const linkClockHistory = 1024

// linkCounters are the per-link observability counters (all atomics: the
// ticker, reader, and Stats snapshot each other concurrently).
type linkCounters struct {
	framesSent, framesRecv   atomic.Int64
	bytesSent, bytesRecv     atomic.Int64
	retransmits              atomic.Int64
	dupsDropped, oooDropped  atomic.Int64
	reconnects               atomic.Int64
	hbSent, hbRecv, acksSent atomic.Int64
	acksRecv, acksDeferred   atomic.Int64
	retryRounds              atomic.Int64
	dropsInjected            atomic.Int64
	delaysInjected           atomic.Int64
	sendBusy                 atomic.Int64
	writes                   atomic.Int64
}

// ackEvery bounds how many delivered frames may ride on piggybacked acks
// alone before the receiver owes the sender an explicit ack, so a one-way
// stream (a long Bcast fan-out) cannot stall the sender's resend window.
const ackEvery = 64

// flushBytes is the staged size past which a sender writes without waiting
// for the ack clock: one socket buffer's worth, so a large message never
// waits and a burst of small ones still shares its write.
const flushBytes = 64 << 10

// ackDelay bounds how long an ack handed to a woken rank may stay unwritten:
// the peer's staged frames wait for it, so past this the link writes it
// itself.  Far above what a woken rank needs to send or block again, far
// below anything a sender would notice as a stall — the bound that keeps the
// hand-off from being Nagle x delayed-ack.  A variable only so that tests can
// stretch it and count carried acks exactly; nothing else sets it.
var ackDelay = 100 * time.Microsecond

// bufKeep is the largest window or staging buffer kept across an idle
// moment; one oversized frame must not pin its capacity for the run.
const bufKeep = 1 << 20

// send queues one sequenced frame: it enters the resend window and, with a
// live connection, the staging buffer.  On an idle link the sender writes it
// at once; otherwise it rides the next flush (see the type comment).  send
// returns ErrBusy when the resend window is full (the caller yields and
// retries), a *DeadError when the peer has been declared dead, and nil
// otherwise — including when the connection is down, in which case the
// frame is buffered and replayed on reconnect.
func (l *link) send(f *Frame) error {
	l.mu.Lock()
	if l.dead.Load() {
		reason := l.deadReason
		l.mu.Unlock()
		return &DeadError{Node: l.peer, Reason: reason}
	}
	if l.departed.Load() {
		// The peer finished and left; anything still addressed to it is
		// undeliverable by design.  Dropping (rather than erroring) keeps
		// shutdown races harmless: the messages could not have mattered.
		l.mu.Unlock()
		return nil
	}
	if l.nextSeq-l.ackedOut >= uint64(l.t.cfg.MaxUnacked) {
		l.stats.sendBusy.Add(1)
		l.windowFull.Store(true)
		l.mu.Unlock()
		// A full window must not hold unwritten frames: the acks that drain
		// it only come for frames the peer has seen.
		l.flush(0, nil)
		return ErrBusy
	}
	idle := l.nextSeq == l.ackedOut
	l.nextSeq++
	f.Seq = l.nextSeq
	f.Ack = l.deliveredA.Load()
	f.SrcNode = int32(l.t.cfg.Node)
	if l.events != nil {
		l.events.add(obs.LinkEvent{
			TS: time.Now().UnixNano(), Kind: obs.LinkSend,
			Node: int32(l.t.cfg.Node), Peer: int32(l.peer),
			Seq: f.Seq, Bytes: int32(len(f.Payload)),
		})
	}
	if idle {
		l.attempts = 0
		l.retryArm = l.t.ticks.Load()
	}
	at := len(l.win)
	l.win = AppendFrame(l.win, f)
	flushNow := false
	switch {
	case l.conn == nil || l.partitioned.Load():
	case l.injectDropLocked():
		l.stats.dropsInjected.Add(1)
	default:
		l.wbuf = append(l.wbuf, l.win[at:]...)
		l.wframes++
		l.wack = f.Ack
		flushNow = idle || len(l.wbuf) >= flushBytes
		if !flushNow {
			l.staged.Store(true)
		}
	}
	l.mu.Unlock()
	if flushNow {
		l.flush(0, nil)
	}
	return nil
}

// sendControl transmits one unsequenced frame (ack, heartbeat, bye) together
// with everything staged, best-effort: with the connection down the frame is
// simply not sent.
func (l *link) sendControl(kind Kind, payload []byte) { l.flush(kind, payload) }

// flush writes everything staged — plus one control frame when kind is
// non-zero — to the live connection in a single write.  The control frame is
// staged and swapped out under one hold of mu while wmu is already held, so
// whoever holds both locks finds only sequenced frames in wbuf: bytes the
// resend window also has, which a replay may therefore discard.
func (l *link) flush(kind Kind, payload []byte) {
	l.wmu.Lock()
	l.mu.Lock()
	conn, gen := l.conn, l.gen
	if conn == nil || l.partitioned.Load() {
		// Nothing may go out; staged frames stay in the resend window.
		l.discardStagedLocked()
		l.mu.Unlock()
		l.wmu.Unlock()
		return
	}
	if kind != 0 {
		cf := Frame{Kind: kind, SrcNode: int32(l.t.cfg.Node), Ack: l.deliveredA.Load(), Payload: payload}
		l.wbuf = AppendFrame(l.wbuf, &cf)
		l.wframes++
		l.wack = cf.Ack
	}
	buf, frames, ack := l.wbuf, l.wframes, l.wack
	l.wbuf, l.wframes = l.spare[:0], 0
	l.staged.Store(false)
	l.mu.Unlock()

	if len(buf) > 0 {
		if err := l.write(conn, buf, frames); err == nil {
			l.ackSent.Store(ack) // frames are staged in order, so this only grows
		} else {
			l.mu.Lock()
			if l.gen == gen {
				l.writeFailedLocked(err)
			}
			l.mu.Unlock()
		}
	}
	if cap(buf) > bufKeep {
		buf = nil
	}
	l.spare = buf
	l.wmu.Unlock()
}

// write makes one socket write of frames encoded frames and accounts for it.
// The write deadline is refreshed at most once per tick, from the tick's
// stamp: PeerDeadAfter plus two periods past it, one for the stamp's age
// (under a period while the tick loop keeps its schedule) and one for a tick
// that runs late.  Caller holds wmu.
func (l *link) write(conn Conn, buf []byte, frames int) error {
	if now := l.t.now.Load(); conn != l.wconn || now != l.wstamp {
		l.wconn, l.wstamp = conn, now
		conn.SetWriteDeadline(l.t.epoch.Add(time.Duration(now) + l.t.cfg.PeerDeadAfter + 2*l.t.period))
	}
	if _, err := conn.Write(buf); err != nil {
		return err
	}
	l.stats.framesSent.Add(int64(frames))
	l.stats.bytesSent.Add(int64(len(buf)))
	l.stats.writes.Add(1)
	return nil
}

// replayLocked rewrites the whole resend window — written and staged frames
// alike — in one write, so the staging buffer empties with it.  It reports
// the frames written, or -1 after tearing down a connection whose write
// failed.  Caller holds wmu and mu.
func (l *link) replayLocked() int {
	l.discardStagedLocked()
	n := int(l.nextSeq - l.ackedOut)
	if n > 0 {
		if err := l.write(l.conn, l.win[l.winHead:], n); err != nil {
			l.writeFailedLocked(err)
			return -1
		}
	}
	return n
}

// discardStagedLocked empties the staging buffer; its frames remain in the
// resend window.  Caller holds mu.
func (l *link) discardStagedLocked() {
	l.wbuf, l.wframes = l.wbuf[:0], 0
	l.staged.Store(false)
}

// teardownConnLocked drops the current connection (read error, or chaos
// KillLink) and arms the dialer's reconnect loop.  Caller holds mu.
func (l *link) teardownConnLocked() {
	l.closeConnLocked()
	l.redialLocked()
}

// writeFailedLocked drops the connection a write failed on with err, but
// leaves it open to its reader: a peer that closed while we wrote may have
// sent its last frames first — the ack of ours, its Bye — and closing here
// would discard them unread, leaving our drain to wait out DrainTimeout for
// an ack that came.  The reader closes the connection at the end of its
// stream, or closeConnLocked does if the link is done first.  A write that
// timed out closes at once: the peer stopped reading, and the close is how it
// learns to reconnect.  Caller holds mu.
func (l *link) writeFailedLocked(err error) {
	if errors.Is(err, os.ErrDeadlineExceeded) {
		l.teardownConnLocked()
		return
	}
	if l.conn != nil {
		if l.unread != nil {
			l.unread.Close()
		}
		l.unread, l.conn = l.conn, nil
		l.gen++
		l.discardStagedLocked()
	}
	l.redialLocked()
}

// redialLocked arms the dialer's reconnect loop.  Caller holds mu.
func (l *link) redialLocked() {
	if l.dialer && !l.dialing && !l.dead.Load() && !l.departed.Load() && !l.t.closed.Load() {
		l.dialing = true
		l.t.wg.Add(1)
		go l.dialLoop()
	}
}

// closeConnLocked closes the current connection, if any, and retires its
// generation and whatever was staged for it; and it closes a connection left
// to its reader.  Caller holds mu.
func (l *link) closeConnLocked() {
	if l.unread != nil {
		l.unread.Close()
		l.unread = nil
	}
	if l.conn != nil {
		l.conn.Close()
		l.conn = nil
		l.gen++
		l.discardStagedLocked()
	}
}

// installConn makes c the link's live connection: the peer's delivered
// watermark (from its Hello/Welcome) acts as a cumulative ack, and every
// sequenced frame past it is replayed in order before new traffic flows.
// It reports whether the connection was accepted (a dead/departed/closed
// link refuses) and starts the connection's reader.
func (l *link) installConn(c Conn, hs *bufio.Reader, peerDelivered uint64) bool {
	l.wmu.Lock()
	defer l.wmu.Unlock()
	l.mu.Lock()
	if l.dead.Load() || l.departed.Load() || l.t.closed.Load() {
		l.mu.Unlock()
		c.Close()
		return false
	}
	if l.conn != nil {
		// A replacement arrived while an old connection looked alive (the
		// peer saw a break we have not noticed yet).  The newest wins.
		l.conn.Close()
	}
	l.conn = c
	l.gen++
	gen := l.gen
	// Order matters against the (lockless) tick: lastRecv must be current
	// before everUp flips, or a tick in the window reads everUp with a
	// zero/stale lastRecv and declares instant heartbeat death.
	l.heardBy(l.t.clockNow())
	if l.everUp.Swap(true) {
		l.stats.reconnects.Add(1)
	}
	l.handleAckLocked(peerDelivered)
	n := l.replayLocked()
	if n < 0 {
		l.closeConnLocked() // no reader was started for it
		l.mu.Unlock()
		return false
	}
	if gen > 1 {
		l.stats.retransmits.Add(int64(n))
	}
	l.mu.Unlock()
	l.wakeWindowWaiters() // the handshake watermark is an ack too

	l.t.wg.Add(1)
	go l.readLoop(c, hs, gen)
	return true
}

// handleAckLocked processes a cumulative ack: completed frames leave the
// resend window and ack progress resets the retransmit clock.  Caller
// holds mu.
func (l *link) handleAckLocked(a uint64) {
	if a > l.nextSeq {
		a = l.nextSeq // nothing past what was sent can have been delivered
	}
	if a <= l.ackedOut {
		return
	}
	for n := a - l.ackedOut; n > 0; n-- {
		l.winHead += encodedLen(l.win[l.winHead:])
	}
	l.ackedOut = a
	l.ackedOutA.Store(a)
	switch live := len(l.win) - l.winHead; {
	case live == 0:
		l.win, l.winHead = l.win[:0], 0
		if cap(l.win) > bufKeep {
			l.win = nil
		}
	case l.winHead >= live:
		// More dead bytes than live ones: slide the live frames down, so the
		// slab stays within twice its live size at amortized constant cost.
		l.win = l.win[:copy(l.win, l.win[l.winHead:])]
		l.winHead = 0
	}
	l.attempts = 0
	l.retryArm = l.t.ticks.Load()
}

// readLoop consumes frames from one connection until it breaks or is
// replaced.  Only the loop whose generation is still current tears the
// connection down; a stale loop exits silently, closing its connection if a
// failed write left it open for this loop to read to the end.
//
// hs is the handshake's reader, which reads through a minimal buffer to keep
// the stream buffer's allocation off the handshake's path.  The loop reads
// through it: first whatever it read past the handshake, then, its buffer
// empty, c directly.
//
// The receive counters are folded per read batch: frames and bytes add up
// locally and reach the link's counters when the read buffer drains, every
// ackEvery frames, and when the loop exits.
func (l *link) readLoop(c Conn, hs *bufio.Reader, gen uint64) {
	defer l.t.wg.Done()
	fr := newFrameReader(hs, readBufSize)
	// A frame larger than the read buffer can take longer than
	// PeerDeadAfter to arrive, and the peer's heartbeats queue behind it:
	// its bytes count as hearing from the peer while they flow.
	fr.progress = l.hear
	// One Frame for the connection's lifetime: the handlers are func values,
	// so a per-iteration variable would escape to the heap on every frame.
	var f Frame
	sinceAck := 0           // frames delivered since this reader last settled its ack
	carried := false        // the newest of them woke a rank that will carry the ack
	var frames, bytes int64 // received since the counters were last folded
	for {
		var err error
		if f, err = fr.Read(); err != nil {
			l.stats.framesRecv.Add(frames)
			l.stats.bytesRecv.Add(bytes)
			l.mu.Lock()
			if l.gen == gen {
				l.teardownConnLocked()
			} else if l.unread == c {
				c.Close()
				l.unread = nil
			}
			l.mu.Unlock()
			return
		}
		if l.partitioned.Load() {
			continue // the chaos partition eats everything, liveness included
		}
		if !l.heard.Load() {
			l.heard.Store(true) // the next tick stamps it (Transport.tickLoop)
		}
		// Nothing more to read without blocking: the stream went idle.  The
		// last frame's bytes are still in the buffer; buffered leaves them out.
		idle := fr.buffered() == 0
		frames++
		bytes += int64(HeaderLen + len(f.Payload))
		if idle || frames >= ackEvery {
			l.stats.framesRecv.Add(frames)
			l.stats.bytesRecv.Add(bytes)
			frames, bytes = 0, 0
		}
		if f.Ack > l.ackedOutA.Load() {
			// The ack clock: the peer has taken what was written, so what was
			// staged behind it goes out now, in one write.
			l.mu.Lock()
			l.handleAckLocked(f.Ack)
			staged := len(l.wbuf) > 0
			l.mu.Unlock()
			if staged {
				l.flush(0, nil)
			}
			l.wakeWindowWaiters()
		}
		switch f.Kind {
		case KindData, KindApplied:
			if l.acceptSequenced(&f) {
				sinceAck++
				carried = f.Waiting
			}
		case KindHeartbeat:
			l.stats.hbRecv.Add(1)
			if hb, err := DecodeHeartbeat(f.Payload); err == nil {
				l.noteHeartbeat(hb)
			}
		case KindAck:
			// The watermark itself is handled by the piggyback path above.
			l.stats.acksRecv.Add(1)
		case KindBye:
			l.handleBye(&f)
		case KindHello, KindWelcome:
			// A late handshake duplicate on an established stream; ignore.
		}
		// The sender's staged frames wait for this ack, so it is owed as soon
		// as the stream goes idle, whatever kind of frame came last.
		if sinceAck > 0 && (sinceAck >= ackEvery || idle) {
			switch {
			case l.ackSent.Load() >= l.deliveredA.Load():
				// A frame written meanwhile carried the watermark already (a
				// handler that answered from inside Deliver).
			case carried && sinceAck < ackEvery:
				l.deferAck()
			default:
				l.writeAck()
			}
			sinceAck = 0
		}
	}
}

// hear raises heard for the next tick to stamp (Transport.tickLoop), unless
// the chaos partition eats what arrives.
func (l *link) hear() {
	if !l.partitioned.Load() && !l.heard.Load() {
		l.heard.Store(true)
	}
}

// wakeWindowWaiters tells the owner that a window which refused a send may
// have room again: acks advanced, or the link reached a state (departed,
// dead) in which send no longer answers ErrBusy.  Called with no lock held.
func (l *link) wakeWindowWaiters() {
	if l.windowFull.Load() && l.windowFull.Swap(false) {
		if h := l.t.h.Writable; h != nil {
			h(l.peer)
		}
	}
}

// writeAck writes the explicit ack, with whatever is staged.
func (l *link) writeAck() {
	l.stats.acksSent.Add(1)
	l.sendControl(KindAck, nil)
}

// deferAck leaves an owed ack to the rank the newest frame woke.  It rides on
// that rank's next frame (every frame carries the watermark), or goes out of
// Transport.Flush when the rank next blocks; the timer writes it if neither
// happened within ackDelay of the oldest ack still deferred.
func (l *link) deferAck() {
	l.stats.acksDeferred.Add(1)
	if !l.ackDeferred.Swap(true) {
		l.ackTimer.Reset(ackDelay)
	}
}

// settleAck writes a deferred ack unless a frame has carried it meanwhile.
// Called by a rank about to block and by the timer.
func (l *link) settleAck() {
	if l.ackDeferred.Swap(false) && l.ackSent.Load() < l.deliveredA.Load() {
		l.writeAck()
	}
}

// acceptSequenced runs the receive side of the reliability protocol for one
// Data/Applied frame and reports whether it was delivered.
func (l *link) acceptSequenced(f *Frame) (delivered bool) {
	if fl := &l.t.cfg.Faults; fl.DelayProb > 0 && l.t.rand01() < fl.DelayProb {
		l.stats.delaysInjected.Add(1)
		time.Sleep(time.Duration(l.t.rand01() * float64(fl.DelayMax)))
	}
	l.recvMu.Lock()
	defer l.recvMu.Unlock()
	switch {
	case f.Seq == l.delivered+1:
		delivered = true
		l.delivered++
		l.deliveredA.Store(l.delivered)
		if l.events != nil {
			l.events.add(obs.LinkEvent{
				TS: time.Now().UnixNano(), Kind: obs.LinkRecv,
				Node: int32(l.t.cfg.Node), Peer: int32(l.peer),
				Seq: f.Seq, Bytes: int32(len(f.Payload)),
			})
		}
		if f.Kind == KindApplied {
			if h := l.t.h.Applied; h != nil {
				h(f)
			}
		} else if h := l.t.h.Deliver; h != nil {
			h(f)
		}
	case f.Seq <= l.delivered:
		l.stats.dupsDropped.Add(1)
	default:
		// A gap: an earlier frame was dropped (injected or lost with a dead
		// connection).  Go-back-N: drop this one too and let the sender's
		// retransmission replay the stream from the gap in order.
		l.stats.oooDropped.Add(1)
	}
	return delivered
}

// handleBye processes a peer's departure announcement.
func (l *link) handleBye(f *Frame) {
	bye, err := DecodeBye(f.Payload)
	if err != nil {
		bye = Bye{Reason: fmt.Sprintf("unparseable bye: %v", err)}
	}
	l.mu.Lock()
	already := l.departed.Swap(true)
	// Nothing queued for a departed peer can be delivered; dropping the
	// resend window stops the retransmit clock from declaring a clean
	// departure a failure.
	l.ackedOut = l.nextSeq
	l.ackedOutA.Store(l.ackedOut)
	l.win, l.winHead = nil, 0
	l.discardStagedLocked()
	l.mu.Unlock()
	l.wakeWindowWaiters()
	if !already {
		if h := l.t.h.PeerBye; h != nil {
			var dead []int
			for _, d := range bye.Dead {
				dead = append(dead, int(d))
			}
			h(l.peer, bye.Abort, bye.Reason, dead)
		}
	}
}

// die declares the peer dead exactly once and tells the failure handler.
func (l *link) die(reason string) {
	l.mu.Lock()
	if l.dead.Load() || l.departed.Load() {
		l.mu.Unlock()
		return
	}
	l.deadReason = reason
	l.dead.Store(true)
	l.closeConnLocked()
	l.mu.Unlock()
	l.wakeWindowWaiters()
	if h := l.t.h.PeerDead; h != nil {
		h(l.peer, reason)
	}
}

// tick runs the link's periodic work from the transport's ticker: failure
// detection, the retransmit clock, and heartbeats.  now is the tick's clock
// read, tick its count, and heard whether a frame arrived before both.
func (l *link) tick(now time.Time, tick uint64, heard bool) {
	if l.dead.Load() || l.departed.Load() {
		return
	}
	cfg := &l.t.cfg
	stamp := l.t.stamp(now)
	if heard {
		l.heardBy(stamp)
	}
	if l.everUp.Load() {
		if silent := stamp - l.lastRecv.Load(); silent > int64(cfg.PeerDeadAfter) {
			l.die(fmt.Sprintf("no traffic from node %d for %v (last heard %v ago; heartbeat timeout)",
				l.peer, cfg.PeerDeadAfter, time.Duration(silent).Round(time.Millisecond)))
			return
		}
	}

	if reason := l.retransmit(now, tick); reason != "" {
		l.die(reason)
		return
	}

	l.mu.Lock()
	sendHB := now.Sub(l.lastHB) >= cfg.HeartbeatEvery
	if sendHB {
		l.lastHB = now
		l.hbNonce++
	}
	nonce := l.hbNonce
	l.mu.Unlock()

	if sendHB {
		l.stats.hbSent.Add(1)
		hb := Heartbeat{Nonce: nonce, SentUnixNano: now.UnixNano()}
		// Echo the newest heartbeat heard from the peer: that closes the
		// peer's NTP loop (its t0/t1 come back alongside our t2).
		l.clockMu.Lock()
		hb.EchoNonce = l.peerHB.Nonce
		hb.EchoSentUnixNano = l.peerHB.SentUnixNano
		hb.EchoRecvUnixNano = l.peerHBRecv
		l.clockMu.Unlock()
		l.sendControl(KindHeartbeat, hb.Encode())
	}
}

// heardBy raises lastRecv to at, a link-clock stamp no earlier than a frame
// (or handshake) heard from the peer.  The tick and a new connection's
// handshake may race; the stamp only moves forward.
func (l *link) heardBy(at int64) {
	for last := l.lastRecv.Load(); at > last; last = l.lastRecv.Load() {
		if l.lastRecv.CompareAndSwap(last, at) {
			return
		}
	}
}

// retransmit runs one go-back-N round when the oldest unacked frame has
// outlived the retransmit timer.  A timer re-armed before this tick bumped
// the count starts its backoff at this tick's clock read; one re-armed since
// waits for the next tick.  A spent retry budget comes back as the reason the
// peer is to be declared dead (by the caller, with no lock held).
func (l *link) retransmit(now time.Time, tick uint64) (deadReason string) {
	stamp := l.t.stamp(now)
	due := func() bool {
		if l.retryArm != 0 && l.retryArm < tick {
			l.retryAt, l.retryArm = stamp+int64(l.t.cfg.RetryBackoff), 0
		}
		return l.retryArm == 0 && l.nextSeq > l.ackedOut && stamp > l.retryAt && l.conn != nil && !l.partitioned.Load()
	}
	l.mu.Lock()
	if !due() {
		l.mu.Unlock()
		return ""
	}
	// The round writes, so it needs the write-order lock, which comes before
	// mu; re-check once both are held.
	l.mu.Unlock()
	l.wmu.Lock()
	defer l.wmu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if !due() {
		return ""
	}
	l.attempts++
	if l.attempts > l.t.cfg.RetryBudget {
		return fmt.Sprintf("retry budget exhausted: %d frames to node %d unacked after %d retransmit rounds",
			l.nextSeq-l.ackedOut, l.peer, l.attempts-1)
	}
	lowest := l.ackedOut + 1
	if n := l.replayLocked(); n >= 0 {
		l.stats.retransmits.Add(int64(n))
		l.stats.retryRounds.Add(1)
		if l.events != nil {
			l.events.add(obs.LinkEvent{
				TS: now.UnixNano(), Kind: obs.LinkRetransmit,
				Node: int32(l.t.cfg.Node), Peer: int32(l.peer),
				Seq: lowest, Bytes: int32(n),
			})
		}
	}
	l.retryAt = stamp + int64(l.backoff(l.attempts))
	return ""
}

// noteHeartbeat ingests one received heartbeat: remembers it for echoing,
// and — when it echoes one of ours — turns the four timestamps into a clock
// offset sample, with its own clock read for the arrival.
func (l *link) noteHeartbeat(hb Heartbeat) {
	t3 := time.Now().UnixNano()
	l.clockMu.Lock()
	if hb.Nonce > l.peerHB.Nonce {
		l.peerHB = hb
		l.peerHBRecv = t3
	}
	if l.clock.AddSample(hb.EchoSentUnixNano, hb.EchoRecvUnixNano, hb.SentUnixNano, t3) {
		off, _ := l.clock.Offset()
		delay, _ := l.clock.Delay()
		l.offNs.Store(off)
		if prev := l.rttNs.Load(); prev == 0 {
			l.rttNs.Store(delay)
		} else {
			l.rttNs.Store(prev - prev/8 + delay/8)
		}
		s := obs.ClockSample{
			Peer: int32(l.peer), LocalUnixNano: t3,
			OffsetNs: ((hb.EchoRecvUnixNano - hb.EchoSentUnixNano) + (hb.SentUnixNano - t3)) / 2,
			DelayNs:  (t3 - hb.EchoSentUnixNano) - (hb.SentUnixNano - hb.EchoRecvUnixNano),
		}
		if len(l.samples) < linkClockHistory {
			l.samples = append(l.samples, s)
		} else {
			l.samples[l.samplesN%linkClockHistory] = s
		}
		l.samplesN++
	}
	l.clockMu.Unlock()
}

// clockSamples returns the recorded offset-sample history, oldest first.
func (l *link) clockSamples() []obs.ClockSample {
	l.clockMu.Lock()
	defer l.clockMu.Unlock()
	out := make([]obs.ClockSample, 0, len(l.samples))
	if l.samplesN > linkClockHistory {
		start := l.samplesN % linkClockHistory
		out = append(out, l.samples[start:]...)
		out = append(out, l.samples[:start]...)
	} else {
		out = append(out, l.samples...)
	}
	return out
}

// backoff returns the exponential retransmit backoff for the given round,
// capped at RetryBackoffMax.
func (l *link) backoff(attempts int) time.Duration {
	d := l.t.cfg.RetryBackoff
	for i := 1; i < attempts && d < l.t.cfg.RetryBackoffMax; i++ {
		d *= 2
	}
	if d > l.t.cfg.RetryBackoffMax {
		d = l.t.cfg.RetryBackoffMax
	}
	return d
}

// injectDropLocked rolls the fault plan's drop dice for one first
// transmission.  Caller holds mu (the rng stream is mu-guarded).
func (l *link) injectDropLocked() bool {
	p := l.t.cfg.Faults.DropProb
	if p <= 0 {
		return false
	}
	l.rng += 0x9e3779b97f4a7c15
	z := l.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11)/(1<<53) < p
}

// dialLoop establishes (and re-establishes) the connection from the dialing
// side, with exponential backoff between attempts.  Exactly one dialLoop
// runs per link at a time (the dialing flag).
func (l *link) dialLoop() {
	defer l.t.wg.Done()
	backoff := l.t.cfg.DialBackoff
	for {
		if l.t.closed.Load() || l.dead.Load() || l.departed.Load() {
			break
		}
		c, err := l.t.be.Dial(l.addr, l.t.cfg.DialTimeout)
		if err == nil && l.t.trackHandshake(c) {
			up := l.handshakeDial(c)
			l.t.untrackHandshake(c)
			if up {
				break
			}
		}
		select {
		case <-l.t.stop:
			l.clearDialing()
			return
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > l.t.cfg.DialBackoffMax {
			backoff = l.t.cfg.DialBackoffMax
		}
	}
	l.clearDialing()
}

func (l *link) clearDialing() {
	l.mu.Lock()
	l.dialing = false
	// A connection torn down between handshake success and this point would
	// have skipped arming a redial (dialing was still set); catch up.
	if l.conn == nil && l.dialer && !l.dead.Load() && !l.departed.Load() && !l.t.closed.Load() {
		l.dialing = true
		l.t.wg.Add(1)
		go l.dialLoop()
	}
	l.mu.Unlock()
}

// handshakeDial runs the dialing side of the handshake on a fresh
// connection: send Hello, await Welcome, validate identity, install.
func (l *link) handshakeDial(c Conn) bool {
	t := l.t
	hello := Hello{
		Job: t.cfg.Job, Node: int32(t.cfg.Node), Nodes: int32(len(t.cfg.Addrs)),
		NRanks: int32(t.nranks), Delivered: l.deliveredA.Load(),
	}
	f := Frame{Kind: KindHello, SrcNode: int32(t.cfg.Node), Payload: hello.Encode()}
	if _, err := c.Write(f.Encode()); err != nil {
		c.Close()
		return false
	}
	c.SetReadDeadline(time.Now().Add(t.cfg.DialTimeout))
	fr := newFrameReader(c, 0) // see readLoop
	rf, err := fr.readHandshake(KindWelcome)
	if err != nil {
		c.Close()
		return false
	}
	w, err := DecodeHello(rf.Payload)
	if err != nil || w.Job != t.cfg.Job || int(w.Node) != l.peer {
		// A different job or an unexpected identity on the peer's port: a
		// stale process or a misrouted address.  Keep retrying; the real
		// peer may still be starting up.
		c.Close()
		return false
	}
	if int(w.Nodes) != len(t.cfg.Addrs) || (t.nranks > 0 && w.NRanks > 0 && int(w.NRanks) != t.nranks) {
		c.Close()
		l.die(fmt.Sprintf("configuration mismatch with node %d: it runs %d nodes / %d ranks, this node %d / %d",
			l.peer, w.Nodes, w.NRanks, len(t.cfg.Addrs), t.nranks))
		return false
	}
	c.SetReadDeadline(time.Time{})
	return l.installConn(c, fr.br, w.Delivered)
}

// snapshot captures the link's counters for Stats.
func (l *link) snapshot() obs.LinkState {
	l.mu.Lock()
	up := l.conn != nil
	unacked := int(l.nextSeq - l.ackedOut)
	reason := l.deadReason
	l.mu.Unlock()
	hbAge := int64(0)
	if last := l.lastRecv.Load(); last > 0 && l.everUp.Load() {
		hbAge = l.t.clockNow() - last
	}
	return obs.LinkState{
		SmoothedRTTNs:  l.rttNs.Load(),
		ClockOffsetNs:  l.offNs.Load(),
		HeartbeatAgeNs: hbAge,
		Peer:           l.peer, Up: up, EverUp: l.everUp.Load(),
		Departed: l.departed.Load(), Dead: l.dead.Load(), DeadReason: reason,
		Unacked:        unacked,
		FramesSent:     l.stats.framesSent.Load(),
		FramesRecv:     l.stats.framesRecv.Load(),
		BytesSent:      l.stats.bytesSent.Load(),
		BytesRecv:      l.stats.bytesRecv.Load(),
		Retransmits:    l.stats.retransmits.Load(),
		DupsDropped:    l.stats.dupsDropped.Load(),
		OooDropped:     l.stats.oooDropped.Load(),
		Reconnects:     l.stats.reconnects.Load(),
		HeartbeatsSent: l.stats.hbSent.Load(),
		HeartbeatsRecv: l.stats.hbRecv.Load(),
		AcksSent:       l.stats.acksSent.Load(),
		AcksRecv:       l.stats.acksRecv.Load(),
		AcksDeferred:   l.stats.acksDeferred.Load(),
		RetryRounds:    l.stats.retryRounds.Load(),
		DropsInjected:  l.stats.dropsInjected.Load(),
		DelaysInjected: l.stats.delaysInjected.Load(),
		SendBusy:       l.stats.sendBusy.Load(),
		Writes:         l.stats.writes.Load(),
	}
}
