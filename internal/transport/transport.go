package transport

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// ErrBusy reports a full resend window toward the destination: the link will
// not buffer more until the peer acks progress.  Callers yield and retry —
// the runtime's progress loops interleave poison checks so a dead peer
// cannot spin a sender forever.
var ErrBusy = errors.New("transport: link resend window full")

// ErrClosed reports a send on a transport that has been closed.
var ErrClosed = errors.New("transport: closed")

// DeadError reports a send toward a peer the failure detector has declared
// dead.
type DeadError struct {
	Node   int
	Reason string
}

func (e *DeadError) Error() string {
	return fmt.Sprintf("transport: node %d is dead: %s", e.Node, e.Reason)
}

// Handlers are the upcalls a Transport makes into its owner (the core
// runtime).  Deliver and Applied run on a link's reader goroutine with the
// link's receive lock held, strictly in link order; their Frame (payload
// included) is only valid for the duration of the call — the payload
// usually aliases the connection's read buffer, which the next frame
// overwrites — so the handler copies what it keeps, and may set
// Frame.Waiting to take the frame's ack off the reader's hands.  PeerDead
// and PeerBye run at most once per peer, off the transport's internal
// goroutines.
type Handlers struct {
	// Deliver receives one KindData frame.
	Deliver func(f *Frame)
	// Applied receives one KindApplied frame (RMA applied watermark).
	Applied func(f *Frame)
	// PeerDead reports a peer declared dead by the failure detector
	// (heartbeat silence, or a configuration mismatch at the handshake).
	PeerDead func(node int, reason string)
	// PeerBye reports a peer's deliberate departure.  abort distinguishes a
	// poisoned runtime (propagate the failure) from a completed one; dead
	// lists the node ids the departing peer blamed for its abort, so a
	// survivor hearing of a failure second-hand still names the node that
	// actually died rather than the peer relaying the news.
	PeerBye func(node int, abort bool, reason string, dead []int)
	// Writable reports that a send toward node, refused with ErrBusy since
	// the last report, may succeed now (acks made room in the resend window):
	// whoever waits to retry should.  It runs on a transport goroutine with
	// no link lock held.
	Writable func(node int)
}

// Transport is one node's endpoint in the job's full mesh.  See the package
// comment for the protocol.
type Transport struct {
	cfg    Config
	be     Backend
	h      Handlers
	nranks int
	links  []*link // indexed by node id; nil at own index

	ln   Listener
	stop chan struct{}
	// closing is set at the top of Close (idempotency + refusing new
	// sends); closed is set once the drain has finished and teardown is
	// actually underway — dial and reconnect paths key off closed so the
	// drain can still re-establish a link and flush its resend buffer.
	closing  atomic.Bool
	closed   atomic.Bool
	wg       sync.WaitGroup
	rngState atomic.Uint64

	// hsConns holds the connections still in the handshake, accepted or
	// dialed, whose reads only a DialTimeout deadline bounds: Close closes
	// them so that a peer that stalls mid-handshake cannot hold it.
	hsMu    sync.Mutex
	hsConns map[Conn]struct{}

	// The link clock (tickLoop): stamps are monotonic nanoseconds since
	// epoch.  period is the ticker's, and now the stamp of the latest tick.
	epoch  time.Time
	period time.Duration
	now    atomic.Int64
}

// New builds a transport endpoint from a defaults-resolved, validated
// configuration.  nranks (the job's world size, 0 if unknown) is exchanged
// in the handshake so a misconfigured launch fails fast instead of
// deadlocking.  Call Start to bind and connect.
func New(cfg Config, be Backend, nranks int, h Handlers) (*Transport, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(0); err != nil {
		return nil, err
	}
	if be == nil {
		be = TCP()
	}
	t := &Transport{
		cfg:    cfg,
		be:     be,
		h:      h,
		nranks: nranks,
		links:  make([]*link, len(cfg.Addrs)),
		stop:   make(chan struct{}),
		epoch:  time.Now(),
	}
	t.hsConns = make(map[Conn]struct{})
	t.rngState.Store(cfg.Faults.Seed ^ 0x6a09e667f3bcc909)
	t.period = max(cfg.HeartbeatEvery/2, time.Millisecond)
	for peer := range cfg.Addrs {
		if peer == cfg.Node {
			continue
		}
		l := &link{
			t:      t,
			peer:   peer,
			addr:   cfg.Addrs[peer],
			dialer: cfg.Node < peer,
			rng:    cfg.Faults.Seed ^ (uint64(cfg.Node)<<32 | uint64(peer)) ^ 0x9e3779b97f4a7c15,
			events: newLinkEventRing(cfg.LinkEvents),
		}
		l.ackTimer = time.AfterFunc(time.Hour, l.settleAck)
		l.ackTimer.Stop()
		t.links[peer] = l
	}
	return t, nil
}

// Start binds the listen address, starts dialing every higher-numbered
// peer, and arms the ticker that drives heartbeats and failure detection.
func (t *Transport) Start() error {
	ln, err := t.be.Listen(t.cfg.Addrs[t.cfg.Node])
	if err != nil {
		return fmt.Errorf("transport: node %d cannot listen on %q: %w", t.cfg.Node, t.cfg.Addrs[t.cfg.Node], err)
	}
	t.ln = ln
	t.now.Store(t.clockNow()) // the write deadline's stamp until the first tick

	t.wg.Add(1)
	go t.acceptLoop(ln)

	for _, l := range t.links {
		if l != nil && l.dialer {
			l.mu.Lock()
			l.dialing = true
			l.mu.Unlock()
			t.wg.Add(1)
			go l.dialLoop()
		}
	}

	t.wg.Add(1)
	go t.tickLoop()
	return nil
}

// Addr is the bound listen address (resolving a ":0" request to the picked
// port).  Valid after Start.
func (t *Transport) Addr() string { return t.ln.Addr() }

// Node is this endpoint's node id.
func (t *Transport) Node() int { return t.cfg.Node }

// Nodes is the job's node count.
func (t *Transport) Nodes() int { return len(t.cfg.Addrs) }

// Send routes one sequenced frame (KindData or KindApplied) to dstNode.
// nil means the link has taken responsibility for delivery (the frame is
// buffered until acked, and replayed on reconnect); ErrBusy means the resend
// window is full and the caller should yield and retry; a *DeadError means
// the failure detector has given up on the peer.
func (t *Transport) Send(dstNode int, f *Frame) error {
	if t.closing.Load() {
		return ErrClosed
	}
	if dstNode < 0 || dstNode >= len(t.links) || t.links[dstNode] == nil {
		return fmt.Errorf("transport: no link from node %d to node %d", t.cfg.Node, dstNode)
	}
	if !f.Kind.sequenced() {
		return fmt.Errorf("transport: Send wants a sequenced frame, got %s", f.Kind)
	}
	return t.links[dstNode].send(f)
}

// Abort announces this node's runtime failure to every live peer (an
// abort-flagged Bye), so survivors propagate the poison immediately instead
// of waiting out the heartbeat detector.  dead lists the nodes this
// runtime's own detector blamed (empty when the abort had a local cause,
// e.g. a rank panic); peers record those nodes — not this one — as dead.
// Best-effort and non-blocking with respect to the runtime's abort path.
func (t *Transport) Abort(reason string, dead []int) {
	y := Bye{Abort: true, Reason: reason}
	for _, d := range dead {
		y.Dead = append(y.Dead, int32(d))
	}
	payload := y.Encode()
	for _, l := range t.links {
		if l != nil && !l.dead.Load() && !l.departed.Load() {
			l.sendControl(KindBye, payload)
		}
	}
}

// Close announces a graceful departure to every live peer, tears down every
// connection, and waits for the transport's goroutines to exit.  Safe to
// call more than once.
func (t *Transport) Close() error {
	if t.closing.Swap(true) {
		return nil
	}
	t.drain()
	t.closed.Store(true)
	y := Bye{}
	payload := y.Encode()
	for _, l := range t.links {
		if l != nil && !l.dead.Load() && !l.departed.Load() {
			l.sendControl(KindBye, payload)
		}
	}
	close(t.stop)
	for _, l := range t.links {
		if l == nil {
			continue
		}
		l.ackTimer.Stop()
		l.mu.Lock()
		l.closeConnLocked()
		l.mu.Unlock()
	}
	if t.ln != nil {
		t.ln.Close()
	}
	t.hsMu.Lock()
	for c := range t.hsConns {
		c.Close()
	}
	t.hsMu.Unlock()
	t.wg.Wait()
	return nil
}

// drain blocks (bounded by DrainTimeout) until every live link's resend
// buffer is empty.  Sends complete at post, so an application whose last
// act is a send considers itself done while the frame may still be
// unacknowledged — or queued behind a dial that has not finished.  The
// transport is still running here (Close has not signalled stop yet), so
// redials and their replays keep making progress during the wait.  Links
// that are dead, departed, or chaos-partitioned are excluded: their frames
// are undeliverable by definition and must not hold shutdown hostage.
func (t *Transport) drain() {
	deadline := time.Now().Add(t.cfg.DrainTimeout)
	for time.Now().Before(deadline) {
		t.Flush()
		pending := false
		for _, l := range t.links {
			if l == nil || l.dead.Load() || l.departed.Load() || l.partitioned.Load() {
				continue
			}
			l.mu.Lock()
			n := l.nextSeq - l.ackedOut
			l.mu.Unlock()
			if n > 0 {
				pending = true
				break
			}
		}
		if !pending {
			return
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// Flush writes out whatever frames are staged behind unacked ones on any
// link, and any ack the reader left to a woken rank that no frame has carried
// since.  The runtime calls it when a rank is about to block: the rank may be
// waiting for the answer to a frame that is still staged, a second rank
// sharing the link must not wait a round trip for the first one's ack, and
// the peer's own staged frames wait for ours.  With nothing staged or owed it
// costs two atomic loads per link.
func (t *Transport) Flush() {
	for _, l := range t.links {
		if l == nil {
			continue
		}
		if l.ackDeferred.Load() {
			l.settleAck() // the ack takes what is staged with it
		}
		if l.staged.Load() {
			l.flush(0, nil)
		}
	}
}

// KillLink severs the current connection to a peer (chaos: the link layer
// must reconnect and resume via the delivered watermarks).  A no-op when no
// connection is up.
func (t *Transport) KillLink(node int) {
	if node < 0 || node >= len(t.links) || t.links[node] == nil {
		return
	}
	l := t.links[node]
	l.mu.Lock()
	l.teardownConnLocked()
	l.mu.Unlock()
}

// SetPartitioned switches a chaos partition toward a peer on or off: the
// connection goes down and handshakes are refused, from either side, until
// healing arms the redial.  Nothing crosses a partition, heartbeats included,
// so a long enough one trips the failure detector on both sides.
func (t *Transport) SetPartitioned(node int, on bool) {
	if node < 0 || node >= len(t.links) || t.links[node] == nil {
		return
	}
	l := t.links[node]
	l.mu.Lock()
	l.partitioned.Store(on)
	if on {
		l.teardownConnLocked()
	} else if l.conn == nil {
		l.redialLocked()
	}
	l.mu.Unlock()
}

// Stats snapshots every link.  The slice is indexed by peer node id with
// this node's own entry zeroed.  It stays valid after Close, when it reports
// the final counts — the close-time drain's replays included — with
// every link down.
func (t *Transport) Stats() []obs.LinkState {
	out := make([]obs.LinkState, len(t.links))
	for i, l := range t.links {
		if l != nil {
			out[i] = l.snapshot()
		}
	}
	return out
}

// ClockSamples returns every link's recorded clock-offset history, merged
// and ordered by local arrival time.  The runtime records these into the
// node's binary trace dump; `puretrace merge` uses them to align per-node
// dumps onto one timeline.
func (t *Transport) ClockSamples() []obs.ClockSample {
	var out []obs.ClockSample
	for _, l := range t.links {
		if l != nil {
			out = append(out, l.clockSamples()...)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].LocalUnixNano < out[b].LocalUnixNano })
	return out
}

// LinkEvents returns every link's retained transport trace events (frame
// send/recv with sequence numbers, resets and replays), merged and
// time-ordered.
// Empty unless Config.LinkEvents enabled the rings.
func (t *Transport) LinkEvents() []obs.LinkEvent {
	var out []obs.LinkEvent
	for _, l := range t.links {
		if l != nil && l.events != nil {
			out = append(out, l.events.snapshot()...)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].TS < out[b].TS })
	return out
}

// DeadNodes lists the peers the failure detector has declared dead.
func (t *Transport) DeadNodes() []int {
	var out []int
	for i, l := range t.links {
		if l != nil && l.dead.Load() {
			out = append(out, i)
		}
	}
	return out
}

// acceptLoop admits inbound connections for the node's lifetime.
func (t *Transport) acceptLoop(ln Listener) {
	defer t.wg.Done()
	for {
		c, err := ln.Accept()
		if err != nil {
			if t.closed.Load() {
				return
			}
			select {
			case <-t.stop:
				return
			case <-time.After(time.Millisecond):
			}
			continue
		}
		if !t.trackHandshake(c) {
			return
		}
		t.wg.Add(1)
		go t.handleAccept(c)
	}
}

// trackHandshake registers a connection about to run the handshake so that
// Close can close it.  Once Close has begun tearing down it closes c instead
// and reports false: Close sets closed before it takes hsMu, so a
// connection registered after its sweep would go unseen.
func (t *Transport) trackHandshake(c Conn) bool {
	t.hsMu.Lock()
	defer t.hsMu.Unlock()
	if t.closed.Load() {
		c.Close()
		return false
	}
	t.hsConns[c] = struct{}{}
	return true
}

// untrackHandshake ends a trackHandshake registration.
func (t *Transport) untrackHandshake(c Conn) {
	t.hsMu.Lock()
	delete(t.hsConns, c)
	t.hsMu.Unlock()
}

// handleAccept runs the accepting side of the handshake: await Hello,
// validate the peer, answer Welcome, install the connection.
func (t *Transport) handleAccept(c Conn) {
	defer t.wg.Done()
	defer t.untrackHandshake(c)
	c.SetReadDeadline(time.Now().Add(t.cfg.DialTimeout))
	fr := newFrameReader(c, 0) // see link.readLoop
	var f Frame
	if err := fr.readHandshake(&f, KindHello); err != nil {
		c.Close()
		return
	}
	hello, err := DecodeHello(f.Payload)
	if err != nil || hello.Job != t.cfg.Job {
		c.Close()
		return
	}
	peer := int(hello.Node)
	// The lower-numbered node dials; an accepted connection must come from a
	// lower-numbered peer or the mesh has two connections racing.
	if peer < 0 || peer >= len(t.links) || peer >= t.cfg.Node || t.links[peer] == nil {
		c.Close()
		return
	}
	l := t.links[peer]
	if l.dead.Load() || l.departed.Load() || l.partitioned.Load() {
		// No Welcome from a link that is over or partitioned: answering would
		// count as a sign of life, and a peer that has not noticed yet would
		// reset its silence clock on every redial instead of running it out.
		c.Close()
		return
	}
	if int(hello.Nodes) != len(t.cfg.Addrs) || (t.nranks > 0 && hello.NRanks > 0 && int(hello.NRanks) != t.nranks) {
		c.Close()
		l.die(fmt.Sprintf("configuration mismatch with node %d: it runs %d nodes / %d ranks, this node %d / %d",
			peer, hello.Nodes, hello.NRanks, len(t.cfg.Addrs), t.nranks))
		return
	}
	w := Hello{
		Job: t.cfg.Job, Node: int32(t.cfg.Node), Nodes: int32(len(t.cfg.Addrs)),
		NRanks: int32(t.nranks), Delivered: l.deliveredA.Load(),
	}
	wf := Frame{Kind: KindWelcome, SrcNode: int32(t.cfg.Node), Payload: w.Encode()}
	if _, err := c.Write(wf.Encode()); err != nil {
		c.Close()
		return
	}
	c.SetReadDeadline(time.Time{})
	l.installConn(c, fr.br, hello.Delivered)
}

// tickLoop drives every link's periodic work and keeps the link clock, every
// half heartbeat interval.  It is the only place the links' timers read the
// wall clock: a reader only raises its link's heard flag, and each tick takes
// every flag before it reads the clock, so an arrival happened before the
// stamp it is given and the silence timer errs late, by at most one period,
// never early.  The stamp is published in now for the write deadline.
func (t *Transport) tickLoop() {
	defer t.wg.Done()
	tk := time.NewTicker(t.period)
	defer tk.Stop()
	heard := make([]bool, len(t.links))
	for {
		select {
		case <-t.stop:
			return
		case <-tk.C:
			for i, l := range t.links {
				if l != nil {
					heard[i] = l.heard.Swap(false)
				}
			}
			now := time.Now()
			t.now.Store(t.stamp(now))
			for i, l := range t.links {
				if l != nil {
					l.tick(now, heard[i])
				}
			}
		}
	}
}

// stamp converts a time to the link clock.
func (t *Transport) stamp(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

// clockNow reads the wall clock in link-clock units, for the paths that keep
// their own clock reads (the handshake, snapshots).
func (t *Transport) clockNow() int64 { return int64(time.Since(t.epoch)) }

// rand01 draws from the transport's shared fault-injection stream (receive-
// side delays; the send side keeps per-link mu-guarded streams).
func (t *Transport) rand01() float64 {
	z := t.rngState.Add(0x9e3779b97f4a7c15)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}
