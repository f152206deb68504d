package transport

import (
	"sync"
	"time"

	"repro/internal/obs"
)

// linkEventRing is the per-link transport trace: a small mutex-guarded ring
// of frame events (send/recv with link sequence numbers, connection resets
// and reconnect replays), the same newest-wins discipline as the per-rank
// trace rings.  It exists only when Config.LinkEvents > 0 — the runtime
// enables it exactly when rank tracing is on — so the send hot path pays
// nothing otherwise.
type linkEventRing struct {
	mu    sync.Mutex
	buf   []obs.LinkEvent
	total uint64 // events ever recorded; buf[total%len] is the next write slot
}

func newLinkEventRing(capacity int) *linkEventRing {
	if capacity <= 0 {
		return nil
	}
	return &linkEventRing{buf: make([]obs.LinkEvent, capacity)}
}

// record adds one event, with seq and n as its Seq and Bytes, to the link
// trace; the caller checks that the trace is on.
func (l *link) record(kind obs.LinkEventKind, seq uint64, n int) {
	l.events.add(obs.LinkEvent{
		TS: time.Now().UnixNano(), Kind: kind,
		Node: int32(l.t.cfg.Node), Peer: int32(l.peer),
		Seq: seq, Bytes: int32(n),
	})
}

func (r *linkEventRing) add(e obs.LinkEvent) {
	r.mu.Lock()
	r.buf[r.total%uint64(len(r.buf))] = e
	r.total++
	r.mu.Unlock()
}

// snapshot returns the retained events oldest-first.
func (r *linkEventRing) snapshot() []obs.LinkEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.total
	if n > uint64(len(r.buf)) {
		n = uint64(len(r.buf))
	}
	out := make([]obs.LinkEvent, 0, n)
	start := r.total - n
	for i := uint64(0); i < n; i++ {
		out = append(out, r.buf[(start+i)%uint64(len(r.buf))])
	}
	return out
}

// dropped returns how many events were overwritten by ring wraparound.
func (r *linkEventRing) dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.total > uint64(len(r.buf)) {
		return r.total - uint64(len(r.buf))
	}
	return 0
}
