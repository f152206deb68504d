// Package rma holds the lock-free data structures of Pure's one-sided
// communication subsystem: per-communicator windows of exposed memory,
// direct Put/Get/Accumulate application, and the epoch synchronization
// primitives (fence, post/start/complete/wait, notify counters).
//
// The package is deliberately transport-free.  Everything here operates on
// shared memory within one address space; internal/core supplies the
// glue that carries window operations between nodes (frames over the
// inter-node links) and the SSW wait loops that the epoch primitives block
// in.  The synchronization flags follow the SPTD discipline from
// internal/collective: per-rank sequence-numbered atomics that each rank
// advances monotonically, so a waiter only ever polls for "flag >= my
// round" and no flag is ever reset (no ABA, no locks, and the atomics give
// the happens-before edges that make direct memcpy into a peer's window
// race-detector clean).
package rma

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/collective"
	"repro/internal/layout"
	"repro/internal/schedpoint"
)

// padUint64 is a cache-line padded atomic sequence flag (the same layout the
// SPTD flags use: one writer, many polling readers, no false sharing).
type padUint64 struct {
	v atomic.Uint64
	_ [layout.CachelineBytes - 8]byte
}

// spinlock is a tiny CAS lock used to serialize target-side Accumulate
// application.  Contention on it models the atomicity window MPI_Accumulate
// guarantees; callers must supply their own backoff (the core layer yields
// through the SSW loop).
type spinlock struct{ state atomic.Int32 }

// TryLock attempts one acquisition.
func (l *spinlock) TryLock() bool { return l.state.CompareAndSwap(0, 1) }

// Unlock releases the lock.
func (l *spinlock) Unlock() { l.state.Store(0) }

// NotifySlots is the number of independent notification counters each rank
// exposes per window (producer-consumer patterns use distinct slots for
// distinct neighbors or phases).
const NotifySlots = 8

// Window is the shared state of one window: every member rank's exposed
// buffer plus the epoch flags.  One Window is shared by all member ranks
// (and is reachable from the registry by the core layer's remote-frame
// dispatch); per-rank bookkeeping (epoch rounds, outstanding requests)
// lives in the caller's per-rank handle, not here.
type Window struct {
	n    int
	bufs [][]byte // comm rank -> exposed buffer; fixed after the create barrier
	// lens holds every member's exposed-buffer length.  Within one process it
	// mirrors len(bufs[i]); when window members span OS processes, remote
	// members' buffers are absent from this replica (bufs[i] == nil) and the
	// core layer fills lens from an exchange instead, so origin-side bounds
	// checks (Check) still see the true window sizes.
	lens []atomic.Int64

	fence []padUint64 // per-rank fence epoch flags
	post  []padUint64 // per-rank PSCW exposure flags (written by targets)
	// complete is an origin x target matrix of completion flags: origin o
	// stores its round into complete[o*n+t] when it finishes its access
	// epoch at target t; target t's Wait polls column t.
	complete []padUint64
	// notify holds per-(rank, slot) notification counters, advanced by
	// origins (or by the core layer applying remote notify frames) and
	// consumed monotonically by the owner.
	notify []padUint64

	accMu []spinlock // per-target-rank Accumulate serialization
}

// NewWindow builds the shared state for a window over n comm ranks.
func NewWindow(n int) *Window {
	return &Window{
		n:        n,
		bufs:     make([][]byte, n),
		lens:     make([]atomic.Int64, n),
		fence:    make([]padUint64, n),
		post:     make([]padUint64, n),
		complete: make([]padUint64, n*n),
		notify:   make([]padUint64, n*NotifySlots),
		accMu:    make([]spinlock, n),
	}
}

// N returns the window's member count.
func (w *Window) N() int { return w.n }

// Attach exposes buf as rank tid's window memory.  Each rank attaches its
// own buffer exactly once, before the creating collective's barrier; after
// that the bufs table is read-only.
func (w *Window) Attach(tid int, buf []byte) {
	w.bufs[tid] = buf
	w.lens[tid].Store(int64(len(buf)))
}

// SetLen records rank tid's exposed-buffer length without a buffer — the
// core layer's cross-process form of Attach, fed from a length exchange so
// origin-side bounds checks see the sizes of windows it cannot address.
func (w *Window) SetLen(tid int, n int) { w.lens[tid].Store(int64(n)) }

// Buffer returns rank tid's exposed buffer.
func (w *Window) Buffer(tid int) []byte { return w.bufs[tid] }

// Len returns rank tid's exposed-buffer length (valid for every member,
// including cross-process members whose buffer this replica cannot address).
func (w *Window) Len(tid int) int { return int(w.lens[tid].Load()) }

// Check bounds-checks an n-byte access at off into target's buffer,
// panicking with a descriptive message on violation.  Origins call it
// before shipping remote operations so misuse fails at the calling site
// rather than on the target's goroutine.
func (w *Window) Check(target, off, n int, what string) { w.checkRange(target, off, n, what) }

// checkRange bounds-checks an n-byte access at off into target's buffer.
func (w *Window) checkRange(target, off, n int, what string) {
	if target < 0 || target >= w.n {
		panic(fmt.Sprintf("rma: %s target rank %d out of range [0,%d)", what, target, w.n))
	}
	if off < 0 || n < 0 || int64(n) > w.lens[target].Load()-int64(off) { // no off+n: it can wrap
		panic(fmt.Sprintf("rma: %s of %d bytes at offset %d overflows rank %d's %d-byte window",
			what, n, off, target, w.lens[target].Load()))
	}
}

// CopyIn applies a Put: one direct copy of data into target's window at off
// (the single unavoidable payload copy of an intra-node Put).  The caller
// provides ordering: the data only becomes readable by the target after an
// epoch flag (fence/PSCW/notify) published subsequently.
func (w *Window) CopyIn(target, off int, data []byte) {
	w.checkRange(target, off, len(data), "Put")
	schedpoint.Point("rma:put:copy-in")
	copy(w.bufs[target][off:], data)
}

// CopyOut applies a Get: one direct copy out of target's window at off.
func (w *Window) CopyOut(target, off int, dest []byte) {
	w.checkRange(target, off, len(dest), "Get")
	schedpoint.Point("rma:get:copy-out")
	copy(dest, w.bufs[target][off:])
}

// AccumulateLocal folds data into target's window at off with op over dt,
// serialized against every other Accumulate targeting the same rank by the
// per-target spinlock (MPI_Accumulate's element-wise atomicity, at window
// granularity).  wait is the caller's SSW loop, used while the lock is
// contended.
func (w *Window) AccumulateLocal(target, off int, data []byte, op collective.Op, dt collective.DType, wait func(func() bool)) {
	w.checkRange(target, off, len(data), "Accumulate")
	mu := &w.accMu[target]
	schedpoint.Point("rma:acc:trylock")
	if !mu.TryLock() {
		wait(mu.TryLock)
	}
	schedpoint.Point("rma:acc:fold")
	collective.Accumulate(w.bufs[target][off:off+len(data)], data, op, dt)
	schedpoint.Point("rma:acc:unlock")
	mu.Unlock()
}

// ---- Fence epochs ----

// FenceArrive publishes rank tid's arrival at fence round (monotonically
// increasing, starting at 1).  The caller must have completed its own
// outstanding window operations first.
func (w *Window) FenceArrive(tid int, round uint64) {
	schedpoint.Point("rma:fence:arrive")
	w.fence[tid].v.Store(round)
}

// FenceReached reports whether every member has arrived at round.  Polled
// from the caller's SSW loop; the atomic loads carry the happens-before
// edges that make the preceding epoch's Puts readable.
func (w *Window) FenceReached(round uint64) bool {
	for i := range w.fence {
		if w.fence[i].v.Load() < round {
			return false
		}
	}
	return true
}

// ---- PSCW (post/start/complete/wait) ----

// Post publishes rank tid's exposure epoch round (the target side of PSCW).
func (w *Window) Post(tid int, round uint64) {
	schedpoint.Point("rma:pscw:post")
	w.post[tid].v.Store(round)
}

// Posted reports whether target has posted exposure round.
func (w *Window) Posted(target int, round uint64) bool {
	return w.post[target].v.Load() >= round
}

// Complete publishes origin's completion of access epoch round at target.
func (w *Window) Complete(origin, target int, round uint64) {
	schedpoint.Point("rma:pscw:complete")
	w.complete[origin*w.n+target].v.Store(round)
}

// Completed reports whether origin has completed access epoch round at
// target (the target side polls this in Wait).
func (w *Window) Completed(origin, target int, round uint64) bool {
	return w.complete[origin*w.n+target].v.Load() >= round
}

// ---- Notify counters ----

// checkSlot validates a notification slot index.
func checkSlot(slot int) {
	if slot < 0 || slot >= NotifySlots {
		panic(fmt.Sprintf("rma: notify slot %d out of range [0,%d)", slot, NotifySlots))
	}
}

// Notify increments target's notification counter for slot, after the
// notifier's prior Puts to that target (program order plus the atomic add
// give the consumer a happens-before edge to the data).
func (w *Window) Notify(target, slot int) {
	checkSlot(slot)
	if target < 0 || target >= w.n {
		panic(fmt.Sprintf("rma: Notify target rank %d out of range [0,%d)", target, w.n))
	}
	schedpoint.Point("rma:notify:add")
	w.notify[target*NotifySlots+slot].v.Add(1)
}

// NotifyCount returns rank tid's cumulative notification count for slot.
// Counters never reset; consumers track how many they have consumed.
func (w *Window) NotifyCount(tid, slot int) uint64 {
	checkSlot(slot)
	return w.notify[tid*NotifySlots+slot].v.Load()
}

// ---- Registry ----

// Key identifies a window: the owning communicator and the communicator's
// creation sequence number (every member counts WinCreate calls identically,
// collective-call ordering being the application's obligation, exactly like
// the channel manager's chanKey derives from message arguments).
type Key struct {
	Comm uint64
	Seq  uint64
}

// Registry maps Key -> *Window, creating windows on demand — the window
// analogue of the channel manager.  All member ranks (and the core layer's
// remote-frame dispatch) resolve the same Window through it.
type Registry struct{ m sync.Map }

// GetOrCreate returns the window for k, creating it with n members if it
// does not exist yet.  Two member ranks entering WinCreate at once race
// from the fast-path Load to the LoadOrStore; the seams let the model
// tests drive both orders and prove the racers converge on one *Window
// (the loser's freshly built window is garbage, never visible).
func (g *Registry) GetOrCreate(k Key, n int) *Window {
	schedpoint.Point("rma:reg:lookup")
	if v, ok := g.m.Load(k); ok {
		return v.(*Window)
	}
	schedpoint.Point("rma:reg:create")
	v, _ := g.m.LoadOrStore(k, NewWindow(n))
	return v.(*Window)
}

// Lookup returns the window for k, or nil.
func (g *Registry) Lookup(k Key) *Window {
	if v, ok := g.m.Load(k); ok {
		return v.(*Window)
	}
	return nil
}

// Free removes the window for k (after the owning communicator's closing
// barrier; sequence numbers are never reused, so a stale key cannot alias a
// new window).
func (g *Registry) Free(k Key) { g.m.Delete(k) }
