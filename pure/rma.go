package pure

import (
	"repro/internal/core"
	"repro/internal/rma"
)

// One-sided communication (RMA): shared-memory windows with Put / Get /
// Accumulate and lock-free epoch synchronization.  See docs/RMA.md for the
// full semantics; the short version:
//
//   - WinCreate collectively exposes a buffer per rank.  Intra-node Put and
//     Get are single direct copies into/out of the peer's exposed memory;
//     inter-node operations ride the links as frames and are applied by the
//     target's runtime.
//   - Operations become visible only through synchronization: Fence epochs,
//     Post/Start/Complete/Wait (PSCW) for neighbor-scoped epochs, or
//     Notify/NotifyWait counters for producer-consumer patterns.
//   - Unsynchronized concurrent access to the same window bytes is an
//     application data race, exactly as in MPI; Accumulate is the exception
//     (serialized per target).

// NotifySlots is the number of independent notification counters each rank
// exposes per window.
const NotifySlots = rma.NotifySlots

// Window is a one-sided communication window (the analogue of MPI_Win).
// A Window handle belongs to the rank that created it.
type Window struct {
	w *core.Win
}

// WinCreate collectively creates a window over the communicator, exposing
// buf as the calling rank's window memory (sizes may differ per rank; nil
// exposes nothing).  Every member must call WinCreate in the same order.
func (c *Comm) WinCreate(buf []byte) *Window { return &Window{w: c.c.WinCreate(buf)} }

// Rank returns the caller's rank within the window's communicator.
func (w *Window) Rank() int { return w.w.Comm().Rank() }

// Size returns the window's member count.
func (w *Window) Size() int { return w.w.Size() }

// Len returns the byte length of target's exposed buffer.
func (w *Window) Len(target int) int { return w.w.Len(target) }

// Buffer returns the calling rank's own exposed buffer.
func (w *Window) Buffer() []byte { return w.w.Buffer() }

// Put copies data into target's window at byte offset off.  Intra-node
// this is one direct copy into the target's exposed memory; the transfer
// becomes visible to the target at the next synchronization.
func (w *Window) Put(data []byte, target, off int) { w.w.Put(data, target, off) }

// Get copies len(dest) bytes from target's window at off into dest,
// blocking until dest is filled.
func (w *Window) Get(dest []byte, target, off int) { w.w.Get(dest, target, off) }

// Rput is the nonblocking Put; complete the request with Wait/Waitall (or
// implicitly via Fence/Complete).  Completion means the data has been
// applied at the target, so data may be reused immediately after.
func (w *Window) Rput(data []byte, target, off int) *Request { return w.w.Rput(data, target, off) }

// Rget is the nonblocking Get; dest is filled when the request completes.
func (w *Window) Rget(dest []byte, target, off int) *Request { return w.w.Rget(dest, target, off) }

// Accumulate folds data into target's window at off with op over dt,
// serialized against every other Accumulate targeting the same rank.
func (w *Window) Accumulate(data []byte, target, off int, op Op, dt DType) {
	w.w.Accumulate(data, target, off, op, dt)
}

// Fence closes the current epoch and opens the next: after every member's
// Fence returns, all previous-epoch operations are visible everywhere.
// Collective over the window.
func (w *Window) Fence() { w.w.Fence() }

// Post opens an exposure epoch toward origins (PSCW target side); close it
// with Wait.
func (w *Window) Post(origins []int) { w.w.Post(origins) }

// Start opens an access epoch toward targets, blocking until each has
// Posted (PSCW origin side); close it with Complete.
func (w *Window) Start(targets []int) { w.w.Start(targets) }

// Complete closes the access epoch opened by Start, completing this rank's
// operations at every epoch target.
func (w *Window) Complete() { w.w.Complete() }

// Wait closes the exposure epoch opened by Post, blocking until every
// named origin has called Complete.
func (w *Window) Wait() { w.w.Wait() }

// Notify increments target's notification counter for slot, ordered after
// this rank's earlier operations toward that target: a consumer that
// observes the count also observes the data put before the notify.
func (w *Window) Notify(target, slot int) { w.w.Notify(target, slot) }

// NotifyWait blocks until the caller's notification counter for slot has
// grown by count beyond what previous NotifyWait calls consumed.
func (w *Window) NotifyWait(slot, count int) { w.w.NotifyWait(slot, count) }

// Free collectively releases the window.
func (w *Window) Free() { w.w.Free() }
