// Package shmem holds the runtime-free pieces of Pure's PGAS layer: the
// symmetric-heap allocator, the word-atomic cell operations that remote
// atomics resolve to, the mailbox ring protocol, and the wire codec for
// shmem operations that cross OS processes.
//
// Like internal/rma (the substrate this package builds on), everything here
// operates on shared memory within one address space and is deliberately
// transport-free: internal/core supplies the glue that ships operations
// between nodes as frames and applies them on the target's goroutine.  The
// division keeps the lock-free protocols model-checkable in isolation — the
// internal/check model tests drive these functions directly through the
// schedpoint seams, with no runtime underneath.
package shmem

import (
	"fmt"
	"sync/atomic"
	"unsafe"

	"repro/internal/schedpoint"
)

// CellBytes is the size of an atomically addressable symmetric-heap cell.
// Every atomic operation targets one 8-byte, 8-aligned cell, interpreted as
// a two's-complement int64.
const CellBytes = 8

// AlignedBytes returns an n-byte slice whose base address is 8-byte
// aligned, backed by a []uint64 so the alignment is guaranteed by
// construction rather than by allocator luck.  Symmetric-heap buffers must
// come from here (or be otherwise 8-aligned): the cell operations below
// require it, and checkCell verifies it per call.
func AlignedBytes(n int) []byte {
	if n < 0 {
		panic(fmt.Sprintf("shmem: negative buffer size %d", n))
	}
	if n == 0 {
		return nil
	}
	words := make([]uint64, (n+7)/8)
	return unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), n)[:n:n]
}

// cell resolves the atomic cell at byte offset off in buf, validating
// bounds and alignment.  The cast is the package's one unsafe trick: the
// buffer's base is 8-aligned (AlignedBytes) and off is a multiple of 8, so
// &buf[off] is a legal *int64 for sync/atomic.
func cell(buf []byte, off int, what string) *atomic.Int64 {
	if off < 0 || off+CellBytes > len(buf) {
		panic(fmt.Sprintf("shmem: %s at offset %d overflows the %d-byte symmetric region", what, off, len(buf)))
	}
	if off%CellBytes != 0 {
		panic(fmt.Sprintf("shmem: %s at offset %d is not %d-byte aligned", what, off, CellBytes))
	}
	if uintptr(unsafe.Pointer(&buf[off]))%CellBytes != 0 {
		panic(fmt.Sprintf("shmem: %s region base is not %d-byte aligned (use shmem.AlignedBytes)", what, CellBytes))
	}
	return (*atomic.Int64)(unsafe.Pointer(&buf[off]))
}

// AtomicAdd folds delta into the cell at off.  Adds from any rank on the
// node (and from the frame-apply path carrying remote adds) use the same
// hardware atomic, so concurrent updates are never lost — unlike
// rma.AccumulateLocal, whose spinlock only serializes accumulates against
// each other, this composes with every other cell operation.
func AtomicAdd(buf []byte, off int, delta int64) {
	schedpoint.Point("shmem:atomic:add")
	cell(buf, off, "AtomicAdd").Add(delta)
}

// AtomicFetchAdd folds delta into the cell at off and returns the value the
// cell held immediately before — the primitive mailbox senders claim ring
// tickets with.
func AtomicFetchAdd(buf []byte, off int, delta int64) int64 {
	schedpoint.Point("shmem:atomic:fetch-add")
	return cell(buf, off, "AtomicFetchAdd").Add(delta) - delta
}

// AtomicCAS performs a compare-and-swap on the cell at off, returning the
// value the cell held immediately before the attempt: the swap succeeded
// iff the return equals old (OpenSHMEM's shmem_atomic_compare_swap
// contract).
func AtomicCAS(buf []byte, off int, old, new int64) int64 {
	c := cell(buf, off, "AtomicCAS")
	for {
		schedpoint.Point("shmem:atomic:cas-load")
		cur := c.Load()
		if cur != old {
			return cur
		}
		schedpoint.Point("shmem:atomic:cas-swap")
		if c.CompareAndSwap(old, new) {
			return old
		}
		// The cell changed between the load and the swap; re-examine.  The
		// loop terminates the moment the cell differs from old, so it is
		// lock-free (some operation completed to change the cell).
	}
}

// AtomicLoad returns the cell at off.
func AtomicLoad(buf []byte, off int) int64 {
	schedpoint.Point("shmem:atomic:load")
	return cell(buf, off, "AtomicLoad").Load()
}

// AtomicStore publishes v into the cell at off.  The store is a release
// operation in the Go memory model: plain writes the same goroutine made
// earlier (a mailbox payload fill) are visible to any goroutine that
// observes v with AtomicLoad.
func AtomicStore(buf []byte, off int, v int64) {
	schedpoint.Point("shmem:atomic:store")
	cell(buf, off, "AtomicStore").Store(v)
}
