// Package layout places hot shared state on cachelines by construction, not
// by the allocator's size classes: one cacheline size, one pad type, and one
// aligned allocation.  The lock-free queues and collectives share it so that
// a flag and the data it publishes travel in one line, and state written by
// different threads never shares one (the false sharing the paper names as
// a key intra-node messaging cost).
package layout

import (
	"sync/atomic"
	"unsafe"
)

// CachelineBytes is the coherence granularity hot state is padded and
// aligned to.  64 bytes matches the Haswell nodes in the paper and every
// mainstream x86/arm64 part.
const CachelineBytes = 64

// LineWords is the number of 8-byte words in one cacheline.
const LineWords = CachelineBytes / 8

// Pad keeps the fields on either side of it off each other's cacheline.
type Pad [CachelineBytes]byte

// AlignedWords allocates n zeroed 8-byte words whose first word starts on a
// cacheline boundary, and returns them both as atomic words and as bytes
// (two views of one allocation).  Go only guarantees 8-byte alignment, so
// one spare line is allocated and the start is moved up to the next
// boundary; heap objects do not move, so the alignment holds for the life of
// the memory.  The memory holds no pointers and the garbage collector does
// not scan it: only pointer-free data may be laid over it.
func AlignedWords(n int) ([]atomic.Uint64, []byte) {
	if n <= 0 {
		return nil, nil
	}
	words := make([]atomic.Uint64, n+LineWords-1)
	skip := int(-uintptr(unsafe.Pointer(&words[0])) % CachelineBytes / 8)
	words = words[skip : skip+n : skip+n]
	return words, unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), n*8)
}
