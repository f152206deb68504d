package statsd

import (
	"sync/atomic"

	"repro/internal/schedpoint"
)

// Tagset is an immutable interned tag list (the DataDog RFC's central
// object: tagsets are deduplicated once at ingestion and flow through the
// rest of the pipeline as a hash identity plus one shared string).  Two
// events carry the same Tagset pointer iff they carried byte-identical tag
// lists through the same interner.
type Tagset struct {
	Hash uint64 // Hash64 of Raw; the wire identity
	Raw  string // canonical tag bytes, e.g. "env:prod,host:web-3"
}

// Interner is a lock-free hash-consed tagset table shared by every
// ingestion rank on a node: open-addressed, power-of-two sized, each slot
// an atomic pointer CAS-published exactly once.  Slots are never updated or
// deleted — tagsets are immutable and the table is append-only, so readers
// need no fences beyond the pointer load and the loser of a first-intern
// race simply adopts the winner's pointer (the purecheck model test pins
// that convergence under every interleaving).
//
// The table is fixed-capacity on purpose: the RFC's working set is a
// slowly-changing *hot set*, so the steady state is all hits.  When the
// table fills (a tag explosion — some client minting unique tag values),
// Intern degrades gracefully: it returns a private, non-interned Tagset and
// counts the overflow, rather than growing without bound or blocking the
// ingestion path behind a resize.
type Interner struct {
	mask     uint64
	slots    []atomic.Pointer[Tagset]
	occupied atomic.Int64
	limit    int64

	hits      atomic.Int64
	misses    atomic.Int64
	overflows atomic.Int64
}

// NewInterner builds an interner with capacity rounded up to a power of
// two (minimum 16).  Inserts stop at 3/4 load so probe chains stay short.
func NewInterner(capacity int) *Interner {
	size := 16
	for size < capacity {
		size *= 2
	}
	return &Interner{
		mask:  uint64(size - 1),
		slots: make([]atomic.Pointer[Tagset], size),
		limit: int64(size) - int64(size)/4,
	}
}

// Intern returns the canonical Tagset for raw (whose Hash64 the caller
// already computed).  The fast path — the tagset is already interned — is
// one probe and one atomic load.  First sight of a tagset allocates the
// immutable Tagset and CAS-publishes it; racing first-interns converge on
// whichever pointer won the CAS.
func (it *Interner) Intern(hash uint64, raw []byte) *Tagset {
	i := hash & it.mask
	for {
		schedpoint.Point("statsd:intern:load")
		ts := it.slots[i].Load()
		if ts == nil {
			if it.occupied.Load() >= it.limit {
				break // table full: degrade to non-interned
			}
			nt := &Tagset{Hash: hash, Raw: string(raw)}
			schedpoint.Point("statsd:intern:cas")
			if it.slots[i].CompareAndSwap(nil, nt) {
				it.occupied.Add(1)
				it.misses.Add(1)
				return nt
			}
			// Lost the publish race; reload and fall through to compare
			// against the winner (it may be our tagset or a colliding one).
			ts = it.slots[i].Load()
		}
		if ts.Hash == hash && ts.Raw == string(raw) {
			it.hits.Add(1)
			return ts
		}
		i = (i + 1) & it.mask
	}
	it.overflows.Add(1)
	return &Tagset{Hash: hash, Raw: string(raw)}
}

// Len reports how many tagsets are interned.
func (it *Interner) Len() int { return int(it.occupied.Load()) }

// Stats reports lifetime (hits, misses, overflows).
func (it *Interner) Stats() (hits, misses, overflows int64) {
	return it.hits.Load(), it.misses.Load(), it.overflows.Load()
}

// HotSet is a rank-private direct-mapped cache in front of the shared
// Interner: the RFC's observation is that the live tagset working set is
// small and slow-moving, so almost every event resolves here with zero
// atomics and zero shared-cacheline traffic.  It is single-owner and must
// not be shared between ranks.
type HotSet struct {
	mask    uint64
	entries []*Tagset

	hits, misses int64
}

// NewHotSet builds a hot-set cache with capacity rounded up to a power of
// two (minimum 16).
func NewHotSet(capacity int) *HotSet {
	size := 16
	for size < capacity {
		size *= 2
	}
	return &HotSet{mask: uint64(size - 1), entries: make([]*Tagset, size)}
}

// Intern resolves raw through the hot set, falling back to (and refilling
// from) the shared interner on a miss.  Direct-mapped: a conflicting entry
// is simply replaced, which is exactly the eviction policy a hot-set cache
// wants.
func (h *HotSet) Intern(it *Interner, hash uint64, raw []byte) *Tagset {
	i := hash & h.mask
	if ts := h.entries[i]; ts != nil && ts.Hash == hash && ts.Raw == string(raw) {
		h.hits++
		return ts
	}
	h.misses++
	ts := it.Intern(hash, raw)
	h.entries[i] = ts
	return ts
}

// Stats reports lifetime (hits, misses).
func (h *HotSet) Stats() (hits, misses int64) { return h.hits, h.misses }
