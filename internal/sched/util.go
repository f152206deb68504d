package sched

import "runtime"

// gosched is indirected for clarity at call sites.
func gosched() { runtime.Gosched() }

// AlignedIdxRange converts a chunk range into an element index range over an
// array of n elements of elemSize bytes, aligning chunk boundaries to
// cacheline multiples so concurrently executing chunks never false-share
// (the paper's pure_aligned_idx_range helper).  totalChunks is the number of
// chunks the task was divided into.  The returned range is half-open
// [lo, hi); empty ranges return lo == hi.
func AlignedIdxRange(n int64, elemSize int, startChunk, endChunk, totalChunks int64) (lo, hi int64) {
	if totalChunks <= 0 || n <= 0 || startChunk >= totalChunks {
		return 0, 0
	}
	perLine := int64(64 / elemSize)
	if perLine < 1 {
		perLine = 1
	}
	lines := (n + perLine - 1) / perLine
	// Deal lines to chunks as evenly as possible, remainder to the first chunks.
	per := lines / totalChunks
	extra := lines % totalChunks
	lineAt := func(chunk int64) int64 {
		if chunk > totalChunks {
			chunk = totalChunks
		}
		return chunk*per + min(chunk, extra)
	}
	lo = lineAt(startChunk) * perLine
	hi = lineAt(endChunk) * perLine
	if lo > n {
		lo = n
	}
	if hi > n {
		hi = n
	}
	return lo, hi
}
