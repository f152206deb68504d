package collective

import (
	"encoding/binary"
	"math"
	"runtime"
	"testing"
)

// TestSPTDSequenceReuseStress hammers one SPTD instance with thousands of
// back-to-back collectives of mixed kinds on the same dropboxes.  The
// sequence numbers that order each round are per-thread monotonic counters;
// a stale-sequence bug (a thread observing round r's payload as round r+1's,
// or reusing a dropbox before every peer is finished with it) shows up as a
// wrong reduction value or a torn broadcast.  Run under -race this also
// exercises the acquire/release pairing on the seq/ack words.
func TestSPTDSequenceReuseStress(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	// Sized for the worst case in CI: a single-CPU box under -race, where
	// every contended collective round costs tens of milliseconds.
	const n = 4
	rounds := 250
	if testing.Short() {
		rounds = 50
	}
	s := NewSPTD(n, 8)
	errs := make(chan string, n)

	runCollective(n, func(tid int) {
		in := make([]byte, 8)
		out := make([]byte, 8)
		calls := uint64(0)
		for r := 0; r < rounds; r++ {
			// Allreduce with per-round distinct inputs: sum must match every
			// round or a stale value leaked across the sequence boundary.
			binary.LittleEndian.PutUint64(in, uint64((tid+1)*(r+1)))
			s.Allreduce(tid, in, out, OpSum, Int64, nil, spinWait)
			calls++
			want := uint64((r + 1) * n * (n + 1) / 2)
			if got := binary.LittleEndian.Uint64(out); got != want {
				errs <- "allreduce round mismatch"
				return
			}

			// Every third round, a broadcast from a rotating root keeps the
			// dropbox payload area churning with a different traffic pattern.
			if r%3 == 0 {
				root := r % n
				buf := make([]byte, 8)
				if tid == root {
					binary.LittleEndian.PutUint64(buf, uint64(r)|0xcafe0000)
				}
				s.Broadcast(tid, root, buf, nil, spinWait)
				calls++
				if got := binary.LittleEndian.Uint64(buf); got != uint64(r)|0xcafe0000 {
					errs <- "broadcast round mismatch"
					return
				}
			}
			if r%5 == 0 {
				s.Barrier(tid, spinWait)
				calls++
			}
		}
		// Each collective call must advance tid's round counter exactly once;
		// any other count means a sequence number was skipped or reused.
		if got := s.Round(tid); got != calls {
			errs <- "round counter drift"
		}
	})
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestPartitionedReducerReuseStress reuses one PartitionedReducer for many
// rounds and checks both the values and the per-thread round counters.
func TestPartitionedReducerReuseStress(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const (
		n     = 4
		elems = 256
	)
	rounds := 60
	if testing.Short() {
		rounds = 15
	}
	p := NewPartitionedReducer(n, elems*8)
	errs := make(chan string, n)

	runCollective(n, func(tid int) {
		vals := make([]float64, elems)
		out := make([]byte, elems*8)
		for r := 0; r < rounds; r++ {
			for i := range vals {
				// Dyadic values: the partitioned fold is exact regardless of
				// which thread reduces which cacheline.
				vals[i] = float64(tid)*0.5 + float64(r%7)*0.25
			}
			p.Allreduce(tid, f64bytes(vals...), out, OpSum, Float64, nil, spinWait)
			want := (0.5*float64(n*(n-1))/2 + float64(n)*float64(r%7)*0.25)
			for i := 0; i < elems; i++ {
				got := binary.LittleEndian.Uint64(out[i*8:])
				if math.Float64frombits(got) != want {
					errs <- "partitioned allreduce mismatch"
					return
				}
			}
		}
		if got := p.Round(tid); got != uint64(rounds) {
			errs <- "partitioned round counter drift"
		}
	})
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestSPTDReduceBackToBack is the regression test for dropbox reuse after
// Reduce: a thread that is neither leader nor root leaves round r as soon as
// its box is published, and must not refill the box for round r+1 — another
// Reduce, or an Allreduce — while the leader is still folding round r out of
// it.  Per-round distinct inputs turn a payload from the wrong round into a
// wrong sum; under -race the overlapping copy and fold are reported directly.
func TestSPTDReduceBackToBack(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const (
		n    = 4
		root = 1
	)
	rounds := 300
	if testing.Short() {
		rounds = 60
	}
	s := NewSPTD(n, 8)
	bad := make([]string, n) // first mismatch per thread; the rounds go on, so nobody is left waiting

	runCollective(n, func(tid int) {
		in := make([]byte, 8)
		out := make([]byte, 8)
		note := func(what string) {
			if bad[tid] == "" {
				bad[tid] = what
			}
		}
		for r := 0; r < rounds; r++ {
			binary.LittleEndian.PutUint64(in, uint64((tid+1)*(r+1)))
			want := uint64((r + 1) * n * (n + 1) / 2)
			s.Reduce(tid, root, in, out, OpSum, Int64, nil, spinWait)
			if got := binary.LittleEndian.Uint64(out); tid == root && got != want {
				note("reduce round mismatch")
			}
			if r%4 != 3 {
				continue // Reduce straight into Reduce
			}
			binary.LittleEndian.PutUint64(in, uint64((tid+1)*(r+7)))
			s.Allreduce(tid, in, out, OpSum, Int64, nil, spinWait)
			if got := binary.LittleEndian.Uint64(out); got != uint64((r+7)*n*(n+1)/2) {
				note("allreduce after reduce mismatch")
			}
		}
	})
	for tid, e := range bad {
		if e != "" {
			t.Errorf("thread %d: %s", tid, e)
		}
	}
}
