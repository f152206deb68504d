//go:build purecheck

// Model tests for the PureBufferQueue and the generic SPSC ring, run under
// the deterministic schedule explorer (`make check`).  Build-tagged: the
// schedpoint seams in internal/queue only dispatch to the checker under
// `purecheck`.
package check

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/queue"
)

// pbqFIFOThreads builds one schedule's workload: a producer streaming k
// distinct messages through a small PBQ and a consumer draining them, with
// the consumed sequence checked against the sequential FIFO spec (refinement:
// every schedule's observable history must equal the spec queue's).
//
// The producer's park stands in for the runtime's retry loop (leafWait
// probing TryEnqueue itself).  Its condition must be pure and exact, or the
// retry spins forever in some schedule: Len is not exact for an endpoint (it
// leads the slot word between the consumer's position store and its
// release), so the model waits on the consumer having returned from the
// dequeue that frees the slot — the same scheduling step as the release.
func pbqFIFOThreads(slots, k int) Threads {
	q := queue.NewPBQ(slots, 32)
	var got [][]byte
	msg := func(i int) []byte {
		// Distinct content and length per message so reordering, loss,
		// duplication, and torn slot reads are all distinguishable.
		return append([]byte(fmt.Sprintf("m%03d", i)), bytes.Repeat([]byte{byte(i)}, i%7)...)
	}
	return Threads{
		Names: []string{"producer", "consumer"},
		Fns: []func(){
			func() {
				for i := 0; i < k; i++ {
					for !q.TryEnqueue(msg(i)) {
						WaitLabeled("pbq:wait-space", func() bool { return i-len(got) < q.Cap() })
					}
				}
			},
			func() {
				buf := make([]byte, 32)
				for len(got) < k {
					n, ok := q.TryDequeue(buf)
					if !ok {
						WaitLabeled("pbq:wait-msg", func() bool { _, ok := q.PeekLen(); return ok })
						continue
					}
					got = append(got, append([]byte(nil), buf[:n]...))
				}
			},
		},
		Final: func() error {
			if len(got) != k {
				return fmt.Errorf("consumed %d of %d messages", len(got), k)
			}
			for i, g := range got {
				if want := msg(i); !bytes.Equal(g, want) {
					return fmt.Errorf("FIFO refinement violated at message %d: got %q want %q", i, g, want)
				}
			}
			return nil
		},
	}
}

// TestCheckPBQFIFORefinement: under every explored schedule, the PBQ's
// observable dequeue history equals the sequential FIFO spec — no loss, no
// duplication, no reordering, no torn payload.
func TestCheckPBQFIFORefinement(t *testing.T) {
	hook(t)
	rep := RunPCT(1, SeedsFromEnv(1000), DefaultPCTDepth, func() Threads {
		return pbqFIFOThreads(2, 6) // 2 slots forces full-queue backpressure
	})
	if rep.Failed {
		t.Fatalf("PBQ FIFO refinement: %s", rep.Error())
	}
	t.Logf("PCT: %d seeds, %d total steps", rep.Seeds, rep.TotalSteps)
}

// TestCheckPBQFIFOExhaustive explores EVERY schedule of a small
// configuration (1 slot, 3 messages — the single slot forces the
// full-queue backpressure path into every schedule and is handed over five
// times; ~24k schedules).
func TestCheckPBQFIFOExhaustive(t *testing.T) {
	hook(t)
	rep := Exhaust(0, 0, func() Threads { return pbqFIFOThreads(1, 3) })
	if rep.Failed {
		t.Fatalf("PBQ FIFO refinement (exhaustive): %s", rep.Error())
	}
	if !rep.Complete {
		t.Fatalf("exhaustive exploration hit the schedule budget (%d schedules)", rep.Schedules)
	}
	t.Logf("exhaustive: %d schedules, complete", rep.Schedules)
}

// pbqObserverThreads adds a third, read-only observer thread polling the
// relaxed observer methods (Len, PeekLen, Stalls) while a stream is in
// flight; every snapshot must stay within the structure's invariants.  For
// Len that is more than its range: a depth can never exceed the enqueues
// begun by the time Len returns minus the dequeues that had returned before
// it was called — so it is 0 once the consumer has drained.  A side that
// published its slot word before its position breaks exactly that (the
// consumer's head passes the producer's stale tail and the clamp turns the
// underflow into Cap on an empty queue) while staying in range.
func pbqObserverThreads(slots, k, polls int) Threads {
	q := queue.NewPBQ(slots, 16)
	capn := q.Cap()
	var obsErr error
	started, done := 0, 0 // TryEnqueue calls begun (per message), TryDequeue successes returned
	return Threads{
		Names: []string{"producer", "consumer", "observer"},
		Fns: []func(){
			func() {
				m := make([]byte, 5)
				for i := 0; i < k; i++ {
					m[0] = byte(i)
					started = i + 1
					for !q.TryEnqueue(m) {
						WaitLabeled("pbq:wait-space", func() bool { return i-done < capn })
					}
				}
			},
			func() {
				buf := make([]byte, 16)
				for done < k {
					if _, ok := q.TryDequeue(buf); ok {
						done++
						continue
					}
					WaitLabeled("pbq:wait-msg", func() bool { _, ok := q.PeekLen(); return ok })
				}
			},
			func() {
				lastStalls := int64(0)
				for i := 0; i < polls; i++ {
					doneBefore := done
					l := q.Len()
					if l < 0 || l > capn {
						obsErr = fmt.Errorf("torn Len snapshot: %d outside [0,%d]", l, capn)
						return
					}
					if l > started-doneBefore {
						obsErr = fmt.Errorf("Len = %d with %d enqueues begun and %d dequeues returned", l, started, doneBefore)
						return
					}
					if n, ok := q.PeekLen(); ok && (n <= 0 || n > q.MaxPayload()) {
						obsErr = fmt.Errorf("torn PeekLen snapshot: %d", n)
						return
					}
					s := q.Stalls()
					if s < lastStalls {
						obsErr = fmt.Errorf("Stalls went backwards: %d after %d", s, lastStalls)
						return
					}
					lastStalls = s
					Yield("observer:poll")
				}
			},
		},
		Final: func() error { return obsErr },
	}
}

// TestCheckPBQObserverSanity: Len/PeekLen/Stalls snapshots taken by a third
// goroutine must stay in range under every explored interleaving.  Before
// PBQ.Len loaded head-first and clamped, this test failed (the tail-first
// unclamped difference underflows when the head passes the stale tail
// snapshot); see TestCheckPBQObserverLenRegression for the exhibiting seeds.
func TestCheckPBQObserverSanity(t *testing.T) {
	hook(t)
	rep := RunPCT(1, SeedsFromEnv(1000), DefaultPCTDepth, func() Threads {
		return pbqObserverThreads(2, 4, 6)
	})
	if rep.Failed {
		t.Fatalf("PBQ observer sanity: %s", rep.Error())
	}
}

// TestCheckPBQObserverLenRegression pins the schedules that exhibited the
// torn PBQ.Len observer read (negative length from the unsigned underflow
// of a stale tail snapshot).  The seeds were recorded from the failing run
// of TestCheckPBQObserverSanity against the pre-fix Len; they must stay
// green forever.
func TestCheckPBQObserverLenRegression(t *testing.T) {
	hook(t)
	for _, seed := range pbqLenRegressionSeeds {
		res := RunSeed(seed, DefaultPCTDepth, pbqObserverThreads(2, 4, 6))
		if res.Failed() {
			t.Fatalf("seed %d regressed: %v\n%s", seed, res.Err, res.TraceString(40))
		}
	}
}

// pbqLenRegressionSeeds are the first PCT seeds that exhibited the torn
// PBQ.Len read before the head-first clamped fix (each produced a negative
// length, e.g. seed 1 observed Len = -4 on a 2-slot queue: the observer
// loaded the tail, then producer and consumer both advanced past it, and
// the unsigned head-tail difference underflowed).
var pbqLenRegressionSeeds = []int64{1, 12, 20, 37, 57, 80}

// ringThreads streams k typed values through a Ring[int] with an observer.
func ringThreads(slots, k, polls int) Threads {
	r := queue.NewRing[int](slots)
	capn := r.Cap()
	var got []int
	var obsErr error
	return Threads{
		Names: []string{"producer", "consumer", "observer"},
		Fns: []func(){
			func() {
				for i := 1; i <= k; i++ {
					for !r.TryPush(i) {
						WaitLabeled("ring:wait-space", func() bool { return r.Len() < capn })
					}
				}
			},
			func() {
				for len(got) < k {
					v, ok := r.TryPop()
					if !ok {
						WaitLabeled("ring:wait-val", func() bool { _, ok := r.Peek(); return ok })
						continue
					}
					got = append(got, v)
				}
			},
			func() {
				for i := 0; i < polls; i++ {
					if l := r.Len(); l < 0 || l > capn {
						obsErr = fmt.Errorf("torn Ring.Len snapshot: %d outside [0,%d]", l, capn)
						return
					}
					Yield("observer:poll")
				}
			},
		},
		Final: func() error {
			if obsErr != nil {
				return obsErr
			}
			for i, v := range got {
				if v != i+1 {
					return fmt.Errorf("ring FIFO violated at %d: got %d", i, v)
				}
			}
			return nil
		},
	}
}

// TestCheckRingFIFO covers the rendezvous-path SPSC ring the same way.
func TestCheckRingFIFO(t *testing.T) {
	hook(t)
	rep := RunPCT(1, SeedsFromEnv(1000), DefaultPCTDepth, func() Threads {
		return ringThreads(2, 5, 5)
	})
	if rep.Failed {
		t.Fatalf("Ring FIFO: %s", rep.Error())
	}
}
