//go:build purecheck

// Model tests for the inter-node mailbox, queue.Unbounded: the link reader
// puts, the receiving rank takes the front payload and releases it, and the
// producer takes released nodes back, buffer and all.  Run under the
// deterministic schedule explorer (`make check`).
package check

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/queue"
)

// unboundedThreads builds one schedule's workload: a producer putting k
// payloads and a consumer taking them, which starts once lag puts have
// returned and may fall further behind, so the producer reuses nodes (and
// the buffers they own) while the consumer holds a later payload.  The
// lengths go down and up, so a reused node sometimes keeps its buffer and
// sometimes outgrows it.  The consumed sequence must equal the put sequence
// (exactly once, in order, untorn), and the payload the consumer holds
// between Front and Release must not change: it is compared again after
// Release, before the consumer's next schedpoint.
func unboundedThreads(k, lag int) Threads {
	q := queue.NewUnbounded()
	msg := func(i int) []byte {
		return append([]byte{byte('a' + i)}, bytes.Repeat([]byte{byte(i)}, []int{5, 1, 6, 2, 4, 3}[i%6])...)
	}
	var got [][]byte
	var heldErr error
	put := 0 // puts returned
	return Threads{
		Names: []string{"producer", "consumer"},
		Fns: []func(){
			func() {
				for i := 0; i < k; i++ {
					q.Put(msg(i))
					put++
				}
			},
			func() {
				if lag > 0 {
					WaitLabeled("ubq:lag", func() bool { return put >= lag })
				}
				for len(got) < k {
					p, ok := q.Front()
					if !ok {
						WaitLabeled("ubq:wait-msg", func() bool { _, ok := q.Front(); return ok })
						continue
					}
					held := append([]byte(nil), p...)
					q.Release()
					if !bytes.Equal(p, held) && heldErr == nil {
						heldErr = fmt.Errorf("payload %d changed while the consumer held it: %q, then %q", len(got), held, p)
					}
					got = append(got, held)
				}
			},
		},
		Final: func() error {
			if heldErr != nil {
				return heldErr
			}
			if len(got) != k {
				return fmt.Errorf("consumed %d of %d payloads", len(got), k)
			}
			for i, g := range got {
				if want := msg(i); !bytes.Equal(g, want) {
					return fmt.Errorf("FIFO refinement violated at payload %d: got %q want %q", i, g, want)
				}
			}
			if _, ok := q.Front(); ok {
				return fmt.Errorf("a payload left after all %d were consumed", k)
			}
			return nil
		},
	}
}

// TestCheckUnboundedExhaustive explores every schedule of 4 puts against a
// consumer that starts 2 puts behind (62 633 schedules): the last two puts
// reuse the nodes of the first two whenever the consumer has released them.
func TestCheckUnboundedExhaustive(t *testing.T) {
	hook(t)
	rep := Exhaust(0, 0, func() Threads { return unboundedThreads(4, 2) })
	if rep.Failed {
		t.Fatalf("Unbounded FIFO refinement (exhaustive): %s", rep.Error())
	}
	if !rep.Complete {
		t.Fatalf("exhaustive exploration hit the schedule budget (%d schedules)", rep.Schedules)
	}
	t.Logf("exhaustive: %d schedules, complete", rep.Schedules)
}

// TestCheckUnboundedFIFORefinement runs longer streams under PCT: 12 puts
// against a consumer that may start at once (so a ping-pong cycles two
// nodes) or 3 puts behind, reusing each node several times.
func TestCheckUnboundedFIFORefinement(t *testing.T) {
	hook(t)
	for _, lag := range []int{0, 3} {
		rep := RunPCT(1, SeedsFromEnv(1000), DefaultPCTDepth, func() Threads { return unboundedThreads(12, lag) })
		if rep.Failed {
			t.Fatalf("Unbounded FIFO refinement, lag %d: %s", lag, rep.Error())
		}
		t.Logf("PCT, lag %d: %d seeds, %d total steps", lag, rep.Seeds, rep.TotalSteps)
	}
}
