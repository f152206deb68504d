//go:build purecheck

// Model tests for persistent-endpoint creation (internal/core's channel
// manager seam).  When both halves of a (sender, receiver, tag, comm) pair
// touch a fresh key, each rank races through lookupChannel and the CAS-once
// PBQ bind; every interleaving must converge on a single shared channel and
// queue, or one side's endpoint would publish into a queue the other never
// reads — a permanently lost message.
package check

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/queue"
)

// endpointRaceThreads builds one schedule's workload: a sender and a
// receiver concurrently creating their endpoints for the same fresh channel
// key (the concurrent-first-use race), then the invariant sends a message
// through the sender's handle and receives it through the receiver's.
func endpointRaceThreads() Threads {
	var tbl core.ModelChannelTable
	var chans [2]any
	var qs [2]*queue.PBQ
	bind := func(i int) func() {
		return func() {
			ch, q := tbl.Endpoint(0, 1, 7, 2, 32)
			chans[i], qs[i] = ch, q
		}
	}
	return Threads{
		Names: []string{"send-endpoint", "recv-endpoint"},
		Fns:   []func(){bind(0), bind(1)},
		Final: func() error {
			if chans[0] != chans[1] {
				return fmt.Errorf("endpoint creation split the channel: %p vs %p", chans[0], chans[1])
			}
			if qs[0] != qs[1] {
				return fmt.Errorf("endpoint creation split the PBQ: %p vs %p", qs[0], qs[1])
			}
			msg := []byte("via-endpoints")
			if !qs[0].TryEnqueue(msg) {
				return fmt.Errorf("enqueue through sender endpoint failed on an empty queue")
			}
			buf := make([]byte, 32)
			n, ok := qs[1].TryDequeue(buf)
			if !ok || !bytes.Equal(buf[:n], msg) {
				return fmt.Errorf("message lost across endpoint handles: got %q ok=%v", buf[:n], ok)
			}
			return nil
		},
	}
}

// reuseAndIsolateThreads models second-use lookups racing a first-use
// creation on a different tag: the reused key must return the already
// created channel, and the fresh tag must never alias it.
func reuseAndIsolateThreads() Threads {
	var tbl core.ModelChannelTable
	first, firstQ := tbl.Endpoint(0, 1, 3, 2, 32) // created before the race
	var reused, fresh any
	var reusedQ *queue.PBQ
	return Threads{
		Names: []string{"reuse-tag3", "create-tag4"},
		Fns: []func(){
			func() { reused, reusedQ = tbl.Endpoint(0, 1, 3, 2, 32) },
			func() { fresh, _ = tbl.Endpoint(0, 1, 4, 2, 32) },
		},
		Final: func() error {
			if reused != first || reusedQ != firstQ {
				return fmt.Errorf("same-key lookup did not reuse the persistent channel")
			}
			if fresh == first {
				return fmt.Errorf("distinct tag aliased an existing channel")
			}
			return nil
		},
	}
}

// TestCheckEndpointCreationRace: under PCT schedules, concurrent first-use
// endpoint creation by the two halves of a pair always yields one channel
// and one queue, and a message flows across the two handles.
func TestCheckEndpointCreationRace(t *testing.T) {
	hook(t)
	rep := RunPCT(1, SeedsFromEnv(1000), DefaultPCTDepth, endpointRaceThreads)
	if rep.Failed {
		t.Fatalf("endpoint creation race: %s", rep.Error())
	}
	t.Logf("PCT: %d seeds, %d total steps", rep.Seeds, rep.TotalSteps)
}

// TestCheckEndpointCreationExhaustive explores EVERY schedule of the
// two-thread creation race (small: 3 schedpoints per thread).
func TestCheckEndpointCreationExhaustive(t *testing.T) {
	hook(t)
	rep := Exhaust(0, 0, endpointRaceThreads)
	if rep.Failed {
		t.Fatalf("endpoint creation race (exhaustive): %s", rep.Error())
	}
	if !rep.Complete {
		t.Fatalf("exhaustive exploration hit the schedule budget (%d schedules)", rep.Schedules)
	}
	t.Logf("exhaustive: %d schedules, complete", rep.Schedules)
}

// TestCheckEndpointReuseIsolation: a racing reuse and a racing fresh-tag
// creation neither split nor alias channels, under every schedule.
func TestCheckEndpointReuseIsolation(t *testing.T) {
	hook(t)
	rep := Exhaust(0, 0, reuseAndIsolateThreads)
	if rep.Failed {
		t.Fatalf("endpoint reuse/isolation: %s", rep.Error())
	}
	if !rep.Complete {
		t.Fatalf("exhaustive exploration hit the schedule budget (%d schedules)", rep.Schedules)
	}
	t.Logf("exhaustive: %d schedules, complete", rep.Schedules)
}
