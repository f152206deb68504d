package core

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/collective"
	"repro/internal/topology"
)

// The in-process runner's merged result, on 2 nodes x 2 ranks: each node's
// runtime returns its own error, and Run returns one *RunError for the job.

func twoByTwo(extra Config) Config {
	extra.NRanks = 4
	extra.Spec = topology.Spec{Nodes: 2, SocketsPerNode: 1, CoresPerSocket: 2, ThreadsPerCore: 1}
	return extra
}

// Rank 3 panics while the others wait in an Allreduce: node 1 aborts with the
// panic, node 0 hears of it as node 1's death, and the job's error is the
// panic's, with every survivor of both nodes listed and no node dead.
func TestInProcessNodesPanicMergesOneRunError(t *testing.T) {
	err := Run(twoByTwo(Config{}), func(r *Rank) {
		if r.ID() == 3 {
			panic("boom")
		}
		out := make([]byte, 8)
		r.World().Allreduce(f64b(1), out, collective.OpSum, collective.Float64)
	})
	re := asRunError(t, err)
	if re.Cause != CausePanic {
		t.Fatalf("cause = %q, want %q (err: %v)", re.Cause, CausePanic, err)
	}
	if len(re.Failures) != 1 || re.Failures[0].Rank != 3 {
		t.Fatalf("failures = %+v, want rank 3 only", re.Failures)
	}
	var blocked []int
	for _, b := range re.Blocked {
		blocked = append(blocked, b.Rank)
	}
	if !reflect.DeepEqual(blocked, []int{0, 1, 2}) {
		t.Fatalf("blocked = %v, want ranks 0-2 from both nodes (err: %v)", blocked, err)
	}
	if len(re.DeadNodes) != 0 {
		t.Fatalf("dead nodes = %v, want none: node 1 aborted, it did not die", re.DeadNodes)
	}
}

// A receive ring 0<-1<-2<-3<-0 crosses both nodes twice: each node's
// watchdog sees only its own ranks stall, and the merge finds the cycle.
func TestInProcessNodesCrossNodeDeadlockNamesCycle(t *testing.T) {
	start := time.Now()
	err := Run(twoByTwo(Config{HangTimeout: 300 * time.Millisecond}), func(r *Rank) {
		r.World().Recv(make([]byte, 8), (r.ID()+1)%4, 7)
	})
	re := asRunError(t, err)
	if re.Cause != CauseDeadlock {
		t.Fatalf("cause = %q, want %q (err: %v)", re.Cause, CauseDeadlock, err)
	}
	if got := fmt.Sprint(re.Cycle); got != "[0 1 2 3]" {
		t.Fatalf("cycle = %s, want [0 1 2 3] (err: %v)", got, err)
	}
	if len(re.Blocked) != 4 {
		t.Fatalf("blocked = %+v, want all 4 ranks", re.Blocked)
	}
	if took := time.Since(start); took > 10*time.Second {
		t.Fatalf("deadlock detection took %v", took)
	}
}

// A node the placement leaves empty still runs, so the others' links to it
// come up, and hosts nothing.
func TestInProcessNodesWithAnEmptyNode(t *testing.T) {
	spec := topology.Spec{Nodes: 3, SocketsPerNode: 1, CoresPerSocket: 2, ThreadsPerCore: 1}
	err := Run(Config{NRanks: 4, Spec: spec}, func(r *Rank) {
		out := make([]byte, 8)
		r.World().Allreduce(f64b(1), out, collective.OpSum, collective.Float64)
		if got := bToF64(out)[0]; got != 4 {
			t.Errorf("rank %d on node %d: allreduce = %v, want 4", r.ID(), r.Node(), got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
