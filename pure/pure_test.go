package pure

import (
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func init() {
	if runtime.GOMAXPROCS(0) < 4 {
		runtime.GOMAXPROCS(4)
	}
}

func TestQuickstartFlow(t *testing.T) {
	err := Run(Config{NRanks: 4}, func(r *Rank) {
		c := r.World()
		// Ring-pass a token.
		token := []byte{byte(r.ID())}
		next := (r.ID() + 1) % r.NRanks()
		prev := (r.ID() + r.NRanks() - 1) % r.NRanks()
		if r.ID() == 0 {
			c.Send(token, next, 0)
			c.Recv(token, prev, 0)
			if token[0] != byte(prev) {
				t.Errorf("token = %d, want %d", token[0], prev)
			}
		} else {
			got := make([]byte, 1)
			c.Recv(got, prev, 0)
			c.Send([]byte{byte(r.ID())}, next, 0)
		}
		// Typed allreduce.
		sum := c.AllreduceFloat64(float64(r.ID()), Sum)
		if sum != 6 {
			t.Errorf("sum = %v, want 6", sum)
		}
		maxv := c.AllreduceFloat64(float64(r.ID()), Max)
		if maxv != 3 {
			t.Errorf("max = %v", maxv)
		}
		n := c.AllreduceInt64(1, Sum)
		if n != 4 {
			t.Errorf("count = %d", n)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTypedHelpersRoundTrip(t *testing.T) {
	f := func(vals []float64) bool {
		b := Float64Bytes(vals)
		out := make([]float64, len(vals))
		GetFloat64s(out, b)
		for i := range vals {
			if out[i] != vals[i] && !(math.IsNaN(out[i]) && math.IsNaN(vals[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	g := func(vals []int64) bool {
		b := Int64Bytes(vals)
		out := make([]int64, len(vals))
		GetInt64s(out, b)
		for i := range vals {
			if out[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(g, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSendRecvFloat64s(t *testing.T) {
	err := Run(Config{NRanks: 2}, func(r *Rank) {
		c := r.World()
		if r.ID() == 0 {
			c.SendFloat64s([]float64{1.5, 2.5, 3.5}, 1, 9)
		} else {
			got := make([]float64, 3)
			c.RecvFloat64s(got, 0, 9)
			if got[0] != 1.5 || got[2] != 3.5 {
				t.Errorf("got %v", got)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestVectorAllreduceAndBcast(t *testing.T) {
	err := Run(Config{NRanks: 3}, func(r *Rank) {
		c := r.World()
		in := []float64{float64(r.ID()), 10}
		out := make([]float64, 2)
		c.AllreduceFloat64s(in, out, Sum)
		if out[0] != 3 || out[1] != 30 {
			t.Errorf("allreduce = %v", out)
		}
		vals := []float64{0, 0}
		if r.ID() == 1 {
			vals = []float64{7, 8}
		}
		c.BcastFloat64s(vals, 1)
		if vals[0] != 7 || vals[1] != 8 {
			t.Errorf("bcast = %v", vals)
		}
		if got := c.BcastInt64(int64(r.ID()*100), 2); got != 200 {
			t.Errorf("bcast int = %d", got)
		}
		root := make([]float64, 1)
		c.ReduceFloat64s([]float64{2}, root, 0, Prod)
		if r.ID() == 0 && root[0] != 8 {
			t.Errorf("reduce prod = %v", root[0])
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTaskFromPublicAPI(t *testing.T) {
	err := Run(Config{NRanks: 2}, func(r *Rank) {
		if r.ID() == 0 {
			data := make([]float64, 512)
			task := r.NewTask(16, func(start, end int64, _ any) {
				lo, hi := int64(0), int64(0)
				_ = lo
				_ = hi
				for c := start; c < end; c++ {
					l, h := alignedRange(512, c, 16)
					for i := l; i < h; i++ {
						data[i] = float64(i) * 2
					}
				}
			})
			stats := task.Execute(nil)
			if stats.OwnerChunks+stats.StolenChunks != 16 {
				t.Errorf("stats = %+v", stats)
			}
			for i := range data {
				if data[i] != float64(i)*2 {
					t.Fatalf("elem %d = %v", i, data[i])
				}
			}
		}
		r.World().Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// alignedRange mirrors Task.AlignedIdxRange for a single chunk (test helper).
func alignedRange(n, chunk, total int64) (int64, int64) {
	perLine := int64(8)
	lines := (n + perLine - 1) / perLine
	per := lines / total
	extra := lines % total
	lineAt := func(c int64) int64 { return c*per + minI(c, extra) }
	lo := lineAt(chunk) * perLine
	hi := lineAt(chunk+1) * perLine
	if lo > n {
		lo = n
	}
	if hi > n {
		hi = n
	}
	return lo, hi
}

func minI(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func TestTaskAlignedIdxRangeAccessor(t *testing.T) {
	err := Run(Config{NRanks: 1}, func(r *Rank) {
		task := r.NewTask(4, func(_, _ int64, _ any) {})
		lo, hi := task.AlignedIdxRange(100, 8, 0, 4)
		if lo != 0 || hi != 100 {
			t.Errorf("full range = [%d,%d)", lo, hi)
		}
		if task.Chunks() != 4 {
			t.Errorf("chunks = %d", task.Chunks())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMultiNodeFromPublicAPI(t *testing.T) {
	err := Run(Config{
		NRanks:       8,
		Spec:         CoriNode(2),
		RanksPerNode: 4,
		Net:          NetConfig{LatencyNs: 100, BytesPerNs: 10, TimeScale: 10},
	}, func(r *Rank) {
		c := r.World()
		if got := c.AllreduceFloat64(1, Sum); got != 8 {
			t.Errorf("allreduce = %v", got)
		}
		sub := c.Split(r.Node(), r.ID())
		if sub.Size() != 4 {
			t.Errorf("node comm size = %d", sub.Size())
		}
		if got := sub.AllreduceFloat64(1, Sum); got != 4 {
			t.Errorf("node allreduce = %v", got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitUndefined(t *testing.T) {
	err := Run(Config{NRanks: 2}, func(r *Rank) {
		color := -1
		if r.ID() == 0 {
			color = 0
		}
		sub := r.World().Split(color, 0)
		if r.ID() == 0 && sub == nil {
			t.Error("rank 0 should be in the new comm")
		}
		if r.ID() == 1 && sub != nil {
			t.Error("rank 1 should get nil")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCustomPlacement(t *testing.T) {
	// Pin two ranks to different sockets of one Cori node.
	err := Run(Config{
		NRanks: 2,
		Spec:   CoriNode(1),
		Policy: CustomPlacement,
		Seats: []Seat{
			{Node: 0, Socket: 0, Core: 0, Thread: 0},
			{Node: 0, Socket: 1, Core: 0, Thread: 0},
		},
	}, func(r *Rank) {
		c := r.World()
		if got := c.AllreduceFloat64(1, Sum); got != 2 {
			t.Errorf("allreduce = %v", got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Duplicate seats must be rejected.
	err = Run(Config{
		NRanks: 2,
		Spec:   CoriNode(1),
		Policy: CustomPlacement,
		Seats:  []Seat{{}, {}},
	}, func(*Rank) {})
	if err == nil {
		t.Fatal("duplicate seats accepted")
	}
}

func TestTaskBodyPanicPropagates(t *testing.T) {
	err := Run(Config{NRanks: 2}, func(r *Rank) {
		if r.ID() == 0 {
			task := r.NewTask(4, func(start, end int64, _ any) {
				panic("task body exploded")
			})
			task.Execute(nil)
		}
	})
	if err == nil {
		t.Fatal("task panic was swallowed")
	}
}

func TestRunWithReportCounters(t *testing.T) {
	rep, err := RunWithReport(Config{NRanks: 2}, func(r *Rank) {
		c := r.World()
		if r.ID() == 0 {
			c.Send(make([]byte, 100), 1, 0)    // eager
			c.Send(make([]byte, 32<<10), 1, 0) // rendezvous
		} else {
			buf := make([]byte, 100)
			c.Recv(buf, 0, 0)
			big := make([]byte, 32<<10)
			c.Recv(big, 0, 0)
		}
		c.Barrier()
		out := make([]byte, 8)
		c.Allreduce(Int64Bytes([]int64{1}), out, Sum, Int64)
		if r.ID() == 0 {
			task := r.NewTask(4, func(_, _ int64, _ any) {})
			task.Execute(nil)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	tot := rep.Total
	if tot.SendsEager != 1 || tot.SendsRendezvous != 1 {
		t.Errorf("sends: eager=%d rvz=%d, want 1/1", tot.SendsEager, tot.SendsRendezvous)
	}
	if tot.RecvsEager != 1 || tot.RecvsRendezvous != 1 {
		t.Errorf("recvs: eager=%d rvz=%d, want 1/1", tot.RecvsEager, tot.RecvsRendezvous)
	}
	if tot.BytesSent != 100+32<<10 || tot.BytesReceived != 100+32<<10 {
		t.Errorf("bytes: sent=%d recv=%d", tot.BytesSent, tot.BytesReceived)
	}
	if tot.Barriers != 2 || tot.Allreduces != 2 {
		t.Errorf("collectives: barriers=%d allreduces=%d, want 2/2", tot.Barriers, tot.Allreduces)
	}
	if tot.TasksExecuted != 1 || tot.ChunksOwned+tot.ChunksStolen != 4 {
		t.Errorf("tasks: %d executed, %d+%d chunks", tot.TasksExecuted, tot.ChunksOwned, tot.ChunksStolen)
	}
	if rep.PerRank[0].Rank != 0 || rep.PerRank[1].Rank != 1 {
		t.Errorf("rank ids wrong: %d %d", rep.PerRank[0].Rank, rep.PerRank[1].Rank)
	}
	if rep.PerRank[1].Messages() != 0 || rep.PerRank[0].Messages() != 2 {
		t.Errorf("per-rank messages: %d %d", rep.PerRank[0].Messages(), rep.PerRank[1].Messages())
	}
}

func TestReportCountsRemoteSends(t *testing.T) {
	rep, err := RunWithReport(Config{
		NRanks:       2,
		Spec:         CoriNode(2),
		RanksPerNode: 1,
		Net:          NetConfig{LatencyNs: 50, TimeScale: 10},
	}, func(r *Rank) {
		c := r.World()
		if r.ID() == 0 {
			c.Send([]byte{1}, 1, 0)
		} else {
			c.Recv(make([]byte, 1), 0, 0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total.SendsRemote != 1 || rep.Total.RecvsRemote != 1 {
		t.Errorf("remote counters: %d/%d", rep.Total.SendsRemote, rep.Total.RecvsRemote)
	}
}

func TestDeadlockDiagnosisFromPublicAPI(t *testing.T) {
	// A 4-rank receive ring with no senders: Run must return a *RunError
	// naming the wait-for cycle instead of hanging.
	const n = 4
	err := Run(Config{NRanks: n, HangTimeout: 150 * time.Millisecond}, func(r *Rank) {
		buf := make([]byte, 8)
		r.World().Recv(buf, (r.ID()+n-1)%n, 0)
	})
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("want *RunError, got %T: %v", err, err)
	}
	if re.Cause != CauseDeadlock {
		t.Fatalf("cause = %q, want %q", re.Cause, CauseDeadlock)
	}
	if len(re.Cycle) != n {
		t.Fatalf("cycle = %v, want all %d ranks", re.Cycle, n)
	}
	if !strings.Contains(err.Error(), "wait-for cycle") {
		t.Fatalf("error text missing cycle diagnosis:\n%v", err)
	}
}

func TestAbortFromPublicAPI(t *testing.T) {
	err := Run(Config{NRanks: 2}, func(r *Rank) {
		if r.ID() == 0 {
			r.Abort(errors.New("bad input deck"))
		}
		r.World().Barrier()
	})
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("want *RunError, got %T: %v", err, err)
	}
	if re.Cause != CauseAbort || len(re.Failures) != 1 || re.Failures[0].Rank != 0 {
		t.Fatalf("RunError = %+v", re)
	}
}
