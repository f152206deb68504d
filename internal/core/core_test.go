package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/collective"
	"repro/internal/topology"
	"repro/internal/transport"
)

func init() {
	// The concurrency in these tests needs several processors to interleave,
	// whatever the host's core count.
	if runtime.GOMAXPROCS(0) < 4 {
		runtime.GOMAXPROCS(4)
	}
}

// run launches a single-node Pure program.
func run(t *testing.T, nranks int, main func(r *Rank)) {
	t.Helper()
	if err := Run(Config{NRanks: nranks}, main); err != nil {
		t.Fatal(err)
	}
}

// runMulti launches nranks over multiple virtual nodes with rpn ranks each.
func runMulti(t *testing.T, nranks, nodes, rpn int, main func(r *Rank)) {
	t.Helper()
	err := Run(Config{
		NRanks:       nranks,
		Spec:         topology.Spec{Nodes: nodes, SocketsPerNode: 2, CoresPerSocket: (rpn + 3) / 4 * 2, ThreadsPerCore: 1},
		RanksPerNode: rpn,
	}, main)
	if err != nil {
		t.Fatal(err)
	}
}

func f64b(vals ...float64) []byte {
	b := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(b[i*8:], math.Float64bits(v))
	}
	return b
}

func bToF64(b []byte) []float64 {
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out
}

// TestRunRejectsBadConfig: a bad configuration is an error before any rank
// starts.  A Transport without Addrs means in-process nodes with these link
// settings, so it needs several nodes and Node 0, and its settings are
// validated as a TCP node's are; a valid one runs over the in-memory network.
func TestRunRejectsBadConfig(t *testing.T) {
	twoNodes := nodesConfig(2, 1)
	for _, c := range []struct {
		name string
		cfg  Config
		want string // in the error; "" for a valid config
	}{
		{"zero ranks", Config{NRanks: 0}, "NRanks"},
		{"ranks exceeding hardware", Config{NRanks: 4, Spec: topology.Spec{Nodes: 1, SocketsPerNode: 1, CoresPerSocket: 2, ThreadsPerCore: 1}}, "placing ranks"},
		{"transport without addrs on one node", Config{NRanks: 2, Transport: &transport.Config{}}, "Transport"},
		{"transport without addrs for node 1", withLinks(twoNodes, transport.Config{Node: 1}), "Transport"},
		{"transport without addrs dropping 150%", withLinks(twoNodes, transport.Config{Faults: transport.Faults{ResetProb: 1.5}}), "Transport"},
		{"transport without addrs, lossy", withLinks(twoNodes, transport.Config{Faults: transport.Faults{Seed: 1, ResetProb: 0.5}}), ""},
	} {
		t.Run(c.name, func(t *testing.T) {
			var rts [2]*Runtime
			err := Run(c.cfg, func(r *Rank) {
				if c.want != "" {
					t.Error("a rank started")
				}
				rts[r.ID()] = r.rt
				w, buf := r.World(), make([]byte, 8)
				for i := 0; i < 20; i++ {
					if r.ID() == 0 {
						w.Send(buf, 1, 1)
						w.Recv(buf, 1, 2)
					} else {
						w.Recv(buf, 0, 1)
						w.Send(buf, 0, 2)
					}
				}
			})
			if c.want != "" {
				t.Log(err)
				if err == nil || !strings.Contains(err.Error(), c.want) {
					t.Fatalf("error %v, want one naming %s", err, c.want)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			for n, rt := range rts {
				if addr := rt.tp.Addr(); addr != fmt.Sprintf("node:%d", n) {
					t.Errorf("node %d listened on %q, not on the in-memory network", n, addr)
				}
				if resets := rt.tp.Stats()[1-n].ResetsInjected; resets == 0 {
					t.Errorf("node %d injected no resets: the fault plan was not applied", n)
				}
			}
		})
	}
}

// withLinks is cfg with the links' settings links.
func withLinks(cfg Config, links transport.Config) Config {
	cfg.Transport = &links
	return cfg
}

func TestRunPropagatesPanics(t *testing.T) {
	err := Run(Config{NRanks: 2}, func(r *Rank) {
		if r.ID() == 1 {
			panic("boom")
		}
	})
	if err == nil {
		t.Fatal("want error from panicking rank")
	}
}

func TestRankIdentity(t *testing.T) {
	var seen [8]atomic.Int32
	run(t, 8, func(r *Rank) {
		seen[r.ID()].Add(1)
		if r.NRanks() != 8 {
			t.Errorf("NRanks = %d", r.NRanks())
		}
		if r.World().Rank() != r.ID() || r.World().Size() != 8 {
			t.Errorf("world comm identity wrong for %d", r.ID())
		}
	})
	for i := range seen {
		if seen[i].Load() != 1 {
			t.Fatalf("rank %d ran %d times", i, seen[i].Load())
		}
	}
}

// TestRunStartsOneGoroutinePerExtraRank: the first rank runs on Run's
// caller, so a node of n ranks (no watchdog, helpers or links) adds n-1
// goroutines.  Goroutines other tests left behind may exit mid-run and skew
// one count, so a mismatch gets two more tries.
func TestRunStartsOneGoroutinePerExtraRank(t *testing.T) {
	const n = 4
	var extra [n]atomic.Int64
	for try := 0; try < 3; try++ {
		baseline := runtime.NumGoroutine()
		run(t, n, func(r *Rank) {
			r.World().Barrier() // every rank is running
			extra[r.ID()].Store(int64(runtime.NumGoroutine() - baseline))
			r.World().Barrier() // and stays so until every rank has counted
		})
		ok := true
		for id := range extra {
			ok = ok && extra[id].Load() == n-1
		}
		if ok {
			return
		}
	}
	for id := range extra {
		t.Errorf("rank %d counted %d goroutines above the baseline, want %d", id, extra[id].Load(), n-1)
	}
}

func TestSendRecvEagerIntraNode(t *testing.T) {
	run(t, 2, func(r *Rank) {
		c := r.World()
		if r.ID() == 0 {
			c.Send([]byte("hello"), 1, 7)
		} else {
			buf := make([]byte, 16)
			n := c.Recv(buf, 0, 7)
			if n != 5 || string(buf[:5]) != "hello" {
				t.Errorf("recv got %q (%d)", buf[:n], n)
			}
		}
	})
}

func TestSendRecvLargeRendezvous(t *testing.T) {
	const size = 64 << 10 // > 8 KiB threshold
	run(t, 2, func(r *Rank) {
		c := r.World()
		if r.ID() == 0 {
			msg := bytes.Repeat([]byte{0x5A}, size)
			c.Send(msg, 1, 0)
		} else {
			buf := make([]byte, size)
			n := c.Recv(buf, 0, 0)
			if n != size || buf[0] != 0x5A || buf[size-1] != 0x5A {
				t.Errorf("rendezvous recv wrong: n=%d", n)
			}
		}
	})
}

func TestMessageOrderingPerPair(t *testing.T) {
	const n = 500
	run(t, 2, func(r *Rank) {
		c := r.World()
		if r.ID() == 0 {
			msg := make([]byte, 8)
			for i := 0; i < n; i++ {
				binary.LittleEndian.PutUint64(msg, uint64(i))
				c.Send(msg, 1, 3)
			}
		} else {
			buf := make([]byte, 8)
			for i := 0; i < n; i++ {
				c.Recv(buf, 0, 3)
				if got := binary.LittleEndian.Uint64(buf); got != uint64(i) {
					t.Errorf("message %d arrived as %d", i, got)
					return
				}
			}
		}
	})
}

func TestTagsKeepStreamsSeparate(t *testing.T) {
	run(t, 2, func(r *Rank) {
		c := r.World()
		if r.ID() == 0 {
			c.Send([]byte("tagA"), 1, 1)
			c.Send([]byte("tagB"), 1, 2)
		} else {
			bufB := make([]byte, 8)
			nB := c.Recv(bufB, 0, 2) // receive tag 2 first
			bufA := make([]byte, 8)
			nA := c.Recv(bufA, 0, 1)
			if string(bufB[:nB]) != "tagB" || string(bufA[:nA]) != "tagA" {
				t.Errorf("tag streams crossed: %q %q", bufA[:nA], bufB[:nB])
			}
		}
	})
}

func TestNonblockingWaitall(t *testing.T) {
	run(t, 2, func(r *Rank) {
		c := r.World()
		if r.ID() == 0 {
			var reqs []*Request
			for i := 0; i < 8; i++ {
				msg := []byte{byte(i)}
				reqs = append(reqs, c.Isend(msg, 1, i))
			}
			c.Waitall(reqs...)
		} else {
			var reqs []*Request
			bufs := make([][]byte, 8)
			// Post receives in reverse tag order to prove independence.
			for i := 7; i >= 0; i-- {
				bufs[i] = make([]byte, 1)
				reqs = append(reqs, c.Irecv(bufs[i], 0, i))
			}
			c.Waitall(reqs...)
			for i := 0; i < 8; i++ {
				if bufs[i][0] != byte(i) {
					t.Errorf("tag %d delivered %d", i, bufs[i][0])
				}
			}
		}
	})
}

func TestMultipleOutstandingRendezvous(t *testing.T) {
	const size = 32 << 10
	run(t, 2, func(r *Rank) {
		c := r.World()
		if r.ID() == 0 {
			a := bytes.Repeat([]byte{1}, size)
			b := bytes.Repeat([]byte{2}, size)
			ra := c.Isend(a, 1, 0)
			rb := c.Isend(b, 1, 0)
			c.Waitall(ra, rb)
		} else {
			a := make([]byte, size)
			b := make([]byte, size)
			ra := c.Irecv(a, 0, 0)
			rb := c.Irecv(b, 0, 0)
			c.Waitall(rb, ra) // wait out of order
			if a[0] != 1 || b[0] != 2 {
				t.Errorf("rendezvous order broken: %d %d", a[0], b[0])
			}
		}
	})
}

func TestCrossNodeMessaging(t *testing.T) {
	runMulti(t, 4, 2, 2, func(r *Rank) {
		c := r.World()
		// Ranks 0,1 on node 0; ranks 2,3 on node 1.
		if r.ID() == 0 {
			c.Send([]byte("crossing"), 2, 5)
		} else if r.ID() == 2 {
			buf := make([]byte, 16)
			n := c.Recv(buf, 0, 5)
			if string(buf[:n]) != "crossing" {
				t.Errorf("got %q", buf[:n])
			}
			if r.Node() != 1 {
				t.Errorf("rank 2 on node %d", r.Node())
			}
		}
	})
}

func TestCrossNodeOrdering(t *testing.T) {
	const n = 100
	runMulti(t, 2, 2, 1, func(r *Rank) {
		c := r.World()
		if r.ID() == 0 {
			msg := make([]byte, 8)
			for i := 0; i < n; i++ {
				binary.LittleEndian.PutUint64(msg, uint64(i))
				c.Send(msg, 1, 0)
			}
		} else {
			buf := make([]byte, 8)
			for i := 0; i < n; i++ {
				c.Recv(buf, 0, 0)
				if got := binary.LittleEndian.Uint64(buf); got != uint64(i) {
					t.Errorf("cross-node message %d arrived as %d", i, got)
					return
				}
			}
		}
	})
}

func TestBarrierSingleNode(t *testing.T) {
	const n = 8
	var counter atomic.Int64
	run(t, n, func(r *Rank) {
		c := r.World()
		for round := 1; round <= 10; round++ {
			counter.Add(1)
			c.Barrier()
			if got := counter.Load(); got != int64(round*n) {
				t.Errorf("round %d rank %d: counter = %d, want %d", round, r.ID(), got, round*n)
			}
			c.Barrier()
		}
	})
}

func TestBarrierMultiNode(t *testing.T) {
	const n = 8
	var counter atomic.Int64
	runMulti(t, n, 4, 2, func(r *Rank) {
		c := r.World()
		for round := 1; round <= 5; round++ {
			counter.Add(1)
			c.Barrier()
			if got := counter.Load(); got != int64(round*n) {
				t.Errorf("round %d: counter = %d, want %d", round, got, round*n)
			}
			c.Barrier()
		}
	})
}

func TestAllreduceSmallSingleNode(t *testing.T) {
	const n = 8
	run(t, n, func(r *Rank) {
		c := r.World()
		out := make([]byte, 8)
		c.Allreduce(f64b(float64(r.ID()+1)), out, collective.OpSum, collective.Float64)
		if got := bToF64(out)[0]; got != 36 { // 1+..+8
			t.Errorf("rank %d: allreduce = %v, want 36", r.ID(), got)
		}
	})
}

func TestAllreduceSmallMultiNode(t *testing.T) {
	const n = 12
	runMulti(t, n, 3, 4, func(r *Rank) {
		c := r.World()
		out := make([]byte, 8)
		for round := 0; round < 5; round++ {
			c.Allreduce(f64b(float64(r.ID()+round)), out, collective.OpSum, collective.Float64)
			want := float64(round*n) + 66 // 0+..+11 = 66
			if got := bToF64(out)[0]; got != want {
				t.Errorf("round %d rank %d: got %v, want %v", round, r.ID(), got, want)
			}
		}
	})
}

func TestAllreduceLargePartitioned(t *testing.T) {
	const n = 6
	const elems = 1024 // 8 KiB > SPTDMax
	runMulti(t, n, 2, 3, func(r *Rank) {
		c := r.World()
		in := make([]float64, elems)
		for i := range in {
			in[i] = float64(r.ID() + i)
		}
		out := make([]byte, elems*8)
		c.Allreduce(f64b(in...), out, collective.OpSum, collective.Float64)
		got := bToF64(out)
		for i := 0; i < elems; i += 131 {
			want := 0.0
			for t2 := 0; t2 < n; t2++ {
				want += float64(t2 + i)
			}
			if got[i] != want {
				t.Errorf("elem %d: got %v, want %v", i, got[i], want)
				return
			}
		}
	})
}

func TestAllreduceMinMax(t *testing.T) {
	const n = 5
	run(t, n, func(r *Rank) {
		c := r.World()
		out := make([]byte, 8)
		c.Allreduce(f64b(float64(r.ID())), out, collective.OpMax, collective.Float64)
		if got := bToF64(out)[0]; got != 4 {
			t.Errorf("max = %v", got)
		}
		c.Allreduce(f64b(float64(r.ID())), out, collective.OpMin, collective.Float64)
		if got := bToF64(out)[0]; got != 0 {
			t.Errorf("min = %v", got)
		}
	})
}

func TestReduceToEveryRoot(t *testing.T) {
	const n = 6
	runMulti(t, n, 2, 3, func(r *Rank) {
		c := r.World()
		for root := 0; root < n; root++ {
			out := make([]byte, 8)
			c.Reduce(f64b(float64(r.ID()+1)), out, root, collective.OpSum, collective.Float64)
			if r.ID() == root {
				if got := bToF64(out)[0]; got != 21 {
					t.Errorf("root %d: reduce = %v, want 21", root, got)
				}
			}
			c.Barrier()
		}
	})
}

func TestReduceNilOutOnNonRoot(t *testing.T) {
	run(t, 4, func(r *Rank) {
		c := r.World()
		var out []byte
		if r.ID() == 2 {
			out = make([]byte, 8)
		}
		c.Reduce(f64b(1), out, 2, collective.OpSum, collective.Float64)
		if r.ID() == 2 {
			if got := bToF64(out)[0]; got != 4 {
				t.Errorf("reduce = %v, want 4", got)
			}
		}
	})
}

func TestBcastSmallAndLarge(t *testing.T) {
	for _, size := range []int{64, 64 << 10} {
		size := size
		t.Run(fmt.Sprintf("%dB", size), func(t *testing.T) {
			const n = 6
			runMulti(t, n, 2, 3, func(r *Rank) {
				c := r.World()
				for root := 0; root < n; root += 3 {
					buf := make([]byte, size)
					if r.ID() == root {
						for i := range buf {
							buf[i] = byte(root + 1)
						}
					}
					c.Bcast(buf, root)
					if buf[0] != byte(root+1) || buf[size-1] != byte(root+1) {
						t.Errorf("root %d rank %d: bcast payload wrong", root, r.ID())
					}
					c.Barrier()
				}
			})
		})
	}
}

func TestCommSplitEvenOdd(t *testing.T) {
	const n = 8
	runMulti(t, n, 2, 4, func(r *Rank) {
		world := r.World()
		sub := world.Split(r.ID()%2, r.ID())
		if sub.Size() != 4 {
			t.Errorf("rank %d: sub size = %d", r.ID(), sub.Size())
		}
		if want := r.ID() / 2; sub.Rank() != want {
			t.Errorf("rank %d: sub rank = %d, want %d", r.ID(), sub.Rank(), want)
		}
		// Allreduce within the sub-communicator: sum of the member ids.
		out := make([]byte, 8)
		sub.Allreduce(f64b(float64(r.ID())), out, collective.OpSum, collective.Float64)
		want := 12.0 // 0+2+4+6
		if r.ID()%2 == 1 {
			want = 16.0 // 1+3+5+7
		}
		if got := bToF64(out)[0]; got != want {
			t.Errorf("rank %d: sub allreduce = %v, want %v", r.ID(), got, want)
		}
		// p2p within the sub-communicator.
		if sub.Rank() == 0 {
			sub.Send([]byte{42}, 1, 0)
		} else if sub.Rank() == 1 {
			b := make([]byte, 1)
			sub.Recv(b, 0, 0)
			if b[0] != 42 {
				t.Errorf("sub p2p delivered %d", b[0])
			}
		}
	})
}

func TestCommSplitUndefinedColor(t *testing.T) {
	run(t, 4, func(r *Rank) {
		color := -1
		if r.ID() < 2 {
			color = 0
		}
		sub := r.World().Split(color, 0)
		if r.ID() < 2 && (sub == nil || sub.Size() != 2) {
			t.Errorf("rank %d: expected comm of 2", r.ID())
		}
		if r.ID() >= 2 && sub != nil {
			t.Errorf("rank %d: expected nil comm", r.ID())
		}
	})
}

func TestCommSplitKeyReordersRanks(t *testing.T) {
	run(t, 4, func(r *Rank) {
		// Reverse order via descending keys.
		sub := r.World().Split(0, -r.ID())
		if want := 3 - r.ID(); sub.Rank() != want {
			t.Errorf("rank %d: sub rank %d, want %d", r.ID(), sub.Rank(), want)
		}
	})
}

func TestRepeatedSplits(t *testing.T) {
	run(t, 4, func(r *Rank) {
		world := r.World()
		for i := 0; i < 3; i++ {
			sub := world.Split(r.ID()%2, r.ID())
			out := make([]byte, 8)
			sub.Allreduce(f64b(1), out, collective.OpSum, collective.Float64)
			if got := bToF64(out)[0]; got != 2 {
				t.Errorf("split %d: allreduce = %v", i, got)
			}
		}
	})
}

func TestTaskExecuteAllChunks(t *testing.T) {
	const n = 4
	const chunks = 64
	var counts [chunks]atomic.Int32
	run(t, n, func(r *Rank) {
		if r.ID() == 0 {
			task := r.NewTask(chunks, func(start, end int64, _ any) {
				for c := start; c < end; c++ {
					counts[c].Add(1)
				}
			})
			stats := task.Execute(nil)
			if stats.OwnerChunks+stats.StolenChunks != chunks {
				t.Errorf("stats = %+v", stats)
			}
		}
		r.World().Barrier()
	})
	for c := range counts {
		if counts[c].Load() != 1 {
			t.Fatalf("chunk %d ran %d times", c, counts[c].Load())
		}
	}
}

func TestTaskStealingWhileBlocked(t *testing.T) {
	// Rank 0 runs a long task; rank 1 blocks on a recv that only completes
	// after the task is done, so its SSW-Loop must steal chunks.  The
	// interleaving depends on the Go scheduler (this host has one core), so
	// the check retries a few times before declaring the SSW-Loop broken.
	const chunks = 256
	attempt := func() (execCount, stolen int64, err error) {
		var executed atomic.Int64
		var stolenByOne atomic.Int64
		var oneReady atomic.Bool
		err = Run(Config{NRanks: 2}, func(r *Rank) {
			c := r.World()
			if r.ID() == 0 {
				// Give rank 1 a chance to enter its SSW-Loop first.
				for i := 0; i < 1_000_000 && !oneReady.Load(); i++ {
					runtime.Gosched()
				}
				for i := 0; i < 64; i++ {
					runtime.Gosched() // let rank 1 park inside Wait
				}
				task := r.NewTask(chunks, func(start, end int64, _ any) {
					for ch := start; ch < end; ch++ {
						executed.Add(1)
						for spin := 0; spin < 20000; spin++ {
							_ = spin * spin
						}
						runtime.Gosched()
					}
				})
				task.Execute(nil)
				c.Send([]byte{1}, 1, 0) // release rank 1
			} else {
				buf := make([]byte, 1)
				req := c.Irecv(buf, 0, 0)
				oneReady.Store(true)
				c.Wait(req) // SSW-Loop steals here
				_, st := r.StealStats()
				stolenByOne.Store(st)
			}
		})
		return executed.Load(), stolenByOne.Load(), err
	}
	for try := 0; try < 12; try++ {
		exec, stolen, err := attempt()
		if err != nil {
			t.Fatal(err)
		}
		if exec != chunks {
			t.Fatalf("executed %d chunks, want %d", exec, chunks)
		}
		if stolen > 0 {
			t.Logf("rank 1 stole %d allocations (attempt %d)", stolen, try+1)
			return
		}
	}
	t.Error("rank 1 stole nothing in 12 attempts (SSW-Loop not stealing)")
}

func TestTaskPerExecuteArgs(t *testing.T) {
	run(t, 2, func(r *Rank) {
		if r.ID() == 0 {
			var got int
			task := r.NewTask(1, func(_, _ int64, extra any) { got = extra.(int) })
			for i := 0; i < 3; i++ {
				task.Execute(i * 10)
				if got != i*10 {
					t.Errorf("per-exe arg = %d, want %d", got, i*10)
				}
			}
		}
		r.World().Barrier()
	})
}

func TestTaskDefaultChunks(t *testing.T) {
	run(t, 1, func(r *Rank) {
		task := r.NewTask(0, func(_, _ int64, _ any) {})
		if task.Chunks() != DefaultTaskChunks {
			t.Errorf("default chunks = %d", task.Chunks())
		}
	})
}

func TestHelperThreadsSteal(t *testing.T) {
	const chunks = 512
	var executed atomic.Int64
	err := Run(Config{
		NRanks:         1,
		Spec:           topology.Spec{Nodes: 1, SocketsPerNode: 1, CoresPerSocket: 4, ThreadsPerCore: 1},
		HelpersPerNode: 3,
	}, func(r *Rank) {
		task := r.NewTask(chunks, func(start, end int64, _ any) {
			for c := start; c < end; c++ {
				executed.Add(1)
				runtime.Gosched()
			}
		})
		stats := task.Execute(nil)
		t.Logf("owner=%d stolen-by-helpers=%d", stats.OwnerChunks, stats.StolenChunks)
	})
	if err != nil {
		t.Fatal(err)
	}
	if executed.Load() != chunks {
		t.Fatalf("executed %d, want %d", executed.Load(), chunks)
	}
}

func TestTagValidation(t *testing.T) {
	run(t, 2, func(r *Rank) {
		if r.ID() != 0 {
			return
		}
		defer func() {
			if recover() == nil {
				t.Error("reserved tag accepted")
			}
		}()
		r.World().Send([]byte{1}, 1, collTag)
	})
}

func TestSelfSendPanics(t *testing.T) {
	run(t, 2, func(r *Rank) {
		if r.ID() != 0 {
			return
		}
		defer func() {
			if recover() == nil {
				t.Error("self-send accepted")
			}
		}()
		r.World().Send([]byte{1}, 0, 0)
	})
}

// Integration: the §2 random-work stencil smoke test on the real runtime.
func TestStencilIntegration(t *testing.T) {
	const nranks = 4
	const arr = 64
	const iters = 10
	finals := make([][]float64, nranks)
	run(t, nranks, func(r *Rank) {
		c := r.World()
		a := make([]float64, arr)
		for i := range a {
			a[i] = float64(r.ID()*arr + i)
		}
		temp := make([]float64, arr)
		task := r.NewTask(8, func(start, end int64, _ any) {
			lo, hi := (&Task{nchunks: 8}).AlignedIdxRange(arr, 8, start, end)
			for i := lo; i < hi; i++ {
				temp[i] = a[i] * 1.0001
			}
		})
		buf := make([]byte, 8)
		for it := 0; it < iters; it++ {
			task.Execute(nil)
			for i := 1; i < arr-1; i++ {
				a[i] = (temp[i-1] + temp[i] + temp[i+1]) / 3.0
			}
			if r.ID() > 0 {
				c.Send(f64b(temp[0]), r.ID()-1, 0)
				c.Recv(buf, r.ID()-1, 0)
				hi := bToF64(buf)[0]
				a[0] = (hi + temp[0] + temp[1]) / 3.0
			}
			if r.ID() < nranks-1 {
				c.Send(f64b(temp[arr-1]), r.ID()+1, 0)
				c.Recv(buf, r.ID()+1, 0)
				lo := bToF64(buf)[0]
				a[arr-1] = (temp[arr-2] + temp[arr-1] + lo) / 3.0
			}
		}
		finals[r.ID()] = a
	})
	// Reference: sequential computation of the same stencil.
	ref := make([]float64, nranks*arr)
	for i := range ref {
		ref[i] = float64(i)
	}
	tmp := make([]float64, nranks*arr)
	for it := 0; it < iters; it++ {
		for i := range ref {
			tmp[i] = ref[i] * 1.0001
		}
		for i := range ref {
			li := i % arr
			var l, c2, h float64
			c2 = tmp[i]
			if li == 0 {
				if i == 0 {
					continue
				}
				l, h = tmp[i-1], tmp[i+1]
			} else if li == arr-1 {
				if i == len(ref)-1 {
					continue
				}
				l, h = tmp[i-1], tmp[i+1]
			} else {
				l, h = tmp[i-1], tmp[i+1]
			}
			ref[i] = (l + c2 + h) / 3.0
		}
	}
	for rank := 0; rank < nranks; rank++ {
		for i := 0; i < arr; i++ {
			gi := rank*arr + i
			if gi == 0 || gi == nranks*arr-1 {
				continue
			}
			if math.Abs(finals[rank][i]-ref[gi]) > 1e-9 {
				t.Fatalf("rank %d elem %d: %v != ref %v", rank, i, finals[rank][i], ref[gi])
			}
		}
	}
}

func TestIsendBackpressureBeyondPBQSlots(t *testing.T) {
	// Post far more Isends than PBQ slots; pending sends must drain as the
	// receiver consumes, preserving FIFO.
	const msgs = 100
	err := Run(Config{NRanks: 2, PBQSlots: 4}, func(r *Rank) {
		c := r.World()
		if r.ID() == 0 {
			bufs := make([][]byte, msgs)
			reqs := make([]*Request, msgs)
			for i := 0; i < msgs; i++ {
				bufs[i] = []byte{byte(i)}
				reqs[i] = c.Isend(bufs[i], 1, 0)
			}
			c.Waitall(reqs...)
		} else {
			buf := make([]byte, 1)
			for i := 0; i < msgs; i++ {
				c.Recv(buf, 0, 0)
				if buf[0] != byte(i) {
					t.Errorf("message %d arrived as %d", i, buf[0])
					return
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFastPathAndPendingInterleaveFIFO(t *testing.T) {
	// Mix Isend (may pend) and blocking Send on the same channel: delivery
	// order must match the call order even though blocking sends have a
	// direct fast path.
	err := Run(Config{NRanks: 2, PBQSlots: 2}, func(r *Rank) {
		c := r.World()
		if r.ID() == 0 {
			var reqs []*Request
			seq := byte(0)
			for round := 0; round < 20; round++ {
				for k := 0; k < 3; k++ { // overflow the 2-slot queue
					reqs = append(reqs, c.Isend([]byte{seq}, 1, 0))
					seq++
				}
				c.Send([]byte{seq}, 1, 0) // blocking send behind pendings
				seq++
			}
			c.Waitall(reqs...)
		} else {
			buf := make([]byte, 1)
			for i := 0; i < 20*4; i++ {
				c.Recv(buf, 0, 0)
				if buf[0] != byte(i) {
					t.Fatalf("message %d arrived as %d", i, buf[0])
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIrecvFastPathInterleaveFIFO(t *testing.T) {
	// Mix Irecv (pending) and blocking Recv on the same channel.
	err := Run(Config{NRanks: 2}, func(r *Rank) {
		c := r.World()
		if r.ID() == 0 {
			for i := 0; i < 40; i++ {
				c.Send([]byte{byte(i)}, 1, 0)
			}
		} else {
			got := make([]byte, 0, 40)
			for i := 0; i < 10; i++ {
				a := make([]byte, 1)
				b := make([]byte, 1)
				ra := c.Irecv(a, 0, 0)
				rb := c.Irecv(b, 0, 0)
				cbuf := make([]byte, 1)
				// Blocking Recv must queue BEHIND the two pending Irecvs.
				c.Recv(cbuf, 0, 0)
				d := make([]byte, 1)
				c.Wait(ra)
				c.Wait(rb)
				c.Recv(d, 0, 0)
				got = append(got, a[0], b[0], cbuf[0], d[0])
			}
			for i, v := range got {
				if v != byte(i) {
					t.Fatalf("position %d got message %d", i, v)
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestManyTagsManyRanksStress(t *testing.T) {
	// All-to-all with per-pair tags: every rank sends one message to every
	// other rank on 3 different tags.
	const n = 6
	err := Run(Config{NRanks: n}, func(r *Rank) {
		c := r.World()
		var reqs []*Request
		inbox := make([][]byte, 0, (n-1)*3)
		for tag := 0; tag < 3; tag++ {
			for src := 0; src < n; src++ {
				if src == r.ID() {
					continue
				}
				buf := make([]byte, 2)
				inbox = append(inbox, buf)
				reqs = append(reqs, c.Irecv(buf, src, tag))
			}
		}
		for tag := 0; tag < 3; tag++ {
			for dst := 0; dst < n; dst++ {
				if dst == r.ID() {
					continue
				}
				c.Send([]byte{byte(r.ID()), byte(tag)}, dst, tag)
			}
		}
		c.Waitall(reqs...)
		i := 0
		for tag := 0; tag < 3; tag++ {
			for src := 0; src < n; src++ {
				if src == r.ID() {
					continue
				}
				if inbox[i][0] != byte(src) || inbox[i][1] != byte(tag) {
					t.Errorf("rank %d: slot %d = % x, want (%d,%d)", r.ID(), i, inbox[i], src, tag)
				}
				i++
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMixedCollectiveSequenceMultiNode(t *testing.T) {
	// Alternate every collective kind across 3 nodes, twice, to exercise the
	// per-kind round counters and shared-buffer reuse gates together.
	const n = 9
	runMulti(t, n, 3, 3, func(r *Rank) {
		c := r.World()
		for round := 0; round < 2; round++ {
			if got := bToF64(allreduce(c, float64(r.ID())))[0]; got != 36 {
				t.Errorf("allreduce = %v, want 36", got)
			}
			c.Barrier()
			buf := make([]byte, 8)
			root := (round*4 + 1) % n
			if r.ID() == root {
				copy(buf, f64b(float64(100+round)))
			}
			c.Bcast(buf, root)
			if got := bToF64(buf)[0]; got != float64(100+round) {
				t.Errorf("bcast = %v", got)
			}
			out := make([]byte, 8)
			c.Reduce(f64b(1), out, root, collective.OpSum, collective.Float64)
			if r.ID() == root {
				if got := bToF64(out)[0]; got != n {
					t.Errorf("reduce = %v, want %d", got, n)
				}
			}
			gout := make([]byte, n)
			c.Allgather([]byte{byte(r.ID())}, gout)
			for i := 0; i < n; i++ {
				if gout[i] != byte(i) {
					t.Errorf("allgather[%d] = %d", i, gout[i])
				}
			}
		}
	})
}

func allreduce(c *Comm, v float64) []byte {
	out := make([]byte, 8)
	c.Allreduce(f64b(v), out, collective.OpSum, collective.Float64)
	return out
}

func TestLargeAllreduceAlternatesWithSmall(t *testing.T) {
	// Switching between the SPTD and Partitioned Reducer paths on the same
	// communicator must not confuse either structure's round counters.
	const n = 6
	runMulti(t, n, 2, 3, func(r *Rank) {
		c := r.World()
		small := f64b(1)
		large := make([]byte, 4096*8) // > SPTDMax
		PutVal := func(b []byte, v float64) {
			for i := 0; i+8 <= len(b); i += 8 {
				copy(b[i:], f64b(v))
			}
		}
		PutVal(large, 2)
		for round := 0; round < 3; round++ {
			outS := make([]byte, 8)
			c.Allreduce(small, outS, collective.OpSum, collective.Float64)
			if got := bToF64(outS)[0]; got != n {
				t.Errorf("small allreduce = %v", got)
			}
			outL := make([]byte, len(large))
			c.Allreduce(large, outL, collective.OpSum, collective.Float64)
			if got := bToF64(outL[:8])[0]; got != 2*n {
				t.Errorf("large allreduce = %v", got)
			}
			if got := bToF64(outL[len(outL)-8:])[0]; got != 2*n {
				t.Errorf("large allreduce tail = %v", got)
			}
		}
	})
}

func TestSubCommCollectivesAcrossNodes(t *testing.T) {
	// Split into row communicators that each span nodes; collectives on the
	// sub-comms must build their own per-node structures correctly.
	const n = 8 // 2 nodes x 4; rows = even/odd ranks -> 2 per node per row
	runMulti(t, n, 2, 4, func(r *Rank) {
		c := r.World()
		row := c.Split(r.ID()%2, r.ID())
		want := 12.0 // 0+2+4+6
		if r.ID()%2 == 1 {
			want = 16.0
		}
		out := make([]byte, 8)
		row.Allreduce(f64b(float64(r.ID())), out, collective.OpSum, collective.Float64)
		if got := bToF64(out)[0]; got != want {
			t.Errorf("rank %d: row allreduce = %v, want %v", r.ID(), got, want)
		}
		row.Barrier()
		buf := make([]byte, 8)
		if row.Rank() == row.Size()-1 {
			copy(buf, f64b(7))
		}
		row.Bcast(buf, row.Size()-1)
		if got := bToF64(buf)[0]; got != 7 {
			t.Errorf("row bcast = %v", got)
		}
	})
}

// Property: a randomized two-rank message schedule — arbitrary mixes of
// blocking/nonblocking operations, sizes straddling the rendezvous
// threshold, and several tags — always delivers every payload intact, in
// per-tag FIFO order.
func TestRandomScheduleProperty(t *testing.T) {
	type op struct {
		Tag  uint8
		Size uint16
		NB   bool // nonblocking
	}
	f := func(ops []op) bool {
		if len(ops) > 40 {
			ops = ops[:40]
		}
		if len(ops) == 0 {
			return true
		}
		// Normalize: 3 tags, sizes 1..16384 (spanning the 8 KiB threshold).
		for i := range ops {
			ops[i].Tag %= 3
			if ops[i].Size == 0 {
				ops[i].Size = 1
			}
		}
		ok := true
		err := Run(Config{NRanks: 2, PBQSlots: 4}, func(r *Rank) {
			c := r.World()
			if r.ID() == 0 {
				var reqs []*Request
				var seq [3]byte
				for _, o := range ops {
					buf := make([]byte, o.Size)
					buf[0] = seq[o.Tag]
					buf[len(buf)-1] = seq[o.Tag]
					seq[o.Tag]++
					if o.NB {
						reqs = append(reqs, c.Isend(buf, 1, int(o.Tag)))
					} else {
						c.Send(buf, 1, int(o.Tag))
					}
				}
				c.Waitall(reqs...)
			} else {
				var reqs []*Request
				var bufs [][]byte
				var tags []uint8
				var seq [3]byte
				var wantSeq []byte
				for _, o := range ops {
					buf := make([]byte, o.Size)
					if o.NB {
						reqs = append(reqs, c.Irecv(buf, 0, int(o.Tag)))
						bufs = append(bufs, buf)
						tags = append(tags, o.Tag)
						wantSeq = append(wantSeq, seq[o.Tag])
					} else {
						c.Recv(buf, 0, int(o.Tag))
						if buf[0] != seq[o.Tag] || buf[len(buf)-1] != seq[o.Tag] {
							ok = false
						}
					}
					seq[o.Tag]++
				}
				c.Waitall(reqs...)
				for i, buf := range bufs {
					if buf[0] != wantSeq[i] || buf[len(buf)-1] != wantSeq[i] {
						ok = false
					}
					_ = tags
				}
			}
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSplitReversedAcrossNodesSortsNodeList(t *testing.T) {
	// A split whose comm-rank order visits nodes out of ascending order
	// exercises newCommShared's node-list normalization.
	runMulti(t, 4, 2, 2, func(r *Rank) {
		c := r.World()
		// Reverse order: rank 3 (node 1) becomes comm rank 0.
		sub := c.Split(0, -r.ID())
		if want := 3 - r.ID(); sub.Rank() != want {
			t.Errorf("rank %d: sub rank %d, want %d", r.ID(), sub.Rank(), want)
		}
		if got := sub.sh.members[sub.Rank()]; got != r.ID() {
			t.Errorf("member round trip: %d != %d", got, r.ID())
		}
		out := make([]byte, 8)
		sub.Allreduce(f64b(1), out, collective.OpSum, collective.Float64)
		if got := bToF64(out)[0]; got != 4 {
			t.Errorf("reversed-split allreduce = %v", got)
		}
		sub.Barrier()
		buf := make([]byte, 8)
		if sub.Rank() == 0 { // global rank 3, on node 1
			copy(buf, f64b(9))
		}
		sub.Bcast(buf, 0)
		if got := bToF64(buf)[0]; got != 9 {
			t.Errorf("reversed-split bcast = %v", got)
		}
	})
}

func TestRequestAccessorsAndRankIntrospection(t *testing.T) {
	run(t, 2, func(r *Rank) {
		c := r.World()
		if r.ID() == 0 {
			req := c.Isend([]byte{5, 6}, 1, 0)
			c.Wait(req)
			if !req.Done() {
				t.Error("completed send not Done")
			}
		} else {
			buf := make([]byte, 2)
			req := c.Irecv(buf, 0, 0)
			c.Wait(req)
			if !req.Done() || req.Bytes() != 2 {
				t.Errorf("recv req: done=%v bytes=%d", req.Done(), req.Bytes())
			}
		}
		rt := r.rt
		if rt.Config().NRanks != 2 || rt.Placement().NRank != 2 {
			t.Error("runtime introspection wrong")
		}
	})
}

func TestRunWithStatsDirect(t *testing.T) {
	stats, err := RunWithStats(Config{NRanks: 2}, func(r *Rank) {
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
	var total RankStats
	for _, s := range stats {
		total.Add(s)
	}
	if total.Messages() != 1 || total.BytesSent != 1 || total.BytesReceived != 1 {
		t.Errorf("stats total = %+v", total)
	}
}

// Property: for any color assignment, Split partitions the world into
// communicators whose sizes sum to the participating rank count, with
// contiguous 0..size-1 ranks, and collectives work inside each group.
func TestSplitPartitionProperty(t *testing.T) {
	f := func(colorsU [6]uint8) bool {
		const n = 6
		var colors [n]int
		for i, c := range colorsU {
			colors[i] = int(c%3) - 1 // -1 (undefined), 0, 1
		}
		sizes := make([]int32, n)
		ok := true
		err := Run(Config{NRanks: n}, func(r *Rank) {
			c := r.World()
			sub := c.Split(colors[r.ID()], r.ID())
			if colors[r.ID()] < 0 {
				if sub != nil {
					ok = false
				}
				return
			}
			if sub == nil {
				ok = false
				return
			}
			atomic.StoreInt32(&sizes[r.ID()], int32(sub.Size()))
			// Collective inside the subgroup: sum of global ids must match
			// the expected group sum.
			want := 0
			for g := 0; g < n; g++ {
				if colors[g] == colors[r.ID()] {
					want += g
				}
			}
			out := make([]byte, 8)
			sub.Allreduce(f64b(float64(r.ID())), out, collective.OpSum, collective.Float64)
			if got := bToF64(out)[0]; got != float64(want) {
				ok = false
			}
		})
		if err != nil || !ok {
			return false
		}
		// Size consistency: every member of a color must report the color's
		// member count.
		for i := 0; i < n; i++ {
			if colors[i] < 0 {
				continue
			}
			count := int32(0)
			for g := 0; g < n; g++ {
				if colors[g] == colors[i] {
					count++
				}
			}
			if sizes[i] != count {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
