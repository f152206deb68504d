package core

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/collective"
	"repro/internal/obs"
)

// Real-runtime microbenchmarks of the core messaging and collective paths
// (the DES-based figure benches live in the repository root).
//
// The package's test init raises GOMAXPROCS for interleaving coverage; that
// oversubscribes this host's physical cores with spinning goroutines and
// turns every handoff into an OS scheduling quantum.  Benchmarks restore
// GOMAXPROCS = NumCPU so the numbers reflect the runtime, not the kernel
// scheduler.
func benchProcs(b *testing.B) {
	b.Helper()
	old := runtime.GOMAXPROCS(runtime.NumCPU())
	b.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

func BenchmarkPurePingPong(b *testing.B) {
	for _, size := range []int{8, 1 << 10, 64 << 10} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			benchProcs(b)
			b.ReportAllocs()
			err := Run(Config{NRanks: 2}, func(r *Rank) {
				c := r.World()
				buf := make([]byte, size)
				c.Barrier()
				if r.ID() == 0 {
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						c.Send(buf, 1, 0)
						c.Recv(buf, 1, 1)
					}
					b.StopTimer()
					b.SetBytes(int64(2 * size))
				} else {
					for i := 0; i < b.N; i++ {
						c.Recv(buf, 0, 0)
						c.Send(buf, 0, 1)
					}
				}
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkChannelPingPong is the persistent-endpoint ping-pong: the
// endpoints are resolved once before the loop, so each iteration is purely
// the Channel.Send/Recv fast path (no per-call cache lookup or argument
// validation).  The delta against BenchmarkPurePingPong is the wrapper
// overhead Comm.Send/Recv still pays per call; the delta against the raw
// BenchmarkPBQPingPong (internal/queue) is the runtime's residual cost over
// the bare lock-free queue.  TestChannelPingPongAllocs holds the endpoint
// paths at 0 allocations.
func BenchmarkChannelPingPong(b *testing.B) {
	for _, size := range []int{8, 1 << 10, 64 << 10} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			benchProcs(b)
			b.ReportAllocs()
			err := Run(Config{NRanks: 2}, func(r *Rank) {
				c := r.World()
				buf := make([]byte, size)
				peer := 1 - r.ID()
				ping := c.SendChannel(peer, 0)
				pong := c.RecvChannel(peer, 1)
				if r.ID() != 0 {
					ping, pong = c.RecvChannel(peer, 0), c.SendChannel(peer, 1)
				}
				c.Barrier()
				if r.ID() == 0 {
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						ping.Send(buf)
						pong.Recv(buf)
					}
					b.StopTimer()
					b.SetBytes(int64(2 * size))
				} else {
					for i := 0; i < b.N; i++ {
						ping.Recv(buf)
						pong.Send(buf)
					}
				}
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkChannelStream64B is p2p-intra's stream phase, the intra-node twin
// of BenchmarkTCPStream64B: 64 B one-way sends through persistent channels
// under a 512-message credit window, the receiver answering every 256th
// message with an 8 B credit.  The sender sets the pace; the delta against
// the raw BenchmarkPBQStream64B (internal/queue) is the channel's cost per
// message.
func BenchmarkChannelStream64B(b *testing.B) {
	benchProcs(b)
	b.ReportAllocs()
	const window, every = 512, 256
	n := b.N
	err := Run(Config{NRanks: 2}, func(r *Rank) {
		w := r.World()
		msg, credit := make([]byte, 64), make([]byte, 8)
		if r.ID() == 0 {
			data, credits := w.SendChannel(1, 3), w.RecvChannel(1, 4)
			left, owed := window, n/every
			w.Barrier()
			b.ResetTimer()
			for i := 0; i < n; i++ {
				if left == 0 {
					credits.Recv(credit)
					owed--
					left += every
				}
				data.Send(msg)
				left--
			}
			for ; owed > 0; owed-- {
				credits.Recv(credit)
			}
			b.StopTimer()
			return
		}
		data, credits := w.RecvChannel(0, 3), w.SendChannel(0, 4)
		w.Barrier()
		for i := 1; i <= n; i++ {
			data.Recv(msg)
			if i%every == 0 {
				credits.Send(credit)
			}
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkChannelPingPongObserved is the endpoint exchange with tracing and
// metrics on.  The delta against BenchmarkChannelPingPong is the true
// recording cost: a ring write per event, and the rank's counter cells
// bumped atomically — rank-private lines, no shared counter — instead of
// plainly; compare the wrapper benchmarks for the pre-redesign indirection.
func BenchmarkChannelPingPongObserved(b *testing.B) {
	for _, size := range []int{8, 1 << 10} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			benchProcs(b)
			b.ReportAllocs()
			cfg := Config{
				NRanks:  2,
				Trace:   obs.NewTrace(2, 1<<16),
				Metrics: obs.NewMetrics(),
			}
			err := Run(cfg, func(r *Rank) {
				c := r.World()
				buf := make([]byte, size)
				peer := 1 - r.ID()
				ping := c.SendChannel(peer, 0)
				pong := c.RecvChannel(peer, 1)
				if r.ID() != 0 {
					ping, pong = c.RecvChannel(peer, 0), c.SendChannel(peer, 1)
				}
				c.Barrier()
				if r.ID() == 0 {
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						ping.Send(buf)
						pong.Recv(buf)
					}
					b.StopTimer()
					b.SetBytes(int64(2 * size))
				} else {
					for i := 0; i < b.N; i++ {
						ping.Recv(buf)
						pong.Send(buf)
					}
				}
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkChannelIsendIrecv measures the pooled nonblocking path: one
// outstanding Isend/Irecv pair per iteration, completed with Wait.  After
// the pools warm up this must also run at 0 allocs/op for eager payloads.
func BenchmarkChannelIsendIrecv(b *testing.B) {
	const size = 8
	benchProcs(b)
	b.ReportAllocs()
	err := Run(Config{NRanks: 2}, func(r *Rank) {
		c := r.World()
		buf := make([]byte, size)
		peer := 1 - r.ID()
		ping := c.SendChannel(peer, 0)
		pong := c.RecvChannel(peer, 1)
		if r.ID() != 0 {
			ping, pong = c.RecvChannel(peer, 0), c.SendChannel(peer, 1)
		}
		c.Barrier()
		if r.ID() == 0 {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Wait(ping.Isend(buf))
				c.Wait(pong.Irecv(buf))
			}
			b.StopTimer()
			b.SetBytes(int64(2 * size))
		} else {
			for i := 0; i < b.N; i++ {
				c.Wait(ping.Irecv(buf))
				c.Wait(pong.Isend(buf))
			}
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkPurePingPongObserved is the same exchange with the observability
// layer switched on (event tracing + metrics); the delta against
// BenchmarkPurePingPong is the enabled-mode recording cost per round trip.
func BenchmarkPurePingPongObserved(b *testing.B) {
	for _, size := range []int{8, 1 << 10} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			benchProcs(b)
			cfg := Config{
				NRanks:  2,
				Trace:   obs.NewTrace(2, 1<<16),
				Metrics: obs.NewMetrics(),
			}
			err := Run(cfg, func(r *Rank) {
				c := r.World()
				buf := make([]byte, size)
				c.Barrier()
				if r.ID() == 0 {
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						c.Send(buf, 1, 0)
						c.Recv(buf, 1, 1)
					}
					b.StopTimer()
					b.SetBytes(int64(2 * size))
				} else {
					for i := 0; i < b.N; i++ {
						c.Recv(buf, 0, 0)
						c.Send(buf, 0, 1)
					}
				}
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkPurePingPongMonitored is the plain (untraced, unmetered) exchange
// with only the live monitor enabled; the delta against BenchmarkPurePingPong
// is the monitor's steady-state cost — an idle HTTP listener plus lazy
// wait-record publication — which must stay under 5%.
func BenchmarkPurePingPongMonitored(b *testing.B) {
	for _, size := range []int{8, 1 << 10} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			benchProcs(b)
			err := Run(Config{NRanks: 2, MonitorAddr: "127.0.0.1:0"}, func(r *Rank) {
				c := r.World()
				buf := make([]byte, size)
				c.Barrier()
				if r.ID() == 0 {
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						c.Send(buf, 1, 0)
						c.Recv(buf, 1, 1)
					}
					b.StopTimer()
					b.SetBytes(int64(2 * size))
				} else {
					for i := 0; i < b.N; i++ {
						c.Recv(buf, 0, 0)
						c.Send(buf, 0, 1)
					}
				}
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

func BenchmarkPureBarrier(b *testing.B) {
	for _, n := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("%dranks", n), func(b *testing.B) {
			benchProcs(b)
			err := Run(Config{NRanks: n}, func(r *Rank) {
				c := r.World()
				c.Barrier()
				if r.ID() == 0 {
					b.ResetTimer()
				}
				for i := 0; i < b.N; i++ {
					c.Barrier()
				}
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

func BenchmarkPureAllreduce8B(b *testing.B) {
	benchProcs(b)
	const n = 4
	err := Run(Config{NRanks: n}, func(r *Rank) {
		c := r.World()
		in := f64b(float64(r.ID()))
		out := make([]byte, 8)
		c.Barrier()
		if r.ID() == 0 {
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			c.Allreduce(in, out, collective.OpSum, collective.Float64)
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

// TestOneSidedAllocs is the gate on the intra-node one-sided paths that
// BenchmarkShmemPut, BenchmarkShmemAtomicAdd and BenchmarkRMAPut time: a
// symmetric-heap Put is a bounds check and one copy into the co-resident
// target's region, an AtomicAdd one hardware atomic, and a window Put+Fence
// one copy plus the fence epoch.  None makes a request object or takes a
// queue slot, so none allocates (AllocsPerRun counts the whole process:
// rank 1 fencing or waiting at the barrier too).
func TestOneSidedAllocs(t *testing.T) {
	const warm, runs = 100, 1000
	// Each case opens its object on both ranks and returns rank 0's call,
	// the call rank 1 makes alongside each one (nil: rank 1 only waits) and
	// the collective release.
	type open func(w *Comm) (call, peer, free func())
	shmem := func(op func(s *Shm, off int64)) open {
		return func(w *Comm) (func(), func(), func()) {
			s := w.ShmemCreate(1<<16, 0)
			off := s.Malloc(1 << 10)
			s.Barrier()
			return func() { op(s, off) }, nil, func() { s.Barrier(); s.FreeHeap() }
		}
	}
	putFence := func(size int) open {
		return func(w *Comm) (func(), func(), func()) {
			win, data := w.WinCreate(make([]byte, size)), make([]byte, size)
			win.Fence()
			return func() { win.Put(data, 1, 0); win.Fence() }, win.Fence, win.Free
		}
	}
	data8, data1K := make([]byte, 8), make([]byte, 1<<10)
	for _, tc := range []struct {
		name string
		open open
	}{
		{"shmem-put/8B", shmem(func(s *Shm, off int64) { s.Put(1, off, data8) })},
		{"shmem-put/1KiB", shmem(func(s *Shm, off int64) { s.Put(1, off, data1K) })},
		{"shmem-atomic-add", shmem(func(s *Shm, off int64) { s.AtomicAdd(1, off, 1) })},
		{"win-put-fence/8B", putFence(8)},
		{"win-put-fence/1KiB", putFence(1 << 10)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var perCall float64
			err := Run(Config{NRanks: 2}, func(r *Rank) {
				call, peer, free := tc.open(r.World())
				if r.ID() == 0 {
					for i := 0; i < warm; i++ {
						call()
					}
					perCall = testing.AllocsPerRun(runs, call)
				} else if peer != nil {
					for i := 0; i < warm+1+runs; i++ {
						peer()
					}
				}
				free()
			})
			if err != nil {
				t.Fatal(err)
			}
			if perCall != 0 {
				t.Fatalf("%s allocates %.2f times per call, want 0", tc.name, perCall)
			}
		})
	}
}

// BenchmarkRMAPut measures the one-sided put/fence cycle between two
// co-resident ranks: one direct copy into the peer's window plus the
// fence epoch that publishes it.
func BenchmarkRMAPut(b *testing.B) {
	for _, size := range []int{8, 1 << 10} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			benchProcs(b)
			err := Run(Config{NRanks: 2}, func(r *Rank) {
				w := r.World().WinCreate(make([]byte, size))
				data := make([]byte, size)
				w.Fence()
				if r.ID() == 0 {
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						w.Put(data, 1, 0)
						w.Fence()
					}
					b.StopTimer()
					b.SetBytes(int64(size))
				} else {
					for i := 0; i < b.N; i++ {
						w.Fence()
					}
				}
				w.Free()
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkShmemPut measures the intra-node symmetric-heap put: bounds
// check plus one direct copy into the co-resident target's region, with no
// request object, window epoch, or queue slot on the path
// (TestOneSidedAllocs holds it at 0 allocations).
func BenchmarkShmemPut(b *testing.B) {
	for _, size := range []int{8, 1 << 10} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			benchProcs(b)
			b.ReportAllocs()
			err := Run(Config{NRanks: 2}, func(r *Rank) {
				s := r.World().ShmemCreate(1<<16, 0)
				off := s.Malloc(int64(size))
				data := make([]byte, size)
				s.Barrier()
				if r.World().Rank() == 0 {
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						s.Put(1, off, data)
					}
					b.StopTimer()
					b.SetBytes(int64(size))
				}
				s.Barrier()
				s.FreeHeap()
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkShmemAtomicAdd measures the intra-node remote atomic: one
// hardware fetch-add on the peer's heap cell (TestOneSidedAllocs holds it
// at 0 allocations).
func BenchmarkShmemAtomicAdd(b *testing.B) {
	benchProcs(b)
	b.ReportAllocs()
	err := Run(Config{NRanks: 2}, func(r *Rank) {
		s := r.World().ShmemCreate(4096, 0)
		off := s.Malloc(8)
		s.Barrier()
		if r.World().Rank() == 0 {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.AtomicAdd(1, off, 1)
			}
			b.StopTimer()
		}
		s.Barrier()
		s.FreeHeap()
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkShmemFetchAdd is the value-returning variant (the mailbox
// ticket-claim primitive).
func BenchmarkShmemFetchAdd(b *testing.B) {
	benchProcs(b)
	b.ReportAllocs()
	err := Run(Config{NRanks: 2}, func(r *Rank) {
		s := r.World().ShmemCreate(4096, 0)
		off := s.Malloc(8)
		s.Barrier()
		if r.World().Rank() == 0 {
			var acc int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				acc += s.AtomicFetchAdd(1, off, 1)
			}
			b.StopTimer()
			_ = acc
		}
		s.Barrier()
		s.FreeHeap()
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkShmemMailboxPingPong bounces one message between two actor
// mailboxes: ring claim/fill/publish one way, blocking Recv back.
func BenchmarkShmemMailboxPingPong(b *testing.B) {
	benchProcs(b)
	b.ReportAllocs()
	err := Run(Config{NRanks: 2}, func(r *Rank) {
		s := r.World().ShmemCreate(4096, 0)
		me := r.World().Rank()
		mb0 := s.NewMailbox(0, 8, 8)
		mb1 := s.NewMailbox(1, 8, 8)
		msg := make([]byte, 8)
		if me == 0 {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mb1.Send(msg)
				mb0.Recv(msg)
			}
			b.StopTimer()
		} else {
			for i := 0; i < b.N; i++ {
				mb1.Recv(msg)
				mb0.Send(msg)
			}
		}
		s.Barrier()
		s.FreeHeap()
	})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkPureTaskExecuteNoSteal(b *testing.B) {
	benchProcs(b)
	// Owner-only task dispatch cost (no thieves exist to steal).
	err := Run(Config{NRanks: 1}, func(r *Rank) {
		task := r.NewTask(16, func(start, end int64, _ any) {
			for c := start; c < end; c++ {
				_ = c
			}
		})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			task.Execute(nil)
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}
