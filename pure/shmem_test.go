package pure

import (
	"bytes"
	"fmt"
	"testing"
)

// TestShmemMallocSymmetric pins the symmetric-heap contract: every rank
// runs the same Malloc/Free sequence and must compute identical offsets,
// including reuse of freed holes, with no communication.
func TestShmemMallocSymmetric(t *testing.T) {
	const n = 4
	err := Run(Config{NRanks: n}, func(r *Rank) {
		s := r.World().ShmemCreate(1<<16, 0)
		a := s.Malloc(100) // rounds to 104
		b := s.Malloc(8)
		c := s.Malloc(256)
		s.Free(b)
		d := s.Malloc(8) // first-fit reuse of b's hole
		offs := []int64{a, b, c, d}
		// Exchange rank 0's view and compare: Allgather via the heap itself.
		tbl := s.Malloc(8 * int64(len(offs)))
		for i, o := range offs {
			s.AtomicStore(0, tbl+int64(i*8), o)
		}
		s.Barrier()
		if s.Rank() != 0 {
			for i, o := range offs {
				if got := s.AtomicLoad(0, tbl+int64(i*8)); got != o {
					r.Abort(fmt.Errorf("offset %d: rank %d computed %d, rank 0 published %d", i, s.Rank(), o, got))
				}
			}
		}
		if d != b {
			r.Abort(fmt.Errorf("freed hole not reused: Malloc returned %d, want %d", d, b))
		}
		s.Barrier()
		s.FreeHeap()

		// On a sub-communicator that reverses each pair of world ranks, the
		// heap and window accessors report comm ranks, not world ranks.
		sub := r.World().Split(r.ID()/2, -r.ID())
		sh, w := sub.ShmemCreate(4096, 0), sub.WinCreate(nil)
		if sub.Rank() == r.ID() || sh.Rank() != sub.Rank() || w.Rank() != sub.Rank() ||
			sh.Size() != sub.Size() || sh.HeapBytes() != 4096 {
			r.Abort(fmt.Errorf("world rank %d, sub rank %d of %d: Shmem.Rank %d, Window.Rank %d, Shmem.Size %d, Shmem.HeapBytes %d",
				r.ID(), sub.Rank(), sub.Size(), sh.Rank(), w.Rank(), sh.Size(), sh.HeapBytes()))
		}
		w.Free()
		sh.FreeHeap()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestShmemPutGet moves ID-stamped patterns around the ring through the
// symmetric heap, intra-node.
func TestShmemPutGet(t *testing.T) {
	const n, sz = 4, 256
	err := Run(Config{NRanks: n}, func(r *Rank) {
		s := r.World().ShmemCreate(4096, 0)
		buf := s.Malloc(sz)
		me := s.Rank()
		right := (me + 1) % n
		s.Put(right, buf, bytes.Repeat([]byte{byte(me + 1)}, sz))
		s.Barrier()
		left := (me + n - 1) % n
		got := make([]byte, sz)
		s.Get(me, buf, got)
		for i, b := range got {
			if b != byte(left+1) {
				r.Abort(fmt.Errorf("local[%d] = %d, want %d", i, b, left+1))
			}
		}
		s.Get(right, buf, got)
		if got[0] != byte(me+1) {
			r.Abort(fmt.Errorf("Get from %d returned %d, want %d", right, got[0], me+1))
		}
		s.Barrier()
		s.FreeHeap()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestShmemAtomicAddConcurrent hammers one cell on rank 0 from every rank
// concurrently; hardware atomics must make the total exact (run under
// -race: remote applies and local adds hit the same cell).
func TestShmemAtomicAddConcurrent(t *testing.T) {
	const n, iters = 6, 2000
	err := Run(Config{NRanks: n}, func(r *Rank) {
		s := r.World().ShmemCreate(4096, 0)
		cell := s.Malloc(8)
		for i := 0; i < iters; i++ {
			s.AtomicAdd(0, cell, 1)
		}
		s.Barrier()
		if s.Rank() == 0 {
			if got := s.AtomicLoad(0, cell); got != n*iters {
				r.Abort(fmt.Errorf("counter = %d, want %d (lost updates)", got, n*iters))
			}
		}
		s.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestShmemFetchAddTickets draws tickets from a shared counter with
// AtomicFetchAdd on every rank: the union must be exactly 0..total-1.
func TestShmemFetchAddTickets(t *testing.T) {
	const n, per = 4, 500
	err := Run(Config{NRanks: n}, func(r *Rank) {
		s := r.World().ShmemCreate(1<<16, 0)
		ctr := s.Malloc(8)
		seen := s.Malloc(8 * n * per) // claim table: one cell per ticket
		for i := 0; i < per; i++ {
			tk := s.AtomicFetchAdd(0, ctr, 1)
			if tk < 0 || tk >= n*per {
				r.Abort(fmt.Errorf("ticket %d out of range", tk))
			}
			if prev := s.AtomicFetchAdd(0, seen+8*tk, 1); prev != 0 {
				r.Abort(fmt.Errorf("ticket %d drawn twice", tk))
			}
		}
		s.Barrier()
		if s.Rank() == 0 {
			for tk := int64(0); tk < n*per; tk++ {
				if got := s.AtomicLoad(0, seen+8*tk); got != 1 {
					r.Abort(fmt.Errorf("ticket %d claimed %d times", tk, got))
				}
			}
		}
		s.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestShmemCASLock builds a spinlock from AtomicCAS and increments a plain
// (non-atomic) cell under it from every rank: mutual exclusion must make
// the count exact.
func TestShmemCASLock(t *testing.T) {
	const n, iters = 4, 300
	err := Run(Config{NRanks: n}, func(r *Rank) {
		s := r.World().ShmemCreate(4096, 0)
		lock := s.Malloc(8)
		count := s.Malloc(8)
		me := int64(s.Rank() + 1)
		for i := 0; i < iters; i++ {
			for s.AtomicCAS(0, lock, 0, me) != 0 {
			}
			v := s.AtomicLoad(0, count)
			s.AtomicStore(0, count, v+1)
			if got := s.AtomicCAS(0, lock, me, 0); got != me {
				r.Abort(fmt.Errorf("lock stolen: holder cell = %d, want %d", got, me))
			}
		}
		s.Barrier()
		if s.Rank() == 0 {
			if got := s.AtomicLoad(0, count); got != n*iters {
				r.Abort(fmt.Errorf("count = %d, want %d (exclusion violated)", got, n*iters))
			}
		}
		s.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestShmemRemoteOps runs every addressed operation across the
// inter-node links (one rank per node) and checks values end to end.
func TestShmemRemoteOps(t *testing.T) {
	cfg := twoNodeCfg()
	cfg.Metrics = NewMetrics()
	err := Run(cfg, func(r *Rank) {
		s := r.World().ShmemCreate(4096, 0)
		blob := s.Malloc(64)
		cell := s.Malloc(8)
		if s.Rank() == 0 {
			s.Put(1, blob, bytes.Repeat([]byte{0x5A}, 64))
			s.AtomicStore(1, cell, 40)
			s.AtomicAdd(1, cell, 1)
			if old := s.AtomicFetchAdd(1, cell, 1); old != 41 {
				r.Abort(fmt.Errorf("remote fetch-add old = %d, want 41", old))
			}
			if old := s.AtomicCAS(1, cell, 42, 7); old != 42 {
				r.Abort(fmt.Errorf("remote cas old = %d, want 42", old))
			}
			if got := s.AtomicLoad(1, cell); got != 7 {
				r.Abort(fmt.Errorf("remote load = %d, want 7", got))
			}
			s.Quiet()
		}
		s.Barrier()
		if s.Rank() == 1 {
			own := make([]byte, 64)
			s.Get(1, blob, own)
			if !bytes.Equal(own, bytes.Repeat([]byte{0x5A}, 64)) {
				r.Abort(fmt.Errorf("remote put payload missing"))
			}
			if got := s.AtomicLoad(1, cell); got != 7 {
				r.Abort(fmt.Errorf("cell = %d after remote ops, want 7", got))
			}
			// Remote Get back from rank 0's (zeroed) region.
			got := make([]byte, 64)
			s.Get(0, blob, got)
			for _, b := range got {
				if b != 0 {
					r.Abort(fmt.Errorf("remote get returned dirty bytes"))
				}
			}
		}
		s.Barrier()
		s.FreeHeap()
	})
	if err != nil {
		t.Fatal(err)
	}
	var packets int64
	for _, c := range cfg.Metrics.Snapshot().Counters {
		if c.Name == "pure_rma_remote_packets_total" {
			packets = c.Value
		}
	}
	if packets == 0 {
		t.Fatal("cross-node shmem ops recorded zero remote packets")
	}
}

// TestShmemRemoteFrameCounts pins what each remote PGAS operation costs on
// the wire, as RMA frames per rank on two one-rank nodes: a mailbox send is
// one delivery frame plus the owner's one reply, an AtomicAdd is one frame
// with no reply, and a FetchAdd is one frame plus one reply.
func TestShmemRemoteFrameCounts(t *testing.T) {
	for _, tc := range []struct {
		name           string
		body           func(r *Rank, s *Shmem)
		origin, target int64
	}{
		{"mailbox-send", func(r *Rank, s *Shmem) {
			const sends = 20
			mb := s.NewMailbox(1, sends, 16)
			if s.Rank() == 0 {
				for i := 0; i < sends; i++ {
					mb.Send([]byte(fmt.Sprintf("m%d", i)))
				}
				return
			}
			dst := make([]byte, 16)
			for i := 0; i < sends; i++ {
				if m := dst[:mb.Recv(dst)]; string(m) != fmt.Sprintf("m%d", i) {
					r.Abort(fmt.Errorf("message %d arrived as %q", i, m))
				}
			}
		}, 20, 20},
		{"atomic-add", func(r *Rank, s *Shmem) {
			cell := s.Malloc(8)
			if s.Rank() == 0 {
				for i := 0; i < 64; i++ {
					s.AtomicAdd(1, cell, 1)
				}
				s.Quiet()
			}
			s.Barrier()
			if s.Rank() == 1 && s.AtomicLoad(1, cell) != 64 {
				r.Abort(fmt.Errorf("cell = %d after 64 remote adds", s.AtomicLoad(1, cell)))
			}
		}, 64, 0},
		{"fetch-add", func(r *Rank, s *Shmem) {
			cell := s.Malloc(8)
			if s.Rank() == 0 {
				if old := s.AtomicFetchAdd(1, cell, 5); old != 0 {
					r.Abort(fmt.Errorf("remote fetch-add old = %d, want 0", old))
				}
			}
		}, 1, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := RunWithReport(twoNodeCfg(), func(r *Rank) {
				s := r.World().ShmemCreate(4096, 0)
				tc.body(r, s)
				s.Barrier()
				s.FreeHeap()
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := [2]int64{rep.PerRank[0].RmaRemotePackets, rep.PerRank[1].RmaRemotePackets}; got != [2]int64{tc.origin, tc.target} {
				t.Fatalf("RMA frames (origin, target) = %v, want (%d, %d)", got, tc.origin, tc.target)
			}
		})
	}
}

// TestShmemMailbox drives the actor layer intra-node: every rank sends a
// numbered stream to rank 0's mailbox, and the owner checks zero loss and
// per-sender FIFO.
func TestShmemMailbox(t *testing.T) {
	const n, per = 4, 200
	err := Run(Config{NRanks: n}, func(r *Rank) {
		s := r.World().ShmemCreate(1<<16, 0)
		mb := s.NewMailbox(0, 8, 32)
		if s.Rank() == 0 {
			next := make([]int, n)
			dst := make([]byte, 32)
			for got := 0; got < (n-1)*per; got++ {
				m := dst[:mb.Recv(dst)]
				var from, i int
				if _, err := fmt.Sscanf(string(m), "%d:%d", &from, &i); err != nil {
					r.Abort(fmt.Errorf("garbled message %q: %v", m, err))
				}
				if i != next[from] {
					r.Abort(fmt.Errorf("sender %d out of order: got %d, want %d", from, i, next[from]))
				}
				next[from]++
			}
			if _, ok := mb.Poll(dst); ok {
				r.Abort(fmt.Errorf("mailbox not empty after all streams drained"))
			}
		} else {
			for i := 0; i < per; i++ {
				mb.Send([]byte(fmt.Sprintf("%d:%d", s.Rank(), i)))
			}
		}
		s.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestShmemMailboxRemote runs a mailbox whose sender is on another node:
// each message crosses the link in one delivery frame, the owner runs the
// ring's producer steps on its own region and replies, and per-sender FIFO
// must hold through a capacity-4 ring (a "full" reply makes Send retry).
func TestShmemMailboxRemote(t *testing.T) {
	const per = 50
	err := Run(twoNodeCfg(), func(r *Rank) {
		s := r.World().ShmemCreate(1<<14, 0)
		mb := s.NewMailbox(0, 4, 16)
		if s.Rank() == 0 {
			dst := make([]byte, 16)
			for i := 0; i < per; i++ {
				m := dst[:mb.Recv(dst)]
				var got int
				if _, err := fmt.Sscanf(string(m), "m%d", &got); err != nil || got != i {
					r.Abort(fmt.Errorf("message %d arrived as %q", i, m))
				}
			}
		} else {
			for i := 0; i < per; i++ {
				mb.Send([]byte(fmt.Sprintf("m%d", i)))
			}
		}
		s.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestShmemSelect parks one rank on two mailboxes and checks Select wakes
// for whichever one a message lands in.
func TestShmemSelect(t *testing.T) {
	const rounds = 30
	err := Run(Config{NRanks: 3}, func(r *Rank) {
		s := r.World().ShmemCreate(1<<14, 0)
		mbA := s.NewMailbox(0, 4, 16)
		mbB := s.NewMailbox(0, 4, 16)
		if s.Rank() == 0 {
			gotA, gotB := 0, 0
			dst := make([]byte, 16)
			for gotA+gotB < 2*rounds {
				switch i := s.Select(mbA, mbB); i {
				case 0:
					if n, ok := mbA.Poll(dst); !ok || string(dst[:n]) != "from-a" {
						r.Abort(fmt.Errorf("select said A ready but poll got %v", ok))
					}
					gotA++
				case 1:
					if n, ok := mbB.Poll(dst); !ok || string(dst[:n]) != "from-b" {
						r.Abort(fmt.Errorf("select said B ready but poll got %v", ok))
					}
					gotB++
				default:
					r.Abort(fmt.Errorf("select returned %d", i))
				}
			}
			if gotA != rounds || gotB != rounds {
				r.Abort(fmt.Errorf("drained %d/%d, want %d each", gotA, gotB, rounds))
			}
		} else if s.Rank() == 1 {
			for i := 0; i < rounds; i++ {
				mbA.Send([]byte("from-a"))
			}
		} else {
			for i := 0; i < rounds; i++ {
				mbB.Send([]byte("from-b"))
			}
		}
		s.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestShmemMailboxBackpressure fills a tiny ring with a slow consumer:
// blocking Send must wait for recycled slots, never drop or wedge.
func TestShmemMailboxBackpressure(t *testing.T) {
	const per = 100
	err := Run(Config{NRanks: 2}, func(r *Rank) {
		s := r.World().ShmemCreate(4096, 0)
		mb := s.NewMailbox(0, 2, 8) // capacity 2: constant backpressure
		if s.Rank() == 0 {
			dst := make([]byte, 8)
			for i := 0; i < per; i++ {
				m := dst[:mb.Recv(dst)]
				if string(m) != fmt.Sprintf("%03d", i) {
					r.Abort(fmt.Errorf("message %d arrived as %q", i, m))
				}
			}
		} else {
			for i := 0; i < per; i++ {
				mb.Send([]byte(fmt.Sprintf("%03d", i)))
			}
		}
		s.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}
