package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/ssw"
)

func spinWait(cond func() bool) { (&ssw.Waiter{}).Wait(cond) }

func TestRunExecutesEveryChunkExactlyOnce(t *testing.T) {
	s := New(Config{Slots: 4})
	const nchunks = 100
	var counts [nchunks]atomic.Int32
	stats := s.Run(0, nchunks, func(start, end int64, _ any) {
		for c := start; c < end; c++ {
			counts[c].Add(1)
		}
	}, nil, spinWait)
	for c := range counts {
		if got := counts[c].Load(); got != 1 {
			t.Fatalf("chunk %d executed %d times", c, got)
		}
	}
	if stats.OwnerChunks != nchunks || stats.StolenChunks != 0 {
		t.Fatalf("stats = %+v, want all owner-executed (no thieves active)", stats)
	}
}

func TestRunZeroChunks(t *testing.T) {
	s := New(Config{Slots: 2})
	stats := s.Run(0, 0, func(int64, int64, any) { t.Fatal("body called") }, nil, spinWait)
	if stats.OwnerChunks != 0 || stats.StolenChunks != 0 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestRunPassesExtraArgs(t *testing.T) {
	s := New(Config{Slots: 2})
	type args struct{ v int }
	got := 0
	s.Run(0, 1, func(_, _ int64, extra any) { got = extra.(*args).v }, &args{v: 42}, spinWait)
	if got != 42 {
		t.Fatalf("extra = %d, want 42", got)
	}
}

func TestThievesStealAndAllChunksRun(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	s := New(Config{Slots: 4})
	const nchunks = 2000
	var counts [nchunks]atomic.Int32
	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Three thief ranks spin-stealing, as if blocked on a recv.
	for slot := 1; slot < 4; slot++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			th := s.NewThief(slot)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if !th.TrySteal() {
					runtime.Gosched()
				}
			}
		}(slot)
	}
	stats := s.Run(0, nchunks, func(start, end int64, _ any) {
		for c := start; c < end; c++ {
			counts[c].Add(1)
			runtime.Gosched() // widen the steal window
		}
	}, nil, spinWait)
	close(stop)
	wg.Wait()
	for c := range counts {
		if got := counts[c].Load(); got != 1 {
			t.Fatalf("chunk %d executed %d times", c, got)
		}
	}
	if stats.OwnerChunks+stats.StolenChunks != nchunks {
		t.Fatalf("stats don't cover all chunks: %+v", stats)
	}
	t.Logf("owner=%d stolen=%d", stats.OwnerChunks, stats.StolenChunks)
}

func TestGuidedSelfSchedulingCoversAllChunks(t *testing.T) {
	s := New(Config{Slots: 4, ChunkMode: GuidedSelfScheduling})
	const nchunks = 513
	var counts [nchunks]atomic.Int32
	s.Run(0, nchunks, func(start, end int64, _ any) {
		for c := start; c < end; c++ {
			counts[c].Add(1)
		}
	}, nil, spinWait)
	for c := range counts {
		if got := counts[c].Load(); got != 1 {
			t.Fatalf("chunk %d executed %d times", c, got)
		}
	}
}

// Property: for every (slots, chunkmode, nchunks), Run executes each chunk
// exactly once even with concurrent thieves.
func TestExactlyOnceProperty(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	f := func(slotsU, modeU uint8, nchunksU uint16) bool {
		slots := int(slotsU%6) + 2
		mode := SingleChunk
		if modeU%2 == 1 {
			mode = GuidedSelfScheduling
		}
		nchunks := int64(nchunksU%512) + 1
		s := New(Config{Slots: slots, ChunkMode: mode})
		counts := make([]atomic.Int32, nchunks)
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for slot := 1; slot < slots; slot++ {
			wg.Add(1)
			go func(slot int) {
				defer wg.Done()
				th := s.NewThief(slot)
				for {
					select {
					case <-stop:
						return
					default:
					}
					if !th.TrySteal() {
						runtime.Gosched()
					}
				}
			}(slot)
		}
		s.Run(0, nchunks, func(start, end int64, _ any) {
			for c := start; c < end; c++ {
				counts[c].Add(1)
			}
		}, nil, spinWait)
		close(stop)
		wg.Wait()
		for c := range counts {
			if counts[c].Load() != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestStealPoliciesCoverAllChunks(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	socketOf := []int{0, 0, 1, 1}
	for _, pol := range []StealPolicy{RandomSteal, NUMAAwareSteal, StickySteal} {
		s := New(Config{Slots: 4, Policy: pol, SocketOf: socketOf})
		const nchunks = 500
		counts := make([]atomic.Int32, nchunks)
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for slot := 1; slot < 4; slot++ {
			wg.Add(1)
			go func(slot int) {
				defer wg.Done()
				th := s.NewThief(slot)
				for {
					select {
					case <-stop:
						return
					default:
					}
					if !th.TrySteal() {
						runtime.Gosched()
					}
				}
			}(slot)
		}
		s.Run(0, nchunks, func(start, end int64, _ any) {
			for c := start; c < end; c++ {
				counts[c].Add(1)
				runtime.Gosched()
			}
		}, nil, spinWait)
		close(stop)
		wg.Wait()
		for c := range counts {
			if counts[c].Load() != 1 {
				t.Fatalf("policy %d: chunk %d ran %d times", pol, c, counts[c].Load())
			}
		}
	}
}

func TestTrySteaWithNoActiveTasks(t *testing.T) {
	s := New(Config{Slots: 4})
	th := s.NewThief(1)
	for i := 0; i < 100; i++ {
		if th.TrySteal() {
			t.Fatal("stole from empty scheduler")
		}
	}
	if th.Attempts != 100 || th.Stolen != 0 {
		t.Fatalf("stats = %d/%d", th.Attempts, th.Stolen)
	}
}

func TestTryStealSingleSlot(t *testing.T) {
	s := New(Config{Slots: 1})
	th := s.NewThief(0)
	if th.TrySteal() {
		t.Fatal("single-slot scheduler cannot steal")
	}
}

func TestHelpersDrainTask(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	// 2 ranks + 2 helper slots.
	s := New(Config{Slots: 4})
	stop := make(chan struct{})
	wg := s.Helpers(2, 2, stop)
	const nchunks = 1000
	var counts [nchunks]atomic.Int32
	stats := s.Run(0, nchunks, func(start, end int64, _ any) {
		for c := start; c < end; c++ {
			counts[c].Add(1)
			runtime.Gosched()
		}
	}, nil, spinWait)
	close(stop)
	wg.Wait()
	for c := range counts {
		if counts[c].Load() != 1 {
			t.Fatalf("chunk %d ran %d times", c, counts[c].Load())
		}
	}
	if stats.OwnerChunks+stats.StolenChunks != nchunks {
		t.Fatalf("bad stats %+v", stats)
	}
}

func TestNewPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("zero slots", func() { New(Config{Slots: 0}) })
	mustPanic("socket mismatch", func() { New(Config{Slots: 2, SocketOf: []int{0}}) })
}

func TestAlignedIdxRangePartition(t *testing.T) {
	// 1000 float64s (8 B) -> 125 cachelines over 10 chunks.
	const n, chunks = 1000, 10
	prev := int64(0)
	for c := int64(0); c < chunks; c++ {
		lo, hi := AlignedIdxRange(n, 8, c, c+1, chunks)
		if lo != prev {
			t.Fatalf("chunk %d: lo=%d, want %d", c, lo, prev)
		}
		if lo%8 != 0 && lo != n {
			t.Fatalf("chunk %d: lo=%d not cacheline aligned", c, lo)
		}
		prev = hi
	}
	if prev != n {
		t.Fatalf("chunks cover %d elements, want %d", prev, n)
	}
}

// Property: AlignedIdxRange partitions [0, n) exactly for any shape, and
// every boundary except the last is cacheline-aligned.
func TestAlignedIdxRangeProperty(t *testing.T) {
	f := func(nU uint16, elemPow uint8, chunksU uint8) bool {
		n := int64(nU)
		elemSize := 1 << (elemPow % 4) // 1,2,4,8
		chunks := int64(chunksU%32) + 1
		perLine := int64(64 / elemSize)
		prev := int64(0)
		for c := int64(0); c < chunks; c++ {
			lo, hi := AlignedIdxRange(n, elemSize, c, c+1, chunks)
			if n == 0 {
				if lo != 0 || hi != 0 {
					return false
				}
				continue
			}
			if lo != prev || lo > hi {
				return false
			}
			if lo != n && lo%perLine != 0 {
				return false
			}
			prev = hi
		}
		return n == 0 || prev == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestAlignedIdxRangeMultiChunkGrab(t *testing.T) {
	// Grabbing chunks [2,5) must equal the union of [2,3)+[3,4)+[4,5).
	const n, chunks = 777, 7
	lo, hi := AlignedIdxRange(n, 8, 2, 5, chunks)
	lo2, _ := AlignedIdxRange(n, 8, 2, 3, chunks)
	_, hi2 := AlignedIdxRange(n, 8, 4, 5, chunks)
	if lo != lo2 || hi != hi2 {
		t.Fatalf("range grab mismatch: [%d,%d) vs [%d,%d)", lo, hi, lo2, hi2)
	}
}

func TestAlignedIdxRangeDegenerate(t *testing.T) {
	if lo, hi := AlignedIdxRange(10, 8, 5, 6, 3); lo != 0 || hi != 0 {
		t.Fatalf("startChunk beyond total: [%d,%d)", lo, hi)
	}
	if lo, hi := AlignedIdxRange(0, 8, 0, 1, 3); lo != 0 || hi != 0 {
		t.Fatalf("zero elements: [%d,%d)", lo, hi)
	}
	if lo, hi := AlignedIdxRange(10, 8, 0, 1, 0); lo != 0 || hi != 0 {
		t.Fatalf("zero chunks: [%d,%d)", lo, hi)
	}
	// Huge element size still yields at least 1 element per line.
	if lo, hi := AlignedIdxRange(4, 128, 0, 4, 4); lo != 0 || hi != 4 {
		t.Fatalf("big elems: [%d,%d)", lo, hi)
	}
}

// Ablation: steal policies under a long imbalanced task.
func BenchmarkAblationStealPolicies(b *testing.B) {
	for _, cfg := range []struct {
		name string
		pol  StealPolicy
		mode ChunkMode
	}{
		{"single-random", RandomSteal, SingleChunk},
		{"guided-random", RandomSteal, GuidedSelfScheduling},
		{"single-numa", NUMAAwareSteal, SingleChunk},
		{"single-sticky", StickySteal, SingleChunk},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			s := New(Config{Slots: 4, Policy: cfg.pol, ChunkMode: cfg.mode, SocketOf: []int{0, 0, 1, 1}})
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for slot := 1; slot < 4; slot++ {
				wg.Add(1)
				go func(slot int) {
					defer wg.Done()
					th := s.NewThief(slot)
					for {
						select {
						case <-stop:
							return
						default:
						}
						if !th.TrySteal() {
							runtime.Gosched()
						}
					}
				}(slot)
			}
			var sink atomic.Int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Run(0, 256, func(start, end int64, _ any) {
					x := int64(0)
					for c := start; c < end; c++ {
						for k := int64(0); k < 200; k++ {
							x += k * c
						}
					}
					sink.Add(x)
				}, nil, spinWait)
			}
			b.StopTimer()
			close(stop)
			wg.Wait()
		})
	}
}
