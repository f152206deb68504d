package collective

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/ssw"
)

func spinWait(cond func() bool) { (&ssw.Waiter{}).Wait(cond) }

func f64bytes(vals ...float64) []byte {
	b := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(b[i*8:], math.Float64bits(v))
	}
	return b
}

func bytesToF64(b []byte) []float64 {
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out
}

func i64bytes(vals ...int64) []byte {
	b := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(b[i*8:], uint64(v))
	}
	return b
}

func TestAccumulateFloat64Ops(t *testing.T) {
	cases := []struct {
		op   Op
		want []float64
	}{
		{OpSum, []float64{5, -1}},
		{OpProd, []float64{6, -6}},
		{OpMin, []float64{2, -3}},
		{OpMax, []float64{3, 2}},
	}
	for _, c := range cases {
		dst := f64bytes(2, 2)
		src := f64bytes(3, -3)
		Accumulate(dst, src, c.op, Float64)
		got := bytesToF64(dst)
		if got[0] != c.want[0] || got[1] != c.want[1] {
			t.Errorf("%v: got %v, want %v", c.op, got, c.want)
		}
	}
}

func TestAccumulateInt64AndInt32(t *testing.T) {
	dst := i64bytes(10, -5)
	Accumulate(dst, i64bytes(3, -7), OpSum, Int64)
	if got := int64(binary.LittleEndian.Uint64(dst)); got != 13 {
		t.Errorf("int64 sum = %d, want 13", got)
	}
	if got := int64(binary.LittleEndian.Uint64(dst[8:])); got != -12 {
		t.Errorf("int64 sum = %d, want -12", got)
	}

	d32 := make([]byte, 8)
	neg4 := int32(-4)
	binary.LittleEndian.PutUint32(d32, uint32(neg4))
	binary.LittleEndian.PutUint32(d32[4:], 7)
	s32 := make([]byte, 8)
	binary.LittleEndian.PutUint32(s32, 10)
	neg2 := int32(-2)
	binary.LittleEndian.PutUint32(s32[4:], uint32(neg2))
	Accumulate(d32, s32, OpMax, Int32)
	if got := int32(binary.LittleEndian.Uint32(d32)); got != 10 {
		t.Errorf("int32 max = %d, want 10", got)
	}
	if got := int32(binary.LittleEndian.Uint32(d32[4:])); got != 7 {
		t.Errorf("int32 max = %d, want 7", got)
	}
}

func TestAccumulateFloat32AndUint8(t *testing.T) {
	d := make([]byte, 4)
	binary.LittleEndian.PutUint32(d, math.Float32bits(1.5))
	s := make([]byte, 4)
	binary.LittleEndian.PutUint32(s, math.Float32bits(2.5))
	Accumulate(d, s, OpSum, Float32)
	if got := math.Float32frombits(binary.LittleEndian.Uint32(d)); got != 4.0 {
		t.Errorf("float32 sum = %v, want 4", got)
	}
	Accumulate(d, s, OpMin, Float32)
	if got := math.Float32frombits(binary.LittleEndian.Uint32(d)); got != 2.5 {
		t.Errorf("float32 min = %v, want 2.5", got)
	}
	Accumulate(d, s, OpProd, Float32)
	if got := math.Float32frombits(binary.LittleEndian.Uint32(d)); got != 6.25 {
		t.Errorf("float32 prod = %v, want 6.25", got)
	}
	Accumulate(d, s, OpMax, Float32)
	if got := math.Float32frombits(binary.LittleEndian.Uint32(d)); got != 6.25 {
		t.Errorf("float32 max = %v, want 6.25", got)
	}

	du := []byte{1, 200, 3, 4}
	Accumulate(du, []byte{2, 100, 7, 1}, OpMax, Uint8)
	if du[0] != 2 || du[1] != 200 || du[2] != 7 || du[3] != 4 {
		t.Errorf("uint8 max = %v", du)
	}
	Accumulate(du, []byte{1, 1, 1, 1}, OpSum, Uint8)
	if du[0] != 3 || du[3] != 5 {
		t.Errorf("uint8 sum = %v", du)
	}
	Accumulate(du, []byte{2, 2, 2, 2}, OpProd, Uint8)
	if du[0] != 6 {
		t.Errorf("uint8 prod = %v", du)
	}
	Accumulate(du, []byte{0, 0, 0, 0}, OpMin, Uint8)
	if du[0] != 0 {
		t.Errorf("uint8 min = %v", du)
	}
}

func TestAccumulatePanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("length mismatch", func() { Accumulate(make([]byte, 8), make([]byte, 16), OpSum, Float64) })
	mustPanic("bad multiple", func() { Accumulate(make([]byte, 7), make([]byte, 7), OpSum, Float64) })
}

func TestDTypeSizeAndStrings(t *testing.T) {
	if Float64.Size() != 8 || Int32.Size() != 4 || Uint8.Size() != 1 || Float32.Size() != 4 || Int64.Size() != 8 {
		t.Error("DType.Size wrong")
	}
	if OpSum.String() != "sum" || OpProd.String() != "prod" || OpMin.String() != "min" || OpMax.String() != "max" {
		t.Error("Op.String wrong")
	}
	if Float64.String() != "float64" || Uint8.String() != "uint8" {
		t.Error("DType.String wrong")
	}
}

// Property: Accumulate(OpSum) over float64 equals the reference fold within
// floating-point equality (identical operation order).
func TestAccumulateSumMatchesReference(t *testing.T) {
	f := func(a, b []float64) bool {
		n := min(len(a), len(b))
		a, b = a[:n], b[:n]
		dst := f64bytes(a...)
		Accumulate(dst, f64bytes(b...), OpSum, Float64)
		got := bytesToF64(dst)
		for i := 0; i < n; i++ {
			want := a[i] + b[i]
			if got[i] != want && !(math.IsNaN(got[i]) && math.IsNaN(want)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// runCollective runs body(tid) on n goroutines and waits for all.
func runCollective(n int, body func(tid int)) {
	var wg sync.WaitGroup
	for tid := 0; tid < n; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			body(tid)
		}(tid)
	}
	wg.Wait()
}

func TestSPTDBarrier(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const n = 8
	s := NewSPTD(n, 64)
	var phase [n]int
	for round := 0; round < 50; round++ {
		runCollective(n, func(tid int) {
			phase[tid]++
			s.Barrier(tid, spinWait)
			// After the barrier every thread must observe every phase count
			// at the new value.
			for t2 := 0; t2 < n; t2++ {
				if phase[t2] != round+1 {
					t.Errorf("round %d tid %d: phase[%d] = %d", round, tid, t2, phase[t2])
				}
			}
			s.Barrier(tid, spinWait) // protect phase writes of next round
		})
	}
}

func TestSPTDBarrierBridged(t *testing.T) {
	const n = 4
	s := NewSPTD(n, 8)
	bridgeCalls := 0
	runCollective(n, func(tid int) {
		s.BarrierBridged(tid, func() { bridgeCalls++ }, spinWait)
	})
	if bridgeCalls != 1 {
		t.Fatalf("bridge called %d times, want 1 (leader only)", bridgeCalls)
	}
}

func TestSPTDAllreduceSum(t *testing.T) {
	const n = 6
	s := NewSPTD(n, 2048)
	outs := make([][]byte, n)
	for round := 0; round < 20; round++ {
		runCollective(n, func(tid int) {
			in := f64bytes(float64(tid+1), float64(round))
			out := make([]byte, len(in))
			s.Allreduce(tid, in, out, OpSum, Float64, nil, spinWait)
			outs[tid] = out
		})
		want := []float64{21, float64(round * n)} // 1+2+..+6 = 21
		for tid := 0; tid < n; tid++ {
			got := bytesToF64(outs[tid])
			if got[0] != want[0] || got[1] != want[1] {
				t.Fatalf("round %d tid %d: got %v, want %v", round, tid, got, want)
			}
		}
	}
}

func TestSPTDAllreduceBridge(t *testing.T) {
	const n = 3
	s := NewSPTD(n, 64)
	outs := make([][]byte, n)
	runCollective(n, func(tid int) {
		in := f64bytes(1)
		out := make([]byte, 8)
		s.Allreduce(tid, in, out, OpSum, Float64, func(acc []byte) {
			// Pretend another node contributed 10.
			v := math.Float64frombits(binary.LittleEndian.Uint64(acc))
			binary.LittleEndian.PutUint64(acc, math.Float64bits(v+10))
		}, spinWait)
		outs[tid] = out
	})
	for tid := 0; tid < n; tid++ {
		if got := bytesToF64(outs[tid])[0]; got != 13 {
			t.Fatalf("tid %d: got %v, want 13", tid, got)
		}
	}
}

func TestSPTDReduceToEachRoot(t *testing.T) {
	const n = 5
	s := NewSPTD(n, 64)
	for root := 0; root < n; root++ {
		var rootOut []byte
		runCollective(n, func(tid int) {
			in := i64bytes(int64(tid + 1))
			out := make([]byte, 8)
			s.Reduce(tid, root, in, out, OpSum, Int64, nil, spinWait)
			if tid == root {
				rootOut = out
			}
		})
		if got := int64(binary.LittleEndian.Uint64(rootOut)); got != 15 {
			t.Fatalf("root %d: got %d, want 15", root, got)
		}
	}
}

func TestSPTDBroadcastFromEachRoot(t *testing.T) {
	const n = 5
	s := NewSPTD(n, 64)
	for root := 0; root < n; root++ {
		bufs := make([][]byte, n)
		runCollective(n, func(tid int) {
			buf := make([]byte, 8)
			if tid == root {
				binary.LittleEndian.PutUint64(buf, uint64(1000+root))
			}
			s.Broadcast(tid, root, buf, nil, spinWait)
			bufs[tid] = buf
		})
		for tid := 0; tid < n; tid++ {
			if got := binary.LittleEndian.Uint64(bufs[tid]); got != uint64(1000+root) {
				t.Fatalf("root %d tid %d: got %d", root, tid, got)
			}
		}
	}
}

func TestSPTDBroadcastBridge(t *testing.T) {
	const n = 2
	s := NewSPTD(n, 8)
	calls := 0
	runCollective(n, func(tid int) {
		buf := make([]byte, 8)
		s.Broadcast(tid, 0, buf, func([]byte) { calls++ }, spinWait)
	})
	if calls != 1 {
		t.Fatalf("bridge called %d times, want 1", calls)
	}
}

func TestSPTDMixedCollectiveSequence(t *testing.T) {
	// Exercise buffer-reuse safety across alternating collective kinds.
	const n = 4
	s := NewSPTD(n, 256)
	for round := 0; round < 30; round++ {
		results := make([]int64, n)
		runCollective(n, func(tid int) {
			out := make([]byte, 8)
			s.Allreduce(tid, i64bytes(1), out, OpSum, Int64, nil, spinWait)
			s.Barrier(tid, spinWait)
			buf := make([]byte, 8)
			root := round % n
			if tid == root {
				copy(buf, out)
			}
			s.Broadcast(tid, root, buf, nil, spinWait)
			results[tid] = int64(binary.LittleEndian.Uint64(buf))
		})
		for tid, v := range results {
			if v != int64(n) {
				t.Fatalf("round %d tid %d: got %d, want %d", round, tid, v, n)
			}
		}
	}
}

func TestSPTDPanicsOnOversizedPayload(t *testing.T) {
	s := NewSPTD(2, 8)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for oversized payload")
		}
	}()
	s.Allreduce(0, make([]byte, 16), make([]byte, 16), OpSum, Uint8, nil, spinWait)
}

func TestNewSPTDPanicsOnZeroThreads(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for zero threads")
		}
	}()
	NewSPTD(0, 8)
}

func TestPartitionedReducerChunkRange(t *testing.T) {
	p := NewPartitionedReducer(4, 1<<20)
	// 4096 bytes = 64 cachelines over 4 threads -> 16 lines = 1024 B each.
	total := 0
	prev := 0
	for tid := 0; tid < 4; tid++ {
		lo, hi := p.ChunkRange(tid, 4096)
		if lo != prev {
			t.Fatalf("tid %d: lo = %d, want %d (contiguous)", tid, lo, prev)
		}
		if (hi-lo)%64 != 0 {
			t.Fatalf("tid %d: chunk %d not a cacheline multiple", tid, hi-lo)
		}
		total += hi - lo
		prev = hi
	}
	if total != 4096 {
		t.Fatalf("chunks cover %d bytes, want 4096", total)
	}
}

// Property: ChunkRange always partitions [0, n) exactly, in cacheline
// multiples except possibly the tail.
func TestChunkRangePartitionProperty(t *testing.T) {
	f := func(nthreadsU uint8, nU uint16) bool {
		nt := int(nthreadsU%64) + 1
		n := int(nU)
		p := NewPartitionedReducer(nt, n+1)
		prev := 0
		for tid := 0; tid < nt; tid++ {
			lo, hi := p.ChunkRange(tid, n)
			if lo > hi || lo != min(prev, n) {
				return false
			}
			prev = hi
		}
		return prev >= n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionedReducerAllreduce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const n = 8
	const elems = 1024 // 8 KiB payload
	p := NewPartitionedReducer(n, elems*8)
	for round := 0; round < 5; round++ {
		outs := make([][]float64, n)
		runCollective(n, func(tid int) {
			vals := make([]float64, elems)
			for i := range vals {
				vals[i] = float64(tid + i + round)
			}
			in := f64bytes(vals...)
			out := make([]byte, len(in))
			p.Allreduce(tid, in, out, OpSum, Float64, nil, spinWait)
			outs[tid] = bytesToF64(out)
		})
		for tid := 0; tid < n; tid++ {
			for i := 0; i < elems; i += 97 {
				want := 0.0
				for t2 := 0; t2 < n; t2++ {
					want += float64(t2 + i + round)
				}
				if outs[tid][i] != want {
					t.Fatalf("round %d tid %d elem %d: got %v, want %v", round, tid, i, outs[tid][i], want)
				}
			}
		}
	}
}

func TestPartitionedReducerMoreThreadsThanLines(t *testing.T) {
	// 64 B payload = 1 cacheline but 8 threads: most threads have no fold work.
	const n = 8
	p := NewPartitionedReducer(n, 64)
	outs := make([][]float64, n)
	runCollective(n, func(tid int) {
		in := f64bytes(1, 2, 3, 4, 5, 6, 7, 8)
		out := make([]byte, 64)
		p.Allreduce(tid, in, out, OpMax, Float64, nil, spinWait)
		outs[tid] = bytesToF64(out)
	})
	for tid := 0; tid < n; tid++ {
		if outs[tid][7] != 8 || outs[tid][0] != 1 {
			t.Fatalf("tid %d: got %v", tid, outs[tid])
		}
	}
}

func TestPartitionedReducerBridge(t *testing.T) {
	const n = 2
	p := NewPartitionedReducer(n, 64)
	outs := make([][]float64, n)
	runCollective(n, func(tid int) {
		in := f64bytes(1)
		out := make([]byte, 8)
		p.Allreduce(tid, in, out, OpSum, Float64, func(acc []byte) {
			v := math.Float64frombits(binary.LittleEndian.Uint64(acc))
			binary.LittleEndian.PutUint64(acc, math.Float64bits(v*100))
		}, spinWait)
		outs[tid] = bytesToF64(out)
	})
	for tid := 0; tid < n; tid++ {
		if outs[tid][0] != 200 {
			t.Fatalf("tid %d: got %v, want 200", tid, outs[tid][0])
		}
	}
}

func TestPartitionedReducerPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("bad ctor", func() { NewPartitionedReducer(0, 0) })
	p := NewPartitionedReducer(1, 8)
	mustPanic("oversized", func() { p.Allreduce(0, make([]byte, 16), make([]byte, 16), OpSum, Uint8, nil, spinWait) })
	mustPanic("short out", func() { p.Allreduce(0, make([]byte, 8), make([]byte, 4), OpSum, Uint8, nil, spinWait) })
}

func TestCounterBarrier(t *testing.T) {
	const n = 6
	b := NewCounterBarrier(n)
	var phase [n]int
	for round := 0; round < 20; round++ {
		runCollective(n, func(tid int) {
			phase[tid]++
			b.Wait(tid, spinWait)
			for t2 := 0; t2 < n; t2++ {
				if phase[t2] != round+1 {
					t.Errorf("round %d: phase[%d] = %d", round, t2, phase[t2])
				}
			}
			b.Wait(tid, spinWait)
		})
	}
}

func TestNewCounterBarrierPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewCounterBarrier(0)
}

// benchThreads are the thread counts of the collective microbenchmarks.  The
// 2-thread rows fit a 2-vCPU host, so they time the protocol; the 4-thread
// rows oversubscribe such a host and mostly time the waiters' yields.
var benchThreads = []int{2, 4}

// benchCollective runs body b.N times on each of n goroutines, each with its
// own persistent waiter, as ranks do.  The waiter has no stealer, so the
// default spin budget runs out in less than one cacheline hand-off and every
// wait would yield.  When every goroutine has a P the budget is raised to the
// pure spin of the benchmark's raw collective rungs; an oversubscribed row
// keeps the default, or a spinner would hold the P its peer needs.
func benchCollective(b *testing.B, n int, body func(tid int, wait WaitFunc)) {
	budget := 0
	if n <= runtime.GOMAXPROCS(0) {
		budget = 1 << 16
	}
	var wg sync.WaitGroup
	b.ResetTimer()
	for tid := 0; tid < n; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			wait := (&ssw.Waiter{SpinBudget: budget}).Wait
			for i := 0; i < b.N; i++ {
				body(tid, wait)
			}
		}(tid)
	}
	wg.Wait()
}

// Ablation benches: SPTD pairwise barrier vs shared counter barrier.
func BenchmarkAblationSPTDvsCounter(b *testing.B) {
	for _, n := range benchThreads {
		b.Run(fmt.Sprintf("sptd/%dthreads", n), func(b *testing.B) {
			s := NewSPTD(n, 8)
			benchCollective(b, n, s.Barrier)
		})
		b.Run(fmt.Sprintf("counter/%dthreads", n), func(b *testing.B) {
			benchCollective(b, n, NewCounterBarrier(n).Wait)
		})
	}
}

func BenchmarkSPTDAllreduce8B(b *testing.B) {
	for _, n := range benchThreads {
		b.Run(fmt.Sprintf("%dthreads", n), func(b *testing.B) {
			s := NewSPTD(n, 8)
			ins, outs := make([][]byte, n), make([][]byte, n)
			for tid := range ins {
				ins[tid], outs[tid] = f64bytes(float64(tid)), make([]byte, 8)
			}
			benchCollective(b, n, func(tid int, wait WaitFunc) {
				s.Allreduce(tid, ins[tid], outs[tid], OpSum, Float64, nil, wait)
			})
		})
	}
}

func BenchmarkPartitionedAllreduce64KB(b *testing.B) {
	const n = 4
	p := NewPartitionedReducer(n, 64<<10)
	ins, outs := make([][]byte, n), make([][]byte, n)
	for tid := range ins {
		ins[tid], outs[tid] = make([]byte, 64<<10), make([]byte, 64<<10)
	}
	b.SetBytes(64 << 10)
	benchCollective(b, n, func(tid int, wait WaitFunc) {
		p.Allreduce(tid, ins[tid], outs[tid], OpSum, Float64, nil, wait)
	})
}

func TestCASBarrier(t *testing.T) {
	const n = 6
	b := NewCASBarrier(n)
	var phase [n]int
	for round := 0; round < 25; round++ {
		runCollective(n, func(tid int) {
			phase[tid]++
			b.Wait(tid, spinWait)
			for t2 := 0; t2 < n; t2++ {
				if phase[t2] != round+1 {
					t.Errorf("round %d: phase[%d] = %d", round, t2, phase[t2])
				}
			}
			b.Wait(tid, spinWait)
		})
	}
}

func TestNewCASBarrierPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewCASBarrier(0)
}

// Ablation: static leader (SPTD) vs CAS first-thread-in election (the paper
// kept static election after measuring both).
func BenchmarkAblationLeaderElection(b *testing.B) {
	for _, n := range benchThreads {
		b.Run(fmt.Sprintf("static-sptd/%dthreads", n), func(b *testing.B) {
			s := NewSPTD(n, 8)
			benchCollective(b, n, s.Barrier)
		})
		b.Run(fmt.Sprintf("cas-first-in/%dthreads", n), func(b *testing.B) {
			benchCollective(b, n, NewCASBarrier(n).Wait)
		})
	}
}
