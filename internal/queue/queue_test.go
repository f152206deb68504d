package queue

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/ssw"
)

func TestRingBasic(t *testing.T) {
	r := NewRing[int](3) // rounds to 4
	if r.Cap() != 4 {
		t.Fatalf("Cap = %d, want 4", r.Cap())
	}
	if _, ok := r.TryPop(); ok {
		t.Fatal("TryPop on empty ring succeeded")
	}
	for i := 0; i < 4; i++ {
		if !r.TryPush(i) {
			t.Fatalf("TryPush(%d) failed on non-full ring", i)
		}
	}
	if r.TryPush(99) {
		t.Fatal("TryPush succeeded on full ring")
	}
	if got := r.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4", got)
	}
	if v, ok := r.Peek(); !ok || v != 0 {
		t.Fatalf("Peek = %d,%v want 0,true", v, ok)
	}
	for i := 0; i < 4; i++ {
		v, ok := r.TryPop()
		if !ok || v != i {
			t.Fatalf("TryPop = %d,%v want %d,true", v, ok, i)
		}
	}
	if _, ok := r.Peek(); ok {
		t.Fatal("Peek on empty ring succeeded")
	}
}

func TestRingWrapAround(t *testing.T) {
	r := NewRing[string](2)
	for round := 0; round < 100; round++ {
		s := fmt.Sprintf("msg-%d", round)
		if !r.TryPush(s) {
			t.Fatalf("push %d failed", round)
		}
		got, ok := r.TryPop()
		if !ok || got != s {
			t.Fatalf("round %d: got %q,%v", round, got, ok)
		}
	}
}

func TestRingPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewRing(0) did not panic")
		}
	}()
	NewRing[int](0)
}

// Property: an SPSC ring delivers every value exactly once, in FIFO order,
// under concurrent produce/consume.
func TestRingConcurrentFIFO(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const n = 100000
	r := NewRing[uint64](16)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := uint64(0); i < n; {
			if r.TryPush(i) {
				i++
			} else {
				runtime.Gosched()
			}
		}
	}()
	for want := uint64(0); want < n; {
		if v, ok := r.TryPop(); ok {
			if v != want {
				t.Fatalf("out of order: got %d, want %d", v, want)
			}
			want++
		} else {
			runtime.Gosched()
		}
	}
	wg.Wait()
	if _, ok := r.TryPop(); ok {
		t.Fatal("ring not empty after draining")
	}
}

func TestPBQBasic(t *testing.T) {
	q := NewPBQ(4, 256)
	if q.Cap() != 4 || q.MaxPayload() != 256 {
		t.Fatalf("Cap/MaxPayload = %d/%d, want 4/256", q.Cap(), q.MaxPayload())
	}
	msg := []byte("hello pure")
	if !q.TryEnqueue(msg) {
		t.Fatal("enqueue failed on empty queue")
	}
	if n, ok := q.PeekLen(); !ok || n != len(msg) {
		t.Fatalf("PeekLen = %d,%v", n, ok)
	}
	dst := make([]byte, 256)
	n, ok := q.TryDequeue(dst)
	if !ok || n != len(msg) || !bytes.Equal(dst[:n], msg) {
		t.Fatalf("dequeue got %q (%d,%v)", dst[:n], n, ok)
	}
	if _, ok := q.TryDequeue(dst); ok {
		t.Fatal("dequeue on empty queue succeeded")
	}
	if _, ok := q.PeekLen(); ok {
		t.Fatal("PeekLen on empty queue succeeded")
	}
}

func TestPBQZeroLengthMessage(t *testing.T) {
	q := NewPBQ(2, 64)
	if !q.TryEnqueue(nil) {
		t.Fatal("enqueue of empty message failed")
	}
	if n, ok := q.PeekLen(); !ok || n != 0 {
		t.Fatalf("PeekLen = %d,%v want 0,true", n, ok)
	}
	n, ok := q.TryDequeue(make([]byte, 1))
	if !ok || n != 0 {
		t.Fatalf("dequeue = %d,%v want 0,true", n, ok)
	}
}

// The two extremes of the state word (len+1 = 1 and MaxPayload+1) survive
// slot reuse: zero-length and full-size messages alternate through several
// laps of a 2-slot queue, with the queue full at every step.
func TestPBQExtremeLengthsAcrossLaps(t *testing.T) {
	const maxPayload = 100 // not a multiple of 8: the last payload byte is mid-word
	q := NewPBQ(2, maxPayload)
	msg := func(i int) []byte {
		if i%2 == 0 {
			return nil
		}
		return bytes.Repeat([]byte{byte(i)}, maxPayload)
	}
	dst := make([]byte, maxPayload)
	q.TryEnqueue(msg(0))
	for i := 1; i <= 4*q.Cap(); i++ {
		if !q.TryEnqueue(msg(i)) {
			t.Fatalf("enqueue %d failed with a free slot", i)
		}
		if q.TryEnqueue(msg(i)) {
			t.Fatalf("enqueue succeeded on a full queue at message %d", i)
		}
		want := msg(i - 1)
		if n, ok := q.PeekLen(); !ok || n != len(want) {
			t.Fatalf("message %d: PeekLen = %d,%v want %d,true", i-1, n, ok, len(want))
		}
		n, ok := q.TryDequeue(dst)
		if !ok || !bytes.Equal(dst[:n], want) {
			t.Fatalf("message %d: got %d bytes (ok=%v), want %d", i-1, n, ok, len(want))
		}
	}
}

// A slot is [state word | payload]: the word is 8-aligned for sync/atomic,
// slots start a cacheline apart, and a message of up to 56 bytes shares its
// word's line.  The packed (ablation) constructor only keeps the alignment.
func TestPBQSlotLayout(t *testing.T) {
	addr := func(p unsafe.Pointer) int { return int(uintptr(p)) }
	for _, maxPayload := range []int{1, 8, 56, 57, 64, 1000, 8192} {
		q := NewPBQ(4, maxPayload)
		stride := q.slotWords * stateBytes
		if stride%CachelineBytes != 0 || stride < stateBytes+maxPayload || stride >= stateBytes+maxPayload+CachelineBytes {
			t.Fatalf("maxPayload %d: stride %d", maxPayload, stride)
		}
		if len(q.buf) != q.Cap()*stride || len(q.words)*stateBytes != len(q.buf) {
			t.Fatalf("maxPayload %d: %d payload bytes, %d words for %d slots of %d", maxPayload, len(q.buf), len(q.words), q.Cap(), stride)
		}
		for i := 0; i < q.Cap(); i++ {
			word := addr(unsafe.Pointer(&q.words[i*q.slotWords]))
			payload := addr(unsafe.Pointer(&q.buf[(i*q.slotWords+1)*stateBytes]))
			if word%CachelineBytes != 0 {
				t.Fatalf("maxPayload %d slot %d: state word at %#x is not on a cacheline boundary", maxPayload, i, word)
			}
			if payload != word+stateBytes {
				t.Fatalf("maxPayload %d slot %d: payload at %#x, word at %#x", maxPayload, i, payload, word)
			}
			if last := payload + min(maxPayload, CachelineBytes-stateBytes) - 1; last/CachelineBytes != word/CachelineBytes {
				t.Fatalf("maxPayload %d slot %d: a small message leaves its word's cacheline", maxPayload, i)
			}
		}
	}
	q := NewPBQPacked(4, 33)
	if stride := q.slotWords * stateBytes; stride != 48 {
		t.Fatalf("packed stride = %d, want 48 (8+33 rounded up to the word size)", stride)
	}
	if a := addr(unsafe.Pointer(&q.words[q.slotWords])); a%stateBytes != 0 {
		t.Fatalf("packed state word at %#x is not 8-aligned", a)
	}
}

func TestPBQFull(t *testing.T) {
	q := NewPBQ(2, 16)
	for i := 0; i < 2; i++ {
		if !q.TryEnqueue([]byte{byte(i)}) {
			t.Fatalf("enqueue %d failed", i)
		}
	}
	if q.TryEnqueue([]byte{9}) {
		t.Fatal("enqueue succeeded on full queue")
	}
	if got := q.Len(); got != 2 {
		t.Fatalf("Len = %d, want 2", got)
	}
}

func TestPBQSenderBufferReusableAfterEnqueue(t *testing.T) {
	q := NewPBQ(2, 16)
	buf := []byte{1, 2, 3}
	q.TryEnqueue(buf)
	buf[0] = 99 // sender may reuse its buffer immediately (MPI buffered-send semantics)
	dst := make([]byte, 16)
	n, _ := q.TryDequeue(dst)
	if dst[0] != 1 || n != 3 {
		t.Fatalf("message corrupted by sender reuse: % x", dst[:n])
	}
}

func TestPBQPanicsOnOversizedMessage(t *testing.T) {
	q := NewPBQ(2, 8)
	defer func() {
		if recover() == nil {
			t.Fatal("oversized enqueue did not panic")
		}
	}()
	q.TryEnqueue(make([]byte, 9))
}

func TestPBQPanicsOnSmallRecvBuffer(t *testing.T) {
	q := NewPBQ(2, 8)
	q.TryEnqueue([]byte("8 bytes!"))
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("undersized dequeue did not panic")
			}
		}()
		q.TryDequeue(make([]byte, 4))
	}()
	// The panic consumed nothing: a retry with a large enough buffer gets
	// the message.
	dst := make([]byte, 8)
	if n, ok := q.TryDequeue(dst); !ok || string(dst[:n]) != "8 bytes!" {
		t.Fatalf("retry after the panic got %q (ok=%v)", dst[:n], ok)
	}
}

func TestPBQPanicsOnBadArgs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewPBQ(0,0) did not panic")
		}
	}()
	NewPBQ(0, 0)
}

// Property: round-tripping arbitrary payloads through a PBQ preserves bytes.
func TestPBQRoundTripProperty(t *testing.T) {
	q := NewPBQ(8, 1024)
	dst := make([]byte, 1024)
	f := func(msgs [][]byte) bool {
		for _, m := range msgs {
			if len(m) > 1024 {
				m = m[:1024]
			}
			if !q.TryEnqueue(m) {
				// queue full: drain one and retry
				if _, ok := q.TryDequeue(dst); !ok {
					return false
				}
				if !q.TryEnqueue(m) {
					return false
				}
			}
		}
		// Drain everything; each message must match FIFO order of enqueues
		// still buffered.  (We only verify byte integrity here; FIFO order is
		// covered by the concurrent test.)
		for {
			if _, ok := q.TryDequeue(dst); !ok {
				break
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Concurrent stress: every message arrives exactly once, in order, intact.
func TestPBQConcurrentIntegrity(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const n = 20000
	q := NewPBQ(8, 64)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		msg := make([]byte, 64)
		for i := 0; i < n; {
			sz := 1 + i%64
			for b := 0; b < sz; b++ {
				msg[b] = byte(i + b)
			}
			if q.TryEnqueue(msg[:sz]) {
				i++
			} else {
				runtime.Gosched()
			}
		}
	}()
	dst := make([]byte, 64)
	for i := 0; i < n; {
		nb, ok := q.TryDequeue(dst)
		if !ok {
			runtime.Gosched()
			continue
		}
		wantSz := 1 + i%64
		if nb != wantSz {
			t.Fatalf("message %d: size %d, want %d", i, nb, wantSz)
		}
		for b := 0; b < nb; b++ {
			if dst[b] != byte(i+b) {
				t.Fatalf("message %d corrupt at byte %d", i, b)
			}
		}
		i++
	}
	wg.Wait()
}

func TestRendezvousChannelProtocol(t *testing.T) {
	ch := NewRendezvousChannel(4)
	// Receiver posts a 1 MiB buffer.
	dst := make([]byte, 1<<20)
	if !ch.Envelopes.TryPush(Envelope{Dest: dst, Seq: 7}) {
		t.Fatal("posting envelope failed")
	}
	// Sender claims it, copies payload (single copy), signals completion.
	env, ok := ch.Envelopes.TryPop()
	if !ok || env.Seq != 7 {
		t.Fatalf("sender got env %+v, %v", env, ok)
	}
	payload := bytes.Repeat([]byte{0xAB}, 1<<19)
	n := copy(env.Dest, payload)
	if !ch.Completions.TryPush(Completion{Bytes: n, Seq: env.Seq}) {
		t.Fatal("pushing completion failed")
	}
	// Receiver observes completion and the payload is in place.
	c, ok := ch.Completions.TryPop()
	if !ok || c.Bytes != 1<<19 || c.Seq != 7 {
		t.Fatalf("completion = %+v, %v", c, ok)
	}
	if dst[0] != 0xAB || dst[(1<<19)-1] != 0xAB {
		t.Fatal("payload not delivered into receiver buffer")
	}
}

func TestRingDropsReferencesOnPop(t *testing.T) {
	r := NewRing[[]byte](2)
	r.TryPush(make([]byte, 10))
	r.TryPop()
	// The slot should no longer pin the buffer.  We can't assert GC behavior
	// directly; instead verify the slot was zeroed via a second push/pop of nil.
	r.TryPush(nil)
	v, ok := r.TryPop()
	if !ok || v != nil {
		t.Fatalf("got %v, %v", v, ok)
	}
}

// enqueueSpin and dequeueSpin block the way the SSW loop does: a bounded
// budget of probes between yields, so the benchmarks below time the queue
// and not the Go scheduler (a Gosched after every failed probe did).
func enqueueSpin(q *PBQ, msg []byte) {
	for {
		for i := 0; i < ssw.DefaultSpinBudget; i++ {
			if q.TryEnqueue(msg) {
				return
			}
		}
		runtime.Gosched()
	}
}

func dequeueSpin(q *PBQ, dst []byte) int {
	for {
		for i := 0; i < ssw.DefaultSpinBudget; i++ {
			if n, ok := q.TryDequeue(dst); ok {
				return n
			}
		}
		runtime.Gosched()
	}
}

func BenchmarkPBQPingPong(b *testing.B) {
	for _, size := range []int{8, 64, 1024, 8192} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			q1 := NewPBQ(8, size) // ping
			q2 := NewPBQ(8, size) // pong
			msg := make([]byte, size)
			done := make(chan struct{})
			go func() {
				dst := make([]byte, size)
				for i := 0; i < b.N; i++ {
					dequeueSpin(q1, dst)
					enqueueSpin(q2, dst)
				}
				close(done)
			}()
			dst := make([]byte, size)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				enqueueSpin(q1, msg)
				dequeueSpin(q2, dst)
			}
			<-done
			b.SetBytes(int64(size))
		})
	}
}

func BenchmarkRingPushPop(b *testing.B) {
	r := NewRing[uint64](64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.TryPush(uint64(i))
		r.TryPop()
	}
}

func TestPBQPackedBehavesIdentically(t *testing.T) {
	q := NewPBQPacked(4, 64)
	msg := []byte("packed slots")
	if !q.TryEnqueue(msg) {
		t.Fatal("enqueue failed")
	}
	dst := make([]byte, 64)
	n, ok := q.TryDequeue(dst)
	if !ok || string(dst[:n]) != "packed slots" {
		t.Fatalf("got %q", dst[:n])
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewPBQPacked(0,0) did not panic")
		}
	}()
	NewPBQPacked(0, 0)
}

// Ablation: cacheline-padded vs packed slot layout under concurrent
// producer/consumer (the false-sharing driver the paper calls out).
func BenchmarkAblationFalseSharing(b *testing.B) {
	run := func(b *testing.B, q *PBQ) {
		msg := make([]byte, 32)
		done := make(chan struct{})
		go func() {
			dst := make([]byte, 32)
			for i := 0; i < b.N; i++ {
				dequeueSpin(q, dst)
			}
			close(done)
		}()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			enqueueSpin(q, msg)
		}
		<-done
	}
	b.Run("padded", func(b *testing.B) { run(b, NewPBQ(16, 32)) })
	b.Run("packed", func(b *testing.B) { run(b, NewPBQPacked(16, 32)) })
}
