package queue

import (
	"encoding/binary"
	"runtime"
	"testing"
)

// TestPBQWraparoundBackpressure drives a two-slot queue through a hundred
// thousand laps with the producer persistently ahead of the consumer,
// so the full-queue backpressure path (TryEnqueue returning false) is hit
// constantly.  Every payload carries its sequence number plus a
// sequence-derived fill pattern, so a slot reused before the consumer drained
// it — the classic wraparound bug — shows up as a corrupt or out-of-order
// message.  Run under -race this also checks the SPSC publication protocol
// (the payload is ordered by nothing but the slot's state word) and, through
// checkptr, the byte view over the word array.
func TestPBQWraparoundBackpressure(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const (
		slots      = 2
		maxPayload = 64
		total      = 200_000 // 100_000 laps
	)
	q := NewPBQ(slots, maxPayload)

	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, maxPayload)
		for i := 0; i < total; i++ {
			// Vary length so slot payload regions shift every message.
			n := 8 + i%(maxPayload-8)
			binary.LittleEndian.PutUint64(buf[:8], uint64(i))
			fill := byte(i)
			for j := 8; j < n; j++ {
				buf[j] = fill
			}
			enqueueSpin(q, buf[:n])
		}
	}()

	dst := make([]byte, maxPayload)
	for i := 0; i < total; i++ {
		n := dequeueSpin(q, dst)
		wantN := 8 + i%(maxPayload-8)
		if n != wantN {
			t.Fatalf("message %d: length %d, want %d", i, n, wantN)
		}
		if got := binary.LittleEndian.Uint64(dst[:8]); got != uint64(i) {
			t.Fatalf("message %d: sequence %d (out of order or corrupt)", i, got)
		}
		for j := 8; j < n; j++ {
			if dst[j] != byte(i) {
				t.Fatalf("message %d: payload byte %d = %#x, want %#x", i, j, dst[j], byte(i))
			}
		}
	}
	<-done

	if _, ok := q.TryDequeue(dst); ok {
		t.Fatal("queue not empty after all messages consumed")
	}
	// With 100_000x more messages than slots the producer must have seen the
	// queue full; Stalls is the observability counter for exactly that.
	if q.Stalls() == 0 {
		t.Error("Stalls() = 0; expected backpressure on a 2-slot queue")
	}
}
