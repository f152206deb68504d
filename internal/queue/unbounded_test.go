package queue

import (
	"bytes"
	"encoding/binary"
	"math/rand/v2"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// unboundedSize is message i's payload size, the same on both sides: mostly
// 0, 8 and 64 bytes, some 9 KiB and 64 KiB, and now and then 2 MiB, above
// the largest buffer a reused node keeps.
func unboundedSize(i int) int {
	x := uint64(i)*0x9e3779b97f4a7c15 ^ uint64(i)>>7
	x ^= x >> 29
	switch {
	case x%512 == 0:
		return 2 << 20
	case x%16 == 1:
		return 64 << 10
	case x%8 == 2:
		return 9 << 10
	}
	return []int{0, 8, 64}[x%3]
}

// unboundedMsg fills dst with message i: its sequence number in the first
// 8 bytes (when it has them), then a slice of slab that starts at an offset
// derived from i, so neighbours differ in every byte.
func unboundedMsg(dst, slab []byte, i int) []byte {
	dst = append(dst[:0], slab[i%251:i%251+unboundedSize(i)]...)
	if len(dst) >= 8 {
		binary.LittleEndian.PutUint64(dst, uint64(i))
	}
	return dst
}

// TestUnboundedStress streams 100 000 payloads of mixed sizes from a
// producer goroutine to a consumer that pauses at random, sometimes while it
// holds the front payload.  Every payload must arrive once, in order, with
// its bytes, and must not change while the consumer holds it.  The producer
// keeps at most 256 payloads unreleased, and the node cache must grow no
// larger than the peak backlog plus the dummy and one spare.  Under -race
// this also checks that the payload bytes are ordered by the links alone.
func TestUnboundedStress(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const total, maxBacklog = 100_000, 256
	slab := make([]byte, 2<<20+251)
	for j := range slab {
		slab[j] = byte(j*7 + j>>8)
	}
	q := NewUnbounded()
	var released atomic.Int64
	peak := 0
	produced := make(chan struct{})
	go func() {
		defer close(produced)
		var msg []byte
		for i := 0; i < total; i++ {
			for i-int(released.Load()) >= maxBacklog {
				runtime.Gosched()
			}
			// Loaded before Put, so Put sees at least as many releases.
			peak = max(peak, i+1-int(released.Load()))
			msg = unboundedMsg(msg, slab, i)
			q.Put(msg)
		}
	}()

	rng := rand.New(rand.NewPCG(46, 1))
	var want []byte
	for i := 0; i < total; i++ {
		got, ok := q.Front()
		for !ok {
			select {
			case <-produced:
				if got, ok = q.Front(); !ok {
					t.Fatalf("message %d lost: the producer is done and the queue is empty", i)
				}
			default:
				runtime.Gosched()
				got, ok = q.Front()
			}
		}
		want = unboundedMsg(want, slab, i)
		if !bytes.Equal(got, want) {
			t.Fatalf("message %d: %d bytes, want %d (lost, reordered or corrupt)", i, len(got), len(want))
		}
		if rng.IntN(64) == 0 { // hold the payload while the producer runs on
			time.Sleep(time.Duration(rng.IntN(100)) * time.Microsecond)
			if !bytes.Equal(got, want) {
				t.Fatalf("message %d changed while the consumer held it", i)
			}
		}
		q.Release()
		released.Add(1)
		if rng.IntN(256) == 0 {
			time.Sleep(time.Duration(rng.IntN(200)) * time.Microsecond)
		}
	}
	<-produced
	if _, ok := q.Front(); ok {
		t.Fatal("queue not empty after every message was released")
	}
	nodes := 0
	for n := q.first; n != nil; n = n.next.Load() {
		nodes++
	}
	t.Logf("%d nodes for a peak backlog of %d", nodes, peak)
	if nodes > peak+2 {
		t.Fatalf("%d nodes allocated for a peak backlog of %d, want at most %d", nodes, peak, peak+2)
	}
}

// TestUnboundedReuse: a ping-pong, one payload in flight at a time, cycles
// two nodes and one buffer and allocates nothing after its first message; a
// node that comes back with a buffer above bufKeep bytes drops it.
func TestUnboundedReuse(t *testing.T) {
	q := NewUnbounded()
	msg := make([]byte, 64<<10)
	cycle := func() {
		q.Put(msg)
		if p, ok := q.Front(); !ok || len(p) != len(msg) {
			t.Fatalf("front: %d bytes, %v", len(p), ok)
		}
		q.Release()
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("a 64 KiB ping-pong allocates %.2f times per message, want 0", n)
	}
	nodes, bufs := 0, 0
	for n := q.first; n != nil; n = n.next.Load() {
		nodes++
		if n.buf != nil {
			bufs++
		}
	}
	if nodes != 2 || bufs != 1 {
		t.Fatalf("a ping-pong cycles %d nodes and %d buffers, want 2 and 1", nodes, bufs)
	}

	q.Put(make([]byte, bufKeep+1))
	q.Front()
	q.Release()
	cycle() // reuses the node before the big one
	q.Put(msg[:8])
	if p, _ := q.Front(); cap(p) > bufKeep {
		t.Fatalf("a reused node kept its %d-byte buffer", cap(p))
	}
}
