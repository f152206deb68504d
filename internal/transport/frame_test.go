package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"
)

// decodeFrame parses one frame from the front of a whole buffer b, returning the frame and
// the number of bytes consumed.  The payload aliases b.  A short buffer,
// bad magic/version, unknown kind, or oversized length is an error.  The
// link reads a header, then its payload, off the stream; this is the same
// two steps over bytes already in hand, for the tests and the fuzzer.
func decodeFrame(b []byte) (Frame, int, error) {
	if len(b) < HeaderLen {
		return Frame{}, 0, fmt.Errorf("transport: %d-byte buffer shorter than the %d-byte header", len(b), HeaderLen)
	}
	var f Frame
	n, err := decodeHeader(b, &f)
	if err != nil {
		return Frame{}, 0, err
	}
	if len(b) < HeaderLen+n {
		return Frame{}, 0, fmt.Errorf("transport: frame payload truncated: header says %d bytes, %d available", n, len(b)-HeaderLen)
	}
	f.Payload = b[HeaderLen : HeaderLen+n]
	return f, HeaderLen + n, nil
}

func TestFrameRoundTrip(t *testing.T) {
	frames := []Frame{
		{Kind: KindHello, SrcNode: 2, Payload: (&Hello{Job: 7, Node: 2, Nodes: 4, NRanks: 16, Delivered: 99}).Encode()},
		{Kind: KindData, SrcNode: 0, Seq: 12, Ack: 11, SrcRank: 3, DstRank: 9, Tag: 42, Comm: 1, Payload: []byte("hello pure")},
		{Kind: KindAck, SrcNode: 1, Ack: 1 << 40},
		{Kind: KindHeartbeat, SrcNode: 3, Payload: (&Heartbeat{Nonce: 5, SentUnixNano: 123456789}).Encode()},
		{Kind: KindBye, SrcNode: 1, Payload: (&Bye{Abort: true, Reason: "poisoned"}).Encode()},
		{Kind: KindApplied, SrcNode: 1, Seq: 1, SrcRank: 4, DstRank: 0, Tag: 1<<29 + 1, Comm: 1, Payload: make([]byte, 8)},
		{Kind: KindData, SrcNode: 0, Seq: 1, Payload: nil}, // empty payload
	}
	var buf []byte
	for i := range frames {
		buf = AppendFrame(buf, &frames[i])
	}
	rest := buf
	for i := range frames {
		got, n, err := decodeFrame(rest)
		if err != nil {
			t.Fatalf("frame %d: decode: %v", i, err)
		}
		rest = rest[n:]
		want := frames[i]
		if got.Kind != want.Kind || got.SrcNode != want.SrcNode || got.Seq != want.Seq ||
			got.Ack != want.Ack || got.SrcRank != want.SrcRank || got.DstRank != want.DstRank ||
			got.Tag != want.Tag || got.Comm != want.Comm || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frame %d: round trip mismatch:\n got %+v\nwant %+v", i, got, want)
		}
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes after decoding all frames", len(rest))
	}
}

func TestFrameReaderStream(t *testing.T) {
	var buf bytes.Buffer
	const n = 50
	for i := 0; i < n; i++ {
		f := Frame{Kind: KindData, Seq: uint64(i + 1), SrcRank: int32(i), Payload: bytes.Repeat([]byte{byte(i)}, i)}
		buf.Write(f.Encode())
	}
	fr := newFrameReader(&buf, readBufSize)
	var f Frame
	for i := 0; i < n; i++ {
		if err := fr.Read(&f); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if f.Seq != uint64(i+1) || len(f.Payload) != i {
			t.Fatalf("frame %d: got seq %d payload %d", i, f.Seq, len(f.Payload))
		}
	}
}

// declaringHeader is a frame header that declares an n-byte payload none of
// which follows.
func declaringHeader(k Kind, n int) []byte {
	h := (&Frame{Kind: k}).Encode()
	binary.LittleEndian.PutUint32(h[36:], uint32(n))
	return h
}

// A header alone cannot make the reader allocate the payload it declares:
// the buffer grows as the bytes arrive.  48 bytes declaring MaxPayload, then
// the end of the stream, cost the reader far less than a megabyte.
func TestFrameReaderDeclaredPayloadAllocatesAsBytesArrive(t *testing.T) {
	for _, size := range []int{0, readBufSize} {
		h := declaringHeader(KindData, MaxPayload)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := newFrameReader(bytes.NewReader(h), size).Read(new(Frame))
		runtime.ReadMemStats(&after)
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("buffer %d: read %v, want io.ErrUnexpectedEOF", size, err)
		}
		if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
			t.Fatalf("buffer %d: a bare header declaring %d bytes allocated %d bytes", size, MaxPayload, d)
		}
	}
}

// An accepting node reads a connection's first frame before the peer has
// proven anything.  Anything but a Hello of a Hello's length is refused at
// its header: the connection closes at once, with no wait for the payload
// until the handshake deadline.
func TestAcceptRefusesOversizedFirstFrame(t *testing.T) {
	net := NewMemNet()
	tp, err := New(Config{Node: 1, Addrs: []string{"n0:1", "n1:1"}, Job: 42, DialTimeout: time.Minute}, net.Backend(), 2, Handlers{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tp.Start(); err != nil {
		t.Fatal(err)
	}
	defer tp.Close()
	for _, h := range [][]byte{
		declaringHeader(KindHello, MaxPayload),
		declaringHeader(KindHello, helloLen+1),
		(&Frame{Kind: KindData, Payload: make([]byte, helloLen)}).Encode(),
	} {
		c, err := net.Backend().Dial("n1:1", time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Write(h); err != nil {
			t.Fatal(err)
		}
		c.SetReadDeadline(time.Now().Add(10 * time.Second))
		start := time.Now()
		n, err := c.Read(make([]byte, 1))
		if n != 0 || err != io.EOF {
			t.Fatalf("first frame %x: read %d bytes, %v; want the connection closed", h[:HeaderLen], n, err)
		}
		if d := time.Since(start); d > 5*time.Second {
			t.Fatalf("first frame %x: closed after %v", h[:HeaderLen], d)
		}
		c.Close()
	}
}

// A peer that stalls in the handshake must not hold Close: each side's
// handshake read is bounded only by DialTimeout, so Close closes the
// connections still in the handshake instead of waiting them out.  On the
// accepting side the stalled peer has sent half a Hello header; on the
// dialing side it accepted the connection and never answers the Hello.
func TestCloseDoesNotWaitForStalledHandshake(t *testing.T) {
	for _, side := range []string{"accept", "dial"} {
		t.Run(side, func(t *testing.T) {
			net := NewMemNet()
			node := 1 // accepts from node 0
			if side == "dial" {
				node = 0 // dials node 1
				ln, err := net.Backend().Listen("n1:1")
				if err != nil {
					t.Fatal(err)
				}
				defer ln.Close()
				go func() {
					if c, err := ln.Accept(); err == nil {
						defer c.Close()
						c.Read(make([]byte, 1<<10)) // until Close closes the dialer's end
					}
				}()
			}
			tp, err := New(Config{Node: node, Addrs: []string{"n0:1", "n1:1"}, Job: 42, DialTimeout: 30 * time.Second}, net.Backend(), 2, Handlers{})
			if err != nil {
				t.Fatal(err)
			}
			if err := tp.Start(); err != nil {
				t.Fatal(err)
			}
			if side == "accept" {
				c, err := net.Backend().Dial("n1:1", time.Second)
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				hello := (&Frame{Kind: KindHello, Payload: make([]byte, helloLen)}).Encode()
				if _, err := c.Write(hello[:HeaderLen/2]); err != nil {
					t.Fatal(err)
				}
			}
			waitFor(t, 5*time.Second, "the handshake to start", func() bool {
				tp.hsMu.Lock()
				defer tp.hsMu.Unlock()
				return len(tp.hsConns) == 1
			})
			start := time.Now()
			closed := make(chan struct{})
			go func() {
				tp.Close()
				close(closed)
			}()
			select {
			case <-closed:
			case <-time.After(time.Second):
				t.Fatal("Close did not return within 1s of a stalled handshake")
			}
			t.Logf("Close returned after %v", time.Since(start))
		})
	}
}

func TestDecodeFrameErrors(t *testing.T) {
	good := (&Frame{Kind: KindData, Seq: 1, Payload: []byte("x")}).Encode()

	cases := []struct {
		name string
		mut  func([]byte)
		want string
	}{
		{"short buffer", func(b []byte) {}, "shorter than"},
		{"bad magic", func(b []byte) { b[0] = 0xff }, "magic"},
		{"bad version", func(b []byte) { b[2] = 99 }, "version"},
		{"zero kind", func(b []byte) { b[3] = 0 }, "kind"},
		{"kind past applied", func(b []byte) { b[3] = byte(KindApplied) + 1 }, "kind"},
		{"oversized payload", func(b []byte) { b[36], b[37], b[38], b[39] = 0xff, 0xff, 0xff, 0xff }, "exceeds"},
		{"truncated payload", func(b []byte) { b[36] = 200 }, "truncated"},
	}
	for _, tc := range cases {
		b := append([]byte(nil), good...)
		if tc.name == "short buffer" {
			b = b[:HeaderLen-1]
		}
		tc.mut(b)
		if _, _, err := decodeFrame(b); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

func TestControlCodecs(t *testing.T) {
	h := Hello{Job: 1 << 60, Node: 3, Nodes: 8, NRanks: 64, Delivered: 1 << 50}
	got, err := DecodeHello(h.Encode())
	if err != nil || got != h {
		t.Fatalf("hello round trip: %+v, %v", got, err)
	}
	if _, err := DecodeHello([]byte{1, 2, 3}); err == nil {
		t.Fatal("short hello decoded")
	}

	hb := Heartbeat{Nonce: 9, SentUnixNano: -5}
	gotHB, err := DecodeHeartbeat(hb.Encode())
	if err != nil || gotHB != hb {
		t.Fatalf("heartbeat round trip: %+v, %v", gotHB, err)
	}
	if _, err := DecodeHeartbeat(nil); err == nil {
		t.Fatal("empty heartbeat decoded")
	}

	for _, y := range []Bye{
		{},
		{Abort: true, Reason: "node 2 poisoned: panic"},
		{Reason: strings.Repeat("r", maxByeReason+100)},
		{Abort: true, Reason: "node 0 reported node 3 dead", Dead: []int32{3}},
		{Abort: true, Dead: []int32{1, 4, 2}},
	} {
		got, err := DecodeBye(y.Encode())
		if err != nil {
			t.Fatalf("bye %+v: %v", y, err)
		}
		wantReason := y.Reason
		if len(wantReason) > maxByeReason {
			wantReason = wantReason[:maxByeReason]
		}
		if got.Abort != y.Abort || got.Reason != wantReason {
			t.Fatalf("bye round trip: got %+v", got)
		}
		if len(got.Dead) != len(y.Dead) {
			t.Fatalf("bye dead round trip: got %v, want %v", got.Dead, y.Dead)
		}
		for i := range got.Dead {
			if got.Dead[i] != y.Dead[i] {
				t.Fatalf("bye dead round trip: got %v, want %v", got.Dead, y.Dead)
			}
		}
	}
	if _, err := DecodeBye([]byte{2, 0, 0, 0, 0}); err == nil {
		t.Fatal("bye with non-bool flag decoded")
	}
	if _, err := DecodeBye([]byte{0, 5, 0, 'x'}); err == nil {
		t.Fatal("bye with wrong length decoded")
	}
	if _, err := DecodeBye([]byte{0, 0, 0}); err == nil {
		t.Fatal("bye missing its dead-list header decoded")
	}
	if _, err := DecodeBye([]byte{0, 0, 0, 2, 0, 1, 0, 0, 0}); err == nil {
		t.Fatal("bye with truncated dead list decoded")
	}
}

func TestKindString(t *testing.T) {
	if KindData.String() != "data" || KindApplied.String() != "applied" {
		t.Fatalf("kind names: %s %s", KindData, KindApplied)
	}
	if !KindData.sequenced() || !KindApplied.sequenced() || KindAck.sequenced() || KindHeartbeat.sequenced() {
		t.Fatal("sequenced() misclassifies kinds")
	}
}
