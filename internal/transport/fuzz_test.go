package transport

import (
	"bufio"
	"bytes"
	"io"
	"testing"
	"testing/iotest"
)

// FuzzFrameDecode hammers the transport frame decoder with arbitrary bytes:
// it must either reject the input or produce a frame that re-encodes to the
// bytes it consumed.  Every inbound connection feeds this decoder before
// any validation, so it must never panic or over-read.  The same bytes also
// go through the link's streaming reader twice (streamMatchesDecode): over a
// minimum-size read buffer, where every frame is larger than the buffer and
// is copied out, and over a full-size one fed a byte per read, where frames
// are decoded in place across many refills.
func FuzzFrameDecode(f *testing.F) {
	hello := Hello{Job: 42, Node: 1, Nodes: 4, NRanks: 32, Delivered: 7}
	seeds := []Frame{
		{Kind: KindHello, SrcNode: 1, Payload: hello.Encode()},
		{Kind: KindWelcome, SrcNode: 3, Payload: hello.Encode()},
		{Kind: KindData, SrcNode: 0, Seq: 9, Ack: 8, SrcRank: 2, DstRank: 5, Tag: 11, Comm: 1, Payload: []byte("payload")},
		{Kind: KindAck, SrcNode: 2, Ack: 1 << 33},
		{Kind: KindHeartbeat, SrcNode: 1, Payload: (&Heartbeat{Nonce: 3, SentUnixNano: 1}).Encode()},
		{Kind: KindBye, SrcNode: 0, Payload: (&Bye{Abort: true, Reason: "chaos"}).Encode()},
		{Kind: KindApplied, SrcNode: 1, Seq: 2, SrcRank: 6, DstRank: 0, Tag: 1<<29 + 1, Comm: 3, Payload: make([]byte, 8)},
	}
	for i := range seeds {
		f.Add(seeds[i].Encode())
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0x46, 0x50}, HeaderLen))
	f.Add(seeds[2].Encode()[:HeaderLen-1])
	// Frames ending one byte before, exactly at and one byte past the read
	// buffer's end, each followed by a frame that starts there.
	for _, d := range []int{-1, 0, 1} {
		big := Frame{Kind: KindData, Seq: 1, Payload: bytes.Repeat([]byte{0xa5}, readBufSize-HeaderLen+d)}
		f.Add(AppendFrame(big.Encode(), &seeds[2]))
	}

	f.Fuzz(func(t *testing.T, b []byte) {
		streamMatchesDecode(t, "minimum buffer", b, bufio.NewReaderSize(bytes.NewReader(b), 0))
		streamMatchesDecode(t, "byte reads", b, bufio.NewReaderSize(iotest.OneByteReader(bytes.NewReader(b)), readBufSize))

		fr, n, err := decodeFrame(b)
		if err != nil {
			return
		}
		if n < HeaderLen || n > len(b) {
			t.Fatalf("consumed %d bytes of %d", n, len(b))
		}
		if fr.Kind < KindHello || fr.Kind > KindApplied {
			t.Fatalf("decoder accepted kind %d", fr.Kind)
		}
		if len(fr.Payload) > MaxPayload {
			t.Fatalf("decoder accepted %d-byte payload", len(fr.Payload))
		}
		if got := fr.Encode(); !bytes.Equal(got, b[:n]) {
			t.Fatalf("re-encode mismatch:\n got %x\nwant %x", got, b[:n])
		}
	})
}

// FuzzControlDecode hammers the control-payload codecs (handshake,
// heartbeat, departure).  These parse peer-controlled bytes during the
// handshake — before the peer has proven anything about itself.
func FuzzControlDecode(f *testing.F) {
	f.Add((&Hello{Job: 1, Node: 0, Nodes: 2, NRanks: 8, Delivered: 3}).Encode())
	f.Add((&Heartbeat{Nonce: 1, SentUnixNano: 2}).Encode())
	f.Add((&Bye{Abort: true, Reason: "node 1 poisoned"}).Encode())
	f.Add((&Bye{Abort: true, Reason: "node 2 saw node 1 die", Dead: []int32{1, 3}}).Encode())
	f.Add((&Bye{}).Encode())
	f.Add([]byte{})
	f.Add([]byte{1})
	f.Add([]byte{0, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, b []byte) {
		if h, err := DecodeHello(b); err == nil {
			if got := h.Encode(); !bytes.Equal(got, b) {
				t.Fatalf("hello re-encode mismatch: %x vs %x", got, b)
			}
		}
		if hb, err := DecodeHeartbeat(b); err == nil {
			if got := hb.Encode(); !bytes.Equal(got, b) {
				t.Fatalf("heartbeat re-encode mismatch: %x vs %x", got, b)
			}
		}
		if y, err := DecodeBye(b); err == nil {
			if len(y.Reason) > maxByeReason {
				t.Fatalf("bye decoder accepted %d-byte reason", len(y.Reason))
			}
			if got := (&y).Encode(); !bytes.Equal(got, b) {
				t.Fatalf("bye re-encode mismatch: %x vs %x", got, b)
			}
		}
	})
}

// streamMatchesDecode reads b through a frameReader over br and checks it
// against decodeFrame applied frame after frame: the same frames, so the same
// bytes consumed, then an error exactly where decodeFrame finds one — io.EOF
// only where b ends between frames, and decodeHeader's own error for a bad
// header.  A frame declaring more than maxFuzzPayload bytes ends the
// comparison: the reader allocates a frame's payload before reading it, and
// decodeFrame's verdict on it is checked by the caller.
func streamMatchesDecode(t *testing.T, name string, b []byte, br *bufio.Reader) {
	fr := frameReader{br: br}
	var got Frame
	for rest := b; ; {
		want, n, werr := decodeFrame(rest)
		err := fr.Read(&got)
		if werr != nil {
			switch {
			case err == nil:
				t.Fatalf("%s: read a %s frame where decodeFrame fails: %v", name, got.Kind, werr)
			case len(rest) == 0 && err != io.EOF:
				t.Fatalf("%s: input ends between frames, read %v, want io.EOF", name, err)
			case len(rest) > 0 && err == io.EOF:
				t.Fatalf("%s: %d trailing bytes read as a clean end", name, len(rest))
			}
			if len(rest) >= HeaderLen {
				if _, herr := decodeHeader(rest, new(Frame)); herr != nil && herr.Error() != err.Error() {
					t.Fatalf("%s: bad header read as %q, decodeHeader says %q", name, err, herr)
				}
			}
			return
		}
		if err != nil {
			t.Fatalf("%s: decodeFrame takes a %d-byte frame, the reader fails: %v", name, n, err)
		}
		if got.Kind != want.Kind || got.SrcNode != want.SrcNode || got.Seq != want.Seq || got.Ack != want.Ack ||
			got.SrcRank != want.SrcRank || got.DstRank != want.DstRank || got.Tag != want.Tag ||
			got.Comm != want.Comm || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("%s: frame mismatch at offset %d:\n got %+v\nwant %+v", name, len(b)-len(rest), got, want)
		}
		rest = rest[n:]
	}
}
