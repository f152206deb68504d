// Package transport is the real inter-node transport: frames over stream
// connections (TCP by default, behind the Backend interface so QUIC- or
// RDMA-style transports can slot in), with the same reliability discipline
// the in-process simulator's link layer uses — per-link sequence numbers,
// cumulative acknowledgements, retransmission with exponential backoff
// under a retry budget — plus connection establishment with retry and
// backoff, transparent reconnect-with-resend on broken connections, and
// per-link heartbeats feeding a node-failure detector.
//
// One Transport instance represents one node (one process) of a Pure job.
// Nodes are fully meshed: every node pair shares exactly one link, dialed
// by the lower-numbered node and accepted by the higher-numbered one, so
// the pair never races two connections against each other.  The internal
// core runtime routes every inter-node byte — two-sided sends, collective
// leader-tree traffic, and one-sided RMA frames — through Send, and
// receives them via the Handlers callbacks.
//
// TCP already retransmits within one connection; the link layer here exists
// for everything TCP does not cover: frames buffered in a dead process's
// socket, connections broken mid-stream (delivery resumes on the next
// connection exactly after the receiver's delivered watermark), injected
// drops from the fault plan, and silent peers (heartbeat timeout).  See
// docs/TRANSPORT.md for the wire format and the failure model.
package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
)

// Wire constants.
const (
	// frameMagic marks every frame header ("PF", little-endian).
	frameMagic = 0x5046
	// wireVersion is the frame-format version; both ends must match.
	wireVersion = 1
	// HeaderLen is the fixed frame header size in bytes.
	HeaderLen = 48
	// MaxPayload bounds a single frame's payload (64 MiB).  A decoder that
	// trusted the length field unconditionally could be made to allocate
	// arbitrary memory by one corrupt header.
	MaxPayload = 1 << 26
)

// Kind identifies a frame's role on the link.
type Kind uint8

// Frame kinds.
const (
	// KindHello opens a connection: the dialer identifies itself and its
	// delivered watermark (control.go describes the payload).
	KindHello Kind = iota + 1
	// KindWelcome answers a Hello from the accepting side, carrying the
	// same payload shape.
	KindWelcome
	// KindData carries one runtime message (two-sided payload, collective
	// leader traffic, or an encoded RMA frame).  Sequenced and reliable.
	KindData
	// KindAck carries only the cumulative delivered watermark (every frame
	// piggybacks it; an explicit Ack flows when the receiver has nothing
	// else to say).
	KindAck
	// KindHeartbeat keeps an idle link observably alive; its absence is
	// what declares a peer dead.
	KindHeartbeat
	// KindBye announces a deliberate departure: graceful at the end of a
	// run, or abort-carrying when the peer's runtime poisoned itself.
	KindBye
	// KindApplied carries an RMA applied-watermark update from a target
	// rank back to an origin rank.  Sequenced and reliable.
	KindApplied
)

var kindNames = [...]string{
	"invalid", "hello", "welcome", "data", "ack", "heartbeat", "bye", "applied",
}

// String returns the kind's stable name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// sequenced reports whether the kind rides the reliable in-order stream
// (assigned a link sequence number, buffered for retransmission, delivered
// exactly once in order).  Control frames are fire-and-forget.
func (k Kind) sequenced() bool { return k == KindData || k == KindApplied }

// Frame is one decoded transport frame.
//
// Header layout (little-endian, HeaderLen bytes):
//
//	off  size  field
//	0    2     magic (0x5046)
//	2    1     version
//	3    1     kind
//	4    4     srcNode
//	8    8     seq   (link sequence; 0 on control frames)
//	16   8     ack   (sender's cumulative delivered watermark)
//	24   4     srcRank
//	28   4     dstRank
//	32   4     tag
//	36   4     payload length
//	40   8     comm
type Frame struct {
	Kind    Kind
	SrcNode int32  // sending node id
	Seq     uint64 // link sequence (sequenced kinds only)
	Ack     uint64 // piggybacked cumulative ack: highest seq the sender has delivered
	SrcRank int32  // global source rank (KindData/KindApplied)
	DstRank int32  // global destination rank (KindData/KindApplied)
	Tag     int32  // channel tag (KindData/KindApplied)
	Comm    uint64 // communicator id (KindData/KindApplied)
	Payload []byte

	// Waiting never travels.  A Deliver or Applied handler sets it to report
	// that the frame went to a rank it found waiting for it and woke: that
	// rank is about to send or to wait again, and either act carries the
	// frame's ack, so the reader need not write one (link.deferAck).
	Waiting bool
}

// AppendFrame serializes f (header plus payload) onto dst and returns the
// extended slice.  It panics on oversized payloads — the runtime never
// produces one, and silently truncating would corrupt the stream.
func AppendFrame(dst []byte, f *Frame) []byte {
	if len(f.Payload) > MaxPayload {
		panic(fmt.Sprintf("transport: %d-byte payload exceeds the %d-byte frame bound", len(f.Payload), MaxPayload))
	}
	var h [HeaderLen]byte
	binary.LittleEndian.PutUint16(h[0:], frameMagic)
	h[2] = wireVersion
	h[3] = byte(f.Kind)
	binary.LittleEndian.PutUint32(h[4:], uint32(f.SrcNode))
	binary.LittleEndian.PutUint64(h[8:], f.Seq)
	binary.LittleEndian.PutUint64(h[16:], f.Ack)
	binary.LittleEndian.PutUint32(h[24:], uint32(f.SrcRank))
	binary.LittleEndian.PutUint32(h[28:], uint32(f.DstRank))
	binary.LittleEndian.PutUint32(h[32:], uint32(f.Tag))
	binary.LittleEndian.PutUint32(h[36:], uint32(len(f.Payload)))
	binary.LittleEndian.PutUint64(h[40:], f.Comm)
	dst = append(dst, h[:]...)
	return append(dst, f.Payload...)
}

// encodedLen is the length of the encoded frame at the front of b, as its
// header states it.  Only for bytes AppendFrame produced (the resend window).
func encodedLen(b []byte) int {
	return HeaderLen + int(binary.LittleEndian.Uint32(b[36:]))
}

// Encode serializes f into a fresh buffer.
func (f *Frame) Encode() []byte {
	return AppendFrame(make([]byte, 0, HeaderLen+len(f.Payload)), f)
}

// decodeHeader validates and parses the fixed header, returning the frame
// (payload unset) and the payload length.
func decodeHeader(h []byte) (Frame, int, error) {
	if m := binary.LittleEndian.Uint16(h[0:]); m != frameMagic {
		return Frame{}, 0, fmt.Errorf("transport: bad frame magic %#x (want %#x)", m, frameMagic)
	}
	if v := h[2]; v != wireVersion {
		return Frame{}, 0, fmt.Errorf("transport: frame version %d not supported (want %d)", v, wireVersion)
	}
	k := Kind(h[3])
	if k < KindHello || k > KindApplied {
		return Frame{}, 0, fmt.Errorf("transport: unknown frame kind %d", h[3])
	}
	n := binary.LittleEndian.Uint32(h[36:])
	if n > MaxPayload {
		return Frame{}, 0, fmt.Errorf("transport: %d-byte payload exceeds the %d-byte frame bound", n, MaxPayload)
	}
	return Frame{
		Kind:    k,
		SrcNode: int32(binary.LittleEndian.Uint32(h[4:])),
		Seq:     binary.LittleEndian.Uint64(h[8:]),
		Ack:     binary.LittleEndian.Uint64(h[16:]),
		SrcRank: int32(binary.LittleEndian.Uint32(h[24:])),
		DstRank: int32(binary.LittleEndian.Uint32(h[28:])),
		Tag:     int32(binary.LittleEndian.Uint32(h[32:])),
		Comm:    binary.LittleEndian.Uint64(h[40:]),
	}, int(n), nil
}

// frameReader reads frames off one connection through a buffered reader.  A
// frame that fits the read buffer is decoded in place: its payload aliases
// the buffer, and its bytes are consumed only by the next Read, so the
// payload of a returned frame is valid until then and no longer.  A frame
// larger than the buffer is copied into a payload buffer the reader keeps
// across calls, and grows only as the payload's bytes arrive.
type frameReader struct {
	br      *bufio.Reader
	pending int // bytes of the last returned frame, still in br
	hdr     [HeaderLen]byte
	payload []byte
	// progress, when set, runs after each read that takes some of a large
	// frame's payload: a frame still arriving is traffic from the peer.
	progress func()
}

// readBufSize is a connection's read buffer: one socket read takes up to
// this many bytes of frames, and a frame up to this size is never copied.
const readBufSize = 64 << 10

// newFrameReader reads frames from r through a size-byte read buffer
// (bufio's minimum for a size below it).
func newFrameReader(r io.Reader, size int) *frameReader {
	return &frameReader{br: bufio.NewReaderSize(r, size)}
}

// buffered is how many bytes past the last returned frame can be read
// without blocking.
func (fr *frameReader) buffered() int { return fr.br.Buffered() - fr.pending }

// Read blocks for the next complete frame.  A stream that ends between
// frames reads io.EOF; one that ends inside a frame is an error too.
func (fr *frameReader) Read() (Frame, error) { return fr.read(0, MaxPayload) }

// readHandshake reads a connection's first frame, which must be a want frame
// with a handshake payload.  A header that declares anything else is an
// error before any payload byte is read: a peer that has proven nothing
// about itself cannot make the reader wait for a large payload.
func (fr *frameReader) readHandshake(want Kind) (Frame, error) { return fr.read(want, helloLen) }

// read reads one frame of kind want (any when 0) with at most limit payload
// bytes.
func (fr *frameReader) read(want Kind, limit int) (Frame, error) {
	br := fr.br
	br.Discard(fr.pending) // cannot fail: the bytes are buffered
	fr.pending = 0
	var h []byte
	var err error
	if br.Size() >= HeaderLen {
		if h, err = br.Peek(HeaderLen); err == io.EOF && len(h) > 0 {
			err = io.ErrUnexpectedEOF
		}
	} else {
		h = fr.hdr[:] // a buffer smaller than a header (the handshake's)
		_, err = io.ReadFull(br, h)
	}
	if err != nil {
		return Frame{}, err
	}
	f, n, err := decodeHeader(h)
	if err != nil {
		return Frame{}, err
	}
	if n > limit || want != 0 && f.Kind != want {
		return Frame{}, fmt.Errorf("transport: a %d-byte %s frame where a %s of at most %d bytes was due", n, f.Kind, want, limit)
	}
	if size := HeaderLen + n; size <= br.Size() {
		b, err := br.Peek(size)
		if err != nil {
			return Frame{}, payloadErr(n, f.Kind, err)
		}
		f.Payload = b[HeaderLen:size:size]
		fr.pending = size
		return f, nil
	}
	if br.Size() >= HeaderLen {
		br.Discard(HeaderLen)
	}
	// The payload buffer grows as the bytes arrive, at most doubling, so
	// what a header declares is never allocated ahead of them.
	buf := fr.payload[:0]
	for len(buf) < n {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, min(n-len(buf), max(len(buf), readBufSize)))
		}
		k, err := br.Read(buf[len(buf):min(n, cap(buf))])
		buf = buf[:len(buf)+k]
		if k > 0 && fr.progress != nil {
			fr.progress()
		}
		if err != nil && len(buf) < n {
			return Frame{}, payloadErr(n, f.Kind, err)
		}
	}
	fr.payload = buf
	f.Payload = buf
	return f, nil
}

func payloadErr(n int, k Kind, err error) error {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("transport: reading %d-byte %s payload: %w", n, k, err)
}
