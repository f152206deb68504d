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
	"encoding/binary"
	"fmt"
	"io"
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

// DecodeFrame parses one frame from the front of b, returning the frame and
// the number of bytes consumed.  The payload aliases b.  A short buffer,
// bad magic/version, unknown kind, or oversized length is an error.
func DecodeFrame(b []byte) (Frame, int, error) {
	if len(b) < HeaderLen {
		return Frame{}, 0, fmt.Errorf("transport: %d-byte buffer shorter than the %d-byte header", len(b), HeaderLen)
	}
	f, n, err := decodeHeader(b)
	if err != nil {
		return Frame{}, 0, err
	}
	if len(b) < HeaderLen+n {
		return Frame{}, 0, fmt.Errorf("transport: frame payload truncated: header says %d bytes, %d available", n, len(b)-HeaderLen)
	}
	f.Payload = b[HeaderLen : HeaderLen+n]
	return f, HeaderLen + n, nil
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

// frameReader reads frames off one connection, reusing its header and
// payload buffers across calls (the payload of a returned frame is only
// valid until the next Read).
type frameReader struct {
	r       io.Reader
	hdr     [HeaderLen]byte
	payload []byte
}

// Read blocks for the next complete frame.
func (fr *frameReader) Read() (Frame, error) {
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		return Frame{}, err
	}
	f, n, err := decodeHeader(fr.hdr[:])
	if err != nil {
		return Frame{}, err
	}
	if cap(fr.payload) < n {
		fr.payload = make([]byte, n)
	}
	f.Payload = fr.payload[:n]
	if _, err := io.ReadFull(fr.r, f.Payload); err != nil {
		return Frame{}, fmt.Errorf("transport: reading %d-byte %s payload: %w", n, f.Kind, err)
	}
	return f, nil
}
