package transport

import (
	"encoding/binary"
	"fmt"
)

// Control-frame payload codecs.  Hello/Welcome carry the handshake; Bye
// carries the departure reason; Heartbeat carries a nonce and a send
// timestamp (for observability — liveness only needs the frame's arrival).
// All fixed-width fields are little-endian, like the frame header.

// Hello is the handshake payload, sent as KindHello by the dialing side and
// echoed back as KindWelcome by the accepting side.  Delivered is the
// sender's cumulative delivered watermark for the link, which is what makes
// reconnection resume exactly where the last connection broke: the peer
// replays everything after it, nothing before it.
type Hello struct {
	Job       uint64 // job id; both ends of a link must agree
	Node      int32  // sending node id
	Nodes     int32  // cluster size the sender was configured with
	NRanks    int32  // rank count the sender was configured with
	Delivered uint64 // highest link sequence the sender has delivered in order
}

const helloLen = 8 + 4 + 4 + 4 + 8

// Encode serializes the handshake payload.
func (h *Hello) Encode() []byte {
	b := make([]byte, helloLen)
	binary.LittleEndian.PutUint64(b[0:], h.Job)
	binary.LittleEndian.PutUint32(b[8:], uint32(h.Node))
	binary.LittleEndian.PutUint32(b[12:], uint32(h.Nodes))
	binary.LittleEndian.PutUint32(b[16:], uint32(h.NRanks))
	binary.LittleEndian.PutUint64(b[20:], h.Delivered)
	return b
}

// DecodeHello parses a Hello/Welcome payload.
func DecodeHello(b []byte) (Hello, error) {
	if len(b) != helloLen {
		return Hello{}, fmt.Errorf("transport: %d-byte hello payload, want %d", len(b), helloLen)
	}
	return Hello{
		Job:       binary.LittleEndian.Uint64(b[0:]),
		Node:      int32(binary.LittleEndian.Uint32(b[8:])),
		Nodes:     int32(binary.LittleEndian.Uint32(b[12:])),
		NRanks:    int32(binary.LittleEndian.Uint32(b[16:])),
		Delivered: binary.LittleEndian.Uint64(b[20:]),
	}, nil
}

// Heartbeat is the keepalive payload.  Beyond liveness (which only needs the
// frame's arrival), each heartbeat echoes the most recently received peer
// heartbeat together with its local arrival time.  That turns every
// heartbeat pair into one NTP-style clock sample: with t0 = EchoSentUnixNano
// (peer's clock), t1 = EchoRecvUnixNano (our clock), t2 = SentUnixNano
// (our clock), t3 = the peer's arrival clock, the peer computes
// offset = ((t1-t0)+(t2-t3))/2 and rtt = (t3-t0)-(t2-t1); the holding time
// t2-t1 between receive and echo cancels out, so echoing on the regular
// heartbeat cadence costs nothing in accuracy.
type Heartbeat struct {
	Nonce        uint64 // per-link counter (detects log interleaving, aids debugging)
	SentUnixNano int64  // sender clock at transmission
	// Echo of the newest heartbeat received from the peer; all three are
	// zero until the first one arrives.
	EchoNonce        uint64 // that heartbeat's Nonce
	EchoSentUnixNano int64  // its SentUnixNano, returned verbatim (peer clock)
	EchoRecvUnixNano int64  // local clock when it arrived
}

const heartbeatLen = 8 + 8 + 8 + 8 + 8

// Encode serializes the heartbeat payload.
func (h *Heartbeat) Encode() []byte {
	b := make([]byte, heartbeatLen)
	binary.LittleEndian.PutUint64(b[0:], h.Nonce)
	binary.LittleEndian.PutUint64(b[8:], uint64(h.SentUnixNano))
	binary.LittleEndian.PutUint64(b[16:], h.EchoNonce)
	binary.LittleEndian.PutUint64(b[24:], uint64(h.EchoSentUnixNano))
	binary.LittleEndian.PutUint64(b[32:], uint64(h.EchoRecvUnixNano))
	return b
}

// DecodeHeartbeat parses a heartbeat payload.
func DecodeHeartbeat(b []byte) (Heartbeat, error) {
	if len(b) != heartbeatLen {
		return Heartbeat{}, fmt.Errorf("transport: %d-byte heartbeat payload, want %d", len(b), heartbeatLen)
	}
	return Heartbeat{
		Nonce:            binary.LittleEndian.Uint64(b[0:]),
		SentUnixNano:     int64(binary.LittleEndian.Uint64(b[8:])),
		EchoNonce:        binary.LittleEndian.Uint64(b[16:]),
		EchoSentUnixNano: int64(binary.LittleEndian.Uint64(b[24:])),
		EchoRecvUnixNano: int64(binary.LittleEndian.Uint64(b[32:])),
	}, nil
}

// Bye is the departure payload.  Abort distinguishes "my run completed"
// (survivors keep going and simply stop talking to this node) from "my
// runtime poisoned itself" (survivors propagate the abort immediately
// instead of waiting for the heartbeat detector).  Dead carries the node
// ids the sender's own failure detector blamed for the abort, so that a
// survivor learning of a failure second-hand still names the node that
// actually died — not the peer that merely relayed the bad news first.
type Bye struct {
	Abort  bool
	Reason string
	Dead   []int32
}

// maxByeReason bounds the reason string on the wire; a longer reason is
// truncated by the encoder, and the decoder rejects anything larger (the
// length field is attacker-controlled input on a corrupt stream).
// maxByeDead bounds the propagated dead-node list the same way.
const (
	maxByeReason = 4096
	maxByeDead   = 4096
)

// Encode serializes the departure payload.
func (y *Bye) Encode() []byte {
	reason := y.Reason
	if len(reason) > maxByeReason {
		reason = reason[:maxByeReason]
	}
	dead := y.Dead
	if len(dead) > maxByeDead {
		dead = dead[:maxByeDead]
	}
	b := make([]byte, 1+2+len(reason)+2+4*len(dead))
	if y.Abort {
		b[0] = 1
	}
	binary.LittleEndian.PutUint16(b[1:], uint16(len(reason)))
	copy(b[3:], reason)
	off := 3 + len(reason)
	binary.LittleEndian.PutUint16(b[off:], uint16(len(dead)))
	off += 2
	for _, d := range dead {
		binary.LittleEndian.PutUint32(b[off:], uint32(d))
		off += 4
	}
	return b
}

// DecodeBye parses a departure payload.
func DecodeBye(b []byte) (Bye, error) {
	if len(b) < 3 {
		return Bye{}, fmt.Errorf("transport: %d-byte bye payload shorter than the 3-byte header", len(b))
	}
	if b[0] > 1 {
		return Bye{}, fmt.Errorf("transport: bye abort flag %d is not a bool", b[0])
	}
	n := int(binary.LittleEndian.Uint16(b[1:]))
	if n > maxByeReason {
		return Bye{}, fmt.Errorf("transport: %d-byte bye reason exceeds the %d-byte bound", n, maxByeReason)
	}
	if len(b) < 3+n+2 {
		return Bye{}, fmt.Errorf("transport: bye payload is %d bytes, too short for a %d-byte reason", len(b), n)
	}
	y := Bye{Abort: b[0] == 1, Reason: string(b[3 : 3+n])}
	off := 3 + n
	nd := int(binary.LittleEndian.Uint16(b[off:]))
	if nd > maxByeDead {
		return Bye{}, fmt.Errorf("transport: %d-entry bye dead list exceeds the %d-entry bound", nd, maxByeDead)
	}
	off += 2
	if len(b) != off+4*nd {
		return Bye{}, fmt.Errorf("transport: bye payload is %d bytes, header says %d", len(b), off+4*nd)
	}
	for i := 0; i < nd; i++ {
		y.Dead = append(y.Dead, int32(binary.LittleEndian.Uint32(b[off:])))
		off += 4
	}
	return y, nil
}
