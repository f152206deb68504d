package rma

import (
	"encoding/binary"
	"fmt"

	"repro/internal/collective"
)

// Remote RMA frame format.  Inter-node window operations travel as frames
// over the same mailbox transport (and, under fault injection, the same
// link-layer ack and reconnect-replay protocol) as ordinary messages, on a
// reserved tag outside the application tag space.  One frame is one operation; the
// per-flow frame order is the application order, and the link layer
// guarantees in-order single delivery, so the target applies frames as it
// drains them.

// FrameKind identifies a remote window operation.
type FrameKind uint8

// Frame kinds.
const (
	// FramePut carries a Put payload to be copied into the target window.
	FramePut FrameKind = iota + 1
	// FrameAcc carries an Accumulate payload plus op/dtype.
	FrameAcc
	// FrameGetReq asks the target to read its window and reply.
	FrameGetReq
	// FrameGetRep is the reply to a FrameGetReq; Aux echoes the request id.
	FrameGetRep
	// FrameNotify increments the target's notification counter Aux.
	FrameNotify
	// FramePost publishes the sender's PSCW exposure epoch (round in Aux)
	// into the receiving origin's window replica.  Used when window members
	// span OS processes, where the shared post flags are not shared.
	FramePost
	// FrameComplete publishes the sender's PSCW access-epoch completion
	// toward Target (round in Aux), the cross-process form of the complete
	// flag matrix.
	FrameComplete
	// The PGAS layer's addressed operations (internal/shmem).  The header's
	// window names the symmetric heap and Off the 8-byte cell; N carries the
	// operand as a two's-complement int64.  The fetching kinds reply through
	// FrameGetRep with the request id in Aux and the prior cell value as an
	// 8-byte payload, reusing the get-reply plumbing unchanged.
	//
	// FrameAtomicAdd folds N into the cell (no reply).
	FrameAtomicAdd
	// FrameAtomicStore stores N into the cell (no reply).
	FrameAtomicStore
	// FrameFetchAdd folds N into the cell and replies with its prior value.
	FrameFetchAdd
	// FrameCAS stores N into the cell if it holds the 8-byte payload's
	// compare value, and replies with its prior value.
	FrameCAS
	// FrameDeliver appends Payload to the mailbox ring at Off (geometry
	// packed in N, see PackRing).  The owner runs the ring's producer steps
	// on its own region and replies through FrameGetRep with a 1-byte
	// payload: 1 delivered, 0 ring full.
	FrameDeliver
)

var frameKindNames = [...]string{"invalid", "put", "acc", "get-req", "get-rep", "notify", "post", "complete",
	"atomic-add", "atomic-store", "fetch-add", "cas", "deliver"}

// String returns the kind's stable name.
func (k FrameKind) String() string {
	if int(k) < len(frameKindNames) {
		return frameKindNames[k]
	}
	return fmt.Sprintf("FrameKind(%d)", int(k))
}

// Frame is one decoded remote window operation.
type Frame struct {
	Kind   FrameKind
	WinSeq uint64 // window sequence within the communicator (Key.Seq)
	Origin uint32 // origin comm rank
	Target uint32 // target comm rank
	Off    uint64 // window byte offset (put/acc/get-req, the cell, the ring base)
	// Aux is kind-specific: the packed op/dtype for FrameAcc (see PackAcc),
	// the origin-local request id for FrameGetReq/FrameGetRep and the
	// replying PGAS kinds, the notification slot for FrameNotify, and the
	// epoch round for FramePost/FrameComplete.
	Aux uint64
	// N is the requested byte count for FrameGetReq, the operand for the
	// atomic kinds and the packed ring geometry for FrameDeliver (other
	// kinds carry their length as len(Payload)).
	N       uint64
	Payload []byte
}

// headerLen is the fixed frame header size.
const headerLen = 1 + 8 + 4 + 4 + 8 + 8 + 8

// Encode serializes f (header plus payload) into a fresh buffer.
func (f *Frame) Encode() []byte {
	b := make([]byte, headerLen+len(f.Payload))
	b[0] = byte(f.Kind)
	binary.LittleEndian.PutUint64(b[1:], f.WinSeq)
	binary.LittleEndian.PutUint32(b[9:], f.Origin)
	binary.LittleEndian.PutUint32(b[13:], f.Target)
	binary.LittleEndian.PutUint64(b[17:], f.Off)
	binary.LittleEndian.PutUint64(b[25:], f.Aux)
	binary.LittleEndian.PutUint64(b[33:], f.N)
	copy(b[headerLen:], f.Payload)
	return b
}

// DecodeFrame parses an encoded frame.  The payload aliases b.
func DecodeFrame(b []byte) (Frame, error) {
	if len(b) < headerLen {
		return Frame{}, fmt.Errorf("rma: %d-byte frame shorter than the %d-byte header", len(b), headerLen)
	}
	f := Frame{
		Kind:    FrameKind(b[0]),
		WinSeq:  binary.LittleEndian.Uint64(b[1:]),
		Origin:  binary.LittleEndian.Uint32(b[9:]),
		Target:  binary.LittleEndian.Uint32(b[13:]),
		Off:     binary.LittleEndian.Uint64(b[17:]),
		Aux:     binary.LittleEndian.Uint64(b[25:]),
		N:       binary.LittleEndian.Uint64(b[33:]),
		Payload: b[headerLen:],
	}
	if f.Kind < FramePut || f.Kind > FrameDeliver {
		return Frame{}, fmt.Errorf("rma: unknown frame kind %d", b[0])
	}
	if f.Off >= 1<<63 {
		return Frame{}, fmt.Errorf("rma: %v frame has offset %#x past 2^63", f.Kind, f.Off)
	}
	if want := payloadLen[f.Kind]; want >= 0 && len(f.Payload) != want {
		return Frame{}, fmt.Errorf("rma: %v frame carries %d payload bytes, want %d", f.Kind, len(f.Payload), want)
	}
	if f.Kind == FrameDeliver {
		if _, slot := UnpackRing(f.N); len(f.Payload) > slot {
			return Frame{}, fmt.Errorf("rma: deliver of %d bytes exceeds its %d-byte slot", len(f.Payload), slot)
		}
	}
	return f, nil
}

// payloadLen is each kind's exact payload length, or -1 where the payload
// is the operation's data.
var payloadLen = [...]int{
	FramePut: -1, FrameAcc: -1, FrameGetReq: 0, FrameGetRep: -1, FrameNotify: 0,
	FramePost: 0, FrameComplete: 0, FrameAtomicAdd: 0, FrameAtomicStore: 0,
	FrameFetchAdd: 0, FrameCAS: 8, FrameDeliver: -1,
}

// PackRing packs a mailbox ring's slot count and slot size into a
// FrameDeliver's N.
func PackRing(cap, slot int) uint64 { return uint64(uint32(cap))<<32 | uint64(uint32(slot)) }

// UnpackRing inverts PackRing.
func UnpackRing(n uint64) (cap, slot int) { return int(uint32(n >> 32)), int(uint32(n)) }

// PackAcc packs an Accumulate's op/dtype into a frame Aux value.
func PackAcc(op collective.Op, dt collective.DType) uint64 {
	return uint64(uint32(op))<<32 | uint64(uint32(dt))
}

// UnpackAcc inverts PackAcc.
func UnpackAcc(aux uint64) (collective.Op, collective.DType) {
	return collective.Op(uint32(aux >> 32)), collective.DType(uint32(aux))
}
