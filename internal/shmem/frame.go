package shmem

import (
	"encoding/binary"
	"fmt"
)

// The shmem operation codec.
//
// When an atomic targets a rank on another node, the core layer ships it as
// an Op nested inside an rma.Frame of kind FrameShmem: the rma header names
// the window (and thus the symmetric heap) plus origin and target ranks,
// and the Op carries everything shmem-specific — which atomic, the cell
// offset, operands, and a reply-correlation id for the fetching kinds.
// Keeping the codec here (rather than in internal/rma) keeps rma ignorant
// of shmem semantics; keeping it out of internal/core keeps it fuzzable
// with no runtime underneath (FuzzShmemFrame).

// Op kinds: the four addressed atomics.  Puts and gets of heap bytes travel
// as the window's own FramePut/FrameGetReq.  OpFetchAdd and OpCAS expect a
// reply, correlated by Req, carrying the prior cell value.
const (
	OpAdd      = byte(iota + 1) // AtomicAdd(Off, Val), no reply
	OpFetchAdd                  // AtomicFetchAdd(Off, Val), reply old value
	OpCAS                       // AtomicCAS(Off, Cmp, Val), reply old value
	OpStore                     // AtomicStore(Off, Val), no reply
)

// opNames is indexed by Op kind.
var opNames = [...]string{"", "add", "fetch-add", "cas", "store"}

// OpName returns a kind's human-readable name ("?" for out-of-range).
func OpName(kind byte) string {
	if int(kind) >= len(opNames) || kind == 0 {
		return "?"
	}
	return opNames[kind]
}

// OpHeaderLen is the size of an encoded Op:
// kind (1) + Off (8) + Val (8) + Cmp (8) + Req (8).
const OpHeaderLen = 1 + 8 + 8 + 8 + 8

// Op is one addressed shmem atomic in wire form.  Off is the cell's heap
// byte offset; Val is the delta (OpAdd/OpFetchAdd), the swap value (OpCAS)
// or the stored value (OpStore); Cmp is OpCAS's compare value; Req is the
// reply-correlation id for the fetching kinds (0 = no reply wanted).
type Op struct {
	Kind byte
	Off  int64
	Val  int64
	Cmp  int64
	Req  uint64
}

// Encode appends o's wire form to dst and returns the extended slice.
func (o *Op) Encode(dst []byte) []byte {
	dst = append(dst, o.Kind)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(o.Off))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(o.Val))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(o.Cmp))
	return binary.LittleEndian.AppendUint64(dst, o.Req)
}

// DecodeOp parses an Op from b.  Validation here is what the fuzzer leans
// on: a decoded Op is structurally sound (known kind, non-negative offset,
// exactly OpHeaderLen bytes), though heap bounds are the applier's to check
// since the heap size is not wire state.
func DecodeOp(b []byte) (Op, error) {
	if len(b) < OpHeaderLen {
		return Op{}, fmt.Errorf("shmem: op truncated: %d bytes < %d-byte header", len(b), OpHeaderLen)
	}
	o := Op{
		Kind: b[0],
		Off:  int64(binary.LittleEndian.Uint64(b[1:])),
		Val:  int64(binary.LittleEndian.Uint64(b[9:])),
		Cmp:  int64(binary.LittleEndian.Uint64(b[17:])),
		Req:  binary.LittleEndian.Uint64(b[25:]),
	}
	if o.Kind < OpAdd || o.Kind > OpStore {
		return Op{}, fmt.Errorf("shmem: unknown op kind %d", o.Kind)
	}
	if o.Off < 0 {
		return Op{}, fmt.Errorf("shmem: op %s has negative offset %d", OpName(o.Kind), o.Off)
	}
	if len(b) > OpHeaderLen {
		return Op{}, fmt.Errorf("shmem: op %s carries %d trailing bytes", OpName(o.Kind), len(b)-OpHeaderLen)
	}
	return o, nil
}

// Apply executes o against the local symmetric region buf and returns the
// prior cell value for the fetching kinds (old, true).  Every kind goes
// through the same hardware atomics as the intra-node fast path, which is
// what makes remote and local updates compose.
func (o *Op) Apply(buf []byte) (int64, bool) {
	switch o.Kind {
	case OpAdd:
		AtomicAdd(buf, int(o.Off), o.Val)
		return 0, false
	case OpFetchAdd:
		return AtomicFetchAdd(buf, int(o.Off), o.Val), true
	case OpCAS:
		return AtomicCAS(buf, int(o.Off), o.Cmp, o.Val), true
	case OpStore:
		AtomicStore(buf, int(o.Off), o.Val)
		return 0, false
	default:
		panic(fmt.Sprintf("shmem: Apply on op kind %s", OpName(o.Kind)))
	}
}
