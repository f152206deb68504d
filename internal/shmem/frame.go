package shmem

import (
	"encoding/binary"
	"fmt"

	"repro/internal/schedpoint"
)

// The shmem operation codec.
//
// When an addressed operation targets a rank on another node, the core
// layer ships it as an Op nested inside an rma.Frame of kind FrameShmem:
// the rma header names the window (and thus the symmetric heap) plus
// origin and target ranks, and the Op carries everything shmem-specific —
// which operation, the heap offset, operands, and a reply-correlation id
// for the fetching kinds.  Keeping the codec here (rather than in
// internal/rma) keeps rma ignorant of shmem semantics; keeping it out of
// internal/core keeps it fuzzable with no runtime underneath
// (FuzzShmemFrame).

// Op kinds.  OpPut carries payload bytes; every other kind is
// header-only.  OpGet, OpFetchAdd and OpCAS expect a reply correlated by
// Req (for OpGet the reply carries Val bytes of heap; for the atomics it
// carries the prior cell value).
const (
	OpPut      = byte(iota + 1) // copy Data into [Off, Off+len(Data))
	OpGet                       // read Val bytes at Off, reply with them
	OpAdd                       // AtomicAdd(Off, Val), no reply
	OpFetchAdd                  // AtomicFetchAdd(Off, Val), reply old value
	OpCAS                       // AtomicCAS(Off, Cmp, Val), reply old value
	OpStore                     // AtomicStore(Off, Val), no reply
)

// opNames is indexed by Op kind.
var opNames = [...]string{"", "put", "get", "add", "fetch-add", "cas", "store"}

// OpName returns a kind's human-readable name ("?" for out-of-range).
func OpName(kind byte) string {
	if int(kind) >= len(opNames) || kind == 0 {
		return "?"
	}
	return opNames[kind]
}

// OpHeaderLen is the fixed size of an encoded Op before the payload:
// kind (1) + Off (8) + Val (8) + Cmp (8) + Req (8).
const OpHeaderLen = 1 + 8 + 8 + 8 + 8

// Op is one addressed shmem operation in wire form.  Field use by kind:
// Off is always the heap byte offset; Val is the delta (OpAdd/OpFetchAdd),
// the swap value (OpCAS), the stored value (OpStore), or the byte count
// (OpGet); Cmp is OpCAS's compare value; Req is the reply-correlation id
// for the fetching kinds (0 = no reply wanted); Data is OpPut's payload.
type Op struct {
	Kind byte
	Off  int64
	Val  int64
	Cmp  int64
	Req  uint64
	Data []byte
}

// WantsReply reports whether o's kind sends a value back to the origin.
func (o *Op) WantsReply() bool {
	return o.Kind == OpGet || o.Kind == OpFetchAdd || o.Kind == OpCAS
}

// Encode appends o's wire form to dst and returns the extended slice.
func (o *Op) Encode(dst []byte) []byte {
	dst = append(dst, o.Kind)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(o.Off))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(o.Val))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(o.Cmp))
	dst = binary.LittleEndian.AppendUint64(dst, o.Req)
	return append(dst, o.Data...)
}

// EncodedLen returns the exact size Encode will produce for o.
func (o *Op) EncodedLen() int { return OpHeaderLen + len(o.Data) }

// DecodeOp parses an Op from b.  Data aliases b (no copy) — callers that
// outlive b must copy.  Validation here is what the fuzzer leans on: a
// decoded Op is structurally sound (known kind, non-negative offset and
// count, payload only on OpPut), though heap bounds are the applier's to
// check since the heap size is not wire state.
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
	if o.Kind < OpPut || o.Kind > OpStore {
		return Op{}, fmt.Errorf("shmem: unknown op kind %d", o.Kind)
	}
	if o.Off < 0 {
		return Op{}, fmt.Errorf("shmem: op %s has negative offset %d", OpName(o.Kind), o.Off)
	}
	if rest := b[OpHeaderLen:]; len(rest) > 0 {
		if o.Kind != OpPut {
			return Op{}, fmt.Errorf("shmem: op %s carries %d payload bytes but only put has payload", OpName(o.Kind), len(rest))
		}
		o.Data = rest
	}
	if o.Kind == OpGet && o.Val < 0 {
		return Op{}, fmt.Errorf("shmem: get of negative length %d", o.Val)
	}
	return o, nil
}

// Apply executes o against the local symmetric region buf and returns the
// prior cell value for the fetching atomic kinds (old, true).  OpGet is
// the one kind Apply rejects: its reply carries heap bytes, not a cell
// value, so the dispatcher serves it by reading buf directly.  Every
// atomic kind goes through the same hardware atomics as the intra-node
// fast path, which is what makes remote and local updates compose.
func (o *Op) Apply(buf []byte) (int64, bool) {
	switch o.Kind {
	case OpPut:
		if o.Off+int64(len(o.Data)) > int64(len(buf)) {
			panic(fmt.Sprintf("shmem: remote put of %d bytes at %d overflows the %d-byte symmetric region", len(o.Data), o.Off, len(buf)))
		}
		schedpoint.Point("shmem:op:put")
		copy(buf[o.Off:o.Off+int64(len(o.Data))], o.Data)
		return 0, false
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
