package shmem

import (
	"fmt"

	"repro/internal/schedpoint"
)

// The mailbox ring protocol.
//
// A mailbox is a bounded multi-producer/single-consumer ring living in the
// owner rank's symmetric region, so any rank can be a producer using only
// the addressed operations the PGAS layer already has: atomic ticket
// claims on the tail cell, payload writes into a claimed slot, and a
// release-store of the slot stamp to publish.  The consumer is the owner
// rank alone; its cursor is private state (no shared head cell), which is
// what keeps the consume path a single stamp store.
//
// The slot-stamp discipline is Vyukov's bounded-queue scheme.  Slot i
// starts with stamp i.  The sender holding ticket t (slot t%cap) may fill
// only when stamp == t, and publishes by storing t+1; the consumer at
// cursor h may read only when stamp == h+1, and recycles by storing h+cap,
// which is exactly the stamp the ticket-(h+cap) sender is waiting for.
// Stamps grow monotonically, so "full" is observable without a head cell:
// a sender that reads stamp < tail-candidate knows the consumer has not
// recycled that slot yet.
//
// Everything below is a *step* of that protocol, phrased over a byte
// region plus a Ring layout.  Send and Poll run the producer and consumer
// step sequences; they are the only entry points the core layer calls,
// always on the owner node's memory (a remote sender's message is
// delivered to the owner, which runs Send itself), and the model tests in
// internal/check interleave the steps through the schedpoint seams.

// Ring describes a mailbox ring's layout inside a symmetric region: a
// tail cell followed by cap slots of [stamp cell | len cell | payload].
// It is pure geometry — all fields are offsets and sizes, so the same
// value describes the ring inside every rank's region.
type Ring struct {
	Base int64 // byte offset of the ring in the symmetric region
	Cap  int   // number of slots (>= 1)
	Slot int   // payload bytes per slot (8-byte multiple, >= 8)
}

// Check reports whether r is a usable ring inside a size-byte region:
// cap >= 2 (see InitRing), an 8-byte-multiple slot of at least one cell,
// and an 8-aligned base with the whole ring in range.  The footprint is
// compared without computing it, so a geometry off the wire cannot
// overflow.
func (r Ring) Check(size int64) error {
	if r.Cap < 2 || r.Slot < CellBytes || r.Slot%CellBytes != 0 {
		return fmt.Errorf("shmem: mailbox ring needs cap >= 2 and an 8-byte-multiple slot size, got cap %d slot %d", r.Cap, r.Slot)
	}
	if r.Base < 0 || r.Base%CellBytes != 0 || int64(r.Cap) > (size-r.Base-CellBytes)/(2*CellBytes+int64(r.Slot)) {
		return fmt.Errorf("shmem: mailbox ring of %d %d-byte slots at offset %d does not fit the %d-byte region", r.Cap, r.Slot, r.Base, size)
	}
	return nil
}

// Bytes returns r's total footprint.
func (r Ring) Bytes() int64 { return CellBytes + int64(r.Cap)*(2*CellBytes+int64(r.Slot)) }

// TailOff returns the offset of the shared ticket counter.
func (r Ring) TailOff() int64 { return r.Base }

func (r Ring) slotBase(i int) int64 {
	return r.Base + CellBytes + int64(i)*(2*CellBytes+int64(r.Slot))
}

// StampOff returns the offset of slot i's stamp cell.
func (r Ring) StampOff(i int) int64 { return r.slotBase(i) }

// LenOff returns the offset of slot i's length cell.
func (r Ring) LenOff(i int) int64 { return r.slotBase(i) + CellBytes }

// PayloadOff returns the offset of slot i's payload.
func (r Ring) PayloadOff(i int) int64 { return r.slotBase(i) + 2*CellBytes }

// SlotOf maps a ticket (or consumer cursor) to its slot index.
func (r Ring) SlotOf(t int64) int { return int(t % int64(r.Cap)) }

// InitRing writes the initial protocol state — tail 0, stamp(i) = i — into
// the owner's region.  The owner runs this before the mailbox is announced
// (a barrier in the creating collective), so plain init order is fine.
//
// Cap must be at least 2: with a single slot, ticket t's publish stamp
// (t+1) is the same value as cursor t's recycle stamp (t+cap), so the
// ticket-(t+1) sender cannot tell a full, unconsumed slot from a recycled
// one and would overwrite the pending message (the internal/check
// exhaustive mailbox test finds the resulting deadlock immediately).
func InitRing(buf []byte, r Ring) {
	if err := r.Check(int64(len(buf))); err != nil {
		panic(err.Error())
	}
	AtomicStore(buf, int(r.TailOff()), 0)
	for i := 0; i < r.Cap; i++ {
		AtomicStore(buf, int(r.StampOff(i)), int64(i))
	}
}

// SendClaim attempts to claim the next ticket by advancing the tail cell.
// It returns (ticket, true) on success; (_, false) means the ring was full
// at the attempt (the slot the tail maps to has not been recycled).  The
// CAS-claim (rather than an unconditional fetch-add) is what lets a
// full-ring sender walk away without wedging the slot for every later
// ticket.
func SendClaim(buf []byte, r Ring) (int64, bool) {
	for {
		schedpoint.Point("shmem:ring:claim-tail")
		t := AtomicLoad(buf, int(r.TailOff()))
		schedpoint.Point("shmem:ring:claim-stamp")
		s := AtomicLoad(buf, int(r.StampOff(r.SlotOf(t))))
		if s == t {
			schedpoint.Point("shmem:ring:claim-cas")
			if AtomicCAS(buf, int(r.TailOff()), t, t+1) == t {
				return t, true
			}
			continue // lost the ticket race; retry with the new tail
		}
		if s < t {
			return 0, false // slot not recycled yet: ring full
		}
		// s > t: tail is stale (another sender already advanced it); retry.
	}
}

// SendFill copies msg into ticket t's slot and records its length.  Only
// the ticket holder may call it (stamp == t at claim time guarantees the
// consumer is done with the slot), so the payload copy is plain memory.
func SendFill(buf []byte, r Ring, t int64, msg []byte) {
	if len(msg) > r.Slot {
		panic("shmem: mailbox message exceeds slot size")
	}
	i := r.SlotOf(t)
	schedpoint.Point("shmem:ring:fill")
	copy(buf[r.PayloadOff(i):r.PayloadOff(i)+int64(r.Slot)], msg)
	AtomicStore(buf, int(r.LenOff(i)), int64(len(msg)))
}

// SendPublish releases ticket t's slot to the consumer by storing stamp
// t+1.  The release-store makes the fill visible to the consumer's
// acquire-load in PollStamp.
func SendPublish(buf []byte, r Ring, t int64) {
	schedpoint.Point("shmem:ring:publish")
	AtomicStore(buf, int(r.StampOff(r.SlotOf(t))), t+1)
}

// PollStamp reports whether the message at consumer cursor h has been
// published (stamp == h+1).
func PollStamp(buf []byte, r Ring, h int64) bool {
	schedpoint.Point("shmem:ring:poll")
	return AtomicLoad(buf, int(r.StampOff(r.SlotOf(h)))) == h+1
}

// Consume reads the message at cursor h into dst (which must hold Slot
// bytes), recycles the slot for the ticket-(h+cap) sender, and returns the
// message length.  Call only after PollStamp(h) reported true; the caller
// then advances its cursor to h+1.
func Consume(buf []byte, r Ring, h int64, dst []byte) int {
	i := r.SlotOf(h)
	n := AtomicLoad(buf, int(r.LenOff(i)))
	schedpoint.Point("shmem:ring:consume")
	copy(dst[:n], buf[r.PayloadOff(i):r.PayloadOff(i)+n])
	schedpoint.Point("shmem:ring:recycle")
	AtomicStore(buf, int(r.StampOff(i)), h+int64(r.Cap))
	return int(n)
}

// Send runs the full producer step sequence against the owner's region:
// claim, fill, publish.  False means the ring was full.  The core layer's
// Mailbox.TrySend calls it for every message: on the owner's buffer when
// the sender shares the owner's node, and on the owner's goroutine when a
// remote sender's message arrives as one delivery frame.
func Send(buf []byte, r Ring, msg []byte) bool {
	t, ok := SendClaim(buf, r)
	if !ok {
		return false
	}
	SendFill(buf, r, t, msg)
	SendPublish(buf, r, t)
	return true
}

// Poll runs the full consumer step sequence at cursor h against a local
// region: check the stamp, consume, recycle.  It returns the message
// length and true, or (0, false) when no message is ready; on true the
// caller advances its cursor.
func Poll(buf []byte, r Ring, h int64, dst []byte) (int, bool) {
	if !PollStamp(buf, r, h) {
		return 0, false
	}
	return Consume(buf, r, h, dst), true
}
