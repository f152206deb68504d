package core

import (
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/layout"
	"repro/internal/queue"
	"repro/internal/transport"
)

// Inter-node transport glue.  A runtime runs only the ranks placed on its
// own node; every cross-node message — two-sided sends, the leader-tree
// collective traffic on collTag, and RMA frames on rmaTag — is encoded as a
// transport KindData frame and carried over the peer link's sequenced,
// acked stream, replayed past the peer's watermark when a connection breaks
// (over TCP between processes, over
// transport.MemNet between the in-process nodes of runNodes).  Inbound
// frames land in mailboxes (queue.Unbounded), which the receive paths
// (progressRemoteRecv, rmaProgress) drain.
//
// A rank waiting for a frame is parked (Rank.park), so every upcall
// that completes such a wait publishes first and then unparks the rank it
// completed it for.  A rank found inside such a wait takes over the frame's
// ack: it is about to send, or to block again, and either act carries the
// watermark (transport.Frame.Waiting), so a ping-pong costs no ack frame.
//
// The RMA applied watermark crosses the same way: the target ships a
// KindApplied frame carrying its cumulative applied count after each inbox
// drain, and the origin's replica takes the monotonic max.

// tpDeliver is the transport's Deliver upcall: one KindData frame for a rank
// on this node.  It runs on the owning link's reader goroutine in link
// order; the frame's payload is only valid during the call, so the mailbox
// gets a copy, in a buffer the receiving rank handed back when it can, for
// the destination rank's progress loops to consume.  The sending node's
// entry of memos resolves the mailbox without a map lookup while frames
// keep coming for one key, as a stream or a ping-pong's do.
func (rt *Runtime) tpDeliver(f *transport.Frame, memos []deliverMemo) {
	if !rt.tpAdmit(f) {
		return
	}
	key := chanKey{src: int(f.SrcRank), dst: int(f.DstRank), tag: int(f.Tag), comm: f.Comm}
	m := &memos[f.SrcNode]
	if m.mb == nil || m.key != key {
		m.key, m.mb = key, rt.remote(key)
	}
	m.mb.Put(f.Payload)
	f.Waiting = rt.wake(int(f.DstRank))
}

// deliverMemo is one source node's last delivery target: a one-entry cache
// in front of Runtime.remotes.  The Deliver handler keeps one per source
// node, so only a runtime with links has them.  Only the link
// reader of that node writes it, under the link's receive lock (which also
// orders a replaced connection's reader before the current one); the pad
// keeps two readers' memos off each other's cacheline.
type deliverMemo struct {
	key chanKey
	mb  *queue.Unbounded
	_   layout.Pad
}

// tpApplied is the transport's Applied upcall: the peer's cumulative applied
// watermark for one RMA flow.  The frame travels target -> origin, so the
// flow it names is origin (f.DstRank, a rank on this node) -> target
// (f.SrcRank); its payload is the 8-byte little-endian applied total.
// Watermarks ride the same sequenced stream as data, but a reconnect replay
// may still present an older total, so the replica only moves forward.
func (rt *Runtime) tpApplied(f *transport.Frame) {
	if len(f.Payload) != 8 {
		return // malformed watermark; the next applied total supersedes it
	}
	if !rt.tpAdmit(f) {
		return
	}
	applied := binary.LittleEndian.Uint64(f.Payload)
	key := chanKey{src: int(f.DstRank), dst: int(f.SrcRank), tag: rmaTag, comm: f.Comm}
	v, ok := rt.rmaFlows.Load(key)
	if !ok {
		v, _ = rt.rmaFlows.LoadOrStore(key, new(rmaFlow))
	}
	flow := v.(*rmaFlow)
	for {
		cur := flow.applied.Load()
		if applied <= cur {
			return // a replayed total: nothing completed, nobody to wake
		}
		if flow.applied.CompareAndSwap(cur, applied) {
			break
		}
	}
	f.Waiting = rt.wake(int(f.DstRank))
}

// tpAdmit checks the rank pair a sequenced frame names before anything is
// keyed by it.  The fields come off the wire: a frame from a rank that is not
// the sending node's to a rank that is not ours — ids out of range, or
// processes launched with different placements — would otherwise create a
// mailbox no rank ever drains and buffer into it without bound, or feed one
// mailbox from two links, which its single-producer queue does not allow.
// Such a frame is dropped and the run poisoned, with the sending node
// recorded as the failed one.  An admitted frame's SrcNode indexes the
// Deliver handler's memos.
func (rt *Runtime) tpAdmit(f *transport.Frame) bool {
	n, me := int32(rt.cfg.NRanks), rt.cfg.Transport.Node
	if f.SrcRank >= 0 && f.SrcRank < n && f.DstRank >= 0 && f.DstRank < n &&
		rt.place.NodeOf(int(f.SrcRank)) == int(f.SrcNode) && int(f.SrcNode) != me &&
		rt.place.NodeOf(int(f.DstRank)) == me {
		return true
	}
	if rt.tpFinished.Load() {
		return false // our ranks are done: drop it, there is no run left to fail
	}
	rt.poisonNodeDead(int(f.SrcNode), fmt.Sprintf(
		"node %d sent a %s frame for rank pair %d -> %d, which node %d does not serve (ranks are 0..%d, the source must be placed on the sending node and the destination on this one): the processes disagree on the job's placement",
		f.SrcNode, f.Kind, f.SrcRank, f.DstRank, me, n-1))
	return false
}

// tpWritable is the transport's upcall for a resend window that refused a
// send and has room again.  Which ranks wait for which link is not tracked:
// every parked rank probes once.
func (rt *Runtime) tpWritable(int) { rt.wakeAll() }

// wake unparks rank (a rank id off the wire) if it is parked and reports
// whether it is inside a socket-completed wait at all.  The caller has
// published what the rank waits for.
func (rt *Runtime) wake(rank int) bool {
	return rank >= 0 && rank < len(rt.cells) && rt.cells[rank].Wake()
}

// tpPeerDead is the transport's failure-detector upcall.  After this
// process's ranks have all returned the loss of a peer is not an error
// (shutdown is not synchronized across nodes); mid-run it poisons the
// runtime so every rank unwinds with a *RunError naming the dead node.
func (rt *Runtime) tpPeerDead(node int, reason string) {
	if rt.tpFinished.Load() {
		return
	}
	rt.poisonNodeDead(node, reason)
}

// tpPeerBye is the transport's departure upcall.  A graceful Bye is a peer
// whose ranks completed (benign even mid-run: its sends to us were all
// delivered first, in link order).  An abort Bye propagates the peer's
// poison immediately, without waiting out the heartbeat detector.  When the
// Bye carries the peer's dead-node list — the peer aborted because it saw
// some third node die — those nodes are the ones recorded as dead here, so
// every survivor's RunError names the node that actually failed rather
// than whichever peer happened to announce its abort first.  An empty list
// means the peer's abort had a local cause (rank panic, deadlock); then the
// departing peer itself is the lost node.
func (rt *Runtime) tpPeerBye(node int, abort bool, reason string, dead []int) {
	if !abort || rt.tpFinished.Load() {
		return
	}
	if len(dead) > 0 {
		for _, d := range dead {
			rt.poisonNodeDead(d, fmt.Sprintf("node %d reported node %d dead: %s", node, d, reason))
		}
		return
	}
	rt.poisonNodeDead(node, fmt.Sprintf("node %d aborted: %s", node, reason))
}

// announceAbort tells every peer, synchronously, that this node aborted: the
// poison-time Bye rides a separate goroutine that may not have run before
// Close tears the links down.  A link that has never come up would miss the
// Bye, so it gets the dial timeout to come up first — nodes started
// together abort before their peers have dialed in when a rank fails at
// once.
func (rt *Runtime) announceAbort() {
	settled := func() bool {
		for peer, l := range rt.tp.Stats() {
			if peer != rt.cfg.Transport.Node && !l.EverUp && !l.Dead && !l.Departed {
				return false
			}
		}
		return true
	}
	for deadline := time.Now().Add(rt.cfg.Transport.DialTimeout); !settled() && time.Now().Before(deadline); {
		time.Sleep(100 * time.Microsecond)
	}
	rt.abort.mu.Lock()
	text := fmt.Sprintf("node %d aborted (%s): %s", rt.cfg.Transport.Node, rt.abort.cause, rt.abort.text)
	dead := append([]int(nil), rt.abort.deadNodes...)
	rt.abort.mu.Unlock()
	rt.tp.Abort(text, dead)
}

// tpSendData routes one cross-node payload for key over the transport,
// blocking (with poison checks) while the link's resend window is full.  On
// return the link has copied the payload into its resend window, so the
// caller's buffer is immediately reusable (buffered-send post-time
// completion).  A dead peer poisons the runtime and unwinds the calling
// rank.
func (r *Rank) tpSendData(key chanKey, payload []byte) {
	f := transport.Frame{
		Kind:    transport.KindData,
		SrcRank: int32(key.src), DstRank: int32(key.dst),
		Tag: int32(key.tag), Comm: key.comm,
		Payload: payload,
	}
	r.tpSend(r.rt.place.NodeOf(key.dst), &f)
}

// tpSendApplied ships this rank's cumulative applied watermark for one
// incoming RMA flow back to its origin (see tpApplied for the field
// convention).
func (r *Rank) tpSendApplied(in *rmaInbox) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], in.flow.applied.Load())
	f := transport.Frame{
		Kind:    transport.KindApplied,
		SrcRank: int32(r.id), DstRank: int32(in.origin),
		Tag: rmaTag, Comm: in.comm,
		Payload: buf[:],
	}
	r.tpSend(r.rt.place.NodeOf(in.origin), &f)
}

// tpSend submits one sequenced frame, waiting out backpressure.
func (r *Rank) tpSend(dstNode int, f *transport.Frame) {
	tp := r.rt.tp
	err := tp.Send(dstNode, f)
	if err == transport.ErrBusy {
		// Resend window full, and the link has written every frame in it
		// before saying so.  The acks that drain it arrive on the netpoller,
		// so park and retry when the reader says there is room (tpWritable);
		// poison unwinds us if the peer never drains (heartbeat silence kills
		// the link and the DeadError branch fires, or another rank poisons
		// first).  The wait is a quiet one (Rank.quiet): the frame may already
		// hold its place in an RMA flow (rmaTransmit counted it), so neither a
		// stolen chunk nor rmaProgress may put another frame of this rank's on
		// the wire before it.  The flush is for an ack a reader left to this
		// rank when it woke it; the retry is the condition, and is made once
		// per probe (ssw.Waiter never asks again after a true).
		r.quiet.Wait(func() bool {
			tp.Flush()
			err = tp.Send(dstNode, f)
			return err != transport.ErrBusy
		})
	}
	switch e := err.(type) {
	case nil:
	case *transport.DeadError:
		r.rt.poisonNodeDead(e.Node, e.Reason)
		r.checkPoison() // unwinds
	default:
		// ErrClosed and routing errors cannot happen from a live rank (Close
		// runs only after every local rank returned) — unless the runtime is
		// already unwinding, in which case poison wins.
		r.checkPoison()
		panic(fmt.Sprintf("core: rank %d: transport send to node %d: %v", r.id, dstNode, err))
	}
}
