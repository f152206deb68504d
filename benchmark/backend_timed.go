package main

import (
	"repro/comm"
)

// backendTotals is what the timing decorator accumulates for one rank.
type backendTotals struct {
	P2PNs, CollectiveNs, TaskNs          int64
	P2PCalls, CollectiveCalls, TaskCalls int64
	MsgsSent, BytesSent                  int64 // point-to-point payloads handed to a send
}

// maxCallSpans caps the per-rank spans recorded for decorated calls: CoMD
// makes ~20 calls per step, and a span for each of a few hundred thousand
// would make the dump unreadable.  Totals cover every call regardless.
const maxCallSpans = 20000

// timedBackend decorates a comm.Backend (and its channels and tasks),
// delegating every call and accumulating per-rank time, calls and bytes per
// operation family.  It is the only way to split an application's time
// into messaging, collectives, tasks and compute from outside the program;
// it is used in the layer pass only, never in a timed repetition.
type timedBackend struct {
	inner  comm.Backend
	tot    *backendTotals // shared by the communicators Split derives
	lane   *spanLane
	parent int32
}

func newTimedBackend(inner comm.Backend, lane *spanLane, parent int32) *timedBackend {
	return &timedBackend{inner: inner, tot: &backendTotals{}, lane: lane, parent: parent}
}

var (
	_ comm.Backend        = (*timedBackend)(nil)
	_ comm.ChannelBackend = (*timedBackend)(nil)
	_ comm.Task           = (*timedTask)(nil)
)

// enter opens a call: the start time and, while under the cap, a span.
func (b *timedBackend) enter(name string) (t0 int64, id int32) {
	id = noSpan
	if b.lane != nil && len(b.lane.spans) < maxCallSpans {
		id = b.lane.begin(name, b.parent)
	}
	return now(), id
}

func (b *timedBackend) leave(ns, calls *int64, t0 int64, id int32) {
	*ns += now() - t0
	*calls++
	if id != noSpan {
		b.lane.end(id)
	}
}

func (b *timedBackend) p2p(t0 int64, id int32) {
	b.leave(&b.tot.P2PNs, &b.tot.P2PCalls, t0, id)
}
func (b *timedBackend) coll(t0 int64, id int32) {
	b.leave(&b.tot.CollectiveNs, &b.tot.CollectiveCalls, t0, id)
}
func (b *timedBackend) sent(n int) { b.tot.MsgsSent++; b.tot.BytesSent += int64(n) }

func (b *timedBackend) Rank() int { return b.inner.Rank() }
func (b *timedBackend) Size() int { return b.inner.Size() }

func (b *timedBackend) Send(buf []byte, dst, tag int) {
	t0, id := b.enter("Send")
	b.inner.Send(buf, dst, tag)
	b.p2p(t0, id)
	b.sent(len(buf))
}

func (b *timedBackend) Recv(buf []byte, src, tag int) int {
	t0, id := b.enter("Recv")
	n := b.inner.Recv(buf, src, tag)
	b.p2p(t0, id)
	return n
}

func (b *timedBackend) Sendrecv(sendBuf []byte, dst, sendTag int, recvBuf []byte, src, recvTag int) int {
	t0, id := b.enter("Sendrecv")
	n := b.inner.Sendrecv(sendBuf, dst, sendTag, recvBuf, src, recvTag)
	b.p2p(t0, id)
	b.sent(len(sendBuf))
	return n
}

func (b *timedBackend) Isend(buf []byte, dst, tag int) comm.Request {
	t0, id := b.enter("Isend")
	q := b.inner.Isend(buf, dst, tag)
	b.p2p(t0, id)
	b.sent(len(buf))
	return q
}

func (b *timedBackend) Irecv(buf []byte, src, tag int) comm.Request {
	t0, id := b.enter("Irecv")
	q := b.inner.Irecv(buf, src, tag)
	b.p2p(t0, id)
	return q
}

func (b *timedBackend) Wait(req comm.Request) int {
	t0, id := b.enter("Wait")
	n := b.inner.Wait(req)
	b.p2p(t0, id)
	return n
}

func (b *timedBackend) Waitall(reqs []comm.Request) {
	t0, id := b.enter("Waitall")
	b.inner.Waitall(reqs)
	b.p2p(t0, id)
}

func (b *timedBackend) Barrier() {
	t0, id := b.enter("Barrier")
	b.inner.Barrier()
	b.coll(t0, id)
}

func (b *timedBackend) Allreduce(in, out []byte, op comm.Op, dt comm.DType) {
	t0, id := b.enter("Allreduce")
	b.inner.Allreduce(in, out, op, dt)
	b.coll(t0, id)
}

func (b *timedBackend) Reduce(in, out []byte, root int, op comm.Op, dt comm.DType) {
	t0, id := b.enter("Reduce")
	b.inner.Reduce(in, out, root, op, dt)
	b.coll(t0, id)
}

func (b *timedBackend) Bcast(buf []byte, root int) {
	t0, id := b.enter("Bcast")
	b.inner.Bcast(buf, root)
	b.coll(t0, id)
}

func (b *timedBackend) Gather(in, out []byte, root int) {
	t0, id := b.enter("Gather")
	b.inner.Gather(in, out, root)
	b.coll(t0, id)
}

func (b *timedBackend) Scatter(in, out []byte, root int) {
	t0, id := b.enter("Scatter")
	b.inner.Scatter(in, out, root)
	b.coll(t0, id)
}

func (b *timedBackend) Split(color, key int) comm.Backend {
	t0, id := b.enter("Split")
	sub := b.inner.Split(color, key)
	b.coll(t0, id)
	if sub == nil {
		return nil
	}
	return &timedBackend{inner: sub, tot: b.tot, lane: b.lane, parent: b.parent}
}

func (b *timedBackend) SupportsTasks() bool { return b.inner.SupportsTasks() }

func (b *timedBackend) NewTask(nchunks int, body func(start, end int64, extra any)) comm.Task {
	return &timedTask{inner: b.inner.NewTask(nchunks, body), b: b}
}

// timedTask times Execute on the owning rank (chunks a thief runs overlap
// the thief's own blocked time and are not charged twice).
type timedTask struct {
	inner comm.Task
	b     *timedBackend
}

func (t *timedTask) Execute(extra any) {
	t0, id := t.b.enter("Task.Execute")
	t.inner.Execute(extra)
	t.b.leave(&t.b.tot.TaskNs, &t.b.tot.TaskCalls, t0, id)
}

func (t *timedTask) AlignedIdxRange(n int64, elemSize int, s, e int64) (int64, int64) {
	return t.inner.AlignedIdxRange(n, elemSize, s, e)
}

func (b *timedBackend) SendChannel(dst, tag int) comm.Channel {
	return timedChannel{inner: comm.SendChannelOf(b.inner, dst, tag), b: b}
}

func (b *timedBackend) RecvChannel(src, tag int) comm.Channel {
	return timedChannel{inner: comm.RecvChannelOf(b.inner, src, tag), b: b}
}

type timedChannel struct {
	inner comm.Channel
	b     *timedBackend
}

func (c timedChannel) Send(buf []byte) {
	t0, id := c.b.enter("Channel.Send")
	c.inner.Send(buf)
	c.b.p2p(t0, id)
	c.b.sent(len(buf))
}

func (c timedChannel) Recv(buf []byte) int {
	t0, id := c.b.enter("Channel.Recv")
	n := c.inner.Recv(buf)
	c.b.p2p(t0, id)
	return n
}

func (c timedChannel) Isend(buf []byte) comm.Request {
	t0, id := c.b.enter("Channel.Isend")
	q := c.inner.Isend(buf)
	c.b.p2p(t0, id)
	c.b.sent(len(buf))
	return q
}

func (c timedChannel) Irecv(buf []byte) comm.Request {
	t0, id := c.b.enter("Channel.Irecv")
	q := c.inner.Irecv(buf)
	c.b.p2p(t0, id)
	return q
}
