// Package comm defines the small backend-neutral interface the mini-apps in
// this repository (CoMD, miniAMR, NAS DT, the §2 stencil) are written
// against, with adapters for both runtimes:
//
//   - RunPure launches the app over package pure (thread-based ranks,
//     lock-free intra-node messaging, SPTD collectives, Pure Tasks);
//   - RunMPI launches the identical app over package mpibase (the
//     process-semantics MPI baseline; tasks execute serially on the owner).
//
// This mirrors the paper's methodology: the same application source, ported
// between MPI and Pure with only the communication calls (and optional
// tasks) changing.  The cmd/mpi2pure translator rewrites the explicit
// mpibase form into the pure form mechanically.
package comm

import (
	"repro/internal/codec"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/sched"
	"repro/mpibase"
	"repro/pure"
)

// Op is a reduction operator.
type Op = collective.Op

// DType is a payload element type.
type DType = collective.DType

// Reduction operators and element types.
const (
	Sum  = collective.OpSum
	Prod = collective.OpProd
	Min  = collective.OpMin
	Max  = collective.OpMax

	Float64 = collective.Float64
	Int64   = collective.Int64
)

// Request is an opaque in-flight nonblocking operation.
type Request any

// Task is an executable chunk-parallel region.  Over Pure it may be stolen
// by blocked ranks; over the MPI baseline it runs serially on the owner
// (processes cannot share work).
type Task interface {
	// Execute runs every chunk exactly once and returns when all are done.
	Execute(extra any)
	// AlignedIdxRange maps a chunk range to a cacheline-aligned element
	// index range over n elements of elemSize bytes.
	AlignedIdxRange(n int64, elemSize int, startChunk, endChunk int64) (lo, hi int64)
}

// Backend is one rank's communication context.
type Backend interface {
	Rank() int
	Size() int
	Send(buf []byte, dst, tag int)
	Recv(buf []byte, src, tag int) int
	// Sendrecv pairs a send and a receive without deadlock risk.
	Sendrecv(sendBuf []byte, dst, sendTag int, recvBuf []byte, src, recvTag int) int
	Isend(buf []byte, dst, tag int) Request
	Irecv(buf []byte, src, tag int) Request
	Wait(req Request) int
	Waitall(reqs []Request)
	Barrier()
	Allreduce(in, out []byte, op Op, dt DType)
	// Reduce folds every rank's in buffer; the result lands in root's out
	// buffer (other ranks may pass nil).
	Reduce(in, out []byte, root int, op Op, dt DType)
	Bcast(buf []byte, root int)
	// Gather collects every rank's equal-sized in payload into root's out
	// buffer (Size()*len(in) bytes at the root; others may pass nil).
	Gather(in, out []byte, root int)
	// Scatter distributes contiguous len(out)-byte slices of root's in buffer
	// (Size()*len(out) bytes at the root; others may pass nil).
	Scatter(in, out []byte, root int)
	// Split partitions the communicator; negative color opts out (nil).
	Split(color, key int) Backend
	// NewTask defines a chunk-parallel region with nchunks chunks.
	NewTask(nchunks int, body func(start, end int64, extra any)) Task
	// SupportsTasks reports whether Execute may be assisted by other ranks.
	SupportsTasks() bool
}

// Channel is a persistent point-to-point endpoint bound to one peer and one
// tag.  Over Pure it is the runtime's cached zero-allocation endpoint; over
// backends without native endpoints it is a thin bound wrapper, so apps can
// hoist channel setup out of their hot loops and still run everywhere.
type Channel interface {
	Send(buf []byte)
	Recv(buf []byte) int
	Isend(buf []byte) Request
	Irecv(buf []byte) Request
}

// ChannelBackend is implemented by backends with native persistent
// endpoints (Pure).  Apps should use SendChannelOf/RecvChannelOf, which
// fall back to bound wrappers on other backends.
type ChannelBackend interface {
	SendChannel(dst, tag int) Channel
	RecvChannel(src, tag int) Channel
}

// SendChannelOf returns a persistent send endpoint to dst with tag: the
// backend's native endpoint when it has one, a bound wrapper otherwise.
func SendChannelOf(b Backend, dst, tag int) Channel {
	if cb, ok := b.(ChannelBackend); ok {
		return cb.SendChannel(dst, tag)
	}
	return sendBound{b: b, peer: dst, tag: tag}
}

// RecvChannelOf returns a persistent receive endpoint from src with tag.
func RecvChannelOf(b Backend, src, tag int) Channel {
	if cb, ok := b.(ChannelBackend); ok {
		return cb.RecvChannel(src, tag)
	}
	return recvBound{b: b, peer: src, tag: tag}
}

// sendBound / recvBound adapt a plain Backend to the Channel shape; the
// wrong-direction methods panic like the native endpoints do.
type sendBound struct {
	b    Backend
	peer int
	tag  int
}

func (c sendBound) Send(buf []byte)          { c.b.Send(buf, c.peer, c.tag) }
func (c sendBound) Isend(buf []byte) Request { return c.b.Isend(buf, c.peer, c.tag) }
func (c sendBound) Recv([]byte) int          { panic("comm: Recv on a send channel") }
func (c sendBound) Irecv([]byte) Request     { panic("comm: Irecv on a send channel") }

type recvBound struct {
	b    Backend
	peer int
	tag  int
}

func (c recvBound) Recv(buf []byte) int      { return c.b.Recv(buf, c.peer, c.tag) }
func (c recvBound) Irecv(buf []byte) Request { return c.b.Irecv(buf, c.peer, c.tag) }
func (c recvBound) Send([]byte)              { panic("comm: Send on a receive channel") }
func (c recvBound) Isend([]byte) Request     { panic("comm: Isend on a receive channel") }

// ---- Typed helpers over any backend ----

// AllreduceFloat64 folds one float64 across the communicator.
func AllreduceFloat64(b Backend, v float64, op Op) float64 {
	out := make([]float64, 1)
	AllreduceFloat64s(b, []float64{v}, out, op)
	return out[0]
}

// AllreduceInt64 folds one int64 across the communicator.
func AllreduceInt64(b Backend, v int64, op Op) int64 {
	ob := make([]byte, 8)
	b.Allreduce(codec.Int64Bytes([]int64{v}), ob, op, Int64)
	out := make([]int64, 1)
	codec.GetInt64s(out, ob)
	return out[0]
}

// AllreduceFloat64s element-wise folds a vector across the communicator.
func AllreduceFloat64s(b Backend, in, out []float64, op Op) {
	ib := codec.Float64Bytes(in)
	ob := make([]byte, len(ib))
	b.Allreduce(ib, ob, op, Float64)
	codec.GetFloat64s(out, ob)
}

// SendFloat64s / RecvFloat64s move float64 vectors point-to-point.
func SendFloat64s(b Backend, vals []float64, dst, tag int) {
	b.Send(codec.Float64Bytes(vals), dst, tag)
}

// RecvFloat64s receives exactly len(vals) float64s.
func RecvFloat64s(b Backend, vals []float64, src, tag int) {
	buf := make([]byte, 8*len(vals))
	n := b.Recv(buf, src, tag)
	codec.GetFloat64s(vals[:n/8], buf[:n])
}

// SendrecvFloat64s pairs a float64-vector send and receive without deadlock
// risk (the typed convenience over Backend.Sendrecv).
func SendrecvFloat64s(b Backend, send []float64, dst, sendTag int, recv []float64, src, recvTag int) {
	buf := make([]byte, 8*len(recv))
	n := b.Sendrecv(codec.Float64Bytes(send), dst, sendTag, buf, src, recvTag)
	codec.GetFloat64s(recv[:n/8], buf[:n])
}

// ---- Pure adapter ----

type pureBackend struct {
	r *pure.Rank
	c *pure.Comm
}

// RunPure runs main over the Pure runtime.
func RunPure(cfg pure.Config, main func(b Backend)) error {
	return pure.Run(cfg, func(r *pure.Rank) {
		main(&pureBackend{r: r, c: r.World()})
	})
}

// RunPureWithReport is RunPure plus the profiling report; when cfg.Trace or
// cfg.Metrics are set, the report also carries the observability exports
// (Report.Timeline, Report.WriteChromeTrace, Report.Metrics.Snapshot).
func RunPureWithReport(cfg pure.Config, main func(b Backend)) (pure.Report, error) {
	return pure.RunWithReport(cfg, func(r *pure.Rank) {
		main(&pureBackend{r: r, c: r.World()})
	})
}

func (b *pureBackend) Rank() int                     { return b.c.Rank() }
func (b *pureBackend) Size() int                     { return b.c.Size() }
func (b *pureBackend) Send(buf []byte, dst, tag int) { b.c.Send(buf, dst, tag) }
func (b *pureBackend) Recv(buf []byte, src, tag int) int {
	return b.c.Recv(buf, src, tag)
}
func (b *pureBackend) Sendrecv(sendBuf []byte, dst, sendTag int, recvBuf []byte, src, recvTag int) int {
	return b.c.Sendrecv(sendBuf, dst, sendTag, recvBuf, src, recvTag)
}
func (b *pureBackend) Isend(buf []byte, dst, tag int) Request { return b.c.Isend(buf, dst, tag) }
func (b *pureBackend) Irecv(buf []byte, src, tag int) Request { return b.c.Irecv(buf, src, tag) }
func (b *pureBackend) Wait(req Request) int                   { return b.c.Wait(req.(*pure.Request)) }
func (b *pureBackend) Waitall(reqs []Request) {
	for _, q := range reqs {
		if q == nil {
			continue // MPI_REQUEST_NULL slot
		}
		b.c.Wait(q.(*pure.Request))
	}
}
func (b *pureBackend) Barrier() { b.c.Barrier() }
func (b *pureBackend) Allreduce(in, out []byte, op Op, dt DType) {
	b.c.Allreduce(in, out, op, dt)
}
func (b *pureBackend) Reduce(in, out []byte, root int, op Op, dt DType) {
	b.c.Reduce(in, out, root, op, dt)
}
func (b *pureBackend) Bcast(buf []byte, root int)       { b.c.Bcast(buf, root) }
func (b *pureBackend) Gather(in, out []byte, root int)  { b.c.Gather(in, out, root) }
func (b *pureBackend) Scatter(in, out []byte, root int) { b.c.Scatter(in, out, root) }
func (b *pureBackend) Split(color, key int) Backend {
	sub := b.c.Split(color, key)
	if sub == nil {
		return nil
	}
	return &pureBackend{r: b.r, c: sub}
}
func (b *pureBackend) NewTask(nchunks int, body func(start, end int64, extra any)) Task {
	return &pureTask{t: b.r.NewTask(nchunks, body)}
}
func (b *pureBackend) SupportsTasks() bool { return true }

// pureBackend exposes the runtime's native persistent endpoints.
func (b *pureBackend) SendChannel(dst, tag int) Channel {
	return pureChannel{ch: b.c.SendChannel(dst, tag)}
}
func (b *pureBackend) RecvChannel(src, tag int) Channel {
	return pureChannel{ch: b.c.RecvChannel(src, tag)}
}

type pureChannel struct{ ch *pure.Channel }

func (c pureChannel) Send(buf []byte)          { c.ch.Send(buf) }
func (c pureChannel) Recv(buf []byte) int      { return c.ch.Recv(buf) }
func (c pureChannel) Isend(buf []byte) Request { return c.ch.Isend(buf) }
func (c pureChannel) Irecv(buf []byte) Request { return c.ch.Irecv(buf) }

type pureTask struct{ t *pure.Task }

func (t *pureTask) Execute(extra any) { t.t.Execute(extra) }
func (t *pureTask) AlignedIdxRange(n int64, elemSize int, s, e int64) (int64, int64) {
	return t.t.AlignedIdxRange(n, elemSize, s, e)
}

// ---- MPI-baseline adapter ----

type mpiBackend struct {
	p *mpibase.Proc
	c *mpibase.Comm
}

// RunMPI runs main over the mpibase baseline runtime.
func RunMPI(cfg mpibase.Config, main func(b Backend)) error {
	return mpibase.Run(cfg, func(p *mpibase.Proc) {
		main(&mpiBackend{p: p, c: p.World()})
	})
}

func (b *mpiBackend) Rank() int                     { return b.c.Rank() }
func (b *mpiBackend) Size() int                     { return b.c.Size() }
func (b *mpiBackend) Send(buf []byte, dst, tag int) { b.c.Send(buf, dst, tag) }
func (b *mpiBackend) Recv(buf []byte, src, tag int) int {
	return b.c.Recv(buf, src, tag)
}
func (b *mpiBackend) Sendrecv(sendBuf []byte, dst, sendTag int, recvBuf []byte, src, recvTag int) int {
	return b.c.Sendrecv(sendBuf, dst, sendTag, recvBuf, src, recvTag)
}
func (b *mpiBackend) Isend(buf []byte, dst, tag int) Request { return b.c.Isend(buf, dst, tag) }
func (b *mpiBackend) Irecv(buf []byte, src, tag int) Request { return b.c.Irecv(buf, src, tag) }
func (b *mpiBackend) Wait(req Request) int                   { return b.c.Wait(req.(*mpibase.Request)) }
func (b *mpiBackend) Waitall(reqs []Request) {
	for _, q := range reqs {
		if q == nil {
			continue // MPI_REQUEST_NULL slot
		}
		b.c.Wait(q.(*mpibase.Request))
	}
}
func (b *mpiBackend) Barrier() { b.c.Barrier() }
func (b *mpiBackend) Allreduce(in, out []byte, op Op, dt DType) {
	b.c.Allreduce(in, out, op, dt)
}
func (b *mpiBackend) Reduce(in, out []byte, root int, op Op, dt DType) {
	b.c.Reduce(in, out, root, op, dt)
}
func (b *mpiBackend) Bcast(buf []byte, root int)       { b.c.Bcast(buf, root) }
func (b *mpiBackend) Gather(in, out []byte, root int)  { b.c.Gather(in, out, root) }
func (b *mpiBackend) Scatter(in, out []byte, root int) { b.c.Scatter(in, out, root) }
func (b *mpiBackend) Split(color, key int) Backend {
	sub := b.c.Split(color, key)
	if sub == nil {
		return nil
	}
	return &mpiBackend{p: b.p, c: sub}
}
func (b *mpiBackend) NewTask(nchunks int, body func(start, end int64, extra any)) Task {
	if nchunks <= 0 {
		nchunks = core.DefaultTaskChunks
	}
	return &serialTask{nchunks: int64(nchunks), body: body}
}
func (b *mpiBackend) SupportsTasks() bool { return false }

// serialTask executes all chunks on the owner: an MPI process has no
// co-resident threads to donate cycles.
type serialTask struct {
	nchunks int64
	body    func(start, end int64, extra any)
}

func (t *serialTask) Execute(extra any) { t.body(0, t.nchunks, extra) }
func (t *serialTask) AlignedIdxRange(n int64, elemSize int, s, e int64) (int64, int64) {
	return sched.AlignedIdxRange(n, elemSize, s, e, t.nchunks)
}
