// Package mpibase is the MPI-style baseline runtime this reproduction
// compares Pure against (the paper's baseline is Cray MPICH 7.7.19 with
// XPMEM and DMAPP on Cori).
//
// mpibase implements the process-per-rank model faithfully in-process:
// ranks never share application data structures; every message crosses the
// "library boundary" through a per-receiver matching engine guarded by a
// mutex, exactly the kind of serialization a process-based MPI pays inside
// a node.  Two protocols are implemented:
//
//   - eager (default <= 8 KiB): the payload is copied into a library buffer
//     and again into the receive buffer (two copies), sender returns as soon
//     as the payload is buffered (MPI buffered semantics);
//   - rendezvous: the sender publishes a ready-to-send record and blocks
//     until the receiver's matching receive copies the payload directly out
//     of the sender's buffer (single copy — the XPMEM-style cross-process
//     mapping Cray MPICH uses).
//
// Collectives are the classic tree algorithms (binomial broadcast/reduce,
// dissemination barrier, reduce+broadcast allreduce) built on the
// point-to-point layer — i.e., no intra-node shared-memory fast path, which
// is precisely the gap Pure's SPTD/Partitioned-Reducer collectives exploit.
//
// mpibase models one node: every rank shares the one address space.  The
// paper's cross-node MPI comparison is the discrete-event simulation in
// internal/desmodels.
//
// Matching follows the MPI non-overtaking rule per (source, tag,
// communicator); wildcards are not supported (the apps in this repository
// do not use them).
package mpibase

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/collective"
	"repro/internal/ssw"
)

// DefaultEagerMax is the eager/rendezvous threshold (Cray MPICH's default
// intra-node threshold regime).
const DefaultEagerMax = 8 << 10

// collTagBase reserves the upper tag space for collective trees.
const collTagBase = 1 << 29

// Op and DType are re-exported so applications need only this package.
type Op = collective.Op

// Reduction operators.
const (
	Sum  = collective.OpSum
	Prod = collective.OpProd
	Min  = collective.OpMin
	Max  = collective.OpMax
)

// DType is an element type.
type DType = collective.DType

// Element types.
const (
	Float64 = collective.Float64
	Float32 = collective.Float32
	Int64   = collective.Int64
	Int32   = collective.Int32
	Uint8   = collective.Uint8
)

// Config configures a run.
type Config struct {
	// NRanks is the number of MPI processes, all on one node.
	NRanks int
	// EagerMax is the protocol threshold in bytes (default 8 KiB).
	EagerMax int
}

// Runtime is one mpibase program instance.
type Runtime struct {
	cfg   Config
	boxes []*mailbox
	comms sync.Map // splitKey -> *commShared
	ids   atomic.Uint64
	world *commShared
}

// Proc is one rank's handle (an "MPI process").
type Proc struct {
	id    int
	rt    *Runtime
	wait  ssw.Waiter
	world *Comm
}

// Run launches an mpibase program: main runs once per rank.
func Run(cfg Config, main func(p *Proc)) error {
	if cfg.NRanks <= 0 {
		return fmt.Errorf("mpibase: NRanks must be positive, got %d", cfg.NRanks)
	}
	if cfg.EagerMax <= 0 {
		cfg.EagerMax = DefaultEagerMax
	}
	// Adaptive progress-spin budget, mirroring the Pure runtime's policy:
	// spinning helps only when every rank has its own core.
	spinBudget := 0
	if runtime.GOMAXPROCS(0) < cfg.NRanks {
		spinBudget = 2
	}
	rt := &Runtime{cfg: cfg}
	rt.boxes = make([]*mailbox, cfg.NRanks)
	for i := range rt.boxes {
		rt.boxes[i] = &mailbox{}
	}
	members := make([]int, cfg.NRanks)
	for i := range members {
		members[i] = i
	}
	rt.world = rt.newCommShared(members)

	var wg sync.WaitGroup
	panics := make(chan any, cfg.NRanks)
	for id := 0; id < cfg.NRanks; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panics <- fmt.Sprintf("rank %d: %v", id, p)
				}
			}()
			p := &Proc{id: id, rt: rt, wait: ssw.Waiter{SpinBudget: spinBudget}}
			p.world = &Comm{p: p, sh: rt.world, myRank: id}
			main(p)
		}(id)
	}
	wg.Wait()
	close(panics)
	if p, ok := <-panics; ok {
		return fmt.Errorf("mpibase: rank panicked: %v", p)
	}
	return nil
}

// ID returns the process's world rank.
func (p *Proc) ID() int { return p.id }

// NRanks returns the world size.
func (p *Proc) NRanks() int { return p.rt.cfg.NRanks }

// World returns the world communicator.
func (p *Proc) World() *Comm { return p.world }

// ---- The matching engine ----

// inMsg is a message that arrived before its receive was posted.
type inMsg struct {
	src, tag int
	comm     uint64
	data     []byte     // eager payload copy (nil for rendezvous)
	rts      *rtsRecord // rendezvous ready-to-send (nil for eager)
}

// rtsRecord lets the receiver copy straight out of the sender's buffer and
// release the sender (the single-copy rendezvous).
type rtsRecord struct {
	payload []byte
	copied  atomic.Bool
	n       int
}

// postedRecv is a receive waiting for its message.
type postedRecv struct {
	src, tag int
	comm     uint64
	buf      []byte
	n        int
	done     atomic.Bool
}

// mailbox is one rank's matching state.  The mutex is the library lock every
// message must take — the cost Pure's lock-free channels avoid.
type mailbox struct {
	mu         sync.Mutex
	unexpected []*inMsg
	posted     []*postedRecv
}

// Request is an in-flight nonblocking operation.
type Request struct {
	recv *postedRecv // non-nil for receives
	rts  *rtsRecord  // non-nil for rendezvous sends
	n    int
	done bool
}

// Done reports completion without blocking.
func (r *Request) Done() bool {
	if r.done {
		return true
	}
	if r.recv != nil && r.recv.done.Load() {
		r.n = r.recv.n
		r.done = true
	}
	if r.rts != nil && r.rts.copied.Load() {
		r.n = r.rts.n
		r.done = true
	}
	return r.done
}

// Bytes returns the transferred byte count of a completed request.
func (r *Request) Bytes() int { return r.n }

func (p *Proc) isend(commID uint64, buf []byte, dstGlobal, tag int) *Request {
	if dstGlobal == p.id {
		panic("mpibase: self-send is not supported")
	}
	box := p.rt.boxes[dstGlobal]
	if len(buf) <= p.rt.cfg.EagerMax {
		// Eager: copy payload into the library (first copy) under the lock;
		// match a posted receive if present (second copy).
		box.mu.Lock()
		for i, pr := range box.posted {
			if pr.src == p.id && pr.tag == tag && pr.comm == commID {
				n := copyChecked(pr.buf, buf)
				box.posted = append(box.posted[:i], box.posted[i+1:]...)
				box.mu.Unlock()
				pr.n = n
				pr.done.Store(true)
				return &Request{done: true, n: n}
			}
		}
		cp := make([]byte, len(buf))
		copy(cp, buf)
		box.unexpected = append(box.unexpected, &inMsg{src: p.id, tag: tag, comm: commID, data: cp})
		box.mu.Unlock()
		return &Request{done: true, n: len(buf)}
	}
	// Rendezvous: publish RTS; the receiver copies out of our buffer.
	rts := &rtsRecord{payload: buf}
	box.mu.Lock()
	for i, pr := range box.posted {
		if pr.src == p.id && pr.tag == tag && pr.comm == commID {
			n := copyChecked(pr.buf, buf)
			box.posted = append(box.posted[:i], box.posted[i+1:]...)
			box.mu.Unlock()
			pr.n = n
			pr.done.Store(true)
			return &Request{done: true, n: n}
		}
	}
	box.unexpected = append(box.unexpected, &inMsg{src: p.id, tag: tag, comm: commID, rts: rts})
	box.mu.Unlock()
	return &Request{rts: rts}
}

func (p *Proc) irecv(commID uint64, buf []byte, srcGlobal, tag int) *Request {
	if srcGlobal == p.id {
		panic("mpibase: self-receive is not supported")
	}
	box := p.rt.boxes[p.id]
	box.mu.Lock()
	for i, m := range box.unexpected {
		if m.src == srcGlobal && m.tag == tag && m.comm == commID {
			box.unexpected = append(box.unexpected[:i], box.unexpected[i+1:]...)
			box.mu.Unlock()
			var n int
			if m.rts != nil {
				n = copyChecked(buf, m.rts.payload)
				m.rts.n = n
				m.rts.copied.Store(true) // release the sender
			} else {
				n = copyChecked(buf, m.data)
			}
			return &Request{done: true, n: n}
		}
	}
	pr := &postedRecv{src: srcGlobal, tag: tag, comm: commID, buf: buf}
	box.posted = append(box.posted, pr)
	box.mu.Unlock()
	return &Request{recv: pr}
}

func copyChecked(dst, src []byte) int {
	if len(src) > len(dst) {
		panic(fmt.Sprintf("mpibase: %d-byte message overflows %d-byte receive buffer", len(src), len(dst)))
	}
	return copy(dst, src)
}

// waitReq blocks until req completes.
func (p *Proc) waitReq(req *Request) int {
	p.wait.Wait(req.Done)
	return req.n
}
