package core

import (
	"runtime"

	"repro/internal/obs"
	"repro/internal/sched"
)

func gosched() { runtime.Gosched() }

// Task is a Pure Task (paper §3.2): a closure over application state whose
// chunk range [start, end) executions the runtime may distribute across the
// owning rank and any co-resident ranks blocked in their SSW-Loops.
//
// A task is defined once (typically outside the timestep loop) and executed
// many times.  The body must be safe for concurrent invocation on disjoint
// chunk ranges; use AlignedIdxRange to map chunks to cacheline-aligned index
// ranges and avoid false sharing.
type Task struct {
	r       *Rank
	nchunks int64
	body    sched.Body
}

// NewTask defines a task split into nchunks chunks.  nchunks defaults to
// DefaultTaskChunks when zero and is capped by the runtime's configured
// maximum (PURE_MAX_TASK_CHUNKS in the paper's build system).
func (r *Rank) NewTask(nchunks int, body sched.Body) *Task {
	if nchunks <= 0 {
		nchunks = DefaultTaskChunks
	}
	return &Task{r: r, nchunks: int64(nchunks), body: body}
}

// Chunks returns the number of chunks the task splits into.
func (t *Task) Chunks() int64 { return t.nchunks }

// Execute runs the task to completion, possibly with chunks stolen by other
// ranks on the node, and returns how the chunks were distributed.  extra is
// passed to every body invocation (the paper's per_exe_args, for values that
// change between executions and therefore cannot be captured at definition
// time).  Execute returns only when every chunk has run (paper: "This call
// passes responsibility to the Pure runtime system ... and only returns when
// it is complete").
func (t *Task) Execute(extra any) sched.RunStats {
	r := t.r
	ns := r.rt.nodes[r.node]
	t0 := r.traceStart()
	// The straggler wait inside Run (owner waiting for stolen chunks to
	// finish) is a blocking point like any other; publish it.  Thieves that
	// execute chunks tick the progress counter through the steal observer, so
	// the watchdog sees a long-running task as live.
	lw := lazyWait{r: r, rec: WaitRecord{Kind: WaitTask, Peer: -1, Seq: uint64(t.nchunks), Op: "execute"}}
	stats := ns.sched.Run(r.local, t.nchunks, t.body, extra, lw.wait)
	lw.finish()
	r.count(&r.stats.TasksExecuted, 1)
	r.count(&r.stats.ChunksOwned, stats.OwnerChunks)
	r.count(&r.stats.ChunksStolen, stats.StolenChunks)
	if r.trace != nil {
		r.trace.EmitSpan(obs.KTaskExecute, -1, t.nchunks, t0)
	}
	return stats
}

// AlignedIdxRange maps a chunk range to a cacheline-aligned element index
// range over n elements of elemSize bytes (the paper's
// pure_aligned_idx_range helper).
func (t *Task) AlignedIdxRange(n int64, elemSize int, startChunk, endChunk int64) (lo, hi int64) {
	return sched.AlignedIdxRange(n, elemSize, startChunk, endChunk, t.nchunks)
}

// UnalignedIdxRange is the unaligned variant.
func (t *Task) UnalignedIdxRange(n int64, startChunk, endChunk int64) (lo, hi int64) {
	return sched.UnalignedIdxRange(n, startChunk, endChunk, t.nchunks)
}
