// Package sched implements the Pure Task Scheduler (paper §4.3).
//
// A Pure Task is a chunk of application code (a closure) that its owning
// rank executes synchronously, but whose chunks may be stolen by other ranks
// on the same node that are blocked in the SSW-Loop.  The runtime keeps an
// active_tasks array in (per-node) shared memory with one atomic task-pointer
// slot per rank; a non-nil entry means "open for stealing".  Two atomic
// integers drive each execution: currChunk allocates chunks with fetch-add
// and chunksDone counts completions.  The owner executes until every chunk
// is allocated, then waits for stragglers; thieves steal one allocation per
// SSW probe and return to their blocking condition (work-first policy).
package sched

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/schedpoint"
)

// Body is the executable of a Pure Task.  The runtime calls it with a
// half-open chunk range [start, end) that it must execute exactly once;
// extra carries the per-execute argument (the paper's per_exe_args).
// Bodies must be thread-safe across disjoint chunk ranges.
type Body func(start, end int64, extra any)

// ChunkMode selects how many chunks one allocation grabs.
type ChunkMode int

const (
	// SingleChunk allocates one chunk at a time (the paper's default in all
	// reported experiments).
	SingleChunk ChunkMode = iota
	// GuidedSelfScheduling allocates remaining/(2*nslots) chunks at a time,
	// so early allocations are large and the tail is fine-grained
	// (Polychronopoulos & Kuck, as cited by the paper).
	GuidedSelfScheduling
)

// StealPolicy selects how thieves pick victims.
type StealPolicy int

const (
	// RandomSteal probes a uniformly random slot per attempt, as in Cilk
	// (the paper's evaluated configuration).
	RandomSteal StealPolicy = iota
	// NUMAAwareSteal prefers victims on the thief's own socket, falling back
	// to a global random probe every few attempts.
	NUMAAwareSteal
	// StickySteal returns to the most recently robbed task if it is still
	// active, else behaves like RandomSteal.
	StickySteal
)

// Config configures a node's scheduler.
type Config struct {
	// Slots is the number of rank slots on this node (ranks + helper threads).
	Slots int
	// ChunkMode selects the allocation granularity (default SingleChunk).
	ChunkMode ChunkMode
	// Policy selects the victim policy (default RandomSteal).
	Policy StealPolicy
	// SocketOf maps slot -> NUMA domain for NUMAAwareSteal; nil means one domain.
	SocketOf []int
	// OwnerSteals lets a rank that finished allocating its own task's chunks
	// steal from other tasks while waiting for stragglers.  The paper's
	// owner simply waits; this is an extension (off by default).
	OwnerSteals bool
}

// exec is the state of one task execution.  A fresh exec is allocated per
// Execute call so that a thief holding a stale pointer from a previous
// execution can only ever observe an exhausted chunk counter, never chunks
// of a different execution.
type exec struct {
	body    Body
	nchunks int64
	extra   any
	mode    ChunkMode
	nslots  int64

	_    [64]byte
	curr atomic.Int64 // next chunk to allocate
	_    [64]byte
	done atomic.Int64 // chunks completed by thieves (owner counts locally)
	_    [64]byte
}

// grab allocates the next chunk range.  ok is false when all chunks have
// been allocated.
func (e *exec) grab() (start, end int64, ok bool) {
	k := int64(1)
	if e.mode == GuidedSelfScheduling {
		remaining := e.nchunks - e.curr.Load()
		if remaining > 0 {
			k = remaining / (2 * e.nslots)
			if k < 1 {
				k = 1
			}
		}
	}
	schedpoint.Point("sched:grab:alloc")
	start = e.curr.Add(k) - k
	if start >= e.nchunks {
		return 0, 0, false
	}
	end = start + k
	if end > e.nchunks {
		end = e.nchunks
	}
	return start, end, true
}

// Scheduler is one node's active_tasks array plus policy state.  All ranks
// (and helper threads) of the node share one Scheduler.
type Scheduler struct {
	cfg    Config
	active []atomic.Pointer[exec] // the paper's active_tasks array
	// sameSocket[s] lists the slots on slot s's socket (for NUMA-aware steals).
	sameSocket [][]int
	// ownerThieves are lazily created per-slot thieves for OwnerSteals waits
	// (each slot's owner goroutine is the only user of its entry).
	ownerThieves []*Thief
}

// New builds a scheduler for cfg.Slots co-resident ranks.
func New(cfg Config) *Scheduler {
	if cfg.Slots <= 0 {
		panic(fmt.Sprintf("sched: Slots must be positive, got %d", cfg.Slots))
	}
	if cfg.SocketOf != nil && len(cfg.SocketOf) != cfg.Slots {
		panic(fmt.Sprintf("sched: SocketOf has %d entries for %d slots", len(cfg.SocketOf), cfg.Slots))
	}
	s := &Scheduler{
		cfg:          cfg,
		active:       make([]atomic.Pointer[exec], cfg.Slots),
		ownerThieves: make([]*Thief, cfg.Slots),
	}
	if cfg.Policy == NUMAAwareSteal {
		socketOf := cfg.SocketOf
		if socketOf == nil {
			socketOf = make([]int, cfg.Slots)
		}
		bySocket := map[int][]int{}
		for slot, sk := range socketOf {
			bySocket[sk] = append(bySocket[sk], slot)
		}
		s.sameSocket = make([][]int, cfg.Slots)
		for slot, sk := range socketOf {
			s.sameSocket[slot] = bySocket[sk]
		}
	}
	return s
}

// Slots returns the number of rank slots.
func (s *Scheduler) Slots() int { return s.cfg.Slots }

// RunStats reports how an execution's chunks were distributed.
type RunStats struct {
	OwnerChunks  int64 // chunks the owning rank executed itself
	StolenChunks int64 // chunks executed by thieves
}

// Run executes a task to completion on behalf of the owning rank in slot.
// It opens the task for stealing, executes chunks work-first, and returns
// only when every chunk has been executed (possibly by thieves).  wait is
// the rank's SSW wait function, used for the straggler wait.
func (s *Scheduler) Run(slot int, nchunks int64, body Body, extra any, wait func(cond func() bool)) RunStats {
	if nchunks <= 0 {
		return RunStats{}
	}
	e := &exec{body: body, nchunks: nchunks, extra: extra, mode: s.cfg.ChunkMode, nslots: int64(s.cfg.Slots)}
	schedpoint.Point("sched:run:open")
	s.active[slot].Store(e) // publish: open for stealing

	var localDone int64 // the paper's owner-local completion count (avoids a
	// fetch-add cache miss per owner chunk)
	for {
		start, end, ok := e.grab()
		if !ok {
			break
		}
		schedpoint.Point("sched:run:exec-chunk")
		body(start, end, extra)
		localDone += end - start
	}
	// All chunks allocated; wait for thieves to finish executing theirs.
	// The paper's owner simply waits; with OwnerSteals the owner spends the
	// straggler wait stealing from *other* ranks' open tasks (an extension —
	// off by default to match the paper).
	if s.cfg.OwnerSteals {
		th := s.ownerThief(slot)
		for e.done.Load()+localDone != nchunks {
			if !th.TrySteal() {
				gosched()
			}
		}
	} else {
		wait(func() bool { return e.done.Load()+localDone == nchunks })
	}
	schedpoint.Point("sched:run:close")
	s.active[slot].Store(nil) // close
	return RunStats{OwnerChunks: localDone, StolenChunks: nchunks - localDone}
}

// ownerThief returns a cached per-slot thief used for OwnerSteals waits.
func (s *Scheduler) ownerThief(slot int) *Thief {
	if s.ownerThieves[slot] == nil {
		s.ownerThieves[slot] = s.NewThief(slot)
	}
	return s.ownerThieves[slot]
}

// stealGrab attempts to allocate one chunk range from the exec in the victim
// slot without executing it (so the thief can time the execution separately).
func (s *Scheduler) stealGrab(victim int) (e *exec, start, end int64, ok bool) {
	schedpoint.Point("sched:steal:load-victim")
	e = s.active[victim].Load()
	if e == nil {
		return nil, 0, 0, false
	}
	start, end, ok = e.grab()
	return e, start, end, ok
}

// runStolen executes a grabbed allocation on behalf of thief t, timing it
// only when an observer is attached.
func (t *Thief) runStolen(e *exec, start, end int64) {
	if t.Obs != nil {
		t0 := time.Now()
		e.body(start, end, e.extra)
		e.done.Add(end - start)
		t.Obs(time.Since(t0).Nanoseconds())
		return
	}
	schedpoint.Point("sched:steal:exec-chunk")
	e.body(start, end, e.extra)
	schedpoint.Point("sched:steal:count-done")
	e.done.Add(end - start)
}

// Thief is one rank's (or helper thread's) stealing agent.  It implements
// ssw.Stealer.  Each rank owns exactly one Thief; it is not safe for
// concurrent use.
type Thief struct {
	s    *Scheduler
	slot int
	rng  uint64
	// lastVictim / lastExec implement sticky stealing.
	lastVictim int
	lastExec   *exec
	// Stats
	Stolen   int64 // chunks this thief has executed
	Attempts int64 // TrySteal calls

	// Obs, when non-nil, is invoked after every successful steal with the
	// nanoseconds spent executing the stolen allocation.  The runtime's
	// observability layer sets it; the cost (two clock reads per successful
	// steal, none on failed probes) is paid only when tracing is enabled.
	Obs func(ns int64)
}

// NewThief creates the stealing agent for the rank in slot.
func (s *Scheduler) NewThief(slot int) *Thief {
	return &Thief{s: s, slot: slot, rng: uint64(slot)*0x9E3779B97F4A7C15 + 0x2545F4914F6CDD1D, lastVictim: -1}
}

// next returns a pseudo-random value (xorshift64*; no locks, no allocation —
// the steal probe must stay "a handful of assembly instructions").
func (t *Thief) next() uint64 {
	t.rng ^= t.rng >> 12
	t.rng ^= t.rng << 25
	t.rng ^= t.rng >> 27
	return t.rng * 0x2545F4914F6CDD1D
}

// TrySteal probes the active_tasks array once and executes at most one
// stolen allocation, per the paper's work-first discipline ("thieves do just
// one chunk of stolen work before checking on their blocking event again").
// It reports whether any work was executed.
func (t *Thief) TrySteal() bool {
	t.Attempts++
	s := t.s
	n := s.cfg.Slots
	if n <= 1 {
		return false
	}
	// Sticky: revisit the previous victim if its execution is still live.
	if s.cfg.Policy == StickySteal && t.lastExec != nil {
		if s.active[t.lastVictim].Load() == t.lastExec {
			if e, start, end, ok := s.stealGrab(t.lastVictim); ok {
				t.runStolen(e, start, end)
				t.Stolen++
				return true
			}
		}
		t.lastExec = nil
	}
	var victim int
	switch s.cfg.Policy {
	case NUMAAwareSteal:
		// Prefer same-socket victims; every 4th probe goes global so remote
		// tasks are not starved.
		local := s.sameSocket[t.slot]
		if len(local) > 1 && t.next()%4 != 0 {
			victim = local[int(t.next()%uint64(len(local)))]
		} else {
			victim = int(t.next() % uint64(n))
		}
	default:
		victim = int(t.next() % uint64(n))
	}
	if victim == t.slot {
		victim = (victim + 1) % n
	}
	e, start, end, ok := s.stealGrab(victim)
	if ok {
		t.runStolen(e, start, end)
		t.Stolen++
		if s.cfg.Policy == StickySteal {
			t.lastVictim, t.lastExec = victim, e
		}
		return true
	}
	return false
}

// Helpers runs n helper threads that do nothing but steal until stop is
// closed (the paper's "Pure helper threads... simply extra threads that
// continuously try to steal work", used when ranks don't cover all cores,
// e.g. DT class A).  Helper slots must have been included in Config.Slots.
// Returns a WaitGroup the caller can Wait on after closing stop.
func (s *Scheduler) Helpers(firstSlot, n int, stop <-chan struct{}) *sync.WaitGroup {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			th := s.NewThief(slot)
			spins := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				if th.TrySteal() {
					spins = 0
					continue
				}
				spins++
				if spins >= 32 {
					spins = 0
					gosched()
				}
			}
		}(firstSlot + i)
	}
	return &wg
}
