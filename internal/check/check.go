// Package check is a deterministic schedule-exploration harness for the
// repository's lock-free shared-memory protocols (PBQ/ring, SPTD dropboxes,
// RMA epoch flags, the task-stealing scheduler).
//
// The Go race detector only examines the schedules that happen to occur;
// check makes schedules first-class.  A model test runs N application
// "threads" as goroutines under a cooperative scheduler: exactly one thread
// executes at a time, and at every instrumented synchronization point (a
// schedpoint seam compiled into the hot loops only under the `purecheck`
// build tag) the running thread hands control back to the scheduler, which
// picks the next thread to run.  Two choosers are provided:
//
//   - PCT (probabilistic concurrency testing, Burckhardt et al. ASPLOS'10):
//     random thread priorities plus d priority-change points, seeded, so a
//     failing schedule is replayed exactly by re-running its seed;
//   - bounded exhaustive DFS over every scheduling choice, for small
//     configurations (2-3 threads, a handful of operations).
//
// Threads block through Wait (the checker's WaitFunc): the scheduler parks
// the thread and probes its condition only when the thread is the next
// scheduling candidate, so conditions with acquire side effects (TryLock)
// stay correct under PCT.  Exhaustive mode probes every parked condition at
// each step to enumerate the full choice set and therefore requires pure
// conditions (all the fence/sequence-flag polls in this repository are pure
// loads).
//
// The harness serializes execution, which models sequentially consistent
// interleavings at schedpoint granularity: exactly the level at which Go's
// sync/atomic operations interleave.  What it checks is protocol logic —
// lost signals, round/sequence mismatches, torn observer snapshots,
// deadlocks — not weak-memory reordering (Go atomics are SC) and not data
// races on unannotated fields (that remains `make race`'s job).
package check

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// Threads is one schedule's workload: the cooperative thread bodies plus an
// optional invariant checked after every thread has finished.  A fresh
// Threads must be built per schedule (state is not reusable across runs).
type Threads struct {
	// Names labels the threads in failure traces; optional (index used when
	// short).
	Names []string
	// Fns are the thread bodies.  They must be deterministic: given the
	// same scheduling decisions they must perform the same schedpoint/Wait
	// sequence (no time, no randomness, no channel waits).
	Fns []func()
	// Final, if non-nil, runs on the scheduler goroutine after all threads
	// complete; a non-nil error fails the schedule.
	Final func() error
}

// Step is one scheduling decision in a trace: which thread ran and the label
// of the schedpoint (or wait) it stopped at next.
type Step struct {
	Thread int
	Label  string
}

// Result reports one explored schedule.
type Result struct {
	Steps int    // scheduling decisions taken
	Trace []Step // the full decision sequence (for failure reports)
	Err   error  // nil for a clean schedule
}

// Failed reports whether the schedule violated an invariant, deadlocked,
// panicked, or exceeded the step bound.
func (r Result) Failed() bool { return r.Err != nil }

// TraceString renders the tail of the schedule trace for failure messages.
func (r Result) TraceString(max int) string {
	tr := r.Trace
	omitted := 0
	if len(tr) > max {
		omitted = len(tr) - max
		tr = tr[omitted:]
	}
	var b strings.Builder
	if omitted > 0 {
		fmt.Fprintf(&b, "... %d earlier steps ...\n", omitted)
	}
	for _, s := range tr {
		fmt.Fprintf(&b, "  T%d %s\n", s.Thread, s.Label)
	}
	return b.String()
}

// DefaultMaxSteps bounds a single schedule; exceeding it is reported as a
// livelock (some thread is spinning without a schedpoint-visible wait).
const DefaultMaxSteps = 100000

// ---- The cooperative scheduler ----

// cursched is the scheduler driving the current run.  Exactly one run is
// active at a time (the harness is not reentrant); it is set before worker
// goroutines start and cleared after they all finish, so the accesses are
// ordered by goroutine creation/termination and the run's channel handoffs.
var cursched *scheduler

// abortSentinel unwinds a parked worker when its schedule is being torn
// down (another thread failed, or the step bound was hit).
type abortSentinel struct{}

type evKind uint8

const (
	evYield evKind = iota // thread reached a schedpoint
	evBlock               // thread parked on a condition
	evDone                // thread body returned
	evPanic               // thread body panicked
	evAbort               // thread unwound by teardown
)

type event struct {
	t     *thread
	kind  evKind
	label string
	cond  func() bool
	pval  any // evPanic value
}

type thread struct {
	id     int
	name   string
	fn     func()
	resume chan struct{}
	// Scheduler-owned state (only touched while the thread is parked):
	cond     func() bool // non-nil when parked in Wait
	finished bool
	lastLbl  string
}

type scheduler struct {
	threads []*thread
	toSched chan event
	cur     *thread
	granted bool // true only while a worker goroutine is executing
	abort   bool // set during teardown; parked workers unwind when resumed
	trace   []Step
}

// yield is the schedpoint implementation: park at a scheduling decision.
func (s *scheduler) yield(label string) {
	if !s.granted {
		// Called from the scheduler goroutine (a condition probe reaching
		// instrumented code) — not a worker decision point.
		return
	}
	t := s.cur
	t.lastLbl = label
	s.toSched <- event{t: t, kind: evYield, label: label}
	s.waitGrant(t)
}

// waitCond parks the calling thread until cond holds.  The scheduler probes
// cond only when this thread is its next scheduling candidate.
func (s *scheduler) waitCond(cond func() bool, label string) {
	if !s.granted {
		// Scheduler-side call (e.g. a Final hook): evaluate inline; with
		// every worker parked the state is quiescent, so a false condition
		// here can never become true.
		if !cond() {
			panic("check: Wait called outside a checker thread with an unsatisfiable condition")
		}
		return
	}
	t := s.cur
	t.lastLbl = label
	s.toSched <- event{t: t, kind: evBlock, label: label, cond: cond}
	s.waitGrant(t)
}

func (s *scheduler) waitGrant(t *thread) {
	<-t.resume
	if s.abort {
		panic(abortSentinel{})
	}
}

// grant runs thread t until its next event and returns that event.
func (s *scheduler) grant(t *thread) event {
	s.cur = t
	s.granted = true
	t.resume <- struct{}{}
	ev := <-s.toSched
	s.granted = false
	s.cur = nil
	return ev
}

// schedState is the view a chooser gets of the current scheduling step.
type schedState struct {
	s    *scheduler
	step int
}

// N returns the thread count.
func (st *schedState) N() int { return len(st.s.threads) }

// Finished reports whether thread i's body has returned.
func (st *schedState) Finished(i int) bool { return st.s.threads[i].finished }

// Blocked reports whether thread i is parked on a condition.
func (st *schedState) Blocked(i int) bool { return st.s.threads[i].cond != nil }

// Probe evaluates thread i's parked condition.  A true probe MUST be
// followed by picking i this step (conditions may have acquire side
// effects); PCT honours this, exhaustive mode requires pure conditions.
func (st *schedState) Probe(i int) bool { return st.s.threads[i].cond() }

// chooser picks the next thread to run at each step.  Returning -1 means no
// thread is runnable (deadlock).  pick must respect the Probe contract.
type chooser interface {
	pick(st *schedState) int
}

// deadlockError describes an all-parked state.
func (s *scheduler) deadlockError() error {
	var parked []string
	for _, t := range s.threads {
		if t.finished {
			continue
		}
		parked = append(parked, fmt.Sprintf("T%d(%s) at %q", t.id, t.name, t.lastLbl))
	}
	return fmt.Errorf("deadlock: every live thread is parked on a false condition: %s",
		strings.Join(parked, ", "))
}

// run executes one schedule of th under ch.
func run(ch chooser, th Threads, maxSteps int) Result {
	if maxSteps <= 0 {
		maxSteps = DefaultMaxSteps
	}
	s := &scheduler{toSched: make(chan event)}
	for i, fn := range th.Fns {
		name := ""
		if i < len(th.Names) {
			name = th.Names[i]
		}
		t := &thread{id: i, name: name, fn: fn, resume: make(chan struct{})}
		s.threads = append(s.threads, t)
	}
	cursched = s
	defer func() { cursched = nil }()

	live := 0
	for _, t := range s.threads {
		live++
		go func(t *thread) {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(abortSentinel); ok {
						s.toSched <- event{t: t, kind: evAbort}
						return
					}
					buf := make([]byte, 4096)
					n := runtime.Stack(buf, false)
					s.toSched <- event{t: t, kind: evPanic, pval: r, label: string(buf[:n])}
					return
				}
				s.toSched <- event{t: t, kind: evDone}
			}()
			<-t.resume
			if s.abort {
				panic(abortSentinel{})
			}
			t.fn()
		}(t)
	}

	res := Result{}
	st := &schedState{s: s}
	var failure error
	for live > 0 {
		if res.Steps >= maxSteps {
			failure = fmt.Errorf("livelock: schedule exceeded %d steps (a thread is spinning without a Wait)", maxSteps)
			break
		}
		st.step = res.Steps
		i := ch.pick(st)
		if i < 0 {
			failure = s.deadlockError()
			break
		}
		t := s.threads[i]
		t.cond = nil // a picked thread is no longer parked
		ev := s.grant(t)
		res.Steps++
		res.Trace = append(res.Trace, Step{Thread: i, Label: ev.label})
		switch ev.kind {
		case evYield:
			// runnable again next step
		case evBlock:
			t.cond = ev.cond
		case evDone, evAbort:
			t.finished = true
			live--
		case evPanic:
			t.finished = true
			live--
			failure = fmt.Errorf("thread T%d(%s) panicked: %v\n%s", t.id, t.name, ev.pval, ev.label)
		}
		if failure != nil {
			break
		}
	}

	if failure != nil {
		// Teardown: unwind every still-live worker so no goroutines leak
		// across the thousands of schedules a test explores.
		s.abort = true
		for _, t := range s.threads {
			if t.finished {
				continue
			}
			t.resume <- struct{}{}
			for {
				ev := <-s.toSched
				if ev.t == t && (ev.kind == evAbort || ev.kind == evDone || ev.kind == evPanic) {
					break
				}
			}
		}
		res.Err = failure
		return res
	}
	if th.Final != nil {
		res.Err = th.Final()
	}
	return res
}

// ---- Hooks installed into the packages under test ----

// Hook is the scheduling hook the instrumented packages call at every
// synchronization point.  Model tests install it with schedpoint.Set
// (available under the purecheck build tag); outside a run it is a no-op, so
// hooked code keeps working in ordinary tests.
func Hook(label string) {
	if s := cursched; s != nil {
		s.yield(label)
	}
}

// Wait is the checker's WaitFunc (collective.WaitFunc compatible): inside a
// run it parks the calling thread until cond holds; outside a run it
// degrades to a spin-yield loop so shared helpers work in plain tests too.
func Wait(cond func() bool) {
	if s := cursched; s != nil {
		s.waitCond(cond, "wait")
		return
	}
	for !cond() {
		runtime.Gosched()
	}
}

// WaitLabeled is Wait with a trace label for readable failure schedules.
func WaitLabeled(label string, cond func() bool) {
	if s := cursched; s != nil {
		s.waitCond(cond, label)
		return
	}
	for !cond() {
		runtime.Gosched()
	}
}

// Yield is an explicit schedpoint for thread bodies written inside model
// tests (loops that have no instrumented call on some paths).
func Yield(label string) { Hook(label) }

// ---- Environment knobs ----

// SeedsFromEnv returns the PCT seed count for a full model test: the
// PURE_CHECK_SEEDS variable when set, else def.
func SeedsFromEnv(def int) int {
	if v := os.Getenv("PURE_CHECK_SEEDS"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return def
}

// ReplaySeedFromEnv returns (seed, true) when PURE_CHECK_SEED is set,
// asking every model test to replay exactly that one schedule.
func ReplaySeedFromEnv() (int64, bool) {
	if v := os.Getenv("PURE_CHECK_SEED"); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil {
			return n, true
		}
	}
	return 0, false
}
