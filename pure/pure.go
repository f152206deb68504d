// Package pure is a Go implementation of the Pure programming model
// (Psota & Solar-Lezama, "Pure: Evolving Message Passing To Better Leverage
// Shared Memory Within Nodes", PPoPP 2024): message passing with optional
// tasks.
//
// A Pure program is SPMD: Run launches a fixed set of ranks that execute the
// same function and communicate explicitly.  The rank namespace is flat
// across the (virtual) cluster even though ranks within a node share an
// address space; the runtime routes each message over the fastest path its
// endpoints allow — a lock-free single-producer/single-consumer buffer queue
// for small intra-node messages, a single-copy rendezvous protocol for large
// intra-node messages, and the inter-node transport otherwise.  Collectives
// (Barrier, Reduce, Allreduce, Bcast) are semantically equivalent to MPI's
// and use lock-free intra-node structures with tree bridging across nodes.
// Communicators are created with Comm.Split.
//
// Optionally, a rank may wrap a computational hotspot in a Task.  Executing
// a task hands its chunks to the runtime, which lets any co-resident rank
// that is blocked waiting on communication steal chunks (the Spin-Steal-Wait
// loop), automatically overlapping communication and computation.
//
// Messaging rules (these mirror the paper's persistent channels):
//
//   - Messages on the same (source, destination, tag, communicator) channel
//     are delivered in send order.
//   - The eager/rendezvous protocol split is by message size (Config.
//     SmallMsgMax, default 8 KiB).  Sender and receiver must agree on the
//     side of the threshold, which in practice means posting receives of the
//     expected message size.
//   - After a blocking Send (or a completed Isend) returns, the buffer may
//     be reused immediately.
//   - Tags must lie in [0, 1<<29); there are no wildcard sources or tags.
package pure

import (
	"time"

	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/topology"
	"repro/internal/transport"
)

// Op is a reduction operator.
type Op = collective.Op

// Reduction operators, semantically matching their MPI counterparts.
const (
	Sum  = collective.OpSum
	Prod = collective.OpProd
	Min  = collective.OpMin
	Max  = collective.OpMax
)

// DType identifies an element type for typed reductions.
type DType = collective.DType

// Element types.
const (
	Float64 = collective.Float64
	Float32 = collective.Float32
	Int64   = collective.Int64
	Int32   = collective.Int32
	Uint8   = collective.Uint8
)

// ChunkMode selects task chunk allocation granularity.
type ChunkMode = sched.ChunkMode

// Chunk allocation modes.
const (
	SingleChunk          = sched.SingleChunk
	GuidedSelfScheduling = sched.GuidedSelfScheduling
)

// StealPolicy selects how blocked ranks pick steal victims.
type StealPolicy = sched.StealPolicy

// Steal policies.
const (
	RandomSteal    = sched.RandomSteal
	NUMAAwareSteal = sched.NUMAAwareSteal
	StickySteal    = sched.StickySteal
)

// Spec describes the virtual cluster to run on; see topology.Spec.
type Spec = topology.Spec

// Policy selects how ranks are laid out over hardware threads.
type Policy = topology.Policy

// Placement policies.
const (
	SMPPlacement        = topology.SMP
	RoundRobinPlacement = topology.RoundRobin
	CustomPlacement     = topology.Custom
)

// Seat pins one rank to a hardware thread (used with CustomPlacement).
type Seat = topology.HWThread

// CoriNode returns a Cori-like node spec (2 sockets x 16 cores x 2 HT).
func CoriNode(nodes int) Spec { return topology.CoriSpec(nodes) }

// TransportConfig configures the real inter-node transport (one OS process
// per node over TCP, or, without Addrs, the links between in-process nodes);
// see the transport package and docs/TRANSPORT.md.  Set it on
// Config.Transport, usually via TransportFromEnv under the purerun launcher.
type TransportConfig = transport.Config

// TransportFaults is the runtime's one fault injector (set it on
// TransportConfig.Faults): seeded drops of first transmissions and
// receive-side delays, all recovered transparently by the link protocol at
// the cost of retransmission latency.  docs/ROBUSTNESS.md shows how to run a
// lossy multi-node program inside one process.
type TransportFaults = transport.Faults

// TransportFromEnv builds a TransportConfig from the PURE_NODE/PURE_ADDRS/
// PURE_JOB environment set by the purerun launcher.  It returns (nil, nil)
// when the process is not running under a launcher, so a worker binary can
// unconditionally assign the result to Config.Transport and still run
// standalone.
func TransportFromEnv() (*TransportConfig, error) { return transport.FromEnv() }

// Config configures Run.  The zero value plus NRanks runs all ranks on one
// virtual node with default thresholds.
type Config struct {
	// NRanks is the number of ranks (fixed for the program's lifetime).
	NRanks int
	// Spec is the virtual cluster; zero means one node sized to NRanks.
	Spec Spec
	// RanksPerNode caps ranks placed per node (0 = node capacity).
	RanksPerNode int
	// Policy selects the rank-to-hardware mapping (SMP block placement by
	// default); Seats supplies an explicit per-rank mapping for
	// Policy == topology.Custom (e.g. built from a CrayPAT reorder file via
	// topology.PlacementFromReorder).
	Policy Policy
	Seats  []Seat
	// Transport, when it lists Addrs, makes this process one node of a job
	// over TCP: it runs only the ranks topology places on Transport.Node,
	// and cross-node traffic travels real sockets.  Launch one process per
	// node with matching configs — normally via cmd/purerun, which provides
	// the config through the environment (TransportFromEnv).  Spec.Nodes
	// must equal len(Transport.Addrs).  Transport.Faults injects link-level
	// loss and delay.  When nil, a Spec of several nodes runs every node in
	// this process, joined by the same link layer over an in-memory network;
	// a Transport without Addrs does the same with its link settings (fault
	// plan, retry, heartbeat, drain) on every node, and needs a Spec of
	// several nodes and Node 0.  So every process of a multi-process job
	// must list Addrs: node 0 without them would run the whole job alone.
	Transport *TransportConfig
	// SmallMsgMax is the eager/rendezvous threshold in bytes (default 8 KiB).
	SmallMsgMax int
	// PBQSlots is the small-message queue depth per channel (default 16).
	PBQSlots int
	// SPTDMax is the small/large collective threshold in bytes (default 2 KiB).
	SPTDMax int
	// SpinBudget is the SSW-Loop probe count between yields (default 64).
	SpinBudget int
	// HelpersPerNode starts helper threads that only steal task chunks.
	HelpersPerNode int
	// ChunkMode, StealPolicy and OwnerSteals tune the task scheduler.
	ChunkMode   ChunkMode
	StealPolicy StealPolicy
	OwnerSteals bool
	// Trace, when non-nil, records runtime events into per-rank ring buffers
	// (build one with NewTrace(NRanks, 0)).  Disabled tracing costs one nil
	// check per instrumentation site; see docs/OBSERVABILITY.md.
	Trace *Trace
	// Metrics, when non-nil, maintains live counters/gauges/histograms that
	// can be snapshotted at any time (build one with NewMetrics()).
	Metrics *Metrics
	// MonitorAddr, when non-empty, serves the live runtime monitor on that
	// TCP address while the program runs: GET /metrics is a Prometheus
	// scrape of Config.Metrics, /ranks is a JSON view of every rank's
	// current wait state (what a blocked rank is waiting on, and for how
	// long), and /debug/pprof exposes the standard Go profiles.  ":0" picks
	// a free port — read it back with Rank.MonitorAddr.  The monitor serves
	// whatever the configuration already records; it does not itself enable
	// tracing or metrics.  See docs/OBSERVABILITY.md.
	MonitorAddr string
	// HangTimeout arms the runtime watchdog: if every rank is blocked in the
	// runtime and no progress happens for this long, the run is aborted with
	// a *RunError that names each blocked rank, what it was waiting on, and —
	// for true deadlocks — the rank-to-rank wait-for cycle.  0 disables the
	// watchdog.  See docs/ROBUSTNESS.md for choosing a value.
	HangTimeout time.Duration
	// Deadline aborts the run outright after a wall-clock duration,
	// regardless of progress.  0 means no deadline.  Note that the abort is
	// cooperative: a rank spinning in pure application compute (never
	// re-entering the runtime) cannot be unwound and will be reported as
	// running.
	Deadline time.Duration
}

// Run launches a Pure program: main runs once per rank, concurrently.  The
// node's first rank runs on the calling goroutine.  Run returns after every
// rank's main has returned, or an error if the configuration is invalid or
// a rank panicked or called runtime.Goexit.
//
// Error contract: everything checkable before the ranks start — NRanks,
// negative tuning knobs, Seats/Policy consistency, a Trace sized for a
// different rank count — is reported as a descriptive error, never a
// panic.  Per-call misuse inside main (an out-of-range peer rank, a tag
// outside [0, 2^29), a receive buffer smaller than the arriving message)
// panics at the offending call site, mirroring how MPI aborts on such
// errors; those panics are intentional and documented on each method.
func Run(cfg Config, main func(r *Rank)) error {
	return core.Run(coreConfig(cfg), func(r *core.Rank) {
		main(&Rank{r: r, world: &Comm{c: r.World()}})
	})
}

// coreConfig maps the public configuration onto the runtime's.
func coreConfig(cfg Config) core.Config {
	return core.Config{
		NRanks:         cfg.NRanks,
		Spec:           cfg.Spec,
		RanksPerNode:   cfg.RanksPerNode,
		Policy:         cfg.Policy,
		Seats:          cfg.Seats,
		Transport:      cfg.Transport,
		SmallMsgMax:    cfg.SmallMsgMax,
		PBQSlots:       cfg.PBQSlots,
		SPTDMax:        cfg.SPTDMax,
		SpinBudget:     cfg.SpinBudget,
		HelpersPerNode: cfg.HelpersPerNode,
		ChunkMode:      cfg.ChunkMode,
		StealPolicy:    cfg.StealPolicy,
		OwnerSteals:    cfg.OwnerSteals,
		Trace:          cfg.Trace,
		Metrics:        cfg.Metrics,
		MonitorAddr:    cfg.MonitorAddr,
		HangTimeout:    cfg.HangTimeout,
		Deadline:       cfg.Deadline,
	}
}

// RunError is the structured error Run returns when the runtime aborts
// instead of completing (a rank panicked or called Abort, the watchdog
// diagnosed a deadlock or stall, the deadline expired, or the transport
// declared a peer node dead — heartbeat silence or an exhausted retry
// budget).  Inspect it with errors.As.
type RunError = core.RunError

// RankFailure names one failed rank inside a RunError.
type RankFailure = core.RankFailure

// BlockedRank is a surviving rank the abort unwound mid-wait.
type BlockedRank = core.BlockedRank

// WaitRecord describes what a blocked rank was waiting on.
type WaitRecord = core.WaitRecord

// WaitKind classifies a WaitRecord.
type WaitKind = core.WaitKind

// RunError causes.
const (
	CausePanic    = core.CausePanic
	CauseAbort    = core.CauseAbort
	CauseDeadlock = core.CauseDeadlock
	CauseStall    = core.CauseStall
	CauseDeadline = core.CauseDeadline
	CauseNodeDead = core.CauseNodeDead
)

// Rank is one rank's handle on the runtime.  Handles are not shareable
// between goroutines.
type Rank struct {
	r     *core.Rank
	world *Comm
}

// ID returns the rank's id in [0, NRanks).
func (r *Rank) ID() int { return r.r.ID() }

// NRanks returns the program's rank count.
func (r *Rank) NRanks() int { return r.r.NRanks() }

// Node returns the virtual node index hosting this rank.
func (r *Rank) Node() int { return r.r.Node() }

// World returns the world communicator.
func (r *Rank) World() *Comm { return r.world }

// StealStats reports the rank's lifetime (steal attempts, chunks stolen).
func (r *Rank) StealStats() (attempts, stolen int64) { return r.r.StealStats() }

// Abort terminates the whole run from this rank (the analogue of MPI_Abort):
// every rank blocked in the runtime unwinds, and Run returns a *RunError
// naming this rank and err as the cause.  Abort does not return.
func (r *Rank) Abort(err error) { r.r.Abort(err) }

// Metrics returns the run's metrics registry (Config.Metrics), or nil when
// metrics are disabled.  Ranks may snapshot or extend it mid-run.
func (r *Rank) Metrics() *Metrics { return r.r.Metrics() }

// MonitorAddr returns the live monitor's bound address ("" when
// Config.MonitorAddr was not set).  With ":0" this is how a program learns
// which port the monitor picked.
func (r *Rank) MonitorAddr() string { return r.r.MonitorAddr() }

// WaitFor parks the rank in the SSW-Loop until cond reports true: between
// probes the rank steals Pure Task chunks, and aborts and dead-node
// detection unwind the wait like any runtime-internal blocking site.  cond
// must be cheap and side-effect-free on the false path — typically a fan-in
// over Channel.RecvReady or Channel.TryRecv across many sources.
func (r *Rank) WaitFor(cond func() bool) { r.r.WaitFor(cond) }

// NewTask defines a Pure Task split into nchunks chunks.  body receives a
// half-open chunk range [start, end) that it must process exactly once per
// execution, plus the per-execute argument; it must be thread-safe across
// disjoint ranges.  Pass nchunks = 0 for the default (64).
func (r *Rank) NewTask(nchunks int, body func(start, end int64, extra any)) *Task {
	return &Task{t: r.r.NewTask(nchunks, body)}
}

// Task is a Pure Task; see Rank.NewTask.
type Task struct {
	t *core.Task
}

// Execute runs every chunk of the task, possibly assisted by thieving ranks,
// and returns only when all chunks completed.  extra is forwarded to each
// body invocation.
func (t *Task) Execute(extra any) TaskStats {
	s := t.t.Execute(extra)
	return TaskStats{OwnerChunks: s.OwnerChunks, StolenChunks: s.StolenChunks}
}

// Chunks returns the task's chunk count.
func (t *Task) Chunks() int64 { return t.t.Chunks() }

// AlignedIdxRange maps the chunk range to a cacheline-aligned index range
// over n elements of elemSize bytes (use inside task bodies to avoid false
// sharing; the paper's pure_aligned_idx_range).
func (t *Task) AlignedIdxRange(n int64, elemSize int, startChunk, endChunk int64) (lo, hi int64) {
	return t.t.AlignedIdxRange(n, elemSize, startChunk, endChunk)
}

// TaskStats reports how one Execute's chunks were distributed.
type TaskStats struct {
	OwnerChunks  int64
	StolenChunks int64
}

// Request is an in-flight nonblocking operation.
type Request = core.Request

// RankStats is one rank's operation counters; see RunWithReport.
type RankStats = core.RankStats

// Report is the profiling output of RunWithReport: per-rank counters plus
// their sum (the runtime analogue of the paper's profiling modes).  When the
// run was configured with Config.Trace or Config.Metrics, the report carries
// them too, so Timeline/WriteChromeTrace and snapshot exports work straight
// off the return value.
type Report struct {
	PerRank []RankStats
	Total   RankStats

	// Trace is the run's event trace (nil unless Config.Trace was set).
	Trace *Trace
	// Metrics is the run's metrics registry (nil unless Config.Metrics was set).
	Metrics *Metrics
}

// RunWithReport is Run plus counter harvesting: message/byte counts per
// protocol path, collective calls, task chunk distribution, and SSW-Loop
// steal statistics for every rank.
func RunWithReport(cfg Config, main func(r *Rank)) (Report, error) {
	stats, err := core.RunWithStats(coreConfig(cfg), func(r *core.Rank) {
		main(&Rank{r: r, world: &Comm{c: r.World()}})
	})
	rep := Report{PerRank: stats, Trace: cfg.Trace, Metrics: cfg.Metrics}
	for _, s := range stats {
		rep.Total.Add(s)
	}
	return rep, err
}
