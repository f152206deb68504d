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
//
// The handle types are the runtime's own: Rank, Comm, Task, Window, Shmem
// and Mailbox are aliases of repro/internal/core's Rank, Comm, Task, Win,
// Shm and Mailbox, and Config is its Config.  Their methods and fields are
// documented there (go doc repro/internal/core Comm.Send).
package pure

import (
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
// TransportConfig.Faults): seeded connection resets at first transmissions
// and receive-side delays, all recovered transparently by the link protocol
// at the cost of a redial and a replay.  docs/ROBUSTNESS.md shows how to run
// a lossy multi-node program inside one process.
type TransportFaults = transport.Faults

// TransportFromEnv builds a TransportConfig from the PURE_NODE/PURE_ADDRS/
// PURE_JOB environment set by the purerun launcher.  It returns (nil, nil)
// when the process is not running under a launcher, so a worker binary can
// unconditionally assign the result to Config.Transport and still run
// standalone.
func TransportFromEnv() (*TransportConfig, error) { return transport.FromEnv() }

// Config configures Run.  The zero value plus NRanks runs all ranks on one
// virtual node with default thresholds; the fields are documented on
// repro/internal/core's Config.
type Config = core.Config

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
func Run(cfg Config, main func(r *Rank)) error { return core.Run(cfg, main) }

// RunError is the structured error Run returns when the runtime aborts
// instead of completing (a rank panicked or called Abort, the watchdog
// diagnosed a deadlock or stall, the deadline expired, or the transport
// declared a peer node dead — heartbeat silence, or a configuration
// mismatch at the handshake).  Inspect it with errors.As.
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
// between goroutines.  Its methods are documented on repro/internal/core's
// Rank.
type Rank = core.Rank

// Task is a Pure Task; see Rank.NewTask.
type Task = core.Task

// TaskStats reports how one Execute's chunks were distributed.
type TaskStats = sched.RunStats

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
	stats, err := core.RunWithStats(cfg, main)
	rep := Report{PerRank: stats, Trace: cfg.Trace, Metrics: cfg.Metrics}
	for _, s := range stats {
		rep.Total.Add(s)
	}
	return rep, err
}
