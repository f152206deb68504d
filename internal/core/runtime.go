// Package core is the Pure runtime system (paper §4): a multithreaded,
// "distributed" runtime in which application ranks are goroutines (the
// paper uses kernel threads) that communicate through lock-free shared
// memory structures within a node and through the link layer
// (internal/transport) across nodes.
//
// The runtime owns: rank bootstrap and placement; the channel manager that
// maps message arguments to persistent channel objects; the point-to-point
// eager (PureBufferQueue) and rendezvous protocols; lock-free collectives
// (SPTD and Partitioned Reducer) bridged across nodes; communicators; and
// the Pure Task scheduler with SSW-Loop work stealing.
//
// The public package pure names these types for applications: pure.Comm
// is this package's Comm, and so on.
package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/layout"
	"repro/internal/obs"
	"repro/internal/rma"
	"repro/internal/sched"
	"repro/internal/shmem"
	"repro/internal/ssw"
	"repro/internal/topology"
	"repro/internal/transport"
)

// Default tuning values, matching the paper's configuration where reported.
const (
	// DefaultSmallMsgMax is the eager/rendezvous threshold (paper: 8 KiB,
	// configurable; Appendix C sweeps it).
	DefaultSmallMsgMax = 8 << 10
	// DefaultPBQSlots is the PureBufferQueue depth (paper: "the configurable
	// number of slots within the PBQ was not a material performance driver").
	DefaultPBQSlots = 16
	// SPTDMax is the small-collective payload bound in bytes (paper: SPTD
	// used for arrays up to 2 KiB, Partitioned Reducer beyond).
	SPTDMax = 2 << 10
	// DefaultTaskChunks is the default number of chunks a task splits into
	// (the paper's PURE_MAX_TASK_CHUNKS Makefile variable).
	DefaultTaskChunks = 64
)

// Config configures a Pure program launch.  The zero value plus NRanks runs
// all ranks on one virtual node with default thresholds; zero in any tuning
// knob selects its default.
type Config struct {
	// NRanks is the number of application ranks (fixed for the program).
	NRanks int
	// Spec is the virtual cluster to place ranks on.  Zero value means a
	// single node large enough for all ranks.
	Spec topology.Spec
	// RanksPerNode caps ranks per node (0 = node capacity).
	RanksPerNode int
	// Policy selects the rank-to-hardware mapping (SMP block placement by
	// default); Seats supplies an explicit per-rank mapping for
	// Policy == topology.Custom (e.g. built from a CrayPAT reorder file via
	// topology.PlacementFromReorder).
	Policy topology.Policy
	Seats  []topology.HWThread

	// SmallMsgMax is the eager/rendezvous protocol threshold in bytes
	// (default DefaultSmallMsgMax, 8 KiB).
	SmallMsgMax int
	// PBQSlots is the eager queue depth per channel (default 16).
	PBQSlots int

	// Transport, when it lists Addrs, makes this OS process one node of a
	// job over TCP: it runs only the ranks placed on Transport.Node, one
	// cooperating process per node in Transport.Addrs, and all cross-node
	// traffic — two-sided sends, leader-tree collective legs, and RMA frames
	// — travels the transport's sequenced, acked, heartbeat-monitored links.
	// Launch one process per node with matching configs, normally via
	// cmd/purerun, which passes the config through the environment
	// (transport.FromEnv).  Spec.Nodes must equal len(Transport.Addrs).
	// Transport.Faults injects link-level drops and delays, which the link
	// protocol recovers.  When nil, a Spec of several nodes runs every node
	// in this process, over the same links on an in-memory network (see
	// runNodes).  A Transport without Addrs means the same in-process run
	// with these link settings — fault plan, retry, heartbeat and drain — on
	// every node; it needs a Spec of several nodes and Node 0.  So every
	// process of a multi-process job must list Addrs: node 0 without them
	// would run the whole job alone.
	Transport *transport.Config

	// HangTimeout arms the watchdog: when every live rank is blocked and no
	// rank makes progress for this long, the runtime diagnoses the hang
	// (wait-for cycle vs. lost-message stall), aborts, and Run returns a
	// *RunError naming each blocked rank, what it was waiting on, and — for
	// true deadlocks — the rank-to-rank wait-for cycle.  Zero disables the
	// watchdog.  See docs/ROBUSTNESS.md for choosing a value.
	HangTimeout time.Duration
	// Deadline aborts the run after this much wall-clock time regardless of
	// progress.  Zero means no deadline.  Abort is cooperative: a rank that
	// never re-enters the runtime (a pure compute loop) cannot be unwound
	// and is reported as running.
	Deadline time.Duration

	// HelpersPerNode starts that many pure helper threads on each node
	// (threads that only steal; paper §5.1, DT class A).
	HelpersPerNode int

	// Trace, when non-nil, receives runtime events (p2p posts per protocol
	// path, PBQ stalls, rendezvous handoffs, collective spans with SPTD round
	// numbers, steal latencies, task executions).  It must be sized for
	// NRanks ranks (obs.NewTrace(NRanks, 0)).  When nil, every
	// instrumentation site costs a single pointer nil check.  See
	// docs/OBSERVABILITY.md.
	Trace *obs.Trace
	// Metrics, when non-nil, is the registry the run reports through
	// (obs.NewMetrics): a snapshot taken at any time — mid-run, or after Run
	// has returned — reads the ranks' counters, the link counters and the
	// runtime's few registry objects as they stand (see collector).  Setting
	// it is also what makes the ranks' counter updates atomic.
	Metrics *obs.Metrics
	// MonitorAddr, when non-empty, serves the live runtime monitor on that
	// TCP address for the duration of the run: a Prometheus scrape of
	// Config.Metrics at /metrics, every rank's current wait state (what it
	// waits on, and for how long) at /ranks, and the standard Go profiles at
	// /debug/pprof.  ":0" picks a free port; Rank.MonitorAddr returns the
	// bound address.  The monitor itself does not enable metrics or tracing
	// — it serves whatever the configuration already records, so its
	// steady-state cost is an idle listener plus the lazy wait-record
	// publication (<5% on the ping-pong benchmark).  See
	// docs/OBSERVABILITY.md.
	MonitorAddr string

	inProcess bool // set by withDefaults: runNodes runs every node here, over Transport
	// spinBudget is the SSW-Loop probe count between yields; zero derives
	// it from how oversubscribed the process is (deriveSpinBudget).
	spinBudget int
}

// withDefaults validates the configuration and fills zero values with the
// documented defaults.  Invalid configurations — non-positive NRanks,
// negative tuning knobs (zero always means "use the default"), a Seats table
// that does not match the placement policy, or a Trace sized for a different
// rank count — yield a descriptive error rather than a panic mid-launch.
func (c *Config) withDefaults() (Config, error) {
	cfg := *c
	if cfg.NRanks <= 0 {
		return cfg, fmt.Errorf("core: NRanks must be positive, got %d", cfg.NRanks)
	}
	for _, knob := range []struct {
		name string
		v    int
	}{
		{"SmallMsgMax", cfg.SmallMsgMax},
		{"PBQSlots", cfg.PBQSlots},
		{"HelpersPerNode", cfg.HelpersPerNode},
		{"RanksPerNode", cfg.RanksPerNode},
	} {
		if knob.v < 0 {
			return cfg, fmt.Errorf("core: %s must not be negative (0 selects the default), got %d", knob.name, knob.v)
		}
	}
	if len(cfg.Seats) > 0 {
		if cfg.Policy != topology.Custom {
			return cfg, fmt.Errorf("core: Seats requires Policy == Custom placement, got policy %v", cfg.Policy)
		}
		if len(cfg.Seats) != cfg.NRanks {
			return cfg, fmt.Errorf("core: Custom placement needs exactly %d seats (one per rank), got %d", cfg.NRanks, len(cfg.Seats))
		}
	}
	if cfg.Trace != nil && cfg.Trace.NRanks() != cfg.NRanks {
		return cfg, fmt.Errorf("core: Trace sized for %d ranks but NRanks is %d", cfg.Trace.NRanks(), cfg.NRanks)
	}
	if cfg.HangTimeout < 0 {
		return cfg, fmt.Errorf("core: HangTimeout must not be negative, got %v", cfg.HangTimeout)
	}
	if cfg.Deadline < 0 {
		return cfg, fmt.Errorf("core: Deadline must not be negative, got %v", cfg.Deadline)
	}
	if cfg.Spec == (topology.Spec{}) {
		cfg.Spec = topology.Spec{Nodes: 1, SocketsPerNode: 1, CoresPerSocket: cfg.NRanks, ThreadsPerCore: 1}
	}
	if cfg.Transport == nil && cfg.Spec.Nodes > 1 {
		cfg.Transport = new(transport.Config) // in-process nodes, default links
	}
	if cfg.Transport != nil {
		t := cfg.Transport.WithDefaults()
		switch {
		case len(t.Addrs) > 0:
		case cfg.Spec.Nodes < 2 || t.Node != 0:
			return cfg, fmt.Errorf("core: Transport without Addrs runs every node in this process: it needs Spec.Nodes > 1 and Node 0, got %d nodes and Node %d (every process of a multi-process job lists Addrs)",
				cfg.Spec.Nodes, t.Node)
		default:
			t, cfg.inProcess = inProcessLinks(&cfg), true
		}
		if err := t.Validate(cfg.HangTimeout); err != nil {
			return cfg, fmt.Errorf("core: Transport: %w", err)
		}
		if len(t.Addrs) != cfg.Spec.Nodes {
			return cfg, fmt.Errorf("core: Transport lists %d node addresses but Spec.Nodes is %d — one cooperating process per node",
				len(t.Addrs), cfg.Spec.Nodes)
		}
		cfg.Transport = &t
	}
	if cfg.SmallMsgMax == 0 {
		cfg.SmallMsgMax = DefaultSmallMsgMax
	}
	if cfg.PBQSlots == 0 {
		cfg.PBQSlots = DefaultPBQSlots
	}
	return cfg, nil
}

// nodeState is the node's shared state: the task scheduler (active_tasks
// array, one slot per rank on the node, then one per helper thread).
type nodeState struct {
	sched *sched.Scheduler
}

// Runtime is one Pure program instance on one node: every rank of a
// single-node run, or the ranks of one node of a multi-node job.
type Runtime struct {
	cfg   Config
	place *topology.Placement
	node  *nodeState

	channels sync.Map // chanKey -> *channel   (intra-node)
	remotes  sync.Map // chanKey -> *queue.Unbounded (inter-node mailboxes)
	comms    sync.Map // splitKey -> *commShared

	// tp is the node's links to every other node (nil on a single-node
	// run); tpFinished marks that every local rank has returned, turning
	// late peer-failure upcalls into no-ops (peer shutdown is not
	// synchronized across nodes).
	tp         *transport.Transport
	tpFinished atomic.Bool

	// One-sided communication: the window registry (keyed like the channel
	// manager) and the remote RMA flows with their applied watermarks.
	rmaReg   rma.Registry
	rmaFlows sync.Map // chanKey -> *rmaFlow

	// shmReg holds the symmetric heaps' shared publish tables, keyed by the
	// backing window's key (one heap per ShmemCreate).
	shmReg shmem.Registry

	world *commShared

	// stats are the ranks' counter cells, indexed by global rank: written by
	// their rank, harvested after the run and, when cfg.Metrics is set, read
	// at any time by the registry's collector (see collector).  met holds the
	// few metrics that are registry objects of their own (nil without a
	// registry).
	stats []rankCells
	met   *metricSet

	// waitSlots is the wait registry: one slot per rank, scanned by the
	// watchdog and harvested into RunError diagnostics on abort.
	waitSlots []rankWaitSlot
	// mon is the live monitor server when Config.MonitorAddr is set.
	mon *monitorServer
	// abort is the runtime poison: once set, every SSW wait unwinds its rank.
	abort abortState
	// cells are the ranks' parking spots for socket-completed waits, indexed
	// by global rank (a rank another process runs simply never parks on
	// its).  They exist before the transport starts and before any rank
	// does, so an upcall can always unpark the rank it completed a wait for.
	cells []*ssw.WakeCell
}

// Rank is one application rank's runtime handle.  Every runtime call a rank
// makes goes through its Rank (ranks must not share handles).
type Rank struct {
	id    int
	rt    *Runtime
	node  int
	local int // index among the node's ranks ("thread number in the process")
	thief *sched.Thief
	wait  ssw.Waiter // the SSW loop of waits another rank's store completes; see park
	world *Comm
	// stats points at the rank's cells in Runtime.stats; every write goes
	// through count, which is atomic exactly when liveStats says a collector
	// may be reading (Config.Metrics is set).
	stats     *RankStats
	liveStats bool

	// eps is the persistent-endpoint cache (Comm.SendChannel/RecvChannel):
	// an open-addressed table owned by this rank's goroutine, so repeat
	// pairs resolve with one hash and no locks.
	eps epTable

	// One-sided communication state, all owned by this rank's goroutine:
	// incoming remote flows to drain, outstanding remote gets by request id,
	// and the reentrancy guard that keeps frame application in flow order.
	rmaIn         []*rmaInbox
	rmaInSet      map[chanKey]bool
	rmaFlowCache  map[chanKey]*rmaFlow
	rmaGets       map[uint64]*Request
	rmaGetSeq     uint64
	inRmaProgress bool

	// trace is this rank's single-writer event ring (nil when tracing is
	// off).
	trace *obs.RankTrace

	// slot is the rank's entry in the runtime's wait registry (watchdog and
	// abort diagnostics read it).
	slot *rankWaitSlot
	// liveWaitRecords is true when the hang watchdog is armed and therefore
	// needs wait records published while ranks are still blocked (not just
	// at abort unwind).
	liveWaitRecords bool

	// waits is the stack of the rank's open waits' pending records,
	// innermost last (rankWait): nwaits waits are open, the first waitDepth
	// of them have a record here.  Plain fields: only the rank's own
	// goroutine touches them, and a record becomes visible to diagnostics
	// only when copied into the (atomic) wait slot.
	waits  [waitDepth]pendWait
	nwaits int
	// park is wait with the rank's WakeCell: the SSW loop for waits a link
	// reader completes.  quiet parks on the same cell but neither steals nor
	// makes progress: tpSend waits in it for room on a link while its frame
	// may already hold its place in an RMA flow.
	park, quiet ssw.Waiter
	// reduceTmp is Comm.leaderReduce's receive buffer, grow-only.
	reduceTmp []byte

	// Ranks are allocated back to back; the pad keeps one rank's wait record
	// (rewritten at every blocking wait) off the cacheline the next rank's
	// handle starts on.
	_ layout.Pad
}

// ID returns the rank's global id in [0, NRanks).
func (r *Rank) ID() int { return r.id }

// NRanks returns the total rank count.
func (r *Rank) NRanks() int { return r.rt.cfg.NRanks }

// Node returns the rank's node index.
func (r *Rank) Node() int { return r.node }

// World returns the world communicator handle for this rank.
func (r *Rank) World() *Comm { return r.world }

// Placement exposes the rank-to-hardware mapping.
func (rt *Runtime) Placement() *topology.Placement { return rt.place }

// Config returns the resolved configuration.
func (rt *Runtime) Config() Config { return rt.cfg }

// Run bootstraps a Pure program: it builds the placement, the node's
// scheduler and helper threads, and the world communicator, then runs main
// once per rank (the application's __original_main in the paper's
// bootstrap, §4.0.1) and waits for them all to return.  The node's first
// rank runs on the calling goroutine and every other rank on a goroutine of
// its own; a rank that ends in runtime.Goexit fails the run, and on the
// calling goroutine the Goexit then ends the caller too.
func Run(cfg Config, main func(r *Rank)) error {
	_, err := RunWithStats(cfg, main)
	return err
}

// runInternal runs the ranks of one node: rcfg is resolved, and be is the
// links' byte-stream backend (nil for TCP).  It returns the runtime once its
// ranks have run, or a nil runtime if it failed to start.
func runInternal(rcfg Config, be transport.Backend, main func(r *Rank)) (*Runtime, error) {
	place, err := topology.NewPlacement(rcfg.Spec, rcfg.NRanks, rcfg.RanksPerNode, rcfg.Policy, rcfg.Seats)
	if err != nil {
		return nil, fmt.Errorf("core: placing ranks: %w", err)
	}
	rt := &Runtime{cfg: rcfg, place: place, cells: make([]*ssw.WakeCell, rcfg.NRanks)}
	rt.stats = make([]rankCells, rcfg.NRanks)
	for i := range rt.cells {
		rt.cells[i] = ssw.NewWakeCell()
		rt.stats[i].Rank, rt.stats[i].Node = i, place.NodeOf(i)
	}
	if rcfg.Metrics == nil && rcfg.MonitorAddr != "" {
		// A monitored run without an explicit registry still wants /metrics
		// to carry the runtime counters (the cluster monitor scrapes them),
		// so give it a private one.
		rcfg.Metrics = obs.NewMetrics()
		rt.cfg.Metrics = rcfg.Metrics
	}
	var col *collector
	if rcfg.Metrics != nil {
		rt.met = newMetricSet(rcfg.Metrics)
		col = &collector{stats: rt.stats, rt: rt}
		defer col.finish() // deferred first, so it runs last: after the transport's Close
	}
	myNode := 0
	if rcfg.Transport != nil {
		myNode = rcfg.Transport.Node
	}
	nRanks := len(place.RanksOnNode(myNode))
	slots := nRanks + rcfg.HelpersPerNode
	rt.node = new(nodeState)
	if slots > 0 { // a node the placement left empty runs nothing
		rt.node.sched = sched.New(sched.Config{Slots: slots})
	}
	rt.world = rt.newCommShared(worldCommID, allRanks(rcfg.NRanks))

	if rcfg.Transport != nil {
		tcfg := *rcfg.Transport
		if rcfg.Trace != nil && tcfg.LinkEvents == 0 {
			// Rank tracing is on: record transport frame events too, so the
			// dump carries what `puretrace merge` matches across nodes.
			tcfg.LinkEvents = 1 << 14
		}
		memos := make([]deliverMemo, rcfg.Spec.Nodes)
		tp, err := transport.New(tcfg, be, rcfg.NRanks, transport.Handlers{
			Deliver:  func(f *transport.Frame) { rt.tpDeliver(f, memos) },
			Applied:  rt.tpApplied,
			PeerDead: rt.tpPeerDead,
			PeerBye:  rt.tpPeerBye,
			Writable: rt.tpWritable,
		})
		if err != nil {
			return nil, fmt.Errorf("core: building transport: %w", err)
		}
		// Upcalls may run before Start returns — a peer that was up first has
		// frames waiting for the handshake — and the ones that poison read
		// rt.tp.
		rt.tp = tp
		if err := tp.Start(); err != nil {
			return nil, err
		}
		defer func() {
			rt.tpFinished.Store(true)
			if rt.abort.flag.Load() {
				rt.announceAbort()
			}
			tp.Close()
		}()
	}

	// Adaptive SSW spin budget: the paper pins one rank per hardware thread
	// and spins freely.  When this host cannot do that (goroutine ranks
	// oversubscribed onto fewer cores), long spins only delay the scheduler
	// from running the peer.  The budget derives from GOMAXPROCS against the
	// goroutines this node hosts — a 16-rank peer node must not throttle a
	// process hosting one rank on idle cores.  (runNodes, whose nodes share
	// one scheduler, derives it from all of them.)
	if rcfg.spinBudget == 0 {
		rt.cfg.spinBudget = deriveSpinBudget(runtime.GOMAXPROCS(0), nRanks+rcfg.HelpersPerNode)
	}

	// Start helper threads (paper: "extra threads that continuously try to
	// steal work", used when ranks don't cover all hardware threads).
	if rcfg.HelpersPerNode > 0 {
		stop := make(chan struct{})
		helpers := rt.node.sched.Helpers(nRanks, rcfg.HelpersPerNode, stop)
		defer func() {
			close(stop)
			helpers.Wait()
		}()
	}

	rt.waitSlots = make([]rankWaitSlot, rcfg.NRanks)
	if col != nil {
		// Everything the collector reads — the cells, the transport — exists
		// by now.
		rcfg.Metrics.Collect(col.collect)
	}
	if rcfg.MonitorAddr != "" {
		if err := rt.startMonitor(); err != nil {
			// Peers may be waiting for this node's ranks: tell them it is not
			// coming (the link teardown above announces the abort).
			rt.poison(CauseAbort, fmt.Sprintf("node %d: starting monitor: %v", myNode, err), "", nil)
			return nil, fmt.Errorf("core: starting monitor: %w", err)
		}
		defer rt.stopMonitor()
	}
	var wg sync.WaitGroup
	failures := make(chan RankFailure, rcfg.NRanks)
	ranks := make([]*Rank, rcfg.NRanks)
	// The watchdog is the only non-rank goroutine the runtime starts; it
	// scans the wait registry for global no-progress and enforces Deadline.
	var watchWG sync.WaitGroup
	stopWatch := make(chan struct{})
	// settle waits for the goroutine ranks and stops the watchdog.
	settle := func() {
		wg.Wait()
		// Local ranks are done: late peer-failure upcalls must no longer
		// poison the run (peer shutdown is unsynchronized).
		rt.tpFinished.Store(true)
		close(stopWatch)
		watchWG.Wait()
	}
	local := place.RanksOnNode(myNode)
	rank := func(id int) {
		returned := false
		defer func() {
			if r := ranks[id]; r != nil {
				r.settleStats()
			}
			rt.waitSlots[id].done.Store(true)
			p := recover()
			if p == nil {
				if returned {
					return
				}
				// Neither a return nor a panic: runtime.Goexit, which would
				// leave the rank's peers waiting for it forever.
				rt.poison(CausePanic, fmt.Sprintf("rank %d called runtime.Goexit", id), "", nil)
				failures <- RankFailure{Rank: id, Reason: "runtime.Goexit"}
				if id == local[0] {
					// The Goexit goes on to unwind Run's caller: the node's
					// other ranks unwind first.
					settle()
				}
				return
			}
			switch v := p.(type) {
			case ssw.AbortPanic:
				// Unwound by runtime poisoning: a survivor, not a new
				// failure.  Its wait record stays published for the
				// RunError's blocked-rank listing; a wait that unwound
				// before publishing settles its pending record here.
				rt.waitSlots[id].unwound.Store(true)
				if r := ranks[id]; r != nil {
					r.settleUnwoundWait()
				}
				ranks[id].emitAbortEvent()
			case rankAbortPanic:
				failures <- RankFailure{Rank: id, Reason: fmt.Sprintf("Abort: %v", v.err)}
			default:
				rt.poison(CausePanic, fmt.Sprintf("rank %d panicked: %v", id, p), "", nil)
				failures <- RankFailure{Rank: id, Reason: fmt.Sprintf("panic: %v", p)}
			}
		}()
		r := rt.newRank(id)
		ranks[id] = r
		main(r)
		returned = true
	}
	for id := 0; id < rcfg.NRanks; id++ {
		if place.NodeOf(id) != myNode {
			// Another node runs this rank; mark its slot done so the
			// watchdog and the failure harvest skip it here.
			rt.waitSlots[id].done.Store(true)
			continue
		}
		if id == local[0] {
			continue // runs on this goroutine, below
		}
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rank(id)
		}(id)
	}
	if rcfg.HangTimeout > 0 || rcfg.Deadline > 0 {
		watchWG.Add(1)
		go func() {
			defer watchWG.Done()
			rt.watchdog(stopWatch)
		}()
	}
	// The first local rank runs on this goroutine: no fresh stack to grow.
	if len(local) > 0 {
		rank(local[0])
	}
	settle()
	close(failures)
	var fails []RankFailure
	for f := range failures {
		fails = append(fails, f)
	}
	if len(fails) > 0 || rt.abort.flag.Load() {
		return rt, rt.buildRunError(fails)
	}
	return rt, nil
}

// traceMeta is the trace's recording-time context: rank placement and — on
// a node with links — its identity, clock-offset samples and link events,
// which cross-node merging needs.
func (rt *Runtime) traceMeta() obs.TraceMeta {
	nodeOf := make([]int32, rt.cfg.NRanks)
	for id := range nodeOf {
		nodeOf[id] = int32(rt.place.NodeOf(id))
	}
	meta := obs.TraceMeta{Node: -1, Nodes: rt.cfg.Spec.Nodes, NodeOfRank: nodeOf}
	if rt.tp != nil {
		meta.Node = rt.tp.Node()
		meta.Clock = rt.tp.ClockSamples()
		meta.Links = rt.tp.LinkEvents()
	}
	return meta
}

// testNewRankHook, when non-nil, runs at the top of newRank.  Tests use it to
// simulate a rank that dies during bootstrap, which leaves ranks[id] == nil —
// the harvest paths must tolerate that.
var testNewRankHook func(id int)

func (rt *Runtime) newRank(id int) *Rank {
	if testNewRankHook != nil {
		testNewRankHook(id)
	}
	node := rt.place.NodeOf(id)
	local := rt.place.LocalIndex(id)
	r := &Rank{
		id:        id,
		rt:        rt,
		node:      node,
		local:     local,
		stats:     &rt.stats[id].RankStats,
		liveStats: rt.cfg.Metrics != nil,
		slot:      &rt.waitSlots[id],

		// Live wait-record publication feeds both the hang watchdog and
		// the monitor's /ranks view.
		liveWaitRecords: rt.cfg.HangTimeout > 0 || rt.cfg.MonitorAddr != "",
	}
	r.thief = rt.node.sched.NewThief(local)
	r.attachObs()
	// Progress applies incoming one-sided operations at every SSW yield
	// boundary, so a rank parked in any wait still exposes its windows and
	// unblocks remote origins.
	r.wait = ssw.Waiter{
		Steal: r.thief, SpinBudget: rt.cfg.spinBudget, Poison: rt.abortErr, Progress: r.rmaProgress,
	}
	if rt.tp != nil {
		r.wait.Progress = r.tpProgress
	}
	r.park = r.wait
	r.park.Cell = rt.cells[id]
	r.quiet = ssw.Waiter{SpinBudget: r.wait.SpinBudget, Poison: r.wait.Poison, Cell: r.park.Cell}
	r.world = &Comm{r: r, sh: rt.world, myRank: id}
	return r
}

// Metrics returns the run's metrics registry (Config.Metrics), or nil when
// metrics are off.  Ranks may snapshot or extend it mid-run.
func (r *Rank) Metrics() *obs.Metrics { return r.rt.cfg.Metrics }

func allRanks(n int) []int {
	m := make([]int, n)
	for i := range m {
		m[i] = i
	}
	return m
}

// StealStats reports the rank's lifetime stealing counters: steal attempts
// and chunks stolen.
func (r *Rank) StealStats() (attempts, stolen int64) {
	return r.thief.Attempts, r.thief.Stolen
}
