// Package core is the Pure runtime system (paper §4): a multithreaded,
// "distributed" runtime in which application ranks are goroutines (the
// paper uses kernel threads) that communicate through lock-free shared
// memory structures within a node and through a modeled network across
// nodes.
//
// The runtime owns: rank bootstrap and placement; the channel manager that
// maps message arguments to persistent channel objects; the point-to-point
// eager (PureBufferQueue) and rendezvous protocols; lock-free collectives
// (SPTD and Partitioned Reducer) bridged across nodes; communicators; and
// the Pure Task scheduler with SSW-Loop work stealing.
//
// The public package pure wraps this with the application-facing API.
package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/netsim"
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
	// DefaultSPTDMax is the small-collective payload bound (paper: SPTD used
	// for arrays up to 2 KiB, Partitioned Reducer beyond).
	DefaultSPTDMax = 2 << 10
	// DefaultRendezvousDepth bounds outstanding posted large receives per channel.
	DefaultRendezvousDepth = 16
	// DefaultTaskChunks is the default number of chunks a task splits into
	// (the paper's PURE_MAX_TASK_CHUNKS Makefile variable).
	DefaultTaskChunks = 64
)

// Config configures a Pure program launch.
type Config struct {
	// NRanks is the number of application ranks (fixed for the program).
	NRanks int
	// Spec is the virtual cluster to place ranks on.  Zero value means a
	// single node large enough for all ranks.
	Spec topology.Spec
	// RanksPerNode caps ranks per node (0 = node capacity).
	RanksPerNode int
	// Policy/Seats select the rank-to-hardware mapping (topology package).
	Policy topology.Policy
	Seats  []topology.HWThread

	// SmallMsgMax is the eager/rendezvous protocol threshold in bytes.
	SmallMsgMax int
	// PBQSlots is the eager queue depth per channel.
	PBQSlots int
	// SPTDMax is the SPTD/PartitionedReducer collective threshold in bytes.
	SPTDMax int
	// RendezvousDepth is the envelope queue depth per channel.
	RendezvousDepth int
	// SpinBudget is the SSW-Loop probe count between yields.
	SpinBudget int

	// Net is the cost model of the in-process modeled wire between virtual
	// nodes (netsim.Loopback() for 1 node): latency, bandwidth and
	// per-message overhead, nothing else.  The modeled wire never loses or
	// reorders a message; loss, duplication and recovery exist only on the
	// real transport below (Transport.Faults injects them).
	Net netsim.Config

	// Transport, when non-nil, replaces the in-process modeled network with
	// a real inter-node transport (TCP by default): this OS process runs
	// only the ranks placed on Transport.Node, one cooperating process per
	// node in Transport.Addrs, and all cross-node traffic — two-sided sends,
	// leader-tree collective legs, and RMA frames — travels the transport's
	// sequenced, acked, heartbeat-monitored links.  Spec.Nodes must equal
	// len(Transport.Addrs).  Net is unused then.  Transport.Faults injects
	// link-level drops and delays, which the link protocol recovers.
	Transport *transport.Config

	// HangTimeout arms the watchdog: when every live rank is blocked and no
	// rank makes progress for this long, the runtime diagnoses the hang
	// (wait-for cycle vs. lost-message stall), aborts, and Run returns a
	// *RunError naming the blocked ranks.  Zero disables the watchdog.
	HangTimeout time.Duration
	// Deadline aborts the run after this much wall-clock time regardless of
	// progress.  Zero means no deadline.  Abort is cooperative: a rank that
	// never re-enters the runtime (a pure compute loop) cannot be unwound.
	Deadline time.Duration

	// HelpersPerNode starts that many pure helper threads on each node
	// (threads that only steal; paper §5.1, DT class A).
	HelpersPerNode int
	// ChunkMode / StealPolicy / OwnerSteals configure the task scheduler.
	ChunkMode   sched.ChunkMode
	StealPolicy sched.StealPolicy
	OwnerSteals bool

	// Trace, when non-nil, receives runtime events (p2p posts per protocol
	// path, PBQ stalls, rendezvous handoffs, collective spans with SPTD round
	// numbers, steal latencies, task executions).  It must be sized for
	// NRanks ranks (obs.NewTrace).  When nil, every instrumentation site
	// costs a single pointer nil check.
	Trace *obs.Trace
	// Metrics, when non-nil, is the registry the run reports through: a
	// snapshot taken at any time — mid-run, or after Run has returned — reads
	// the ranks' counters, the link counters and the runtime's few registry
	// objects as they stand (see collector).  Setting it is also what
	// makes the ranks' counter updates atomic.
	Metrics *obs.Metrics
	// MonitorAddr, when non-empty, serves the live runtime monitor on that
	// TCP address for the duration of the run: a Prometheus scrape of
	// Config.Metrics at /metrics, every rank's current wait state at /ranks,
	// and net/http/pprof.  ":0" picks a free port; Runtime.MonitorAddr
	// returns the bound address.  The monitor itself does not enable
	// metrics or tracing — it serves whatever the configuration already
	// records, so its steady-state cost is an idle listener plus the lazy
	// wait-record publication (<5% on the ping-pong benchmark).
	MonitorAddr string
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
		{"SPTDMax", cfg.SPTDMax},
		{"RendezvousDepth", cfg.RendezvousDepth},
		{"SpinBudget", cfg.SpinBudget},
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
	if cfg.Transport != nil {
		t := cfg.Transport.WithDefaults()
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
	if cfg.SPTDMax == 0 {
		cfg.SPTDMax = DefaultSPTDMax
	}
	if cfg.RendezvousDepth == 0 {
		cfg.RendezvousDepth = DefaultRendezvousDepth
	}
	return cfg, nil
}

// nodeState is the per-node shared state: the task scheduler (active_tasks
// array) and the node's "NIC" lock, which models the MPI_THREAD_MULTIPLE
// serialization Pure pays on its inter-node path (paper §4.1.3).
type nodeState struct {
	sched      *sched.Scheduler
	nic        sync.Mutex
	helperStop chan struct{}
	helperWG   *sync.WaitGroup
	nRanks     int // application ranks on this node (helpers get slots after)
}

// Runtime is one Pure program instance.
type Runtime struct {
	cfg   Config
	place *topology.Placement
	net   *netsim.Network
	nodes []*nodeState

	channels sync.Map // chanKey -> *channel   (intra-node)
	remotes  sync.Map // chanKey -> *remoteChannel (inter-node)
	comms    sync.Map // splitKey -> *commShared

	// tp is the real inter-node transport when Config.Transport is set (nil
	// for in-process runs); tpFinished marks that every local rank has
	// returned, turning late peer-failure upcalls into no-ops (peer shutdown
	// is not synchronized across nodes).
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
	wait  ssw.Waiter
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
	// pendRec describes the rank's innermost *leaf* wait — a p2p or remote
	// stall with no waits nested inside it — while pendActive is set.  These
	// are plain fields: only the rank's own goroutine touches them, and they
	// become visible to diagnostics only when copied into the (atomic) wait
	// slot, either by the watchdog-armed probe counter or by the unwind
	// settlement in settleUnwoundWait.
	pendRec       WaitRecord
	pendActive    bool
	pendPublished bool
	// unwindPublished is set by the first unwind handler to run while an
	// abort panic unwinds this rank, so outer (less specific) waits on the
	// same stack leave the innermost record in place.  Only the rank's own
	// goroutine touches it.
	unwindPublished bool
	// liveWaitRecords is true when the hang watchdog is armed and therefore
	// needs wait records published while ranks are still blocked (not just
	// at abort unwind).
	liveWaitRecords bool

	// Ranks are allocated back to back; the pad keeps one rank's wait record
	// (rewritten at every blocking wait) off the cacheline the next rank's
	// handle starts on.
	_ [64]byte
}

// ID returns the rank's global id in [0, NRanks).
func (r *Rank) ID() int { return r.id }

// NRanks returns the total rank count.
func (r *Rank) NRanks() int { return r.rt.cfg.NRanks }

// Node returns the rank's node index.
func (r *Rank) Node() int { return r.node }

// World returns the world communicator handle for this rank.
func (r *Rank) World() *Comm { return r.world }

// Runtime returns the owning runtime (for tooling/diagnostics).
func (r *Rank) Runtime() *Runtime { return r.rt }

// Placement exposes the rank-to-hardware mapping.
func (rt *Runtime) Placement() *topology.Placement { return rt.place }

// Config returns the resolved configuration.
func (rt *Runtime) Config() Config { return rt.cfg }

// Run bootstraps a Pure program: it builds the placement, the per-node
// schedulers and helper threads, and the world communicator, then launches
// NRanks goroutines each executing main (the application's __original_main
// in the paper's bootstrap, §4.0.1) and waits for them all to return.
func Run(cfg Config, main func(r *Rank)) error {
	return runInternal(cfg, main, nil)
}

// runInternal is Run with an optional post-run hook (used by RunWithStats to
// harvest the ranks' counter cells).
func runInternal(cfg Config, main func(r *Rank), harvest func(*Runtime)) error {
	rcfg, err := cfg.withDefaults()
	if err != nil {
		return err
	}
	place, err := topology.NewPlacement(rcfg.Spec, rcfg.NRanks, rcfg.RanksPerNode, rcfg.Policy, rcfg.Seats)
	if err != nil {
		return fmt.Errorf("core: placing ranks: %w", err)
	}
	rt := &Runtime{cfg: rcfg, place: place, net: netsim.New(rcfg.Net), cells: make([]*ssw.WakeCell, rcfg.NRanks)}
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
	rt.nodes = make([]*nodeState, rcfg.Spec.Nodes)
	for n := range rt.nodes {
		nRanks := len(place.RanksOnNode(n))
		if nRanks == 0 {
			continue
		}
		slots := nRanks + rcfg.HelpersPerNode
		var socketOf []int
		if rcfg.StealPolicy == sched.NUMAAwareSteal {
			socketOf = make([]int, slots)
			for i, rank := range place.RanksOnNode(n) {
				socketOf[i] = place.SocketOf(rank)
			}
		}
		rt.nodes[n] = &nodeState{
			sched: sched.New(sched.Config{
				Slots:       slots,
				ChunkMode:   rcfg.ChunkMode,
				Policy:      rcfg.StealPolicy,
				SocketOf:    socketOf,
				OwnerSteals: rcfg.OwnerSteals,
			}),
			nRanks: nRanks,
		}
	}
	rt.world = rt.newCommShared(worldCommID, allRanks(rcfg.NRanks))

	// With a real transport, this process runs only its own node's ranks.
	localRank := func(int) bool { return true }
	if rcfg.Transport != nil {
		tcfg := *rcfg.Transport
		if rcfg.Trace != nil && tcfg.LinkEvents == 0 {
			// Rank tracing is on: record transport frame events too, so the
			// dump carries what `puretrace merge` matches across nodes.
			tcfg.LinkEvents = 1 << 14
		}
		tp, err := transport.New(tcfg, nil, rcfg.NRanks, transport.Handlers{
			Deliver:  rt.tpDeliver,
			Applied:  rt.tpApplied,
			PeerDead: rt.tpPeerDead,
			PeerBye:  rt.tpPeerBye,
			Writable: rt.tpWritable,
		})
		if err != nil {
			return fmt.Errorf("core: building transport: %w", err)
		}
		// Upcalls may run before Start returns — a peer that was up first has
		// frames waiting for the handshake — and the ones that poison read
		// rt.tp.
		rt.tp = tp
		if err := tp.Start(); err != nil {
			return err
		}
		defer func() {
			rt.tpFinished.Store(true)
			tp.Close()
		}()
		myNode := tp.Node()
		localRank = func(id int) bool { return place.NodeOf(id) == myNode }
	}

	// Adaptive SSW spin budget: the paper pins one rank per hardware thread
	// and spins freely.  When this host cannot do that (goroutine ranks
	// oversubscribed onto fewer cores), long spins only delay the scheduler
	// from running the peer.  The budget derives from GOMAXPROCS against
	// the goroutines this *process* actually hosts: under a real transport
	// that is only this node's ranks — the old all-nodes maximum would let
	// a 16-rank peer node throttle a process hosting one rank on idle
	// cores — and without one it is every rank of every virtual node, all
	// sharing this scheduler.
	if rcfg.SpinBudget == 0 {
		tpNode := -1
		if rt.tp != nil {
			tpNode = rt.tp.Node()
		}
		live := liveLocalRanks(place, rcfg.Spec.Nodes, rcfg.HelpersPerNode, tpNode)
		rt.cfg.SpinBudget = deriveSpinBudget(runtime.GOMAXPROCS(0), live)
	}

	// Start helper threads (paper: "extra threads that continuously try to
	// steal work", used when ranks don't cover all hardware threads).
	if rcfg.HelpersPerNode > 0 {
		for n, ns := range rt.nodes {
			if ns == nil || (rt.tp != nil && n != rt.tp.Node()) {
				continue
			}
			ns.helperStop = make(chan struct{})
			ns.helperWG = ns.sched.Helpers(ns.nRanks, rcfg.HelpersPerNode, ns.helperStop)
		}
	}

	rt.waitSlots = make([]rankWaitSlot, rcfg.NRanks)
	if col != nil {
		// Everything the collector reads — the cells, the transport — exists
		// by now.
		rcfg.Metrics.Collect(col.collect)
	}
	if rcfg.MonitorAddr != "" {
		if err := rt.startMonitor(); err != nil {
			return fmt.Errorf("core: starting monitor: %w", err)
		}
		defer rt.stopMonitor()
	}
	var wg sync.WaitGroup
	failures := make(chan RankFailure, rcfg.NRanks)
	ranks := make([]*Rank, rcfg.NRanks)
	for id := 0; id < rcfg.NRanks; id++ {
		if !localRank(id) {
			// Another OS process runs this rank; mark its slot done so the
			// watchdog and the failure harvest skip it here.
			rt.waitSlots[id].done.Store(true)
			continue
		}
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			defer func() {
				if r := ranks[id]; r != nil {
					r.settleStats()
				}
				rt.waitSlots[id].done.Store(true)
				p := recover()
				if p == nil {
					return
				}
				switch v := p.(type) {
				case ssw.AbortPanic:
					// Unwound by runtime poisoning: a survivor, not a new
					// failure.  Its wait record stays published for the
					// RunError's blocked-rank listing; a leaf wait that
					// unwound before publishing settles its pending record
					// here (there is no lazyWait handler below a leaf).
					rt.waitSlots[id].unwound.Store(true)
					if r := ranks[id]; r != nil {
						r.settleUnwoundWait(nil)
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
		}(id)
	}

	// The watchdog is the only non-rank goroutine the runtime starts; it
	// scans the wait registry for global no-progress and enforces Deadline.
	var watchWG sync.WaitGroup
	stopWatch := make(chan struct{})
	if rcfg.HangTimeout > 0 || rcfg.Deadline > 0 {
		watchWG.Add(1)
		go func() {
			defer watchWG.Done()
			rt.watchdog(stopWatch)
		}()
	}

	wg.Wait()
	if rt.tp != nil {
		// Local ranks are done: late peer-failure upcalls must no longer
		// poison the run (peer shutdown is unsynchronized).  If the run
		// aborted, re-announce it synchronously — the poison-time Bye rides a
		// separate goroutine that may not have run before Close tears the
		// links down.
		rt.tpFinished.Store(true)
		if rt.abort.flag.Load() {
			rt.abort.mu.Lock()
			text := fmt.Sprintf("node %d aborted (%s): %s", rt.tp.Node(), rt.abort.cause, rt.abort.text)
			dead := append([]int(nil), rt.abort.deadNodes...)
			rt.abort.mu.Unlock()
			rt.tp.Abort(text, dead)
		}
	}
	close(stopWatch)
	watchWG.Wait()
	// Attach recording-time context to the trace before anything dumps it:
	// node identity, rank placement, and — under a real transport — the
	// clock-offset samples and link events cross-node merging needs.
	if rcfg.Trace != nil {
		nodeOf := make([]int32, rcfg.NRanks)
		for id := 0; id < rcfg.NRanks; id++ {
			nodeOf[id] = int32(place.NodeOf(id))
		}
		meta := obs.TraceMeta{Node: -1, Nodes: rcfg.Spec.Nodes, NodeOfRank: nodeOf}
		if rt.tp != nil {
			meta.Node = rt.tp.Node()
			meta.Nodes = rt.tp.Nodes()
			meta.Clock = rt.tp.ClockSamples()
			meta.Links = rt.tp.LinkEvents()
		}
		rcfg.Trace.SetMeta(meta)
	}
	if harvest != nil {
		harvest(rt)
	}

	if rcfg.HelpersPerNode > 0 {
		for _, ns := range rt.nodes {
			if ns == nil || ns.helperStop == nil {
				continue
			}
			close(ns.helperStop)
			ns.helperWG.Wait()
		}
	}
	close(failures)
	var fails []RankFailure
	for f := range failures {
		fails = append(fails, f)
	}
	if len(fails) > 0 || rt.abort.flag.Load() {
		return rt.buildRunError(fails)
	}
	return nil
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
	r.thief = rt.nodes[node].sched.NewThief(local)
	r.attachObs()
	// Progress applies incoming one-sided operations at every SSW yield
	// boundary, so a rank parked in any wait still exposes its windows and
	// unblocks remote origins.
	r.wait = ssw.Waiter{
		Steal: r.thief, SpinBudget: rt.cfg.SpinBudget, Poison: rt.abortErr, Progress: r.rmaProgress,
		Cell: rt.cells[id],
	}
	if rt.tp != nil {
		r.wait.Progress = r.tpProgress
	}
	r.world = &Comm{r: r, sh: rt.world, myRank: id}
	return r
}

// Metrics returns the run's metrics registry, or nil when metrics are off.
func (r *Rank) Metrics() *obs.Metrics { return r.rt.cfg.Metrics }

func allRanks(n int) []int {
	m := make([]int, n)
	for i := range m {
		m[i] = i
	}
	return m
}

// StealStats reports a rank's lifetime stealing counters (diagnostics).
func (r *Rank) StealStats() (attempts, stolen int64) {
	return r.thief.Attempts, r.thief.Stolen
}
