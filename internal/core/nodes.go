package core

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/transport"
)

// In-process nodes: a Spec of several nodes without Config.Transport, or
// with a Transport that lists no Addrs, runs one runtime per node in
// goroutines of this process, joined by the links a multi-process job uses,
// over transport.MemNet.  Every cross-node message, collective leg and RMA
// frame takes the path it takes between processes, and each node's watchdog
// sees only its own ranks.

// The in-process links' constants.  PeerDeadAfter is how long a link stays
// silent before its peer is declared dead: far above a descheduled heartbeat
// on a loaded host, unless the watchdog needs it sooner (HangTimeout/2).  A
// refused in-memory dial costs nothing, so the first redial comes at once:
// a node that binds a moment after its peer dials must not cost the first
// message the 20 ms TCP backoff.
const (
	inProcessPeerDeadAfter = 5 * time.Second
	inProcessDialBackoff   = 50 * time.Microsecond
)

// inProcessLinks is the links' configuration for in-process nodes, resolved
// once by withDefaults: the caller's cfg.Transport (fault plan, retry and
// drain settings) with the in-process constants filled where a field is zero
// and one in-memory address per node.
func inProcessLinks(cfg *Config) transport.Config {
	t := *cfg.Transport
	if t.PeerDeadAfter == 0 {
		t.PeerDeadAfter = inProcessPeerDeadAfter
		if h := cfg.HangTimeout / 2; h > 0 {
			t.PeerDeadAfter = min(t.PeerDeadAfter, h)
		}
	}
	if t.HeartbeatEvery == 0 {
		t.HeartbeatEvery = t.PeerDeadAfter / 16
	}
	if t.DialBackoff == 0 {
		t.DialBackoff = inProcessDialBackoff
	}
	t.Addrs = make([]string, cfg.Spec.Nodes)
	for n := range t.Addrs {
		t.Addrs[n] = fmt.Sprintf("node:%d", n)
	}
	return t.WithDefaults()
}

// runNodes runs the resolved cfg as one runtime per node and merges what
// they return: every rank's counters from the node it ran on, one trace
// meta, and one error (mergeNodeErrors).
func runNodes(cfg Config, main func(r *Rank)) ([]RankStats, error) {
	rts, errs := runEachNode(cfg, main)
	err := mergeNodeErrors(errs, cfg.NRanks)
	if slices.Contains(rts, nil) {
		return nil, err // a node failed to start
	}
	stats := make([]RankStats, cfg.NRanks)
	for id := range stats {
		stats[id] = rts[rts[0].place.NodeOf(id)].stats[id].RankStats
	}
	if cfg.Trace != nil {
		// One trace on one clock holds the whole job, as a merged dump does.
		meta := rts[0].traceMeta()
		meta.Node, meta.Clock = -1, nil
		for _, rt := range rts[1:] {
			meta.Links = append(meta.Links, rt.tp.LinkEvents()...)
		}
		sort.Slice(meta.Links, func(a, b int) bool { return meta.Links[a].TS < meta.Links[b].TS })
		cfg.Trace.SetMeta(meta)
	}
	return stats, err
}

// runEachNode runs each node of the resolved cfg on a goroutine over one
// MemNet and returns each node's runtime (nil if it failed to start) and error.
func runEachNode(cfg Config, main func(r *Rank)) ([]*Runtime, []error) {
	nodes := cfg.Spec.Nodes
	if cfg.spinBudget == 0 {
		// Every node's ranks and helpers share this process's scheduler.
		cfg.spinBudget = deriveSpinBudget(runtime.GOMAXPROCS(0), cfg.NRanks+nodes*cfg.HelpersPerNode)
	}
	if cfg.Metrics == nil && cfg.MonitorAddr != "" {
		// One registry for every node, so node 0's /metrics covers them all.
		cfg.Metrics = obs.NewMetrics()
	}
	mem := transport.NewMemNet()
	rts := make([]*Runtime, nodes)
	errs := make([]error, nodes)
	var wg sync.WaitGroup
	for n := range rts {
		ncfg, t := cfg, *cfg.Transport
		t.Node, ncfg.Transport = n, &t
		if n > 0 {
			ncfg.MonitorAddr = "" // node 0 serves the monitor
		}
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			rts[n], errs[n] = runInternal(ncfg, mem.Backend(), main)
		}(n)
	}
	wg.Wait()
	return rts, errs
}

// mergeNodeErrors folds the nodes' errors into the run's.  A node that failed
// to start is the error.  Otherwise the node whose abort had a cause of its
// own — not node-dead, which is how its peers heard of it — supplies Cause,
// Text, Cycle, DeadNodes and Diag, and Failures and Blocked are the union
// over the nodes.  When every node with a cause of its own diagnosed a
// stall, the wait-for cycle may run across nodes, where no node's watchdog
// could see it whole: the cycle walk runs again over the merged wait records.
func mergeNodeErrors(errs []error, nranks int) error {
	var base *RunError
	var fails []RankFailure
	var blocked []BlockedRank
	stalls := true
	for _, err := range errs {
		var re *RunError
		if err == nil {
			continue
		} else if !errors.As(err, &re) {
			return err
		}
		fails, blocked = append(fails, re.Failures...), append(blocked, re.Blocked...)
		stalls = stalls && (re.Cause == CauseStall || re.Cause == CauseNodeDead)
		if base == nil || base.Cause == CauseNodeDead && re.Cause != CauseNodeDead {
			base = re
		}
	}
	if base == nil {
		return nil
	}
	merged := *base
	sort.Slice(fails, func(a, b int) bool { return fails[a].Rank < fails[b].Rank })
	sort.Slice(blocked, func(a, b int) bool { return blocked[a].Rank < blocked[b].Rank })
	merged.Failures, merged.Blocked = fails, blocked
	if stalls && base.Cause == CauseStall {
		if cycle := findWaitCycle(nranks, blocked); cycle != nil {
			merged.Cause, merged.Cycle = CauseDeadlock, cycle
			merged.Text = fmt.Sprintf("deadlock: wait-for cycle of %d ranks across nodes (each node's watchdog saw its own ranks stall)",
				len(cycle))
		}
	}
	return &merged
}
