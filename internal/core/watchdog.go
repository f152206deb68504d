package core

import (
	"fmt"
	"strings"
	"time"
)

// The watchdog is the runtime's hang detector (enabled by Config.HangTimeout
// and/or Config.Deadline).  Pure blocks "in dozens of places" in the
// SSW-Loop; a mismatched Recv or a lost envelope classically leaves every
// rank spinning forever with no output.  The watchdog scans the wait
// registry: when every live rank is blocked and the global progress counter
// has not moved for HangTimeout, it builds the rank-to-rank wait-for graph,
// runs cycle detection to tell a true deadlock from a lost-message stall,
// poisons the runtime with a multi-line diagnostic, and lets the cooperative
// abort unwind every rank so Run can return the dump as a *RunError.

// watchdog runs until stop closes, the deadline fires, or a hang is
// diagnosed.  It is the only goroutine besides the ranks that the runtime
// starts, and it only ever reads the wait slots (atomics), never rank state.
func (rt *Runtime) watchdog(stop <-chan struct{}) {
	var deadlineC <-chan time.Time
	if rt.cfg.Deadline > 0 {
		t := time.NewTimer(rt.cfg.Deadline)
		defer t.Stop()
		deadlineC = t.C
	}
	var tickC <-chan time.Time
	if rt.cfg.HangTimeout > 0 {
		period := rt.cfg.HangTimeout / 8
		if period < time.Millisecond {
			period = time.Millisecond
		}
		tk := time.NewTicker(period)
		defer tk.Stop()
		tickC = tk.C
	}

	var lastSig uint64
	lastChange := time.Now()
	first := true
	for {
		select {
		case <-stop:
			return
		case <-deadlineC:
			rt.poison(CauseDeadline,
				fmt.Sprintf("wall-clock deadline of %v exceeded", rt.cfg.Deadline),
				rt.dumpBlocked("deadline expired"), nil)
			return
		case <-tickC:
			sig, blocked, running, live := rt.scanRanks()
			if first || sig != lastSig || running > 0 || blocked == 0 || live == 0 {
				lastSig, lastChange, first = sig, time.Now(), false
				continue
			}
			stuck := time.Since(lastChange)
			if stuck < rt.cfg.HangTimeout {
				continue
			}
			cause, text, cycle := rt.diagnoseHang(blocked, live, stuck)
			rt.poison(cause, text, rt.dumpBlocked(text), cycle)
			return
		}
	}
}

// scanRanks snapshots the wait registry: the global progress signature, how
// many live ranks are blocked vs. running, and how many are live at all.
func (rt *Runtime) scanRanks() (sig uint64, blocked, running, live int) {
	for id := range rt.waitSlots {
		s := &rt.waitSlots[id]
		sig += s.progress.Load()
		if s.done.Load() {
			continue
		}
		live++
		if s.waiting.Load() != nil {
			blocked++
		} else {
			running++
		}
	}
	return sig, blocked, running, live
}

// diagnoseHang classifies a confirmed global no-progress state: a wait-for
// cycle over peer-directed waits is a true deadlock; anything else is a
// stall (lost message, unmatched operation, or a collective some member
// never entered).
func (rt *Runtime) diagnoseHang(blocked, live int, stuck time.Duration) (cause, text string, cycle []int) {
	cycle = findWaitCycle(len(rt.waitSlots), rt.liveWaits())
	if len(cycle) > 0 {
		return CauseDeadlock, fmt.Sprintf(
			"deadlock: no progress for %v, %d/%d ranks blocked, wait-for cycle of %d ranks",
			stuck.Round(time.Millisecond), blocked, live, len(cycle)), cycle
	}
	return CauseStall, fmt.Sprintf(
		"stall: no progress for %v, %d/%d ranks blocked, no wait-for cycle "+
			"(likely a lost message, an unmatched send/recv, or a collective a rank never entered)",
		stuck.Round(time.Millisecond), blocked, live), nil
}

// liveWaits lists the live ranks with their published wait records.
func (rt *Runtime) liveWaits() (live []BlockedRank) {
	for id := range rt.waitSlots {
		if s := &rt.waitSlots[id]; !s.done.Load() {
			live = append(live, BlockedRank{Rank: id, Wait: s.waiting.Load()})
		}
	}
	return live
}

// findWaitCycle builds the wait-for graph over n ranks from the ranks'
// records (each blocked rank has at most one outgoing edge, to the peer a
// peer-directed wait names) and returns the first cycle found, in wait
// order, starting from its smallest rank id.  nil when the graph is
// acyclic.  The watchdog walks its own node's records; the in-process node
// runner walks every node's (mergeNodeErrors).
func findWaitCycle(n int, waits []BlockedRank) []int {
	next := make([]int, n) // -1 = no edge
	for i := range next {
		next[i] = -1
	}
	for _, b := range waits {
		if w := b.Wait; w != nil && w.Kind.waitsOnPeer() && w.Peer >= 0 && w.Peer < n {
			next[b.Rank] = w.Peer
		}
	}
	// Functional-graph cycle walk: color 0 unvisited, 1 on current path,
	// 2 finished.
	color := make([]uint8, n)
	for start := 0; start < n; start++ {
		if color[start] != 0 {
			continue
		}
		var path []int
		for v := start; ; {
			if v < 0 || color[v] == 2 {
				break
			}
			if color[v] == 1 {
				// Found a cycle: the suffix of path from v's first occurrence.
				for i, u := range path {
					if u == v {
						cyc := append([]int(nil), path[i:]...)
						rotateToMin(cyc)
						return cyc
					}
				}
				break
			}
			color[v] = 1
			path = append(path, v)
			v = next[v]
		}
		for _, u := range path {
			color[u] = 2
		}
	}
	return nil
}

// rotateToMin rotates the cycle in place so it starts at its smallest rank
// id, making the diagnostic (and tests) deterministic.
func rotateToMin(c []int) {
	mi := 0
	for i, v := range c {
		if v < c[mi] {
			mi = i
		}
	}
	rot := append(append([]int(nil), c[mi:]...), c[:mi]...)
	copy(c, rot)
}

// dumpBlocked renders the per-rank wait states into the multi-line
// diagnostic that travels on the RunError (and the process log).
func (rt *Runtime) dumpBlocked(header string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "  watchdog: %s; per-rank wait states:", header)
	lines := 0
	for id := range rt.waitSlots {
		s := &rt.waitSlots[id]
		if s.done.Load() {
			continue
		}
		if lines == maxBlockedLines {
			fmt.Fprintf(&b, "\n    ... (%d ranks total)", len(rt.waitSlots))
			break
		}
		fmt.Fprintf(&b, "\n    rank %d: %s", id, s.waiting.Load().describe())
		lines++
	}
	if lines == 0 {
		b.WriteString("\n    (no live ranks)")
	}
	return b.String()
}
