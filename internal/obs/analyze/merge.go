package analyze

import (
	"fmt"
	"sort"

	"repro/internal/obs"
)

// Cross-node trace merge.  Each node of a multi-process run dumps its own
// trace with timestamps in its own clock domain; the transport's heartbeat
// exchange records NTP-style offset samples (obs.ClockSample) against every
// peer.  Merge picks a reference node, chains the pairwise offsets into one
// absolute offset per node (minimum-delay sample wins — the classic NTP
// filter, since a symmetric-path sample's error is bounded by its RTT), and
// rebases every event onto the reference clock so cross-node send→recv pairs
// line up and the analyzer can match them like local ones.

// NodeAlign reports how one node's clock was aligned to the reference.
type NodeAlign struct {
	Node int `json:"node"`
	// OffsetNs is the node's clock minus the reference node's clock; the
	// merge subtracts it from the node's timestamps.
	OffsetNs int64 `json:"offset_ns"`
	// DelayNs is the path delay of the winning clock sample (its error
	// bound); 0 for the reference itself.
	DelayNs int64 `json:"delay_ns"`
	// Via is the already-aligned peer the offset chains through, -1 for the
	// reference node and for unaligned fallbacks.
	Via int `json:"via"`
	// Samples counts the usable clock samples between Node and Via.
	Samples int `json:"samples"`
	// Aligned is false when no chain of clock samples connects the node to
	// the reference; its offset is then assumed 0 (timestamps pass through).
	Aligned bool `json:"aligned"`
}

// MergeInfo describes one merge: the reference node and every node's
// alignment, ordered by node id.
type MergeInfo struct {
	Ref   int         `json:"ref"`
	Nodes []NodeAlign `json:"nodes"`
	// BaseUnixNano is the merged trace's time zero (the earliest aligned
	// node start), stored in the merged dump's Meta.StartUnixNano.
	BaseUnixNano int64 `json:"base_unix_nano"`
}

// edge is one usable pairwise clock estimate: clock(to) - clock(from),
// with the sample's path delay as its quality.
type edge struct {
	to      int
	offset  int64
	delay   int64
	samples int
}

// Merge aligns per-node trace dumps onto one clock and returns the combined
// dump.  Every input must be a v2 dump recording its node identity
// (Meta.Node >= 0) and the node ids must be distinct.  The merged dump has
// Meta.Node == -1, the union of all events and link events rebased to the
// reference clock, and Meta.StartUnixNano set so timestamps remain
// trace-relative nanoseconds.
func Merge(dumps []*obs.TraceDump) (*obs.TraceDump, *MergeInfo, error) {
	if len(dumps) == 0 {
		return nil, nil, fmt.Errorf("no dumps to merge")
	}
	byNode := map[int]*obs.TraceDump{}
	for i, d := range dumps {
		if d.Meta.Node < 0 {
			return nil, nil, fmt.Errorf("dump %d records no node identity (written without metadata, or not a multi-process run)", i)
		}
		if prev, ok := byNode[d.Meta.Node]; ok && prev != d {
			return nil, nil, fmt.Errorf("two dumps claim node %d", d.Meta.Node)
		}
		byNode[d.Meta.Node] = d
	}
	nodes := make([]int, 0, len(byNode))
	for n := range byNode {
		nodes = append(nodes, n)
	}
	sort.Ints(nodes)
	ref := nodes[0]

	// Best pairwise offset per ordered (from, to): minimum-delay sample.  A
	// sample recorded at node R about peer P estimates clock(P) - clock(R),
	// so it yields edge R→P with that offset and P→R with its negation.
	type pair struct{ from, to int }
	best := map[pair]edge{}
	note := func(from, to int, off, delay int64) {
		k := pair{from, to}
		e, ok := best[k]
		if !ok || delay < e.delay {
			best[k] = edge{to: to, offset: off, delay: delay, samples: e.samples + 1}
		} else {
			e.samples++
			best[k] = e
		}
	}
	for _, n := range nodes {
		for _, s := range byNode[n].Meta.Clock {
			p := int(s.Peer)
			if p == n || byNode[p] == nil || s.DelayNs <= 0 {
				continue
			}
			note(n, p, s.OffsetNs, s.DelayNs)
			note(p, n, -s.OffsetNs, s.DelayNs)
		}
	}
	adj := map[int][]edge{}
	for k, e := range best {
		adj[k.from] = append(adj[k.from], e)
	}

	// Breadth-first chain from the reference, always expanding the node
	// reached through the lowest-delay edge first (Dijkstra on delay), so a
	// direct low-RTT sample beats a multi-hop chain.
	align := map[int]*NodeAlign{ref: {Node: ref, Via: -1, Aligned: true}}
	done := map[int]bool{}
	for len(done) < len(nodes) {
		// Pick the cheapest aligned-but-unexpanded node.
		cur, curDelay := -1, int64(0)
		for n, a := range align {
			if done[n] {
				continue
			}
			if cur == -1 || a.DelayNs < curDelay {
				cur, curDelay = n, a.DelayNs
			}
		}
		if cur == -1 {
			break // remaining nodes unreachable
		}
		done[cur] = true
		for _, e := range adj[cur] {
			cost := curDelay + e.delay
			if a, ok := align[e.to]; ok && (done[e.to] || a.DelayNs <= cost) {
				continue
			}
			align[e.to] = &NodeAlign{
				Node:     e.to,
				OffsetNs: align[cur].OffsetNs + e.offset,
				DelayNs:  cost,
				Via:      cur,
				Samples:  e.samples,
				Aligned:  true,
			}
		}
	}

	info := &MergeInfo{Ref: ref}
	offsets := map[int]int64{}
	for _, n := range nodes {
		a := align[n]
		if a == nil {
			a = &NodeAlign{Node: n, Via: -1} // no clock path: pass through
		}
		offsets[n] = a.OffsetNs
		info.Nodes = append(info.Nodes, *a)
	}

	// Time zero of the merged trace: the earliest node start, expressed in
	// the reference clock.  Aligned absolute time of a rank event is
	// StartUnixNano + TS - offset; of a link event (already absolute wall
	// clock), TS - offset.
	base := int64(0)
	for i, n := range nodes {
		if s := byNode[n].Meta.StartUnixNano - offsets[n]; i == 0 || s < base {
			base = s
		}
	}
	info.BaseUnixNano = base

	out := &obs.TraceDump{}
	out.Meta.Node = -1
	out.Meta.StartUnixNano = base
	for _, n := range nodes {
		d := byNode[n]
		if d.NRanks > out.NRanks {
			out.NRanks = d.NRanks
		}
		if d.Meta.Nodes > out.Meta.Nodes {
			out.Meta.Nodes = d.Meta.Nodes
		}
		if len(out.Meta.NodeOfRank) == 0 && len(d.Meta.NodeOfRank) > 0 {
			out.Meta.NodeOfRank = d.Meta.NodeOfRank
		}
		out.Dropped += d.Dropped
		shift := d.Meta.StartUnixNano - offsets[n] - base
		for _, e := range d.Events {
			e.TS += shift
			out.Events = append(out.Events, e)
		}
		for _, le := range d.Meta.Links {
			le.TS += -offsets[n] - base
			out.Meta.Links = append(out.Meta.Links, le)
		}
	}
	sort.SliceStable(out.Events, func(a, b int) bool { return out.Events[a].TS < out.Events[b].TS })
	sort.SliceStable(out.Meta.Links, func(a, b int) bool { return out.Meta.Links[a].TS < out.Meta.Links[b].TS })
	return out, info, nil
}
