// Package topology models the cluster hardware that a Pure program runs on:
// nodes, NUMA domains (sockets), physical cores, and hardware threads, plus
// the assignment ("placement") of application ranks onto hardware threads.
//
// The paper evaluates Pure on NERSC Cori, a Cray XC40 whose nodes each hold
// two Intel Xeon E5-2698 v3 sockets (16 cores x 2 hyperthreads per socket,
// i.e. 64 hardware threads and 2 NUMA domains per node).  Both the real Pure
// runtime and the discrete-event cluster simulator consult this package: the
// runtime uses it to decide which rank pairs share a node (and therefore may
// use the lock-free shared-memory fast paths) and the simulator uses it to
// pick latency classes (same core / shared L3 / cross NUMA / cross node).
package topology

import (
	"fmt"
	"sort"
)

// Spec describes a homogeneous cluster.
type Spec struct {
	Nodes          int // number of nodes in the job
	SocketsPerNode int // NUMA domains per node
	CoresPerSocket int // physical cores per socket
	ThreadsPerCore int // hardware threads per core (2 = hyperthreading on)
}

// CoriSpec returns the machine used in the paper's evaluation: Cray XC40
// nodes with two 16-core Haswell sockets and hyperthreading enabled.
func CoriSpec(nodes int) Spec {
	return Spec{Nodes: nodes, SocketsPerNode: 2, CoresPerSocket: 16, ThreadsPerCore: 2}
}

// HWThreadsPerNode returns the number of schedulable hardware threads on one node.
func (s Spec) HWThreadsPerNode() int {
	return s.SocketsPerNode * s.CoresPerSocket * s.ThreadsPerCore
}

// Validate reports whether the spec is well formed.
func (s Spec) Validate() error {
	if s.Nodes <= 0 || s.SocketsPerNode <= 0 || s.CoresPerSocket <= 0 || s.ThreadsPerCore <= 0 {
		return fmt.Errorf("topology: all Spec fields must be positive, got %+v", s)
	}
	return nil
}

// HWThread identifies one hardware thread within the cluster.
type HWThread struct {
	Node   int // node index, 0-based
	Socket int // NUMA domain within the node
	Core   int // physical core within the socket
	Thread int // hyperthread within the core
}

// Index returns the cluster-unique hardware-thread id in [0, Nodes*HWThreadsPerNode).
// Threads are numbered node-major, then socket, core, and hyperthread, which
// matches the "compact" numbering used by CrayPAT.
func (h HWThread) Index(s Spec) int {
	return ((h.Node*s.SocketsPerNode+h.Socket)*s.CoresPerSocket+h.Core)*s.ThreadsPerCore + h.Thread
}

// HWThreadAt inverts HWThread.Index.
func HWThreadAt(s Spec, index int) HWThread {
	t := index % s.ThreadsPerCore
	index /= s.ThreadsPerCore
	c := index % s.CoresPerSocket
	index /= s.CoresPerSocket
	sk := index % s.SocketsPerNode
	index /= s.SocketsPerNode
	return HWThread{Node: index, Socket: sk, Core: c, Thread: t}
}

// Distance is the locality class between two placed ranks.  It determines
// which messaging path the runtime takes and which latency class the
// simulator charges.
type Distance int

const (
	// SameHWThread means both ranks are mapped to the same hardware thread
	// (oversubscription; only used by helper-thread experiments).
	SameHWThread Distance = iota
	// HyperthreadSiblings means the ranks share a physical core.  This is
	// the paper's fastest placement: the queue slots stay in the shared L1/L2.
	HyperthreadSiblings
	// SharedL3 means same socket (NUMA domain), different core.
	SharedL3
	// CrossNUMA means same node, different socket.
	CrossNUMA
	// CrossNode means the ranks are on different nodes and must use the
	// network (MPI in the paper, the internal/transport links here).
	CrossNode
)

// String implements fmt.Stringer.
func (d Distance) String() string {
	switch d {
	case SameHWThread:
		return "same-hwthread"
	case HyperthreadSiblings:
		return "hyperthread-siblings"
	case SharedL3:
		return "shared-l3"
	case CrossNUMA:
		return "cross-numa"
	case CrossNode:
		return "cross-node"
	default:
		return fmt.Sprintf("Distance(%d)", int(d))
	}
}

// Classify returns the locality class between two hardware threads.
func Classify(a, b HWThread) Distance {
	switch {
	case a.Node != b.Node:
		return CrossNode
	case a.Socket != b.Socket:
		return CrossNUMA
	case a.Core != b.Core:
		return SharedL3
	case a.Thread != b.Thread:
		return HyperthreadSiblings
	default:
		return SameHWThread
	}
}

// Policy selects how ranks are laid out over hardware threads.
type Policy int

const (
	// SMP fills each node completely before moving to the next (block
	// placement).  This is Pure's default, matching MPI's typical default.
	SMP Policy = iota
	// RoundRobin deals ranks across nodes one at a time (cyclic placement).
	RoundRobin
	// Custom uses an explicit rank -> hardware-thread table supplied by the
	// caller (e.g. parsed from a CrayPAT reorder file).
	Custom
)

// Placement maps every application rank to a hardware thread.
//
// A placement may be "sparse": RanksPerNode below HWThreadsPerNode leaves
// hardware threads idle (the DT class A experiment runs 40 ranks on 64-thread
// nodes and donates the idle threads to helper threads).
type Placement struct {
	Spec  Spec
	NRank int
	// seat[r] is the hardware thread of rank r.
	seat []HWThread
	// ranksOfNode[n] lists the ranks placed on node n, ascending.
	ranksOfNode [][]int
}

// NewPlacement places nranks ranks using the given policy.  ranksPerNode
// bounds how many ranks land on one node; pass 0 to use every hardware
// thread.  For Custom, seats must hold exactly nranks entries; for the other
// policies seats must be nil.
func NewPlacement(spec Spec, nranks int, ranksPerNode int, policy Policy, seats []HWThread) (*Placement, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if nranks <= 0 {
		return nil, fmt.Errorf("topology: nranks must be positive, got %d", nranks)
	}
	if ranksPerNode == 0 {
		ranksPerNode = spec.HWThreadsPerNode()
	}
	if ranksPerNode < 0 || ranksPerNode > spec.HWThreadsPerNode() {
		return nil, fmt.Errorf("topology: ranksPerNode %d out of range [1,%d]", ranksPerNode, spec.HWThreadsPerNode())
	}
	if nranks > ranksPerNode*spec.Nodes {
		return nil, fmt.Errorf("topology: %d ranks do not fit on %d nodes at %d ranks/node",
			nranks, spec.Nodes, ranksPerNode)
	}
	p := &Placement{Spec: spec, NRank: nranks, seat: make([]HWThread, nranks)}
	switch policy {
	case SMP:
		if seats != nil {
			return nil, fmt.Errorf("topology: seats must be nil for SMP placement")
		}
		for r := 0; r < nranks; r++ {
			node := r / ranksPerNode
			slot := r % ranksPerNode
			p.seat[r] = HWThreadAt(spec, node*spec.HWThreadsPerNode()+slot)
		}
	case RoundRobin:
		if seats != nil {
			return nil, fmt.Errorf("topology: seats must be nil for RoundRobin placement")
		}
		perNode := make([]int, spec.Nodes)
		for r := 0; r < nranks; r++ {
			node := r % spec.Nodes
			slot := perNode[node]
			if slot >= ranksPerNode {
				return nil, fmt.Errorf("topology: node %d overflows at rank %d", node, r)
			}
			perNode[node]++
			p.seat[r] = HWThreadAt(spec, node*spec.HWThreadsPerNode()+slot)
		}
	case Custom:
		if len(seats) != nranks {
			return nil, fmt.Errorf("topology: Custom placement needs %d seats, got %d", nranks, len(seats))
		}
		used := make(map[int]int)
		for r, h := range seats {
			if h.Node < 0 || h.Node >= spec.Nodes || h.Socket < 0 || h.Socket >= spec.SocketsPerNode ||
				h.Core < 0 || h.Core >= spec.CoresPerSocket || h.Thread < 0 || h.Thread >= spec.ThreadsPerCore {
				return nil, fmt.Errorf("topology: rank %d seat %+v outside spec %+v", r, h, spec)
			}
			idx := h.Index(spec)
			if prev, dup := used[idx]; dup {
				return nil, fmt.Errorf("topology: ranks %d and %d share hardware thread %+v", prev, r, h)
			}
			used[idx] = r
			p.seat[r] = h
		}
	default:
		return nil, fmt.Errorf("topology: unknown policy %d", policy)
	}
	p.ranksOfNode = make([][]int, spec.Nodes)
	for r := 0; r < nranks; r++ {
		n := p.seat[r].Node
		p.ranksOfNode[n] = append(p.ranksOfNode[n], r)
	}
	for _, rs := range p.ranksOfNode {
		sort.Ints(rs)
	}
	return p, nil
}

// Seat returns the hardware thread of rank r.
func (p *Placement) Seat(r int) HWThread { return p.seat[r] }

// NodeOf returns the node index hosting rank r.
func (p *Placement) NodeOf(r int) int { return p.seat[r].Node }

// RanksOnNode returns the ranks placed on node n, ascending.  The returned
// slice is shared; callers must not modify it.
func (p *Placement) RanksOnNode(n int) []int { return p.ranksOfNode[n] }

// NodesUsed returns how many nodes host at least one rank.
func (p *Placement) NodesUsed() int {
	used := 0
	for _, rs := range p.ranksOfNode {
		if len(rs) > 0 {
			used++
		}
	}
	return used
}

// SameNode reports whether two ranks share an address space (a node).
func (p *Placement) SameNode(a, b int) bool { return p.seat[a].Node == p.seat[b].Node }

// DistanceBetween returns the locality class between two ranks.
func (p *Placement) DistanceBetween(a, b int) Distance {
	return Classify(p.seat[a], p.seat[b])
}

// LocalIndex returns rank r's position among the ranks of its node
// (its "thread number within the process" in the paper's terms).  The paper
// encodes this in the upper bits of the MPI tag for inter-node routing.
func (p *Placement) LocalIndex(r int) int {
	rs := p.ranksOfNode[p.seat[r].Node]
	i := sort.SearchInts(rs, r)
	if i >= len(rs) || rs[i] != r {
		return -1
	}
	return i
}

// NodeLeader returns the lowest rank on rank r's node.  Collective
// implementations use node leaders to bridge across nodes.
func (p *Placement) NodeLeader(r int) int {
	return p.ranksOfNode[p.seat[r].Node][0]
}
