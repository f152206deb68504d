package topology

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestCoriSpec(t *testing.T) {
	s := CoriSpec(4)
	if got := s.HWThreadsPerNode(); got != 64 {
		t.Fatalf("HWThreadsPerNode = %d, want 64", got)
	}
	if got := s.Nodes * s.HWThreadsPerNode(); got != 256 {
		t.Fatalf("hardware threads = %d, want 256", got)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestSpecValidateRejectsZeroFields(t *testing.T) {
	bad := []Spec{
		{Nodes: 0, SocketsPerNode: 2, CoresPerSocket: 16, ThreadsPerCore: 2},
		{Nodes: 1, SocketsPerNode: 0, CoresPerSocket: 16, ThreadsPerCore: 2},
		{Nodes: 1, SocketsPerNode: 2, CoresPerSocket: 0, ThreadsPerCore: 2},
		{Nodes: 1, SocketsPerNode: 2, CoresPerSocket: 16, ThreadsPerCore: 0},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", s)
		}
	}
}

func TestHWThreadIndexRoundTrip(t *testing.T) {
	s := CoriSpec(3)
	for i := 0; i < s.Nodes*s.HWThreadsPerNode(); i++ {
		h := HWThreadAt(s, i)
		if got := h.Index(s); got != i {
			t.Fatalf("round trip failed: %d -> %+v -> %d", i, h, got)
		}
	}
}

func TestHWThreadIndexRoundTripProperty(t *testing.T) {
	f := func(nodes, sockets, cores, threads uint8, pick uint16) bool {
		s := Spec{
			Nodes:          int(nodes%8) + 1,
			SocketsPerNode: int(sockets%4) + 1,
			CoresPerSocket: int(cores%16) + 1,
			ThreadsPerCore: int(threads%2) + 1,
		}
		i := int(pick) % (s.Nodes * s.HWThreadsPerNode())
		return HWThreadAt(s, i).Index(s) == i
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		a, b HWThread
		want Distance
	}{
		{HWThread{0, 0, 0, 0}, HWThread{0, 0, 0, 0}, SameHWThread},
		{HWThread{0, 0, 0, 0}, HWThread{0, 0, 0, 1}, HyperthreadSiblings},
		{HWThread{0, 0, 0, 0}, HWThread{0, 0, 5, 0}, SharedL3},
		{HWThread{0, 0, 0, 0}, HWThread{0, 1, 0, 0}, CrossNUMA},
		{HWThread{0, 0, 0, 0}, HWThread{1, 0, 0, 0}, CrossNode},
	}
	for _, c := range cases {
		if got := Classify(c.a, c.b); got != c.want {
			t.Errorf("Classify(%+v,%+v) = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := Classify(c.b, c.a); got != c.want {
			t.Errorf("Classify symmetric (%+v,%+v) = %v, want %v", c.b, c.a, got, c.want)
		}
	}
}

func TestDistanceString(t *testing.T) {
	for d, want := range map[Distance]string{
		SameHWThread:        "same-hwthread",
		HyperthreadSiblings: "hyperthread-siblings",
		SharedL3:            "shared-l3",
		CrossNUMA:           "cross-numa",
		CrossNode:           "cross-node",
		Distance(99):        "Distance(99)",
	} {
		if got := d.String(); got != want {
			t.Errorf("Distance(%d).String() = %q, want %q", int(d), got, want)
		}
	}
}

func TestSMPPlacementFillsNodesInOrder(t *testing.T) {
	s := CoriSpec(4)
	p, err := NewPlacement(s, 160, 64, SMP, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.NodeOf(0) != 0 || p.NodeOf(63) != 0 || p.NodeOf(64) != 1 || p.NodeOf(159) != 2 {
		t.Fatalf("SMP placement nodes wrong: %d %d %d %d",
			p.NodeOf(0), p.NodeOf(63), p.NodeOf(64), p.NodeOf(159))
	}
	if got := p.NodesUsed(); got != 3 {
		t.Fatalf("NodesUsed = %d, want 3", got)
	}
	// Ranks 0 and 1 are hyperthread siblings under compact numbering.
	if d := p.DistanceBetween(0, 1); d != HyperthreadSiblings {
		t.Fatalf("DistanceBetween(0,1) = %v, want hyperthread siblings", d)
	}
	// Rank 0 and 32 sit on different sockets of node 0 (32 HW threads/socket).
	if d := p.DistanceBetween(0, 32); d != CrossNUMA {
		t.Fatalf("DistanceBetween(0,32) = %v, want cross-numa", d)
	}
	if d := p.DistanceBetween(0, 64); d != CrossNode {
		t.Fatalf("DistanceBetween(0,64) = %v, want cross-node", d)
	}
}

func TestRoundRobinPlacement(t *testing.T) {
	s := CoriSpec(4)
	p, err := NewPlacement(s, 8, 0, RoundRobin, nil)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 8; r++ {
		if got := p.NodeOf(r); got != r%4 {
			t.Errorf("rank %d on node %d, want %d", r, got, r%4)
		}
	}
	if got := len(p.RanksOnNode(0)); got != 2 {
		t.Fatalf("node 0 hosts %d ranks, want 2", got)
	}
}

func TestSparsePlacementLeavesIdleThreads(t *testing.T) {
	// DT class A: 80 ranks at 40 ranks/node -> 24 idle threads per node.
	s := CoriSpec(2)
	p, err := NewPlacement(s, 80, 40, SMP, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.HWThreadsPerNode() - len(p.RanksOnNode(0)); got != 24 {
		t.Fatalf("idle threads on node 0 = %d, want 24", got)
	}
	if got := p.NodeOf(40); got != 1 {
		t.Fatalf("rank 40 on node %d, want 1", got)
	}
}

func TestPlacementErrors(t *testing.T) {
	s := CoriSpec(1)
	if _, err := NewPlacement(s, 0, 0, SMP, nil); err == nil {
		t.Error("want error for zero ranks")
	}
	if _, err := NewPlacement(s, 65, 0, SMP, nil); err == nil {
		t.Error("want error for overflow")
	}
	if _, err := NewPlacement(s, 4, 0, SMP, make([]HWThread, 4)); err == nil {
		t.Error("want error for seats with SMP")
	}
	if _, err := NewPlacement(s, 4, 0, Policy(42), nil); err == nil {
		t.Error("want error for unknown policy")
	}
	if _, err := NewPlacement(s, 4, 128, SMP, nil); err == nil {
		t.Error("want error for ranksPerNode over capacity")
	}
	// Duplicate seat.
	seats := []HWThread{{0, 0, 0, 0}, {0, 0, 0, 0}}
	if _, err := NewPlacement(s, 2, 0, Custom, seats); err == nil {
		t.Error("want error for duplicate seats")
	}
	// Seat outside spec.
	seats = []HWThread{{0, 0, 0, 0}, {3, 0, 0, 0}}
	if _, err := NewPlacement(s, 2, 0, Custom, seats); err == nil {
		t.Error("want error for out-of-range seat")
	}
	// Wrong seat count.
	if _, err := NewPlacement(s, 2, 0, Custom, make([]HWThread, 3)); err == nil {
		t.Error("want error for wrong seat count")
	}
}

func TestLocalIndexAndLeader(t *testing.T) {
	s := CoriSpec(2)
	p, err := NewPlacement(s, 128, 64, SMP, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.LocalIndex(0); got != 0 {
		t.Errorf("LocalIndex(0) = %d, want 0", got)
	}
	if got := p.LocalIndex(70); got != 6 {
		t.Errorf("LocalIndex(70) = %d, want 6", got)
	}
	if got := p.NodeLeader(70); got != 64 {
		t.Errorf("NodeLeader(70) = %d, want 64", got)
	}
	if got := p.NodeLeader(3); got != 0 {
		t.Errorf("NodeLeader(3) = %d, want 0", got)
	}
}

// Property: every placement policy seats each rank exactly once on a distinct
// hardware thread, and LocalIndex is consistent with RanksOnNode.
func TestPlacementBijectiveProperty(t *testing.T) {
	f := func(nodesU, rpnU, nU uint8, rr bool) bool {
		spec := CoriSpec(int(nodesU%8) + 1)
		rpn := int(rpnU%64) + 1
		max := rpn * spec.Nodes
		n := int(nU)%max + 1
		pol := SMP
		if rr {
			pol = RoundRobin
		}
		p, err := NewPlacement(spec, n, rpn, pol, nil)
		if err != nil {
			return false
		}
		used := make(map[int]bool)
		for r := 0; r < n; r++ {
			idx := p.Seat(r).Index(spec)
			if used[idx] {
				return false
			}
			used[idx] = true
			node := p.NodeOf(r)
			li := p.LocalIndex(r)
			if li < 0 || p.RanksOnNode(node)[li] != r {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestParseReorderFile(t *testing.T) {
	in := "# CrayPAT recommended order\n3,2\n1 0 # trailing comment\n"
	perm, err := ParseReorderFile(strings.NewReader(in), 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{3, 2, 1, 0}
	for i := range want {
		if perm[i] != want[i] {
			t.Fatalf("perm = %v, want %v", perm, want)
		}
	}
}

func TestParseReorderFileErrors(t *testing.T) {
	cases := []string{
		"0,1,2",     // too few
		"0,1,2,3,3", // duplicate (and too many)
		"0,1,2,9",   // out of range
		"0,1,2,abc", // not a number
		"0,1,2,-1",  // negative
		"0,1,1,3",   // duplicate
	}
	for _, in := range cases {
		if _, err := ParseReorderFile(strings.NewReader(in), 4); err == nil {
			t.Errorf("ParseReorderFile(%q) = nil error, want failure", in)
		}
	}
}

func TestPlacementFromReorder(t *testing.T) {
	s := CoriSpec(2)
	// Reverse order: rank 3 gets slot 0 on node 0, rank 0 gets slot 3 on node 1.
	p, err := PlacementFromReorder(s, 4, 2, []int{3, 2, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if p.NodeOf(3) != 0 || p.NodeOf(2) != 0 || p.NodeOf(1) != 1 || p.NodeOf(0) != 1 {
		t.Fatalf("reorder placement wrong: nodes %d %d %d %d",
			p.NodeOf(0), p.NodeOf(1), p.NodeOf(2), p.NodeOf(3))
	}
	if _, err := PlacementFromReorder(s, 4, 2, []int{0, 1}); err == nil {
		t.Error("want error for short permutation")
	}
	if _, err := PlacementFromReorder(s, 300, 0, make([]int, 300)); err == nil {
		t.Error("want error for overflow")
	}
}
