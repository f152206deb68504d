package shmemapp

import (
	"encoding/binary"
	"fmt"
	"runtime"

	"repro/pure"
)

// Level-synchronous BFS with mailbox frontier exchange.
//
// The graph is synthetic and deterministic: vertex v has ring edges to
// v±1 plus Degree pseudo-random skip edges drawn from the seed, so every
// rank (and the serial oracle) derives the same adjacency from the config
// alone — no graph distribution step.  Vertices are owned round-robin
// (owner(v) = v % Size); each rank keeps the distance array for its own
// vertices and opens one actor mailbox.
//
// Each level, a rank walks its frontier and routes every discovered
// neighbor to the neighbor's owner: local ones relax directly, remote ones
// travel as 8-byte vertex ids through the owner's mailbox.  Senders never
// block on a full ring — a blocked sender whose own mailbox sits undrained
// is the classic distributed-termination deadlock — instead TrySend
// failure triggers a drain of the rank's own mailbox and a retry.  Level
// termination is marker-based for the same reason a barrier would deadlock
// here (a rank parked in a barrier stops draining while its ring fills):
// after its frontier, each rank sends every peer an end-of-level marker,
// and keeps draining until all n-1 markers arrive.  Mailboxes are
// per-sender FIFO (ring tickets intra-node, one ordered flow inter-node),
// so a rank holding every marker has provably consumed every data message
// of the level; an Allreduce of newly discovered counts then decides
// termination, and no rank starts the next level until every rank's
// markers are in.

// BFSConfig parameterizes one traversal.  Every rank passes identical
// values.
type BFSConfig struct {
	// Vertices is the graph size (default 2048).
	Vertices int
	// Degree is the per-vertex skip-edge count on top of the ring edges
	// (default 3).
	Degree int
	// MailboxCap is the per-owner ring capacity in messages (default 64;
	// small values exercise the full-ring drain path).
	MailboxCap int
	// Seed shapes the skip edges (default 1).
	Seed uint64
}

func (c *BFSConfig) defaults() {
	if c.Vertices <= 0 {
		c.Vertices = 2048
	}
	if c.Degree <= 0 {
		c.Degree = 3
	}
	if c.MailboxCap <= 0 {
		c.MailboxCap = 64
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// BFSResult is the verified outcome of one traversal.
type BFSResult struct {
	Levels  int   // levels until the frontier emptied
	Reached int64 // vertices with a finite distance
	Exact   bool  // distances match the serial reference on every rank
}

// bfsNeighbors appends v's adjacency to dst: the two ring edges plus
// Degree seeded skip edges (self-loops allowed and harmless).
func bfsNeighbors(cfg BFSConfig, v int, dst []int) []int {
	n := cfg.Vertices
	dst = append(dst, (v+1)%n, (v+n-1)%n)
	for k := 0; k < cfg.Degree; k++ {
		dst = append(dst, int(splitmix64(cfg.Seed^uint64(v)<<16^uint64(k))%uint64(n)))
	}
	return dst
}

// BFSReference runs the serial oracle from the root, vertex 0, and returns
// every vertex's distance (-1 for unreachable).
func BFSReference(cfg BFSConfig) []int64 {
	cfg.defaults()
	dist := make([]int64, cfg.Vertices)
	for i := range dist {
		dist[i] = -1
	}
	dist[0] = 0
	frontier := []int{0}
	var scratch []int
	for d := int64(1); len(frontier) > 0; d++ {
		var next []int
		for _, v := range frontier {
			scratch = bfsNeighbors(cfg, v, scratch[:0])
			for _, w := range scratch {
				if dist[w] < 0 {
					dist[w] = d
					next = append(next, w)
				}
			}
		}
		frontier = next
	}
	return dist
}

// RunBFS executes the distributed traversal on the world communicator and
// verifies every local distance against the serial oracle.
func RunBFS(r *pure.Rank, cfg BFSConfig) (BFSResult, error) {
	cfg.defaults()
	c := r.World()
	n, me := c.Size(), c.Rank()
	// The symmetric heap only carries the mailboxes; the distance arrays
	// are rank-private.
	s := c.ShmemCreate(int64(n)*(8+int64(cfg.MailboxCap)*24)+256, n+8)
	defer s.FreeHeap()
	mbs := make([]*pure.Mailbox, n)
	for p := 0; p < n; p++ {
		mbs[p] = s.NewMailbox(p, cfg.MailboxCap, 8)
	}

	// dist[i] is vertex i*n+me's distance; -1 = undiscovered.
	nLocal := (cfg.Vertices - me + n - 1) / n
	dist := make([]int64, nLocal)
	for i := range dist {
		dist[i] = -1
	}
	var frontier, next []int // local vertex ids (global = id*n + me)

	// drain consumes every currently published mailbox message: data
	// messages relax the carried vertex into the next frontier, marker
	// messages count toward the level's termination.
	const markerBit = uint64(1) << 63
	msg := make([]byte, 8)
	out := make([]byte, 8)
	level := int64(0)
	markers := 0
	drain := func() {
		for {
			k, ok := mbs[me].Poll(msg)
			if !ok {
				return
			}
			if k != 8 {
				panic(fmt.Sprintf("shmemapp: BFS mailbox message of %d bytes", k))
			}
			v := binary.LittleEndian.Uint64(msg)
			if v&markerBit != 0 {
				markers++
				continue
			}
			if li := int(v) / n; dist[li] < 0 {
				dist[li] = level + 1
				next = append(next, li)
			}
		}
	}
	// send delivers one payload to rank p's mailbox, draining our own ring
	// (which also turns the transport progress crank) whenever p's is full.
	send := func(p int, payload uint64) {
		binary.LittleEndian.PutUint64(out, payload)
		for !mbs[p].TrySend(out) {
			drain()
			runtime.Gosched()
		}
	}

	if me == 0 { // the root, vertex 0
		dist[0] = 0
		frontier = append(frontier, 0)
	}
	s.Barrier()

	var scratch []int
	res := BFSResult{}
	for {
		for _, li := range frontier {
			v := li*n + me
			scratch = bfsNeighbors(cfg, v, scratch[:0])
			for _, w := range scratch {
				if p := w % n; p == me {
					if lw := w / n; dist[lw] < 0 {
						dist[lw] = level + 1
						next = append(next, lw)
					}
				} else {
					send(p, uint64(w))
				}
			}
		}
		// End of our frontier: tell every peer, then drain until every
		// peer has told us.  Markers ride FIFO behind the data, so holding
		// all n-1 markers means the whole level has been consumed.
		for p := 0; p < n; p++ {
			if p != me {
				send(p, markerBit)
			}
		}
		for markers < n-1 {
			drain()
			runtime.Gosched()
		}
		markers = 0

		level++
		total := c.AllreduceInt64(int64(len(next)), pure.Sum)
		frontier, next = next, frontier[:0]
		if total == 0 {
			break
		}
	}
	res.Levels = int(level)

	// Verify against the serial oracle and count reached vertices.
	ref := BFSReference(cfg)
	var bad, reached int64
	for i, d := range dist {
		if d != ref[i*n+me] {
			bad++
		}
		if d >= 0 {
			reached++
		}
	}
	res.Exact = c.AllreduceInt64(bad, pure.Sum) == 0
	res.Reached = c.AllreduceInt64(reached, pure.Sum)
	s.Barrier()
	return res, nil
}
