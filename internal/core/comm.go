package core

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"repro/internal/collective"
	"repro/internal/obs"
	"repro/internal/ssw"
)

// collTag is the reserved tag space for runtime-internal leader-to-leader
// collective traffic.  Application tags must be below it.
const collTag = 1 << 29

// commShared is the rank-independent state of one communicator: the member
// list and, per participating node, the lock-free collective structures
// shared by that node's member threads.
type commShared struct {
	id      uint64
	members []int       // global rank ids in comm-rank order
	indexOf map[int]int // global rank -> comm rank

	nodeList      []int   // node ids with members, ascending
	groups        [][]int // per node index: comm ranks on that node, ascending
	nodeIdxOfRank []int   // comm rank -> index into nodeList
	localIdxOf    []int   // comm rank -> index within its node group
	nodes         []*commNode
}

// commNode holds one node's collective structures for one communicator.
type commNode struct {
	sptd  *collective.SPTD
	prs   sync.Map // payload bucket (int) -> *collective.PartitionedReducer
	n     int
	cells []*ssw.WakeCell // the group's parking spots, for bridged collectives (collWait)
}

type splitKey struct {
	parent uint64
	epoch  uint64
	color  int
}

// worldCommID is the world communicator's id.  Derived communicators (Split)
// hash their lineage into ids with the top bit set (splitCommID), so the two
// spaces can never collide.
const worldCommID = 1

// splitCommID derives a communicator id from its lineage: the parent comm's
// id, the handle's Split call count, and the color.  Every member computes
// the same id from the same collective history — no shared counter — which
// is what keeps communicator ids consistent across OS processes when the
// runtime spans nodes over a real transport.
func splitCommID(parent, epoch uint64, color int) uint64 {
	h := mix64(parent ^ 0x9e3779b97f4a7c15)
	h = mix64(h ^ epoch)
	h = mix64(h ^ uint64(int64(color)))
	return h | 1<<63
}

// mix64 is the splitmix64 finalizer (a fixed full-avalanche permutation).
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// newCommShared builds the shared state for a communicator over the given
// global ranks (which must be in the desired comm-rank order).
func (rt *Runtime) newCommShared(id uint64, members []int) *commShared {
	sh := &commShared{
		id:            id,
		members:       members,
		indexOf:       make(map[int]int, len(members)),
		nodeIdxOfRank: make([]int, len(members)),
		localIdxOf:    make([]int, len(members)),
	}
	for cr, g := range members {
		sh.indexOf[g] = cr
	}
	nodeIdx := map[int]int{}
	for cr, g := range members {
		n := rt.place.NodeOf(g)
		i, ok := nodeIdx[n]
		if !ok {
			i = len(sh.nodeList)
			nodeIdx[n] = i
			sh.nodeList = append(sh.nodeList, n)
			sh.groups = append(sh.groups, nil)
		}
		sh.nodeIdxOfRank[cr] = i
		sh.localIdxOf[cr] = len(sh.groups[i])
		sh.groups[i] = append(sh.groups[i], cr)
	}
	// Members arrive in ascending comm-rank order, so groups are ascending,
	// but nodeList may be out of order; normalize to ascending node id so
	// the leader tree is deterministic.
	if !sort.IntsAreSorted(sh.nodeList) {
		perm := make([]int, len(sh.nodeList))
		for i := range perm {
			perm[i] = i
		}
		sort.Slice(perm, func(a, b int) bool { return sh.nodeList[perm[a]] < sh.nodeList[perm[b]] })
		newList := make([]int, len(sh.nodeList))
		newGroups := make([][]int, len(sh.groups))
		inv := make([]int, len(perm))
		for newI, oldI := range perm {
			newList[newI] = sh.nodeList[oldI]
			newGroups[newI] = sh.groups[oldI]
			inv[oldI] = newI
		}
		sh.nodeList, sh.groups = newList, newGroups
		for cr := range sh.nodeIdxOfRank {
			sh.nodeIdxOfRank[cr] = inv[sh.nodeIdxOfRank[cr]]
		}
	}
	sh.nodes = make([]*commNode, len(sh.nodeList))
	for i, g := range sh.groups {
		cells := make([]*ssw.WakeCell, len(g))
		for j, cr := range g {
			cells[j] = rt.cells[members[cr]]
		}
		sh.nodes[i] = &commNode{
			sptd:  collective.NewSPTD(len(g), SPTDMax),
			n:     len(g),
			cells: cells,
		}
	}
	return sh
}

// pr returns the node's PartitionedReducer sized for payloads of n bytes,
// creating the power-of-two size bucket on demand.
func (cn *commNode) pr(n int) *collective.PartitionedReducer {
	bucket := 64
	for bucket < n {
		bucket <<= 1
	}
	if v, ok := cn.prs.Load(bucket); ok {
		return v.(*collective.PartitionedReducer)
	}
	v, _ := cn.prs.LoadOrStore(bucket, collective.NewPartitionedReducer(cn.n, bucket))
	return v.(*collective.PartitionedReducer)
}

// Comm is one rank's handle on a communicator (the analogue of MPI_Comm).
type Comm struct {
	r          *Rank
	sh         *commShared
	myRank     int // rank within the communicator
	splitEpoch uint64
	winEpoch   uint64 // WinCreate calls on this handle (window registry sequence)
}

// Rank returns the caller's rank within the communicator.
func (c *Comm) Rank() int { return c.myRank }

// Size returns the communicator's member count.
func (c *Comm) Size() int { return len(c.sh.members) }

func (c *Comm) checkPeer(peer int, what string) {
	if peer < 0 || peer >= len(c.sh.members) {
		panic(fmt.Sprintf("core: %s rank %d out of range [0,%d)", what, peer, len(c.sh.members)))
	}
}

func checkTag(tag int) {
	if tag < 0 || tag >= collTag {
		panic(fmt.Sprintf("core: tag %d outside [0, %d)", tag, collTag))
	}
}

// SendChannel returns the rank's persistent send endpoint to dst (comm
// rank) with tag, creating and caching it on first use: repeated calls with
// the same arguments return the identical *Channel.  Hot loops should hoist
// the call out and reuse the endpoint; Comm.Send/Isend do the (cheap,
// lock-free) cache lookup per call.
func (c *Comm) SendChannel(dst, tag int) *Channel {
	c.checkPeer(dst, "destination")
	checkTag(tag)
	return c.r.endpoint(c.sh.id, c.sh.members[dst], tag, epSend)
}

// RecvChannel returns the rank's persistent receive endpoint from src (comm
// rank) with tag, creating and caching it on first use.
func (c *Comm) RecvChannel(src, tag int) *Channel {
	c.checkPeer(src, "source")
	checkTag(tag)
	return c.r.endpoint(c.sh.id, c.sh.members[src], tag, epRecv)
}

// Send sends buf to dst (comm rank) with tag, blocking until the buffer is
// reusable (eager: buffered; rendezvous: delivered).  It is a thin wrapper
// over the persistent endpoint cache: the common case — an intra-node eager
// send with no pending nonblocking sends — takes the endpoint's
// allocation-free fast path straight into the PureBufferQueue.
func (c *Comm) Send(buf []byte, dst, tag int) {
	c.SendChannel(dst, tag).Send(buf)
}

// Recv receives a message from src (comm rank) with tag into buf, blocking
// until delivery; it returns the byte count.  Like Send, it wraps the
// cached receive endpoint, whose eager intra-node case dequeues directly.
func (c *Comm) Recv(buf []byte, src, tag int) int {
	return c.RecvChannel(src, tag).Recv(buf)
}

// Isend starts a nonblocking send; complete it with Wait/Waitall (exactly
// once — completion recycles the request into the endpoint's pool).
func (c *Comm) Isend(buf []byte, dst, tag int) *Request {
	return c.SendChannel(dst, tag).Isend(buf)
}

// Irecv starts a nonblocking receive; complete it with Wait/Waitall
// (exactly once — completion recycles the request into the endpoint's pool).
func (c *Comm) Irecv(buf []byte, src, tag int) *Request {
	return c.RecvChannel(src, tag).Irecv(buf)
}

// Wait blocks until req completes and returns the transferred byte count.
// A nil request is a no-op (MPI_REQUEST_NULL).
func (c *Comm) Wait(req *Request) int {
	if req == nil {
		return 0
	}
	return c.r.waitReq(req)
}

// Waitall completes every request, skipping nil entries (the analogue of
// MPI_REQUEST_NULL slots in an MPI_Waitall array).
func (c *Comm) Waitall(reqs ...*Request) {
	for _, q := range reqs {
		if q == nil {
			continue
		}
		c.r.waitReq(q)
	}
}

// multiNode reports whether the communicator spans nodes.
func (c *Comm) multiNode() bool { return len(c.sh.nodeList) > 1 }

// collWait opens a wait holding a WaitCollective record for the duration of
// a collective call; the record is published only if the collective
// actually stalls (nested leader-tree p2p waits push their own and pop it on
// completion).  Seq is the SPTD round being entered, so a watchdog dump of a
// stuck Barrier shows which ranks reached round N and which are a round
// behind — the classic "someone never entered the collective" signature.
func (c *Comm) collWait(op string, ni, tid int) rankWait {
	rec := WaitRecord{
		Kind: WaitCollective, Peer: -1, Comm: c.sh.id, Op: op,
		Seq: c.sh.nodes[ni].sptd.Round(tid) + 1,
	}
	// On a multi-node comm the collective's critical path runs through the
	// leaders' link legs, so waiters park: a spinning non-leader would
	// starve the very link reader its leader is blocked on.  The group's
	// members complete each other's waits with plain stores, so they also
	// unpark each other (rankWait.peers) — the leader its non-leaders once
	// the bridged result is published.  Single-node comms keep the pure spin
	// even when the node has links.
	multi := c.multiNode()
	var peers []*ssw.WakeCell
	if multi {
		peers = c.sh.nodes[ni].cells
	}
	return c.r.openWait(rec, multi, peers)
}

// Barrier blocks until every comm member has entered it.
func (c *Comm) Barrier() {
	c.r.count(&c.r.stats.Barriers, 1)
	t0 := c.r.traceStart()
	sh := c.sh
	ni := sh.nodeIdxOfRank[c.myRank]
	tid := sh.localIdxOf[c.myRank]
	var bridge func()
	if c.multiNode() {
		bridge = func() { c.leaderDissemination(ni) }
	}
	w := c.collWait("barrier", ni, tid)
	sh.nodes[ni].sptd.BarrierBridged(tid, bridge, w.wait)
	w.close()
	c.r.finishColl(obs.KBarrier, t0, int64(sh.nodes[ni].sptd.Round(tid)))
}

// Allreduce folds every member's in buffer element-wise with op over dt and
// delivers the result to every member's out buffer.  Payloads at or below
// the SPTD threshold use the leader flat-combining path (paper §4.2.1);
// larger payloads use the Partitioned Reducer (§4.2.2).
func (c *Comm) Allreduce(in, out []byte, op collective.Op, dt collective.DType) {
	c.r.count(&c.r.stats.Allreduces, 1)
	sh := c.sh
	ni := sh.nodeIdxOfRank[c.myRank]
	tid := sh.localIdxOf[c.myRank]
	var bridge func([]byte)
	if c.multiNode() {
		bridge = func(acc []byte) {
			c.leaderReduce(ni, 0, acc, op, dt)
			c.leaderBcast(ni, 0, -1, acc)
		}
	}
	node := sh.nodes[ni]
	t0 := c.r.traceStart()
	w := c.collWait("allreduce", ni, tid)
	if len(in) <= SPTDMax {
		node.sptd.Allreduce(tid, in, out, op, dt, bridge, w.wait)
		w.close()
		c.r.finishColl(obs.KAllreduce, t0, int64(node.sptd.Round(tid)))
	} else {
		node.pr(len(in)).Allreduce(tid, in, out, op, dt, bridge, w.wait)
		w.close()
		c.r.finishColl(obs.KAllreduce, t0, 0)
	}
}

// Reduce folds every member's in buffer; the result lands in root's out
// buffer (other ranks may pass nil).
func (c *Comm) Reduce(in, out []byte, root int, op collective.Op, dt collective.DType) {
	c.r.count(&c.r.stats.Reduces, 1)
	c.checkPeer(root, "root")
	sh := c.sh
	ni := sh.nodeIdxOfRank[c.myRank]
	tid := sh.localIdxOf[c.myRank]
	rootNi := sh.nodeIdxOfRank[root]
	localRoot := 0
	if ni == rootNi {
		localRoot = sh.localIdxOf[root]
	}
	var bridge func([]byte)
	if c.multiNode() {
		bridge = func(acc []byte) { c.leaderReduce(ni, rootNi, acc, op, dt) }
	}
	t0 := c.r.traceStart()
	w := c.collWait("reduce", ni, tid)
	if len(in) <= SPTDMax {
		// On non-root nodes the local leader receives the node reduction and
		// forwards it to the cross-node tree inside bridge.
		sh.nodes[ni].sptd.Reduce(tid, localRoot, in, out, op, dt, bridge, w.wait)
		w.close()
		c.r.finishColl(obs.KReduce, t0, int64(sh.nodes[ni].sptd.Round(tid)))
		return
	}
	// Large payloads: partitioned all-reduce locally, leader forwards.  It
	// delivers to every member, so a member without a buffer needs one.
	if out == nil {
		out = make([]byte, len(in))
	}
	sh.nodes[ni].pr(len(in)).Allreduce(tid, in, out, op, dt, bridge, w.wait)
	w.close()
	c.r.finishColl(obs.KReduce, t0, 0)
}

// Bcast distributes root's buf to every member's buf.
func (c *Comm) Bcast(buf []byte, root int) {
	c.r.count(&c.r.stats.Bcasts, 1)
	c.checkPeer(root, "root")
	sh := c.sh
	ni := sh.nodeIdxOfRank[c.myRank]
	tid := sh.localIdxOf[c.myRank]
	rootNi := sh.nodeIdxOfRank[root]
	t0 := c.r.traceStart()

	if len(buf) <= SPTDMax {
		rootGlobal := sh.members[root]
		w := c.collWait("bcast", ni, tid)
		if ni == rootNi {
			localRoot := sh.localIdxOf[root]
			var bridge func([]byte)
			if c.multiNode() {
				// The root rank itself acts as its node's tree agent.
				bridge = func(b []byte) { c.leaderBcast(ni, rootNi, rootGlobal, b) }
			}
			sh.nodes[ni].sptd.Broadcast(tid, localRoot, buf, bridge, w.wait)
			w.close()
			c.r.finishColl(obs.KBcast, t0, int64(sh.nodes[ni].sptd.Round(tid)))
			return
		}
		// Non-root node: the leader takes part in the cross-node tree first,
		// then broadcasts locally.
		var bridge func([]byte)
		if tid == 0 {
			bridge = func(b []byte) { c.leaderBcast(ni, rootNi, rootGlobal, b) }
		}
		sh.nodes[ni].sptd.Broadcast(tid, 0, buf, bridge, w.wait)
		w.close()
		c.r.finishColl(obs.KBcast, t0, int64(sh.nodes[ni].sptd.Round(tid)))
		return
	}

	// Large payloads: binomial tree over all comm ranks via rendezvous p2p.
	c.treeBcast(buf, root)
	c.r.finishColl(obs.KBcast, t0, 0)
}

// treeBcast is a locality-oblivious binomial broadcast over comm ranks,
// used for payloads beyond the SPTD bound.
func (c *Comm) treeBcast(buf []byte, root int) {
	m := c.Size()
	v := (c.myRank - root + m) % m
	toReal := func(u int) int { return (u + root) % m }
	mask := 1
	for mask < m {
		if v&mask != 0 {
			c.collRecvEP(c.sh.members[toReal(v-mask)]).Recv(buf)
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if v+mask < m && v&(mask-1) == 0 && v&mask == 0 {
			c.sendColl(buf, toReal(v+mask))
		}
		mask >>= 1
	}
}

// ---- Leader-to-leader bridging (the cross-node legs of collectives, which
// the paper delegates to MPI collectives; here: binomial trees over the
// inter-node transport) ----

// leaderRankGlobal returns the global rank of node index i's leader.
func (c *Comm) leaderRankGlobal(i int) int {
	return c.sh.members[c.sh.groups[i][0]]
}

// collSendEP / collRecvEP are the runtime-internal endpoint getters for the
// reserved collective tag, keyed by *global* rank.  Application tags live
// below collTag, so these cached endpoints never collide with user traffic,
// and the leader trees inherit the pooled (allocation-free in steady state)
// request path.
func (c *Comm) collSendEP(g int) *Channel { return c.r.endpoint(c.sh.id, g, collTag, epSend) }
func (c *Comm) collRecvEP(g int) *Channel { return c.r.endpoint(c.sh.id, g, collTag, epRecv) }

func (c *Comm) sendColl(buf []byte, dstCommRank int) {
	c.collSendEP(c.sh.members[dstCommRank]).Send(buf)
}

func (c *Comm) sendLeader(buf []byte, nodeIdx int) {
	c.collSendEP(c.leaderRankGlobal(nodeIdx)).Send(buf)
}

func (c *Comm) recvLeader(buf []byte, nodeIdx int) {
	c.collRecvEP(c.leaderRankGlobal(nodeIdx)).Recv(buf)
}

// leaderDissemination synchronizes the node leaders with the classic
// dissemination barrier (ceil(log2(m)) rounds), the same algorithm MPI
// implementations use for MPI_Barrier — half the critical path of a
// reduce+broadcast tree.  Only leaders (local index 0) call it.
func (c *Comm) leaderDissemination(myNi int) {
	m := len(c.sh.nodeList)
	one := []byte{1}
	in := make([]byte, 1)
	for dist := 1; dist < m; dist *= 2 {
		to := (myNi + dist) % m
		from := (myNi - dist + m) % m
		reqS := c.collSendEP(c.leaderRankGlobal(to)).Isend(one)
		reqR := c.collRecvEP(c.leaderRankGlobal(from)).Irecv(in)
		c.r.waitReq(reqS)
		c.r.waitReq(reqR)
	}
}

// leaderReduce runs a binomial reduction of acc across node leaders, rooted
// at node index rootNi.  Only leaders (local index 0) call it; acc is
// rewritten in place on the root node's leader.
func (c *Comm) leaderReduce(myNi, rootNi int, acc []byte, op collective.Op, dt collective.DType) {
	m := len(c.sh.nodeList)
	v := (myNi - rootNi + m) % m
	toReal := func(u int) int { return (u + rootNi) % m }
	for mask := 1; mask < m; mask <<= 1 {
		if v&mask != 0 {
			c.sendLeader(acc, toReal(v-mask))
			return
		}
		if v+mask < m {
			r := c.r
			if cap(r.reduceTmp) < len(acc) {
				r.reduceTmp = make([]byte, len(acc))
			}
			tmp := r.reduceTmp[:len(acc)]
			c.recvLeader(tmp, toReal(v+mask))
			collective.Accumulate(acc, tmp, op, dt)
		}
	}
}

// leaderBcast runs a binomial broadcast of buf across the per-node tree
// agents from node index rootNi.  Every node's agent is its leader except
// the root's node, whose agent is the root rank itself (rootGlobal; pass -1
// when the root is known to be its node's leader, as in the all-reduce
// bridge where the leader itself bridges).  Only agents call it.
func (c *Comm) leaderBcast(myNi, rootNi, rootGlobal int, buf []byte) {
	m := len(c.sh.nodeList)
	agent := func(i int) int {
		if i == rootNi && rootGlobal >= 0 {
			return rootGlobal
		}
		return c.leaderRankGlobal(i)
	}
	v := (myNi - rootNi + m) % m
	toReal := func(u int) int { return (u + rootNi) % m }
	mask := 1
	for mask < m {
		if v&mask != 0 {
			c.collRecvEP(agent(toReal(v - mask))).Recv(buf)
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if v+mask < m && v&(mask-1) == 0 && v&mask == 0 {
			c.collSendEP(agent(toReal(v + mask))).Send(buf)
		}
		mask >>= 1
	}
}

// Split partitions the communicator like MPI_Comm_split: members with equal
// color form a new communicator, ranked by (key, current rank).  A negative
// color returns nil (MPI_UNDEFINED).  Split is collective over the
// communicator.
//
// The (color, key) exchange is an Allgather rather than a shared scratch
// table, so Split works unchanged when the communicator's members span OS
// processes over a real transport; the gather/broadcast pair also provides
// the synchronization the old table needed explicit barriers for.
func (c *Comm) Split(color, key int) *Comm {
	c.r.count(&c.r.stats.Splits, 1)
	sh := c.sh
	c.splitEpoch++

	var mine [16]byte
	binary.LittleEndian.PutUint64(mine[0:], uint64(int64(color)))
	binary.LittleEndian.PutUint64(mine[8:], uint64(int64(key)))
	all := make([]byte, 16*c.Size())
	c.Allgather(mine[:], all)

	if color < 0 {
		return nil
	}
	type member struct{ key, commRank int }
	var group []member
	for cr := 0; cr < c.Size(); cr++ {
		ecolor := int(int64(binary.LittleEndian.Uint64(all[cr*16:])))
		ekey := int(int64(binary.LittleEndian.Uint64(all[cr*16+8:])))
		if ecolor == color {
			group = append(group, member{ekey, cr})
		}
	}
	sort.Slice(group, func(a, b int) bool {
		if group[a].key != group[b].key {
			return group[a].key < group[b].key
		}
		return group[a].commRank < group[b].commRank
	})
	members := make([]int, len(group))
	for i, g := range group {
		members[i] = sh.members[g.commRank]
	}
	k := splitKey{parent: sh.id, epoch: c.splitEpoch, color: color}
	fresh := c.r.rt.newCommShared(splitCommID(sh.id, c.splitEpoch, color), members)
	v, _ := c.r.rt.comms.LoadOrStore(k, fresh)
	newSh := v.(*commShared)
	return &Comm{r: c.r, sh: newSh, myRank: newSh.indexOf[c.r.id]}
}

// ---- Extension collectives (beyond the paper's reduce / all-reduce /
// barrier / broadcast set; root-mediated implementations) ----

// Gather collects every member's equal-sized in payload into root's out
// buffer (out must hold Size()*len(in) bytes at the root; others may pass
// nil).  Collective.
func (c *Comm) Gather(in, out []byte, root int) {
	c.r.count(&c.r.stats.Gathers, 1)
	c.checkPeer(root, "root")
	n := c.Size()
	if c.myRank == root {
		if len(out) < n*len(in) {
			panic(fmt.Sprintf("core: Gather root buffer %d too small for %d x %d", len(out), n, len(in)))
		}
		copy(out[root*len(in):], in)
		for cr := 0; cr < n; cr++ {
			if cr == root {
				continue
			}
			c.collRecvEP(c.sh.members[cr]).Recv(out[cr*len(in) : (cr+1)*len(in)])
		}
		return
	}
	c.collSendEP(c.sh.members[root]).Send(in)
}

// Allgather collects every member's in payload into every member's out
// buffer (Size()*len(in) bytes): a gather to rank 0 followed by a broadcast.
func (c *Comm) Allgather(in, out []byte) {
	if len(out) < c.Size()*len(in) {
		panic(fmt.Sprintf("core: Allgather buffer %d too small for %d x %d", len(out), c.Size(), len(in)))
	}
	c.Gather(in, out, 0)
	c.Bcast(out[:c.Size()*len(in)], 0)
}

// Scatter distributes contiguous len(out)-byte slices of root's in buffer
// to each member's out buffer (in must hold Size()*len(out) bytes at the
// root; others may pass nil).  Collective.
func (c *Comm) Scatter(in, out []byte, root int) {
	c.r.count(&c.r.stats.Scatters, 1)
	c.checkPeer(root, "root")
	n := c.Size()
	if c.myRank == root {
		if len(in) < n*len(out) {
			panic(fmt.Sprintf("core: Scatter root buffer %d too small for %d x %d", len(in), n, len(out)))
		}
		copy(out, in[root*len(out):(root+1)*len(out)])
		for cr := 0; cr < n; cr++ {
			if cr == root {
				continue
			}
			c.collSendEP(c.sh.members[cr]).Send(in[cr*len(out) : (cr+1)*len(out)])
		}
		return
	}
	c.collRecvEP(c.sh.members[root]).Recv(out)
}

// Sendrecv posts the receive, performs the send, and completes both — the
// deadlock-free paired exchange (the analogue of MPI_Sendrecv, which the
// halo exchanges in the bundled apps hand-roll).  It returns the received
// byte count.
func (c *Comm) Sendrecv(sendBuf []byte, dst, sendTag int, recvBuf []byte, src, recvTag int) int {
	rreq := c.RecvChannel(src, recvTag).Irecv(recvBuf)
	sreq := c.SendChannel(dst, sendTag).Isend(sendBuf)
	c.r.waitReq(sreq)
	return c.r.waitReq(rreq)
}
