package main

import (
	"encoding/binary"
	"math/rand/v2"

	"repro/pure"
)

// p2pSizes is one row of the size table for the two point-to-point
// workloads (operations per repetition).
type p2pSizes struct {
	rtt8      int // 8 B round trips
	rtt64K    int // 64 KiB round trips
	stream    int // one-way 64 B messages (a multiple of ackEvery)
	allreduce int // 8 B Allreduce calls (xnode-tcp only)
}

const (
	largeBytes  = 64 << 10
	streamBytes = 64
	ackEvery    = 256          // the stream receiver acks every 256 messages
	creditStart = 2 * ackEvery // the stream sender may run this far ahead

	tagPing, tagPong, tagData, tagAck = 1, 2, 3, 4
)

// p2pWorkload is p2p-intra (one node, shared memory) or xnode-tcp (two
// nodes, one rank each, loopback TCP): the same rank program either way, so
// the two rows differ only in the layers underneath.
type p2pWorkload struct {
	xnode   bool
	sz      p2pSizes
	payload []byte // the seeded 64 KiB fill both ranks know
}

func (w *p2pWorkload) topo() topo {
	if w.xnode {
		return twoNodes
	}
	return oneNode
}

func newP2P(xnode bool, sz p2pSizes, seed uint64) *p2pWorkload {
	w := &p2pWorkload{xnode: xnode, sz: sz, payload: make([]byte, largeBytes)}
	rng := rand.New(rand.NewPCG(seed, 0x70327032))
	for i := 0; i < len(w.payload); i += 8 {
		binary.LittleEndian.PutUint64(w.payload[i:], rng.Uint64())
	}
	return w
}

// p2pTimes is what rank 0 measures in one repetition.
type p2pTimes struct {
	rtt8, rtt64K, allreduce []int64 // sorted per-operation latencies
	chunk                   []int64 // sorted times per ackEvery streamed messages
}

func (w *p2pWorkload) rep(o obsOpts) (*repResult, error) {
	h, root, run := repSpans(o)
	// Harness buffers are allocated before the launch so set-up times the
	// runtime, not the benchmark's own page faults.
	stamps := make([]int64, max(w.sz.rtt8, w.sz.rtt64K, w.sz.allreduce, w.sz.stream/ackEvery)+1)
	var tm p2pTimes
	g := newRegion()
	reports, err := launch(w.topo(), o, func(cfg pure.Config) (pure.Report, error) {
		return pure.RunWithReport(cfg, func(r *pure.Rank) { w.rank(r, o, run, g, &tm, stamps) })
	})
	h.end(run)
	if err != nil {
		return nil, err
	}
	ops := int64(w.sz.rtt8 + w.sz.rtt64K + w.sz.stream + w.sz.allreduce)
	res := g.result(ops, reports)
	res.opLat = tm.rtt8
	res.rate = ratio(ackEvery*1e9, percentile(tm.chunk, 50))
	res.named["rtt_8B_ns_p50"] = percentile(tm.rtt8, 50)
	res.named["rtt_8B_ns_p99"] = percentile(tm.rtt8, 99)
	res.named["rtt_64KiB_ns_p50"] = percentile(tm.rtt64K, 50)
	res.named["stream_msgs_per_s"] = res.rate
	if w.xnode {
		res.named["allreduce_8B_ns_p50"] = percentile(tm.allreduce, 50)
	}
	h.end(root)
	return res, nil
}

// rank is the SPMD program: rank 0 drives and times, rank 1 responds, and
// each checks every payload it receives.
func (w *p2pWorkload) rank(r *pure.Rank, o obsOpts, parent int32, g *region, tm *p2pTimes, stamps []int64) {
	ln := o.spans.lane(1+r.ID(), o.rep)
	me, peer := r.ID(), 1-r.ID()
	c := r.World()

	s := ln.begin("setup", parent)
	var ping, pong, data, ack *pure.Channel
	if me == 0 {
		ping, pong = c.SendChannel(peer, tagPing), c.RecvChannel(peer, tagPong)
		data, ack = c.SendChannel(peer, tagData), c.RecvChannel(peer, tagAck)
	} else {
		ping, pong = c.RecvChannel(peer, tagPing), c.SendChannel(peer, tagPong)
		data, ack = c.RecvChannel(peer, tagData), c.SendChannel(peer, tagAck)
	}
	small := make([]byte, 8)
	large := make([]byte, largeBytes)
	copy(large, w.payload)
	msg := make([]byte, streamBytes)
	g.start(me, c.Barrier)
	ln.end(s)

	var failed int64
	s = ln.begin("phase:rtt_8B", parent)
	failed += pingPong(me, ping, pong, small, nil, w.sz.rtt8, stamps)
	if me == 0 {
		tm.rtt8 = sortedLatencies(stamps[:w.sz.rtt8+1])
	}
	ln.end(s)

	s = ln.begin("phase:rtt_64KiB", parent)
	failed += pingPong(me, ping, pong, large, w.payload, w.sz.rtt64K, stamps)
	if me == 0 {
		tm.rtt64K = sortedLatencies(stamps[:w.sz.rtt64K+1])
	}
	ln.end(s)

	s = ln.begin("phase:stream_64B", parent)
	failed += stream(me, data, ack, msg, small, w.sz.stream, stamps)
	if me == 0 {
		tm.chunk = sortedLatencies(stamps[:w.sz.stream/ackEvery+1])
	}
	ln.end(s)

	if w.sz.allreduce > 0 {
		s = ln.begin("phase:allreduce_8B", parent)
		failed += allreduceLoop(c, me, small, make([]byte, 8), nil, w.sz.allreduce, stamps)
		if me == 0 {
			tm.allreduce = sortedLatencies(stamps[:w.sz.allreduce+1])
		}
		ln.end(s)
	}
	g.failed.Add(failed)
	g.finish(me, c.Barrier)
}

// pingPong runs n round trips of len(buf) bytes.  Rank 0 writes sequence
// number i, rank 1 checks it and answers echo(i), rank 0 checks the answer;
// with a reference payload the bytes past the header are checked too (a few
// probes per round trip, every byte on the last).  Rank 0 stamps each
// completion into stamps.  Returns the failed checks.
func pingPong(me int, ping, pong *pure.Channel, buf, ref []byte, n int, stamps []int64) (failed int64) {
	if me == 0 {
		stamps[0] = now()
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint64(buf, uint64(i))
			ping.Send(buf)
			pong.Recv(buf)
			failed += checkSeq(buf, echo(uint64(i)))
			if ref != nil {
				failed += checkProbes(buf, ref, i == n-1)
			}
			stamps[i+1] = now()
		}
		return failed
	}
	for i := 0; i < n; i++ {
		ping.Recv(buf)
		failed += checkSeq(buf, uint64(i))
		if ref != nil {
			failed += checkProbes(buf, ref, i == n-1)
		}
		binary.LittleEndian.PutUint64(buf, echo(uint64(i)))
		pong.Send(buf)
	}
	return failed
}

// stream sends n sequence-numbered 64 B messages one way under a credit
// window: the receiver acks every ackEvery messages it has checked, and the
// sender stops when it is creditStart ahead.  The phase ends when the last
// ack is back, i.e. when every message has been received and checked.  The
// sender stamps every ackEvery messages sent: the stream's rate is taken
// from the median chunk, which a descheduled vCPU does not move.
func stream(me int, data, ack *pure.Channel, msg, ackBuf []byte, n int, stamps []int64) (failed int64) {
	acks := n / ackEvery
	if me == 0 {
		credit, got := creditStart, 0
		stamps[0] = now()
		for i := 0; i < n; i++ {
			if credit == 0 {
				ack.Recv(ackBuf)
				failed += checkSeq(ackBuf, uint64(got))
				got++
				credit += ackEvery
			}
			binary.LittleEndian.PutUint64(msg, uint64(i))
			data.Send(msg)
			credit--
			if (i+1)%ackEvery == 0 {
				stamps[(i+1)/ackEvery] = now()
			}
		}
		for ; got < acks; got++ {
			ack.Recv(ackBuf)
			failed += checkSeq(ackBuf, uint64(got))
		}
		return failed
	}
	for i := 0; i < n; i++ {
		data.Recv(msg)
		failed += checkSeq(msg, uint64(i))
		if (i+1)%ackEvery == 0 {
			binary.LittleEndian.PutUint64(ackBuf, uint64(i/ackEvery))
			ack.Send(ackBuf)
		}
	}
	return failed
}
