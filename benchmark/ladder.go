package main

import (
	"fmt"
	"io"
	"net"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/comm"
	"repro/internal/apps/comd"
	"repro/internal/collective"
	"repro/internal/queue"
	"repro/internal/ssw"
	proto "repro/internal/statsd"
	"repro/internal/transport"
	"repro/pure"
)

// The ladder rungs: the same small operation driven through one layer
// after another — raw PBQ -> Channel -> Comm -> comm.Backend, and raw TCP ->
// link -> runtime — inside one run, with the same loop and one clock
// reading per operation on every rung, so each layer's tax is one
// subtraction.  Each rung drives a layer's exported functions directly;
// none of them verifies payloads (the workloads do).

const (
	intraRungOps = 100_000 // round trips per launch of an intra-node rung
	tcpRungOps   = 10_000  // round trips per loopback rung
	rungLaunches = 5       // launches per rung of the intra-node ladder
)

// repeated runs one rung several times, each a launch of its own, and
// returns the trimmed mean: rungs differ by tens of nanoseconds, launches
// of the same rung by more (see pick).
func repeated(f func() (float64, error)) (float64, error) {
	vals := make([]float64, rungLaunches)
	for i := range vals {
		var err error
		if vals[i], err = f(); err != nil {
			return 0, err
		}
	}
	return trimmedMean(vals, 0.2), nil
}

// driveRung is one side of a two-party rung: after the barrier both sides
// run op n/10 times to warm up and then n times; side 0 stamps each
// completion.
func driveRung(side, n int, barrier func(), op func(), stamps []int64) {
	barrier()
	for i := 0; i < n/10; i++ {
		op()
	}
	if side == 0 {
		stamps[0] = now()
	}
	for i := 0; i < n; i++ {
		op()
		if side == 0 {
			stamps[i+1] = now()
		}
	}
}

// rungP50 is the median of a rung's per-operation latencies.
func rungP50(stamps []int64) float64 { return percentile(latencies(stamps), 50) }

// pureRung runs a two-rank rung on one node; mk builds each rank's
// operation after its set-up.
func pureRung(n int, mk func(r *pure.Rank) func()) (float64, error) {
	stamps := make([]int64, n+1)
	err := pure.Run(pure.Config{NRanks: nRanks}, func(r *pure.Rank) {
		driveRung(r.ID(), n, r.World().Barrier, mk(r), stamps)
	})
	return rungP50(stamps), err
}

// rawWait is the wait loop of the raw rungs: the runtime's own SSW loop
// with no stealer and a spin budget large enough that, with a core per
// goroutine, it never yields — the paper's pure spin.  (With the default
// budget of 64 a stealer-less loop burns its probes in ~200 ns, less than
// one cache-line hand-off here, and so yields on every wait; a rank's loop
// also probes the scheduler, which makes its 64 probes last.)  On a single
// core the budget still runs out, so the rungs stay live.
func rawWait(cond func() bool) { (&ssw.Waiter{SpinBudget: 1 << 16}).Wait(cond) }

// pbqRung is a ping-pong of size-byte messages between two goroutines
// spinning on a raw queue.PBQ pair: the queue and the spin, nothing else.
func pbqRung(n, size int) float64 {
	ping, pong := queue.NewPBQ(16, size), queue.NewPBQ(16, size)
	stamps := make([]int64, n+1)
	var start sync.WaitGroup
	start.Add(2)
	barrier := func() { start.Done(); start.Wait() }
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, size)
		recv := func() bool { _, ok := ping.TryDequeue(buf); return ok }
		send := func() bool { return pong.TryEnqueue(buf) }
		driveRung(1, n, barrier, func() { rawWait(recv); rawWait(send) }, nil)
	}()
	buf := make([]byte, size)
	send := func() bool { return ping.TryEnqueue(buf) }
	recv := func() bool { _, ok := pong.TryDequeue(buf); return ok }
	driveRung(0, n, barrier, func() { rawWait(send); rawWait(recv) }, stamps)
	wg.Wait()
	return rungP50(stamps)
}

// channelPair returns the rank's ping-pong operation over persistent
// channels, blocking or nonblocking.
func channelPair(r *pure.Rank, nonblocking bool) func() {
	c, buf := r.World(), make([]byte, 8)
	peer := 1 - r.ID()
	if r.ID() == 0 {
		ping, pong := c.SendChannel(peer, tagPing), c.RecvChannel(peer, tagPong)
		if nonblocking {
			return func() { c.Waitall(pong.Irecv(buf), ping.Isend(buf)) }
		}
		return func() { ping.Send(buf); pong.Recv(buf) }
	}
	ping, pong := c.RecvChannel(peer, tagPing), c.SendChannel(peer, tagPong)
	if nonblocking {
		return func() { c.Wait(ping.Irecv(buf)); c.Wait(pong.Isend(buf)) }
	}
	return func() { ping.Recv(buf); pong.Send(buf) }
}

// layers of p2p-intra: the intra-node ladder, the rendezvous-versus-memcpy
// comparison, batched versus unbatched sends, and the monitor's price.
func (w *p2pWorkload) layers(lp *layerPass) error {
	if w.xnode {
		return w.xnodeLayers(lp)
	}
	n := lp.rungOps(intraRungOps)
	m := lp.m
	var err error
	rungs := []struct {
		name string
		run  func() error
	}{
		{"queue.pbq_rtt_8B_ns", func() error {
			m["queue.pbq_rtt_8B_ns"], err = repeated(func() (float64, error) { return pbqRung(n, 8), nil })
			return err
		}},
		{"queue.pbq_rtt_8KiB_ns", func() error {
			m["queue.pbq_rtt_8KiB_ns"], err = repeated(func() (float64, error) { return pbqRung(n/4, 8<<10), nil })
			return err
		}},
		{"core.channel_rtt_8B_ns", func() error {
			m["core.channel_rtt_8B_ns"], err = repeated(func() (float64, error) {
				return pureRung(n, func(r *pure.Rank) func() { return channelPair(r, false) })
			})
			return err
		}},
		{"core.isend_irecv_rtt_8B_ns", func() error {
			m["core.isend_irecv_rtt_8B_ns"], err = repeated(func() (float64, error) {
				return pureRung(n, func(r *pure.Rank) func() { return channelPair(r, true) })
			})
			return err
		}},
		{"pure.comm_rtt_8B_ns", func() error {
			m["pure.comm_rtt_8B_ns"], err = repeated(func() (float64, error) {
				return pureRung(n, func(r *pure.Rank) func() {
					c, buf, peer := r.World(), make([]byte, 8), 1-r.ID()
					if r.ID() == 0 {
						return func() { c.Send(buf, peer, tagPing); c.Recv(buf, peer, tagPong) }
					}
					return func() { c.Recv(buf, peer, tagPing); c.Send(buf, peer, tagPong) }
				})
			})
			return err
		}},
		{"comm.backend_rtt_8B_ns", func() error {
			m["comm.backend_rtt_8B_ns"], err = repeated(func() (float64, error) {
				stamps := make([]int64, n+1)
				err := comm.RunPure(pure.Config{NRanks: nRanks}, func(b comm.Backend) {
					buf, peer := make([]byte, 8), 1-b.Rank()
					op := func() { b.Send(buf, peer, tagPing); b.Recv(buf, peer, tagPong) }
					if b.Rank() == 1 {
						op = func() { b.Recv(buf, peer, tagPing); b.Send(buf, peer, tagPong) }
					}
					driveRung(b.Rank(), n, b.Barrier, op, stamps)
				})
				return rungP50(stamps), err
			})
			return err
		}},
		{"core.sendbatch_ns_per_msg", func() error {
			m["core.sendbatch_ns_per_msg"], err = sendBatchRung(n)
			return err
		}},
		{"core.memcpy_MBps", func() error { m["core.memcpy_MBps"] = memcpyMBps(); return nil }},
	}
	for _, rg := range rungs {
		if err := lp.rung(rg.name, rg.run); err != nil {
			return err
		}
	}
	m["core.channel_tax_ns"] = m["core.channel_rtt_8B_ns"] - m["queue.pbq_rtt_8B_ns"]
	m["pure.wrapper_tax_ns"] = m["pure.comm_rtt_8B_ns"] - m["core.channel_rtt_8B_ns"]
	m["comm.backend_tax_ns"] = m["comm.backend_rtt_8B_ns"] - m["pure.comm_rtt_8B_ns"]

	// A 64 KiB round trip moves the payload twice.
	rtt := lp.named("rtt_64KiB_ns_p50")
	m["core.rendezvous_rtt_64KiB_ns"] = rtt
	m["core.rendezvous_MBps"] = ratio(2*largeBytes*1e9/1e6, rtt)
	m["core.rendezvous_over_memcpy"] = ratio(m["core.memcpy_MBps"], m["core.rendezvous_MBps"])
	m["core.send_ns_per_msg"] = ratio(1e9, lp.named("stream_msgs_per_s"))
	return lp.monitorOverhead(w)
}

// sendBatchRung streams 64 B messages one way in SendBatch frames of 32 and
// returns the cost per message (compare core.send_ns_per_msg, the same
// stream sent one message per PBQ slot).
func sendBatchRung(n int) (float64, error) {
	const perBatch = 32
	batches := n / perBatch
	var elapsed int64
	err := pure.Run(pure.Config{NRanks: nRanks}, func(r *pure.Rank) {
		c := r.World()
		if r.ID() == 0 {
			data, ack := c.SendChannel(1, tagData), c.RecvChannel(1, tagAck)
			msgs := make([][]byte, perBatch)
			for i := range msgs {
				msgs[i] = make([]byte, streamBytes)
			}
			c.Barrier()
			t0 := now()
			for i := 0; i < batches; i++ {
				data.SendBatch(msgs)
			}
			ack.Recv(make([]byte, 8))
			elapsed = now() - t0
			return
		}
		data, ack := c.RecvChannel(0, tagData), c.SendChannel(0, tagAck)
		frame, views := make([]byte, 4<<10), make([][]byte, 0, perBatch)
		c.Barrier()
		for i := 0; i < batches; i++ {
			views = data.RecvBatch(frame, views)
		}
		ack.Send(make([]byte, 8))
	})
	return float64(elapsed) / float64(batches*perBatch), err
}

// memcpyMBps is a plain copy of the 64 KiB payload size, the floor the
// single-copy rendezvous is compared with, measured in the same run.
func memcpyMBps() float64 {
	src, dst := make([]byte, largeBytes), make([]byte, largeBytes)
	const n = 20000
	t0 := now()
	for i := 0; i < n; i++ {
		copy(dst, src)
	}
	return n * largeBytes * 1e9 / 1e6 / float64(now()-t0)
}

// rawCollectiveRung drives n calls of op on nRanks goroutines and returns
// rank 0's median call latency.
func rawCollectiveRung(n int, op func(tid int)) float64 {
	stamps := make([]int64, n+1)
	var start, wg sync.WaitGroup
	start.Add(nRanks)
	barrier := func() { start.Done(); start.Wait() }
	for tid := 0; tid < nRanks; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			driveRung(tid, n, barrier, func() { op(tid) }, stamps)
		}(tid)
	}
	wg.Wait()
	return rungP50(stamps)
}

// commCollectiveRung drives n calls of a Comm collective on ranks ranks of
// one node and returns rank 0's median call latency.
func commCollectiveRung(ranks, n int, mk func(c *pure.Comm) func()) (float64, error) {
	stamps := make([]int64, n+1)
	err := pure.Run(pure.Config{NRanks: ranks}, func(r *pure.Rank) {
		driveRung(r.ID(), n, r.World().Barrier, mk(r.World()), stamps)
	})
	return rungP50(stamps), err
}

// layers of coll-intra: the raw SPTD and partitioned reducer under the
// Comm collectives, and the collectives the workload does not time.
func (w *collWorkload) layers(lp *layerPass) error {
	n := lp.rungOps(intraRungOps)
	m := lp.m
	var err error
	allreduce8 := func(c *pure.Comm) func() {
		in, out := make([]byte, 8), make([]byte, 8)
		return func() { c.Allreduce(in, out, pure.Sum, pure.Int64) }
	}
	rungs := []struct {
		name string
		run  func() error
	}{
		{"collective.sptd_allreduce_8B_ns", func() error {
			s := collective.NewSPTD(nRanks, 8)
			var in, out [nRanks][8]byte
			m["collective.sptd_allreduce_8B_ns"], err = repeated(func() (float64, error) {
				return rawCollectiveRung(n, func(tid int) {
					s.Allreduce(tid, in[tid][:], out[tid][:], collective.OpSum, collective.Int64, nil, rawWait)
				}), nil
			})
			return err
		}},
		{"collective.partitioned_allreduce_64KiB_ns", func() error {
			p := collective.NewPartitionedReducer(nRanks, largeBytes)
			var in, out [nRanks][]byte
			for tid := range in {
				in[tid], out[tid] = make([]byte, largeBytes), make([]byte, largeBytes)
			}
			ns := rawCollectiveRung(n/20, func(tid int) {
				p.Allreduce(tid, in[tid], out[tid], collective.OpSum, collective.Int64, nil, rawWait)
			})
			m["collective.partitioned_allreduce_64KiB_ns"] = ns
			m["collective.partitioned_MBps"] = ratio(largeBytes*1e9/1e6, ns)
			return nil
		}},
		{"collective.bcast_8B_ns", func() error {
			m["collective.bcast_8B_ns"], err = commCollectiveRung(nRanks, n, func(c *pure.Comm) func() {
				buf := make([]byte, 8)
				return func() { c.Bcast(buf, 0) }
			})
			return err
		}},
		{"collective.reduce_8B_ns", func() error {
			// Each Reduce is timed on its own and followed by an untimed
			// Barrier: back-to-back SPTD Reduces race on the dropbox (a
			// non-root rank refills it before the leader has folded the
			// previous round; `go test -race` on this rung found it), and a
			// rung must not measure a race.  Fixing it is a later issue.
			lat := make([]int64, n)
			err := pure.Run(pure.Config{NRanks: nRanks}, func(r *pure.Rank) {
				c := r.World()
				in, out := make([]byte, 8), make([]byte, 8)
				for i := 0; i < n; i++ {
					c.Barrier()
					t0 := now()
					c.Reduce(in, out, 0, pure.Sum, pure.Int64)
					if r.ID() == 0 {
						lat[i] = now() - t0
					}
				}
			})
			slices.Sort(lat)
			m["collective.reduce_8B_ns"] = percentile(lat, 50)
			return err
		}},
		{"collective.allreduce_8B_4r_ns", func() error {
			// 4 ranks on 2 cores: informational, it measures the Go scheduler.
			m["collective.allreduce_8B_4r_ns"], err = commCollectiveRung(4, n/10, allreduce8)
			return err
		}},
	}
	for _, rg := range rungs {
		if err := lp.rung(rg.name, rg.run); err != nil {
			return err
		}
	}
	m["collective.comm_tax_ns"] = lp.named("allreduce_8B_ns_p50") - m["collective.sptd_allreduce_8B_ns"]
	return nil
}

// rawTCPRung is an 8 B ping-pong over a bare loopback net.Conn in this
// process: the floor under everything xnode-tcp measures.
func rawTCPRung(n int) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	echoed := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			echoed <- err
			return
		}
		defer conn.Close()
		buf := make([]byte, 8)
		for {
			if _, err := io.ReadFull(conn, buf); err != nil {
				if err == io.EOF {
					err = nil
				}
				echoed <- err
				return
			}
			if _, err := conn.Write(buf); err != nil {
				echoed <- err
				return
			}
		}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, err
	}
	buf := make([]byte, 8)
	stamps := make([]int64, n+1)
	var opErr error
	driveRung(0, n, func() {}, func() {
		if _, err := conn.Write(buf); err != nil {
			opErr = err
		}
		if _, err := io.ReadFull(conn, buf); err != nil {
			opErr = err
		}
	}, stamps)
	conn.Close()
	if err := <-echoed; err != nil {
		return 0, err
	}
	return rungP50(stamps), opErr
}

// linkRung is an 8 B ping-pong between two transport.Transport endpoints
// driven through Send and a Deliver handler: node 1 answers from its
// handler, node 0's handler wakes the driver.  It also yields the time from
// Start to an established link and the allocations per frame.
func linkRung(n int) (rtt, dialS, allocsPerFrame float64, err error) {
	addrs, err := reserveAddrs(2)
	if err != nil {
		return 0, 0, 0, err
	}
	var tp [2]*transport.Transport
	arrived := make(chan struct{}, 1) // one round trip in flight at a time
	handlers := [2]transport.Handlers{
		{Deliver: func(*transport.Frame) { arrived <- struct{}{} }},
		{Deliver: func(f *transport.Frame) {
			reply := transport.Frame{Kind: transport.KindData, DstRank: 0, SrcRank: 1, Payload: f.Payload}
			if err := tp[1].Send(0, &reply); err != nil {
				panic(fmt.Sprintf("link rung: reply: %v", err))
			}
		}},
	}
	job := jobSeq.Add(1)
	t0 := now()
	for node := range tp {
		cfg := transport.Config{
			Node: node, Addrs: addrs, Job: job,
			HeartbeatEvery: 50 * time.Millisecond, PeerDeadAfter: 5 * time.Second,
		}
		if tp[node], err = transport.New(cfg, nil, 2, handlers[node]); err != nil {
			return 0, 0, 0, err
		}
		if err = tp[node].Start(); err != nil {
			return 0, 0, 0, err
		}
		defer tp[node].Close()
	}
	for !tp[0].Stats()[1].Up || !tp[1].Stats()[0].Up {
		if now()-t0 > int64(10*time.Second) {
			return 0, 0, 0, fmt.Errorf("link not up after 10 s")
		}
		time.Sleep(50 * time.Microsecond)
	}
	dialS = float64(now()-t0) / 1e9

	payload := make([]byte, 8)
	stamps := make([]int64, n+1)
	var m0, m1 runtime.MemStats
	var opErr error
	op := func() {
		f := transport.Frame{Kind: transport.KindData, DstRank: 1, Payload: payload}
		if err := tp[0].Send(1, &f); err != nil {
			opErr = err
			return
		}
		<-arrived
	}
	runtime.ReadMemStats(&m0)
	driveRung(0, n, func() {}, op, stamps)
	runtime.ReadMemStats(&m1)
	// n/10 warm-up and n timed round trips, two frames each.
	allocsPerFrame = float64(m1.Mallocs-m0.Mallocs) / float64(2*(n+n/10))
	return rungP50(stamps), dialS, allocsPerFrame, opErr
}

// allreduce2x2 times an 8 B Allreduce on 2 nodes x 2 ranks over loopback
// TCP (4 spinning ranks on 2 cores: informational).
func allreduce2x2(n int) (p50, p90 float64, err error) {
	stamps := make([]int64, n+1)
	_, err = launch(topo{nodes: 2, perNode: 2}, obsOpts{}, func(cfg pure.Config) (pure.Report, error) {
		return pure.RunWithReport(cfg, func(r *pure.Rank) {
			c := r.World()
			in, out := make([]byte, 8), make([]byte, 8)
			driveRung(r.ID(), n, c.Barrier, func() { c.Allreduce(in, out, pure.Sum, pure.Int64) }, stamps)
		})
	})
	lat := latencies(stamps)
	return percentile(lat, 50), percentile(lat, 90), err
}

// xnodeLayers is the layer pass of xnode-tcp: the cross-node ladder.
func (w *p2pWorkload) xnodeLayers(lp *layerPass) error {
	n := lp.rungOps(tcpRungOps)
	m := lp.m
	var err error
	rungs := []struct {
		name string
		run  func() error
	}{
		{"transport.raw_tcp_rtt_8B_ns", func() error {
			m["transport.raw_tcp_rtt_8B_ns"], err = rawTCPRung(n)
			return err
		}},
		{"transport.link_rtt_8B_ns", func() error {
			m["transport.link_rtt_8B_ns"], m["transport.dial_s"], m["transport.link_allocs_per_frame"], err = linkRung(n)
			return err
		}},
		{"transport.allreduce_2x2_ns", func() error {
			m["transport.allreduce_2x2_ns_p50"], m["transport.allreduce_2x2_ns_p90"], err = allreduce2x2(n / 4)
			return err
		}},
	}
	for _, rg := range rungs {
		if err := lp.rung(rg.name, rg.run); err != nil {
			return err
		}
	}
	m["transport.link_tax_ns"] = m["transport.link_rtt_8B_ns"] - m["transport.raw_tcp_rtt_8B_ns"]
	m["core.remote_tax_ns"] = lp.named("rtt_8B_ns_p50") - m["transport.link_rtt_8B_ns"]
	return nil
}

// layers of the CoMD rows: the decorator's time split, the price of a task,
// what stealing buys, and the plain one-rank baseline.
func (w *comdWorkload) layers(lp *layerPass) error {
	m := lp.m
	steps := float64(w.params.Steps)
	wall := lp.baseValue(func(r *repResult) float64 { return r.wallS })
	for _, t := range lp.span.backend {
		p2p, coll, task := float64(t.P2PNs)/1e9, float64(t.CollectiveNs)/1e9, float64(t.TaskNs)/1e9
		m["comm.p2p_s"] = max(m["comm.p2p_s"], p2p)
		m["comm.collective_s"] = max(m["comm.collective_s"], coll)
		m["comm.task_s"] = max(m["comm.task_s"], task)
		m["comm.compute_s"] = max(m["comm.compute_s"], lp.span.wallS-p2p-coll-task)
		m["comm.msgs_per_step"] = max(m["comm.msgs_per_step"], float64(t.MsgsSent)/steps)
		m["comm.bytes_per_step"] = max(m["comm.bytes_per_step"], float64(t.BytesSent)/steps)
	}
	m["apps.comd_atom_steps_per_s"] = lp.baseValue(func(r *repResult) float64 { return r.rate })

	if w.steal {
		if err := lp.rung("sched.steal_speedup", func() error {
			p := w.params
			p.UseTask = false
			r, err := w.run(obsOpts{rep: "untasked"}, p)
			if err != nil {
				return err
			}
			if r.failed != 0 {
				return fmt.Errorf("untasked run failed verification")
			}
			m["sched.steal_speedup"] = r.wallS / wall
			return nil
		}); err != nil {
			return err
		}
		if err := lp.rung("sched.task_overhead_ns", func() error {
			// An empty-body 64-chunk task on a lone rank: nobody steals.
			n := lp.rungOps(intraRungOps)
			var elapsed int64
			err := pure.Run(pure.Config{NRanks: 1}, func(r *pure.Rank) {
				task := r.NewTask(64, func(start, end int64, _ any) {})
				t0 := now()
				for i := 0; i < n; i++ {
					task.Execute(nil)
				}
				elapsed = now() - t0
			})
			m["sched.task_overhead_ns"] = float64(elapsed) / float64(n)
			return err
		}); err != nil {
			return err
		}
	}

	return lp.rung("apps.comd_parallel_eff", func() error {
		// The same global box on one rank, untasked: the plain
		// single-threaded baseline.
		p := w.params
		p.Grid = [3]int{1, 1, 1}
		p.CellsPerRank[0] *= nRanks
		p.UseTask = false
		var wall1 float64
		var got comd.Result
		var runErr error
		err := comm.RunPure(pure.Config{NRanks: 1}, func(b comm.Backend) {
			t0 := now()
			got, runErr = comd.Run(b, p)
			wall1 = float64(now()-t0) / 1e9
		})
		if err == nil {
			err = runErr
		}
		if err != nil {
			return err
		}
		if checkComd(got, w.ref) != 0 {
			return fmt.Errorf("one-rank run disagrees with the reference: %+v vs %+v", got, w.ref)
		}
		m["apps.comd_parallel_eff"] = wall1 / (nRanks * wall)
		return nil
	})
}

// layers of statsd-stream: the protocol layer driven directly on generated
// lines, and the batching ratio.
func (w *statsdWorkload) layers(lp *layerPass) error {
	m := lp.m
	st := totalStats(lp.span.reports)
	events := float64(w.sz.windows) * float64(w.sz.eventsPerWindow)
	m["statsd.events_per_frame"] = ratio(events, float64(st.SendsEager))
	m["statsd.dropped"] = 0 // checkStatsd fails any window that drops

	return lp.rung("statsd.parse+aggregate", func() error {
		const nLines = 4096
		gen := proto.NewGen(proto.GenConfig{ZipfS: 1.2, Seed: w.seed})
		lines := make([][]byte, nLines)
		for i := range lines {
			lines[i] = gen.Next(nil)
		}
		events := make([]proto.Event, nLines)
		rounds := lp.rungOps(2_000_000) / nLines
		t0 := now()
		for r := 0; r <= rounds; r++ {
			for i, line := range lines {
				if err := proto.ParseLine(line, &events[i]); err != nil {
					return fmt.Errorf("generated line %q: %w", line, err)
				}
			}
		}
		m["statsd.parse_ns_per_line"] = float64(now()-t0) / float64((rounds+1)*nLines)

		type rec struct {
			key, nameH, tagH uint64
			typ              proto.MetricType
			value            float64
		}
		recs := make([]rec, nLines)
		for i, ev := range events {
			nameH, tagH := proto.Hash64(ev.Name), proto.Hash64(ev.Tags)
			recs[i] = rec{proto.KeyHash(nameH, tagH, ev.Type), nameH, tagH, ev.Type, ev.Value}
		}
		agg := proto.NewAgg()
		t0 = now()
		for r := 0; r <= rounds; r++ {
			for _, rc := range recs {
				agg.Apply(rc.key, rc.nameH, rc.tagH, rc.typ, rc.value)
			}
		}
		m["statsd.aggregate_ns_per_event"] = float64(now()-t0) / float64((rounds+1)*nLines)
		return nil
	})
}

// layers of pgas-hist: the addressed operations one by one.
func (w *pgasWorkload) layers(lp *layerPass) error {
	m := lp.m
	n := lp.rungOps(intraRungOps)
	if err := lp.rung("shmem.ops", func() error {
		stampsBarrier := make([]int64, n/10+1)
		stampsMailbox := make([]int64, n/4+1)
		return pure.Run(pure.Config{NRanks: nRanks}, func(r *pure.Rank) {
			c := r.World()
			me, peer := r.ID(), 1-r.ID()
			heap := c.ShmemCreate(64<<10, 0)
			off := heap.Malloc(8 << 10)
			box := [nRanks]*pure.Mailbox{heap.NewMailbox(0, 16, 8), heap.NewMailbox(1, 16, 8)}
			heap.Barrier()
			// bulk times n calls of op on rank 0 while rank 1 waits at the
			// barrier: the cost of issuing, as pgas-hist pays it.
			bulk := func(name string, n int, op func()) {
				if me == 0 {
					t0 := now()
					for i := 0; i < n; i++ {
						op()
					}
					heap.Quiet()
					m[name] = float64(now()-t0) / float64(n)
				}
				heap.Barrier()
			}
			small, kib := make([]byte, 8), make([]byte, 1<<10)
			bulk("shmem.atomic_add_ns", 10*n, func() { heap.AtomicAdd(peer, off, 1) })
			bulk("shmem.put_8B_ns", 10*n, func() { heap.Put(peer, off, small) })
			bulk("shmem.put_1KiB_ns", n, func() { heap.Put(peer, off, kib) })

			driveRung(me, n/10, heap.Barrier, heap.Barrier, stampsBarrier)
			msg := make([]byte, 8)
			op := func() { box[peer].Send(msg); box[me].Recv(msg) }
			if me == 1 {
				op = func() { box[me].Recv(msg); box[peer].Send(msg) }
			}
			driveRung(me, n/4, heap.Barrier, op, stampsMailbox)
			if me == 0 {
				m["shmem.barrier_ns"] = rungP50(stampsBarrier)
				m["shmem.mailbox_rtt_ns"] = rungP50(stampsMailbox)
			}
			heap.FreeHeap()
		})
	}); err != nil {
		return err
	}
	return lp.rung("rma.put_fence_8B_ns", func() error {
		stamps := make([]int64, n/4+1)
		err := pure.Run(pure.Config{NRanks: nRanks}, func(r *pure.Rank) {
			c := r.World()
			win := c.WinCreate(make([]byte, 64))
			data := make([]byte, 8)
			peer := 1 - r.ID()
			driveRung(r.ID(), n/4, c.Barrier, func() { win.Put(data, peer, 0); win.Fence() }, stamps)
			win.Free()
		})
		m["rma.put_fence_8B_ns"] = rungP50(stamps)
		return err
	})
}
