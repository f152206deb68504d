package core

import (
	"encoding/binary"
	"flag"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/collective"
	"repro/internal/obs"
	"repro/internal/topology"
	"repro/internal/transport"
)

// Multi-runtime tests over loopback TCP: one Runtime per node, each in its
// own goroutine with its own Config.Transport and registry, talking over real
// sockets.  Only the tests whose subject is the socket or a node's own
// artifacts live here — a connection killed or partitioned, a per-node fault
// plan, socket writes, and the cross-node gates `make gates` runs by
// name.  Everything else about the link protocol runs on in-process nodes
// (nodes_test.go), and real processes are internal/livechaos's.

var tcpJobSeq atomic.Uint64

// tcpWorld runs one Runtime per node over real TCP and returns Run's error
// per node.  mut (optional) adjusts each node's config before launch.
func tcpWorld(t testing.TB, nodes, perNode int, mut func(node int, cfg *Config), main func(r *Rank)) []error {
	t.Helper()
	be := boundTCP{transport.TCP(), map[string]transport.Listener{}}
	addrs := make([]string, nodes)
	for n := range addrs {
		ln, err := be.Backend.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[n] = ln.Addr()
		be.lns[addrs[n]] = ln
	}
	job := tcpJobSeq.Add(1)
	errs := make([]error, nodes)
	var wg sync.WaitGroup
	for n := 0; n < nodes; n++ {
		cfg := Config{
			NRanks: nodes * perNode,
			Spec:   topology.Spec{Nodes: nodes, SocketsPerNode: 1, CoresPerSocket: perNode, ThreadsPerCore: 1},
			// Generous liveness bounds: a loaded CI host can starve a
			// heartbeat goroutine past the 200ms production default and
			// fail runs that aren't about failure detection.  Tests that
			// exercise the detector dial these back down in mut.
			Transport: &transport.Config{
				Node: n, Addrs: addrs, Job: job,
				HeartbeatEvery: 50 * time.Millisecond,
				PeerDeadAfter:  5 * time.Second,
			},
			HangTimeout: 20 * time.Second,
		}
		if mut != nil {
			mut(n, &cfg)
		}
		wg.Add(1)
		go func(n int, cfg Config) {
			defer wg.Done()
			rcfg, err := cfg.withDefaults()
			if err == nil {
				_, err = runInternal(rcfg, be, main)
			}
			errs[n] = err
		}(n, cfg)
	}
	wg.Wait()
	return errs
}

// boundTCP is the TCP backend with every node's listener bound before any
// node starts, on a port the kernel picked: no port is reserved and released
// first, so none can be lost to another dial in between.
type boundTCP struct {
	transport.Backend
	lns map[string]transport.Listener
}

func (b boundTCP) Listen(addr string) (transport.Listener, error) {
	if ln, ok := b.lns[addr]; ok {
		return ln, nil
	}
	return nil, fmt.Errorf("no listener bound for %s", addr)
}

func tcpAllOK(t *testing.T, errs []error) {
	t.Helper()
	for n, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", n, err)
		}
	}
}

// sumCounter sums one counter series over registries, as their snapshots
// report it.
func sumCounter(name string, mets ...*obs.Metrics) (sum int64) {
	for _, m := range mets {
		for _, c := range m.Snapshot().Counters {
			if c.Name == name {
				sum += c.Value
			}
		}
	}
	return sum
}

// TestChaosTCPDrainIsCounted: link series are read when the snapshot is
// taken, so they include what Transport.Close's drain did.  Node 0 drops
// every first transmission and its rank's last act is a send, which therefore
// only reaches node 1 by a retransmission made during the drain, after the
// rank has returned.  The registry's snapshot after Run must carry that
// retransmission: it equals Transport.Stats() after Close, per peer and
// summed.
func TestChaosTCPDrainIsCounted(t *testing.T) {
	mets := []*obs.Metrics{obs.NewMetrics(), obs.NewMetrics()}
	var rts [2]*Runtime
	errs := tcpWorld(t, 2, 1, func(n int, cfg *Config) {
		cfg.Metrics = mets[n]
		cfg.Transport.RetryBackoff = 2 * time.Millisecond
		if n == 0 {
			cfg.Transport.Faults = transport.Faults{Seed: 1, DropProb: 1}
		}
	}, func(r *Rank) {
		w, buf := r.World(), make([]byte, 8)
		rts[r.ID()] = r.rt
		if r.ID() == 0 {
			w.Recv(buf, 1, 1) // the link is up
			w.Send(buf, 1, 2) // dropped; nothing but the drain is left to resend it
		} else {
			w.Send(buf, 0, 1)
			w.Recv(buf, 0, 2)
		}
	})
	tcpAllOK(t, errs)
	for n, rt := range rts {
		peer := 1 - n
		final := rt.tp.Stats()[peer] // after Close
		label := fmt.Sprintf(`{peer="%d"}`, peer)
		for name, want := range map[string]int64{
			"pure_link_frames_sent_total" + label:  final.FramesSent,
			"pure_link_retransmits_total" + label:  final.Retransmits,
			"pure_link_retry_rounds_total" + label: final.RetryRounds,
			"pure_link_acks_recv_total" + label:    final.AcksRecv,
			"pure_tp_retransmits_total":            final.Retransmits,
			"pure_tp_drops_injected_total":         final.DropsInjected,
		} {
			if got := sumCounter(name, mets[n]); got != want {
				t.Errorf("node %d: %s = %d in the snapshot, %d in Transport.Stats() after Close", n, name, got, want)
			}
		}
		if n == 0 && (final.DropsInjected == 0 || final.Retransmits == 0 || final.Unacked != 0) {
			t.Errorf("node 0's last send was not recovered by the drain: %+v", final)
		}
	}
}

// TestChaosTCPKillLinkReconnect severs the TCP connection mid-stream from
// both sides; the link layer must redial and resume from the delivered
// watermarks without losing or duplicating a message.
func TestChaosTCPKillLinkReconnect(t *testing.T) {
	const rounds = 120
	errs := tcpWorld(t, 2, 1, nil, func(r *Rank) {
		w := r.World()
		buf := make([]byte, 8)
		for i := 0; i < rounds; i++ {
			if i == rounds/3 || i == 2*rounds/3 {
				r.rt.tp.KillLink(1 - r.ID())
			}
			if r.ID() == 0 {
				binary.LittleEndian.PutUint64(buf, uint64(i*7))
				w.Send(buf, 1, 9)
				w.Recv(buf, 1, 9)
				if got := binary.LittleEndian.Uint64(buf); got != uint64(i*7+1) {
					panic(fmt.Sprintf("round %d: echoed %d", i, got))
				}
			} else {
				w.Recv(buf, 0, 9)
				binary.LittleEndian.PutUint64(buf, binary.LittleEndian.Uint64(buf)+1)
				w.Send(buf, 0, 9)
			}
		}
	})
	tcpAllOK(t, errs)
}

// TestChaosTCPPartitionDeath partitions the link from node 0's side mid-run.
// Node 0 stops hearing node 1 (heartbeat silence); node 1's frames go
// unacked until its retry budget dies.  Both runtimes must return a
// structured *RunError naming the peer in DeadNodes — within HangTimeout,
// so the failure is attributed to the dead node rather than diagnosed as an
// anonymous stall.
func TestChaosTCPPartitionDeath(t *testing.T) {
	if testing.Short() {
		t.Skip("failure detection needs real timeouts")
	}
	start := time.Now()
	const hang = 30 * time.Second
	errs := tcpWorld(t, 2, 1, func(n int, cfg *Config) {
		cfg.HangTimeout = hang
		cfg.Transport.HeartbeatEvery = 5 * time.Millisecond
		cfg.Transport.PeerDeadAfter = 100 * time.Millisecond
		cfg.Transport.RetryBackoff = 5 * time.Millisecond
		cfg.Transport.RetryBudget = 8
	}, func(r *Rank) {
		w := r.World()
		buf := make([]byte, 8)
		// One clean round proves the link is up before the partition.
		if r.ID() == 0 {
			w.Send(buf, 1, 2)
			w.Recv(buf, 1, 2)
			r.rt.tp.SetPartitioned(1, true)
			// Tag 99 is never sent: this blocks until heartbeat silence
			// kills the link and the poison unwinds the recv.
			w.Recv(buf, 1, 99)
		} else {
			w.Recv(buf, 0, 2)
			w.Send(buf, 0, 2)
			// Unacked frames pile up against the partition until the retry
			// budget declares node 0 dead and the send path unwinds.
			for {
				w.Send(buf, 0, 2)
				time.Sleep(time.Millisecond)
			}
		}
	})
	elapsed := time.Since(start)
	for n, err := range errs {
		re, ok := err.(*RunError)
		if !ok {
			t.Fatalf("node %d: got %v, want *RunError", n, err)
		}
		if re.Cause != CauseNodeDead {
			t.Fatalf("node %d: cause %q, want %q\n%v", n, re.Cause, CauseNodeDead, re)
		}
		if len(re.DeadNodes) != 1 || re.DeadNodes[0] != 1-n {
			t.Fatalf("node %d: dead nodes %v, want [%d]", n, re.DeadNodes, 1-n)
		}
	}
	if elapsed >= hang {
		t.Fatalf("failure detection took %v, not inside HangTimeout %v", elapsed, hang)
	}
}

// ---- Benchmarks ----

func BenchmarkTCPPingPong8B(b *testing.B) {
	n := b.N
	errs := tcpWorld(b, 2, 1, nil, func(r *Rank) {
		w := r.World()
		buf := make([]byte, 8)
		for i := 0; i < n; i++ {
			if r.ID() == 0 {
				w.Send(buf, 1, 5)
				w.Recv(buf, 1, 5)
			} else {
				w.Recv(buf, 0, 5)
				w.Send(buf, 0, 5)
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTCPPingPong8BMonitored is the same cross-node exchange with each
// node's live monitor enabled (as under `purerun -monitor`): every frame
// additionally ticks the transport's per-peer link counters and the node
// serves /metrics, /ranks and /links.  The delta against
// BenchmarkTCPPingPong8B is the link-telemetry overhead, which
// TestTCPMonitoredOverhead holds under 5 % — the counters are lock-free
// atomics off the syscall path, and the registry reads them only when a
// snapshot is taken.
func BenchmarkTCPPingPong8BMonitored(b *testing.B) {
	n := b.N
	errs := tcpWorld(b, 2, 1, func(node int, cfg *Config) {
		cfg.MonitorAddr = "127.0.0.1:0"
	}, func(r *Rank) {
		w := r.World()
		buf := make([]byte, 8)
		for i := 0; i < n; i++ {
			if r.ID() == 0 {
				w.Send(buf, 1, 5)
				w.Recv(buf, 1, 5)
			} else {
				w.Recv(buf, 0, 5)
				w.Send(buf, 0, 5)
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			b.Fatal(err)
		}
	}
}

// idleMachine asks the gates whose bounds assume a machine doing nothing
// else for those bounds; `make gates` passes it and runs them alone.  Without
// it each gate enforces a loose bound that holds beside the rest of the suite.
var idleMachine = flag.Bool("idle", false, "TestTCPPingPongAckFree, TestTCPMonitoredOverhead: enforce the idle-machine bounds")

// TestTCPMonitoredOverhead is the link-telemetry ratio gate: the minimum of 6
// BenchmarkTCPPingPong8BMonitored runs stays within 5 % of the minimum of 6
// BenchmarkTCPPingPong8B runs, in the best of 3 attempts.  The two run
// interleaved, so drift on the host moves both alike.  The minimum filters
// scheduler noise, and still reads about ±10 % between test runs on a 2-vCPU
// host, so the 5 % bound holds under -idle only; without it the bound is
// 50 %, which a monitor on the frame path's critical section would still
// exceed.
func TestTCPMonitoredOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("times 12 loopback ping-pong runs")
	}
	const attempts = 3
	bound := 1.5
	if *idleMachine {
		bound = 1.05
	}
	// testing.Benchmark runs for -test.benchtime; 2000 round trips a run
	// keep the 12 runs near a second.
	bt := flag.Lookup("test.benchtime")
	old := bt.Value.String()
	if err := bt.Value.Set("2000x"); err != nil {
		t.Fatal(err)
	}
	defer bt.Value.Set(old)
	for i := 1; ; i++ {
		var plain, monitored time.Duration
		for run := 0; run < 6; run++ {
			for _, b := range []struct {
				min *time.Duration
				f   func(*testing.B)
			}{{&plain, BenchmarkTCPPingPong8B}, {&monitored, BenchmarkTCPPingPong8BMonitored}} {
				r := testing.Benchmark(b.f)
				if r.N == 0 {
					t.Fatal("a ping-pong benchmark run failed")
				}
				if d := time.Duration(r.NsPerOp()); *b.min == 0 || d < *b.min {
					*b.min = d
				}
			}
		}
		ratio := float64(monitored) / float64(plain)
		t.Logf("attempt %d: plain %v, monitored %v per round trip (min of 6): ratio %.3f", i, plain, monitored, ratio)
		if ratio <= bound {
			return
		}
		if i == attempts {
			t.Fatalf("monitored ping-pong costs %.3f× plain, want <= %.2f (best of %d attempts)", ratio, bound, attempts)
		}
	}
}

func BenchmarkTCPAllreduce8B(b *testing.B) {
	n := b.N
	errs := tcpWorld(b, 2, 2, nil, func(r *Rank) {
		w := r.World()
		in := make([]byte, 8)
		out := make([]byte, 8)
		for i := 0; i < n; i++ {
			w.Allreduce(in, out, collective.OpSum, collective.Int64)
		}
	})
	for _, err := range errs {
		if err != nil {
			b.Fatal(err)
		}
	}
}

// TestTCPPingPongAllocs is the cross-node allocation gate (`make gates` runs
// it by name): an 8 B round trip through persistent channel endpoints
// over real TCP allocates at most twice in steady state, counted over both
// ranks and both link readers — requests come from the endpoints' pools,
// frames are encoded into the link's reused buffers, and mailbox payloads
// cycle through the per-mailbox free list.
func TestTCPPingPongAllocs(t *testing.T) {
	const warm, runs = 200, 2000
	var perRoundTrip float64
	errs := tcpWorld(t, 2, 1, nil, func(r *Rank) {
		w := r.World()
		buf := make([]byte, 8)
		if r.ID() == 0 {
			ping, pong := w.SendChannel(1, 5), w.RecvChannel(1, 6)
			roundTrip := func() {
				ping.Send(buf)
				pong.Recv(buf)
			}
			for i := 0; i < warm; i++ {
				roundTrip()
			}
			perRoundTrip = testing.AllocsPerRun(runs, roundTrip)
			return
		}
		ping, pong := w.RecvChannel(0, 5), w.SendChannel(0, 6)
		for i := 0; i < warm+1+runs; i++ { // AllocsPerRun makes one warm-up call of its own
			ping.Recv(buf)
			pong.Send(buf)
		}
	})
	tcpAllOK(t, errs)
	t.Logf("%.2f allocs per round trip", perRoundTrip)
	if perRoundTrip > 2 {
		t.Fatalf("TCP ping-pong allocates %.2f times per round trip, want <= 2", perRoundTrip)
	}
}

// TestInProcessNodesPingPongAllocs is the same gate on two in-process nodes
// (a two-node Spec without a Transport): the link layer over transport.MemNet,
// whose pipes keep their buffers and whose Deliver copies into a buffer the
// receiving rank handed back, so the steady state allocates nothing.
func TestInProcessNodesPingPongAllocs(t *testing.T) {
	const warm, runs = 200, 2000
	var perRoundTrip float64
	runMulti(t, 2, 2, 1, func(r *Rank) {
		w := r.World()
		buf := make([]byte, 8)
		if r.ID() == 0 {
			ping, pong := w.SendChannel(1, 5), w.RecvChannel(1, 6)
			roundTrip := func() {
				ping.Send(buf)
				pong.Recv(buf)
			}
			for i := 0; i < warm; i++ {
				roundTrip()
			}
			perRoundTrip = testing.AllocsPerRun(runs, roundTrip)
			return
		}
		ping, pong := w.RecvChannel(0, 5), w.SendChannel(0, 6)
		for i := 0; i < warm+1+runs; i++ {
			ping.Recv(buf)
			pong.Send(buf)
		}
	})
	if perRoundTrip != 0 {
		t.Fatalf("in-process cross-node ping-pong allocates %.2f times per round trip, want 0", perRoundTrip)
	}
}

// TestChannelPingPongAllocs is the gate on the intra-node endpoint paths,
// blocking and pooled nonblocking, eager (8 B) and rendezvous (64 KiB): 0
// allocations per round trip, with the counter cells plain (no registry) and
// atomic (one set) alike.
func TestChannelPingPongAllocs(t *testing.T) {
	const warm, runs = 200, 2000
	for _, tc := range []struct {
		name                 string
		size                 int
		nonblocking, metrics bool
	}{
		{"blocking", 8, false, false},
		{"blocking/metrics", 8, false, true},
		{"isend-irecv", 8, true, false},
		{"isend-irecv/metrics", 8, true, true},
		{"blocking/64KiB", 64 << 10, false, false},
		{"blocking/metrics/64KiB", 64 << 10, false, true},
		{"isend-irecv/64KiB", 64 << 10, true, false},
		{"isend-irecv/metrics/64KiB", 64 << 10, true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{NRanks: 2}
			if tc.metrics {
				cfg.Metrics = obs.NewMetrics()
			}
			var perRoundTrip float64
			err := Run(cfg, func(r *Rank) {
				w, buf := r.World(), make([]byte, tc.size)
				send, recv := func(ch *Channel) { ch.Send(buf) }, func(ch *Channel) { ch.Recv(buf) }
				if tc.nonblocking {
					send, recv = func(ch *Channel) { w.Wait(ch.Isend(buf)) }, func(ch *Channel) { w.Wait(ch.Irecv(buf)) }
				}
				if r.ID() == 0 {
					ping, pong := w.SendChannel(1, 5), w.RecvChannel(1, 6)
					roundTrip := func() {
						send(ping)
						recv(pong)
					}
					for i := 0; i < warm; i++ {
						roundTrip()
					}
					perRoundTrip = testing.AllocsPerRun(runs, roundTrip)
					return
				}
				ping, pong := w.RecvChannel(0, 5), w.SendChannel(0, 6)
				for i := 0; i < warm+1+runs; i++ {
					recv(ping)
					send(pong)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if perRoundTrip != 0 {
				t.Fatalf("channel ping-pong allocates %.2f times per round trip, want 0", perRoundTrip)
			}
		})
	}
}

// TestSPTDCollectiveAllocs is the same gate on the collective paths: every
// SPTD and partitioned-reducer wait is a preallocated per-thread condition,
// so a Barrier, an Allreduce on either side of the SPTD threshold, a Reduce
// (with or without an out buffer on the non-roots) and a Bcast allocate
// nothing on any rank (AllocsPerRun counts the whole process).  With a
// closure per wait an 8 B Allreduce on 4 ranks cost 10, and a 64 KiB one on
// 2 ranks 13.
func TestSPTDCollectiveAllocs(t *testing.T) {
	const warm, runs = 100, 1000
	for _, nranks := range []int{2, 4} {
		for _, tc := range []struct {
			name string
			size int
			op   func(w *Comm, in, out []byte)
		}{
			{"barrier", 0, func(w *Comm, _, _ []byte) { w.Barrier() }},
			{"allreduce-8B", 8, func(w *Comm, in, out []byte) { w.Allreduce(in, out, collective.OpSum, collective.Float64) }},
			{"allreduce-2KiB", SPTDMax, func(w *Comm, in, out []byte) { w.Allreduce(in, out, collective.OpSum, collective.Float64) }},
			{"allreduce-64KiB", 64 << 10, func(w *Comm, in, out []byte) { w.Allreduce(in, out, collective.OpSum, collective.Float64) }},
			{"reduce", 8, func(w *Comm, in, out []byte) { w.Reduce(in, out, 1, collective.OpSum, collective.Float64) }},
			{"reduce-nil-out", 8, func(w *Comm, in, _ []byte) { w.Reduce(in, nil, 1, collective.OpSum, collective.Float64) }},
			{"bcast", 8, func(w *Comm, in, _ []byte) { w.Bcast(in, 1) }},
		} {
			t.Run(fmt.Sprintf("%s/%dranks", tc.name, nranks), func(t *testing.T) {
				var perCall float64
				err := Run(Config{NRanks: nranks}, func(r *Rank) {
					w, in, out := r.World(), make([]byte, tc.size), make([]byte, tc.size)
					call := func() { tc.op(w, in, out) }
					for i := 0; i < warm; i++ {
						call()
					}
					if r.ID() == 0 {
						perCall = testing.AllocsPerRun(runs, call)
						return
					}
					for i := 0; i < 1+runs; i++ {
						call()
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				if perCall != 0 {
					t.Fatalf("%s on %d ranks allocates %.2f times per call, want 0", tc.name, nranks, perCall)
				}
			})
		}
	}
}

// TestTaskExecuteOwnerOnlyAllocs: an Execute whose owner runs every chunk
// allocates only the execution record thieves may hold on to; the straggler
// wait, and its closure, are skipped when no thief holds a chunk.
func TestTaskExecuteOwnerOnlyAllocs(t *testing.T) {
	var perCall float64
	err := Run(Config{NRanks: 1}, func(r *Rank) {
		task := r.NewTask(16, func(int64, int64, any) {})
		task.Execute(nil)
		perCall = testing.AllocsPerRun(1000, func() { task.Execute(nil) })
	})
	if err != nil {
		t.Fatal(err)
	}
	if perCall > 1 {
		t.Fatalf("an owner-only Execute allocates %.2f times, want at most 1", perCall)
	}
}

// TestTCPPutFenceAllocs is the same gate on the one-sided path: a remote
// Put + Fence costs a data frame one way and an applied-watermark frame back
// (tpApplied), and in steady state neither upcall allocates.  Counted over
// both processes; what remains is the origin's encoded rma frame and its
// completion request, the target's mailbox copy of a frame that is never
// handed back, and the fence's barrier tokens: 8 where the parent, with
// tpApplied's two LoadOrStore arguments escaping per watermark, measures 12.
func TestTCPPutFenceAllocs(t *testing.T) {
	const warm, runs = 200, 1000
	var perEpoch float64
	errs := tcpWorld(t, 2, 1, nil, func(r *Rank) {
		w := r.World()
		win := w.WinCreate(make([]byte, 64))
		data := make([]byte, 8)
		epoch := func() {
			if r.ID() == 0 {
				win.Put(data, 1, 0)
			}
			win.Fence()
		}
		for i := 0; i < warm; i++ {
			epoch()
		}
		if r.ID() == 0 {
			perEpoch = testing.AllocsPerRun(runs, epoch)
		} else {
			for i := 0; i < 1+runs; i++ {
				epoch()
			}
		}
		win.Free()
	})
	tcpAllOK(t, errs)
	t.Logf("%.2f allocs per remote Put+Fence", perEpoch)
	if perEpoch > 8 {
		t.Fatalf("remote Put+Fence allocates %.2f times per epoch, want <= 8", perEpoch)
	}
}

// TestTCPPingPongAckFree is the cross-node count gate: on a strict 8 B
// ping-pong through persistent endpoints every frame finds its rank waiting,
// the woken rank's answer carries the ack, and the links write (nearly) no
// ack frames — one socket write per message, nothing retransmitted.
//
// Nearly: a frame that beats its rank into the wait is acked at once, as it
// should be, and a woken rank kept off the CPU past the link's fallback has
// its ack written for it.  How often is the scheduler's doing: 0.4-2.8 % of
// frames on the idle 2-vCPU development VM (160 link samples; taking the
// fallback timer out does not change it), ~10 % under the race detector, up
// to 20 % beside two busy processes — against 100 % with the hand-off broken
// in either direction.  So the bound every run enforces is a quarter, which
// holds on a loaded machine, and `make gates`, which runs this test alone on
// a machine doing nothing else, passes -idle: 3 % in the best of three runs,
// which a hand-off that only mostly works does not meet.
func TestTCPPingPongAckFree(t *testing.T) {
	const rounds = 5000
	percent, attempts := int64(25), 1
	if *idleMachine {
		percent, attempts = 3, 3
	}
	for i := 1; ; i++ {
		worst := int64(0)
		for node, st := range ackFreeRun(t, rounds) {
			t.Logf("run %d node %d: %d data frames, %d frames in %d writes, %d acks written, %d handed off",
				i, node, rounds, st.FramesSent, st.Writes, st.AcksSent, st.AcksDeferred)
			if st.Retransmits != 0 {
				t.Fatalf("node %d retransmitted %d frames on loopback", node, st.Retransmits)
			}
			worst = max(worst, st.AcksSent, st.Writes-rounds)
		}
		if worst*100 <= rounds*percent {
			return
		}
		if i == attempts {
			t.Fatalf("a link wrote %d acks or extra socket writes for %d data frames, want <= %d %% (best of %d runs)", worst, rounds, percent, attempts)
		}
	}
}

// ackFreeRun does the ping-pong and returns each node's link counters for it.
func ackFreeRun(t *testing.T, rounds int) (links [2]obs.LinkState) {
	errs := tcpWorld(t, 2, 1, nil, func(r *Rank) {
		w := r.World()
		buf := make([]byte, 8)
		me := r.ID()
		w.Barrier() // link up, handshake traffic behind us
		before := r.rt.LinkStates()[0]
		if me == 0 {
			ping, pong := w.SendChannel(1, 5), w.RecvChannel(1, 6)
			for i := 0; i < rounds; i++ {
				ping.Send(buf)
				pong.Recv(buf)
			}
		} else {
			ping, pong := w.RecvChannel(0, 5), w.SendChannel(0, 6)
			for i := 0; i < rounds; i++ {
				ping.Recv(buf)
				pong.Send(buf)
			}
		}
		after := r.rt.LinkStates()[0]
		after.FramesSent -= before.FramesSent
		after.Writes -= before.Writes
		after.AcksSent -= before.AcksSent
		after.AcksDeferred -= before.AcksDeferred
		links[me] = after
	})
	tcpAllOK(t, errs)
	return links
}

// TestChaosTCPStreamCombines: a one-way burst through the runtime shares its
// socket writes, and a run's own artifacts say so — the per-peer writes
// series and the /links view carry the same count as the transport.
func TestChaosTCPStreamCombines(t *testing.T) {
	const n = 4000
	mets := []*obs.Metrics{obs.NewMetrics(), obs.NewMetrics()}
	var links []obs.LinkState
	errs := tcpWorld(t, 2, 1, func(node int, cfg *Config) { cfg.Metrics = mets[node] }, func(r *Rank) {
		w := r.World()
		buf := make([]byte, 8)
		w.Barrier() // the link is up: what follows is combined, not replayed on connect
		if r.ID() == 0 {
			data := w.SendChannel(1, 3)
			for i := 0; i < n; i++ {
				binary.LittleEndian.PutUint64(buf, uint64(i))
				data.Send(buf)
			}
			w.Recv(buf, 1, 4) // everything arrived and was checked
			links = r.rt.LinkStates()
			return
		}
		data := w.RecvChannel(0, 3)
		for i := 0; i < n; i++ {
			data.Recv(buf)
			if got := binary.LittleEndian.Uint64(buf); got != uint64(i) {
				panic(fmt.Sprintf("message %d carries %d", i, got))
			}
		}
		w.Send(buf, 0, 4)
	})
	tcpAllOK(t, errs)
	frames := sumCounter(`pure_link_frames_sent_total{peer="1"}`, mets[0])
	writes := sumCounter(`pure_link_writes_total{peer="1"}`, mets[0])
	t.Logf("node 0 -> 1: %d frames in %d writes", frames, writes)
	if writes == 0 || frames < n || 2*writes > frames {
		t.Errorf("%d frames in %d writes: the burst was not combined (or not counted)", frames, writes)
	}
	if len(links) != 1 || links[0].Writes == 0 || links[0].Writes > writes {
		t.Errorf("/links view disagrees with the series (%d writes): %+v", writes, links)
	}
}

// BenchmarkTCPStream64B is xnode-tcp's stream phase: 64 B one-way sends
// through persistent channels under a 512-message credit window, the
// receiver answering every 256th message with an 8 B credit.  On this rung
// the receiving node's link reader, not the sender, sets the pace.
func BenchmarkTCPStream64B(b *testing.B) {
	const window, every = 512, 256
	n := b.N
	errs := tcpWorld(b, 2, 1, nil, func(r *Rank) {
		w := r.World()
		msg, credit := make([]byte, 64), make([]byte, 8)
		if r.ID() == 0 {
			data, credits := w.SendChannel(1, 3), w.RecvChannel(1, 4)
			left, owed := window, n/every
			for i := 0; i < n; i++ {
				if left == 0 {
					credits.Recv(credit)
					owed--
					left += every
				}
				data.Send(msg)
				left--
			}
			for ; owed > 0; owed-- {
				credits.Recv(credit)
			}
			return
		}
		data, credits := w.RecvChannel(0, 3), w.SendChannel(0, 4)
		for i := 1; i <= n; i++ {
			data.Recv(msg)
			if i%every == 0 {
				credits.Send(credit)
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			b.Fatal(err)
		}
	}
}
