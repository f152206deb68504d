package core

import (
	"encoding/binary"
	"flag"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/collective"
	"repro/internal/obs"
	"repro/internal/ssw"
	"repro/internal/topology"
	"repro/internal/transport"
)

// In-process multi-runtime TCP tests: one Runtime per virtual node, each in
// its own goroutine with its own Config.Transport, talking over real
// localhost TCP.  These are the single-process form of a purerun launch —
// every cross-node code path (link protocol, comm ids, RMA watermarks) is
// identical; only the process boundary is missing, which internal/livechaos
// covers with real SIGKILLs.

var tcpJobSeq atomic.Uint64

// tcpWorld runs one Runtime per node over real TCP and returns Run's error
// per node.  mut (optional) adjusts each node's config before launch.
func tcpWorld(t testing.TB, nodes, perNode int, mut func(node int, cfg *Config), main func(r *Rank)) []error {
	t.Helper()
	errs, _ := tcpWorldStats(t, nodes, perNode, mut, main)
	return errs
}

// tcpWorldStats is tcpWorld returning every rank's counters too, as its own
// node harvested them.
func tcpWorldStats(t testing.TB, nodes, perNode int, mut func(node int, cfg *Config), main func(r *Rank)) ([]error, []RankStats) {
	t.Helper()
	addrs, err := transport.ReserveLoopback(nodes)
	if err != nil {
		t.Fatal(err)
	}
	job := tcpJobSeq.Add(1)
	errs := make([]error, nodes)
	stats := make([]RankStats, nodes*perNode)
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
			var st []RankStats
			st, errs[n] = RunWithStats(cfg, main)
			copy(stats[n*perNode:(n+1)*perNode], st[n*perNode:]) // block placement: node n runs these
		}(n, cfg)
	}
	wg.Wait()
	return errs, stats
}

func tcpAllOK(t *testing.T, errs []error) {
	t.Helper()
	for n, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", n, err)
		}
	}
}

// tcpCounter sums one counter series over the nodes' registries, as their
// snapshots report it.
func tcpCounter(mets []*obs.Metrics, name string) (sum int64) {
	for _, m := range mets {
		for _, c := range m.Snapshot().Counters {
			if c.Name == name {
				sum += c.Value
			}
		}
	}
	return sum
}

func TestChaosTCPPingPong(t *testing.T) {
	const rounds = 50
	errs := tcpWorld(t, 2, 1, nil, func(r *Rank) {
		w := r.World()
		buf := make([]byte, 8)
		for i := 0; i < rounds; i++ {
			if r.ID() == 0 {
				binary.LittleEndian.PutUint64(buf, uint64(i))
				w.Send(buf, 1, 7)
				got := make([]byte, 8)
				w.Recv(got, 1, 7)
				if v := binary.LittleEndian.Uint64(got); v != uint64(i*3) {
					panic(fmt.Sprintf("round %d: echoed %d", i, v))
				}
			} else {
				w.Recv(buf, 0, 7)
				binary.LittleEndian.PutUint64(buf, binary.LittleEndian.Uint64(buf)*3)
				w.Send(buf, 0, 7)
			}
		}
	})
	tcpAllOK(t, errs)
}

// TestChaosTCPLargeRendezvous sends payloads beyond SmallMsgMax so the
// cross-node path carries them in single frames (the transport does not
// split; MaxPayload is far above any test payload).
func TestChaosTCPLargeRendezvous(t *testing.T) {
	const size = 256 << 10
	errs := tcpWorld(t, 2, 1, nil, func(r *Rank) {
		w := r.World()
		if r.ID() == 0 {
			buf := make([]byte, size)
			for i := range buf {
				buf[i] = byte(i * 31)
			}
			w.Send(buf, 1, 1)
		} else {
			got := make([]byte, size)
			n := w.Recv(got, 0, 1)
			if n != size {
				panic(fmt.Sprintf("got %d bytes, want %d", n, size))
			}
			for i := range got {
				if got[i] != byte(i*31) {
					panic(fmt.Sprintf("byte %d corrupted", i))
				}
			}
		}
	})
	tcpAllOK(t, errs)
}

// TestChaosTCPAllreduceSplit exercises the leader-tree collective legs over
// TCP plus the Allgather-based Split with its deterministic hashed comm ids
// (the cross-process correctness piece: both processes must derive the same
// id without a shared counter).
func TestChaosTCPAllreduceSplit(t *testing.T) {
	const nodes, perNode = 2, 2
	errs := tcpWorld(t, nodes, perNode, nil, func(r *Rank) {
		w := r.World()
		n := nodes * perNode

		in := make([]byte, 8)
		out := make([]byte, 8)
		binary.LittleEndian.PutUint64(in, uint64(1+r.ID()))
		w.Allreduce(in, out, collective.OpSum, collective.Int64)
		want := uint64(n * (n + 1) / 2)
		if got := binary.LittleEndian.Uint64(out); got != want {
			panic(fmt.Sprintf("rank %d: allreduce %d, want %d", r.ID(), got, want))
		}

		// Split by parity: each half spans both nodes, so the sub-comms'
		// collectives still bridge over the transport.
		sub := w.Split(r.ID()%2, r.ID())
		if sub == nil || sub.Size() != n/2 {
			panic("bad split")
		}
		binary.LittleEndian.PutUint64(in, uint64(r.ID()))
		sub.Allreduce(in, out, collective.OpSum, collective.Int64)
		var wantSub uint64
		for id := r.ID() % 2; id < n; id += 2 {
			wantSub += uint64(id)
		}
		if got := binary.LittleEndian.Uint64(out); got != wantSub {
			panic(fmt.Sprintf("rank %d: sub allreduce %d, want %d", r.ID(), got, wantSub))
		}
		sub.Barrier()
	})
	tcpAllOK(t, errs)
}

// TestChaosTCPRMA drives the one-sided path across processes: Put + Fence
// (barrier form), Get (request/reply frames), Accumulate, and the PSCW
// epoch frames, with the applied watermark riding KindApplied frames.
func TestChaosTCPRMA(t *testing.T) {
	errs := tcpWorld(t, 2, 1, nil, func(r *Rank) {
		w := r.World()
		buf := make([]byte, 64)
		win := w.WinCreate(buf)
		me, peer := r.ID(), 1-r.ID()

		if win.Len(peer) != 64 {
			panic(fmt.Sprintf("rank %d: peer window len %d", me, win.Len(peer)))
		}

		// Fence epoch: everyone puts a tagged byte into the peer.
		data := []byte{byte(0xA0 | me)}
		win.Put(data, peer, me)
		win.Fence()
		if buf[peer] != byte(0xA0|peer) {
			panic(fmt.Sprintf("rank %d: window byte %#x after fence", me, buf[peer]))
		}

		// Get reads the peer's own slot back out.
		got := make([]byte, 1)
		win.Get(got, peer, me)
		if got[0] != byte(0xA0|me) {
			panic(fmt.Sprintf("rank %d: get %#x", me, got[0]))
		}

		// Accumulate into slot 8 (int64), then fence and check the sum.
		one := make([]byte, 8)
		binary.LittleEndian.PutUint64(one, uint64(me+1))
		win.Accumulate(one, peer, 8, collective.OpSum, collective.Int64)
		win.Fence()
		if got := binary.LittleEndian.Uint64(buf[8:]); got != uint64(peer+1) {
			panic(fmt.Sprintf("rank %d: accumulated %d", me, got))
		}

		// PSCW: rank 0 exposes, rank 1 puts.
		for round := 0; round < 3; round++ {
			if me == 0 {
				win.Post([]int{1})
				win.Wait()
				if buf[32] != byte(round+1) {
					panic(fmt.Sprintf("round %d: pscw byte %d", round, buf[32]))
				}
			} else {
				win.Start([]int{0})
				win.Put([]byte{byte(round + 1)}, 0, 32)
				win.Complete()
			}
		}
		win.Free()
	})
	tcpAllOK(t, errs)
}

// TestChaosTCPLossyRecovers runs ping-pong traffic over links that drop a
// quarter of first transmissions: the ack/retransmit protocol must recover
// every frame, and the recovery must be visible in the harvested metrics.
func TestChaosTCPLossyRecovers(t *testing.T) {
	if testing.Short() {
		t.Skip("lossy links need real retransmit timeouts")
	}
	mets := []*obs.Metrics{obs.NewMetrics(), obs.NewMetrics()}
	errs := tcpWorld(t, 2, 1, func(n int, cfg *Config) {
		cfg.Metrics = mets[n]
		cfg.Transport.Faults = transport.Faults{Seed: 42, DropProb: 0.25}
		cfg.Transport.RetryBackoff = 2 * time.Millisecond
		cfg.Transport.RetryBudget = 1000
	}, func(r *Rank) {
		w := r.World()
		buf := make([]byte, 8)
		for i := 0; i < 100; i++ {
			if r.ID() == 0 {
				binary.LittleEndian.PutUint64(buf, uint64(i))
				w.Send(buf, 1, 3)
				w.Recv(buf, 1, 4)
				if got := binary.LittleEndian.Uint64(buf); got != uint64(i) {
					panic(fmt.Sprintf("round %d: echoed %d", i, got))
				}
			} else {
				w.Recv(buf, 0, 3)
				w.Send(buf, 0, 4)
			}
		}
	})
	tcpAllOK(t, errs)
	if tcpCounter(mets, "pure_tp_drops_injected_total") == 0 {
		t.Fatal("fault plan injected no drops; the test exercised nothing")
	}
	if tcpCounter(mets, "pure_tp_retransmits_total") == 0 {
		t.Fatal("drops were injected but nothing was retransmitted")
	}
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
		rts[r.ID()] = r.Runtime()
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
			if got := tcpCounter(mets[n:n+1], name); got != want {
				t.Errorf("node %d: %s = %d in the snapshot, %d in Transport.Stats() after Close", n, name, got, want)
			}
		}
		if n == 0 && (final.DropsInjected == 0 || final.Retransmits == 0 || final.Unacked != 0) {
			t.Errorf("node 0's last send was not recovered by the drain: %+v", final)
		}
	}
}

// TestChaosTCPLatencyInjection delays a third of arriving frames by up to
// 2ms: ordering and correctness must be unaffected (delays stall one
// link's reader, they never reorder the stream), the Allreduce results
// must stay exact, and the injections must be visible in the metrics.
func TestChaosTCPLatencyInjection(t *testing.T) {
	if testing.Short() {
		t.Skip("injected delays add real wall time")
	}
	mets := []*obs.Metrics{obs.NewMetrics(), obs.NewMetrics()}
	errs := tcpWorld(t, 2, 2, func(n int, cfg *Config) {
		cfg.Metrics = mets[n]
		cfg.Transport.Faults = transport.Faults{Seed: 9, DelayProb: 0.33, DelayMax: 2 * time.Millisecond}
	}, func(r *Rank) {
		w := r.World()
		n := r.NRanks()
		in, out := make([]byte, 8), make([]byte, 8)
		for i := 0; i < 20; i++ {
			binary.LittleEndian.PutUint64(in, uint64(r.ID()+i))
			w.Allreduce(in, out, collective.OpSum, collective.Int64)
			want := uint64(n*i + n*(n-1)/2)
			if got := binary.LittleEndian.Uint64(out); got != want {
				panic(fmt.Sprintf("iter %d: allreduce %d, want %d", i, got, want))
			}
		}
	})
	tcpAllOK(t, errs)
	if tcpCounter(mets, "pure_tp_delays_injected_total") == 0 {
		t.Fatal("fault plan injected no delays; the test exercised nothing")
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

// TestTCPRejectsUnservedRankPair: the rank pair of an arriving frame is
// outside input.  A bare transport plays node 1 of a two-node, two-rank job
// and sends node 0 one frame whose pair node 0 does not serve; the frame must
// not become a mailbox nobody drains — the run ends at once, naming the
// sending node and the pair, where it used to buffer the frame and block
// until the watchdog called it an anonymous stall.
func TestTCPRejectsUnservedRankPair(t *testing.T) {
	for _, c := range []struct {
		name     string
		kind     transport.Kind
		src, dst int32
	}{
		{"negative destination", transport.KindData, 1, -1},
		{"destination past the last rank", transport.KindData, 1, 2},
		{"destination on the sending node", transport.KindData, 1, 1},
		{"negative source", transport.KindData, -5, 0},
		{"source past the last rank", transport.KindData, 7, 0},
		{"source on the receiving node", transport.KindData, 0, 0},
		{"applied watermark for a foreign rank", transport.KindApplied, 1, 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			addrs, err := transport.ReserveLoopback(2)
			if err != nil {
				t.Fatal(err)
			}
			job := tcpJobSeq.Add(1)
			peer, err := transport.New(transport.Config{Node: 1, Addrs: addrs, Job: job}, nil, 2, transport.Handlers{})
			if err != nil {
				t.Fatal(err)
			}
			if err := peer.Start(); err != nil {
				t.Fatal(err)
			}
			defer peer.Close()
			f := transport.Frame{Kind: c.kind, SrcRank: c.src, DstRank: c.dst, Tag: 3, Payload: make([]byte, 8)}
			if err := peer.Send(0, &f); err != nil { // buffered until node 0 connects
				t.Fatal(err)
			}
			err = Run(Config{
				NRanks:      2,
				Spec:        topology.Spec{Nodes: 2, SocketsPerNode: 1, CoresPerSocket: 1, ThreadsPerCore: 1},
				Transport:   &transport.Config{Node: 0, Addrs: addrs, Job: job},
				HangTimeout: 20 * time.Second,
			}, func(r *Rank) {
				r.World().Recv(make([]byte, 8), 1, 3) // nothing valid ever arrives
			})
			re := asRunError(t, err)
			if re.Cause != CauseNodeDead || len(re.DeadNodes) != 1 || re.DeadNodes[0] != 1 {
				t.Fatalf("cause %q, dead nodes %v; want %q naming node 1\n%v", re.Cause, re.DeadNodes, CauseNodeDead, re)
			}
			if want := fmt.Sprintf("rank pair %d -> %d", c.src, c.dst); !strings.Contains(err.Error(), want) {
				t.Fatalf("error does not name the %s:\n%v", want, err)
			}
		})
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
// BenchmarkTCPPingPong8B is the link-telemetry overhead, which must stay
// under 5% — the counters are lock-free atomics off the syscall path, and
// the registry reads them only when a snapshot is taken.
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

// TestTCPPingPongAllocs is the cross-node allocation gate (scripts/verify.sh
// runs it by name): an 8 B round trip through persistent channel endpoints
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

// TestModeledWirePingPongAllocs is the same gate on the in-process modeled
// wire (Config.Net, two virtual nodes in one runtime): remoteSend copies into
// a buffer the receiving rank handed back, as the transport's Deliver upcall
// does, so the steady state allocates nothing — where the parent made one
// copy per message and never recycled it.
func TestModeledWirePingPongAllocs(t *testing.T) {
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
		t.Fatalf("modeled-wire ping-pong allocates %.2f times per round trip, want 0", perRoundTrip)
	}
}

// TestChannelPingPongAllocs is the gate on the intra-node endpoint paths,
// blocking and pooled nonblocking: 0 allocations per round trip, with the
// counter cells plain (no registry) and atomic (one set) alike.
func TestChannelPingPongAllocs(t *testing.T) {
	const warm, runs = 200, 2000
	for _, tc := range []struct {
		name                 string
		nonblocking, metrics bool
	}{
		{"blocking", false, false},
		{"blocking/metrics", false, true},
		{"isend-irecv", true, false},
		{"isend-irecv/metrics", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{NRanks: 2}
			if tc.metrics {
				cfg.Metrics = obs.NewMetrics()
			}
			var perRoundTrip float64
			err := Run(cfg, func(r *Rank) {
				w, buf := r.World(), make([]byte, 8)
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

// TestSPTDCollectiveAllocs is the same gate on the small-collective path:
// every SPTD wait is a preallocated per-thread condition, so a Barrier, an
// Allreduce up to the SPTD threshold, a Reduce and a Bcast allocate nothing
// on any rank (AllocsPerRun counts the whole process).  With a closure per
// wait an 8 B Allreduce on 4 ranks cost 10.
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
			{"allreduce-2KiB", DefaultSPTDMax, func(w *Comm, in, out []byte) { w.Allreduce(in, out, collective.OpSum, collective.Float64) }},
			{"reduce", 8, func(w *Comm, in, out []byte) { w.Reduce(in, out, 1, collective.OpSum, collective.Float64) }},
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

// smallWindow makes the links' resend window two frames deep, so a burst
// outruns the acks at once and every other send goes through tpSend's
// full-window wait — and, with a spin budget of one probe, on into its yield
// boundaries and parks.
func smallWindow(_ int, cfg *Config) { cfg.Transport.MaxUnacked, cfg.SpinBudget = 2, 1 }

// TestTCPFullWindowSendsOnce: a send that found the resend window full goes
// out exactly once when there is room again.  A one-way burst through a
// two-frame window must arrive complete, in order and without duplicates, and
// must actually have waited for room.
func TestTCPFullWindowSendsOnce(t *testing.T) {
	const msgs = 20000
	var busy int64
	errs := tcpWorld(t, 2, 1, smallWindow, func(r *Rank) {
		w := r.World()
		buf := make([]byte, 8)
		if r.ID() == 0 {
			for i := uint64(0); i < msgs; i++ {
				binary.LittleEndian.PutUint64(buf, i)
				w.Send(buf, 1, 4)
			}
			w.Recv(buf, 1, 5) // the receiver has checked them all
			busy = r.Runtime().LinkStates()[0].SendBusy
			return
		}
		for i := uint64(0); i < msgs; i++ {
			w.Recv(buf, 0, 4)
			if got := binary.LittleEndian.Uint64(buf); got != i {
				panic(fmt.Sprintf("message %d carries sequence %d", i, got))
			}
		}
		w.Send(buf, 0, 5)
	})
	tcpAllOK(t, errs)
	t.Logf("%d of %d sends waited for window room", busy, msgs)
	if busy == 0 {
		t.Fatal("no send found the window full: the wait was not exercised")
	}
}

// TestTCPFullWindowRMA: the same window under one-sided traffic.  Each epoch
// one rank puts every slot twice (the second value must win) while the other
// reads the putter's constants, so a rank serves gets while its own frames
// wait for room; after the fence the puts are in place and every get reply
// matched its get.  (A frame sent twice shows up here as a reply that matches
// no get.  That the wait for room lets nothing else of the rank's onto the
// flow — the frame already holds its sequence number — is ssw's
// TestWaitQuietRunsNoHooks; the reordering itself was not reproduced.)
func TestTCPFullWindowRMA(t *testing.T) {
	const epochs, slots = 200, 40
	errs := tcpWorld(t, 2, 1, smallWindow, func(r *Rank) {
		w := r.World()
		me, peer := r.ID(), 1-r.ID()
		buf := make([]byte, 8*2*slots) // [0, slots) are put into, [slots, 2*slots) are constants
		for i := 0; i < slots; i++ {
			binary.LittleEndian.PutUint64(buf[8*(slots+i):], uint64(me<<8|i))
		}
		win := w.WinCreate(buf)
		win.Fence()
		word := make([]byte, 8)
		got := make([]byte, 8*slots)
		reqs := make([]*Request, slots)
		for e := 1; e <= epochs; e++ {
			if e%2 == me {
				for i := 0; i < slots; i++ {
					for _, v := range []int{-1, e<<8 | i} {
						binary.LittleEndian.PutUint64(word, uint64(v))
						win.Put(word, peer, 8*i)
					}
				}
				win.Fence()
				continue
			}
			for i := range reqs {
				reqs[i] = win.Rget(got[8*i:8*i+8], peer, 8*(slots+i))
			}
			w.Waitall(reqs...)
			win.Fence()
			for i := 0; i < slots; i++ {
				if v, want := int(binary.LittleEndian.Uint64(got[8*i:])), peer<<8|i; v != want {
					panic(fmt.Sprintf("rank %d epoch %d: get of constant %d returned %#x, want %#x", me, e, i, v, want))
				}
				if v, want := int(binary.LittleEndian.Uint64(buf[8*i:])), e<<8|i; v != want {
					panic(fmt.Sprintf("rank %d epoch %d: slot %d holds %#x after the fence, want %#x", me, e, i, v, want))
				}
			}
		}
		win.Free()
	})
	tcpAllOK(t, errs)
}

// TestPoisonUnparksCrossNodeRecv: a rank parked in a cross-node receive is
// ended by the poison itself, not by its park timer.  The timer is set to
// never fire, so the counts say who ended the park: every rank parked, every
// park was ended by a wake-up, none by a timeout — rank 0 by its node's
// abort, the ranks of node 1 by the abort Bye's upcall.
func TestPoisonUnparksCrossNodeRecv(t *testing.T) {
	lo, hi := ssw.ParkMin, ssw.ParkMax
	ssw.ParkMin, ssw.ParkMax = 24*time.Hour, 24*time.Hour
	defer func() { ssw.ParkMin, ssw.ParkMax = lo, hi }()
	errs, stats := tcpWorldStats(t, 2, 2, nil, func(r *Rank) {
		w := r.World()
		w.Barrier() // links up: the abort will reach node 1
		if r.ID() == 1 {
			time.Sleep(50 * time.Millisecond) // the others park meanwhile (checked below, not assumed)
			r.Abort(fmt.Errorf("deliberate"))
		}
		buf := make([]byte, 8)
		w.Recv(buf, (r.ID()+2)%4, 3) // from the other node; nobody ever sends
	})
	for node, err := range errs {
		re, ok := err.(*RunError)
		if !ok {
			t.Fatalf("node %d returned %v, want a *RunError", node, err)
		}
		if want := [2]string{CauseAbort, CauseNodeDead}[node]; re.Cause != want {
			t.Errorf("node %d: cause %q, want %q", node, re.Cause, want)
		}
	}
	for _, rank := range []int{0, 2, 3} {
		st := stats[rank]
		t.Logf("rank %d: %d parks, %d woken, %d timed out", rank, st.Parks, st.ParkWakes, st.ParkTimeouts)
		if st.ParkTimeouts != 0 {
			t.Errorf("rank %d: %d park timeouts with a timer that never fires", rank, st.ParkTimeouts)
		}
		if st.Parks == 0 || st.ParkWakes != st.Parks {
			t.Errorf("rank %d: %d parks, %d ended by a wake-up; want every park, and at least the last one", rank, st.Parks, st.ParkWakes)
		}
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
// holds on a loaded machine, and scripts/verify.sh, which runs this test alone
// on a machine doing nothing else, passes -ackfree.tight: 3 % in the best of
// three runs, which a hand-off that only mostly works does not meet.
var ackFreeTight = flag.Bool("ackfree.tight", false, "TestTCPPingPongAckFree: enforce the idle-machine bound (3 %, best of 3 runs)")

func TestTCPPingPongAckFree(t *testing.T) {
	const rounds = 5000
	percent, attempts := int64(25), 1
	if *ackFreeTight {
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
		before := r.Runtime().LinkStates()[0]
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
		after := r.Runtime().LinkStates()[0]
		after.FramesSent -= before.FramesSent
		after.Writes -= before.Writes
		after.AcksSent -= before.AcksSent
		after.AcksDeferred -= before.AcksDeferred
		links[me] = after
	})
	tcpAllOK(t, errs)
	return links
}

// TestChaosTCPSharedLinkRoundTrips: two ranks of one node round-tripping
// over the same link at once.  Whichever sends second finds the link busy
// and its frame is staged behind the other's; it must go out when the rank
// blocks for its answer (or, at the latest, on the other frame's ack) — never
// wait for the transport's 10 ms tick.
func TestChaosTCPSharedLinkRoundTrips(t *testing.T) {
	const rounds = 300
	var median [2]time.Duration
	errs := tcpWorld(t, 2, 2, nil, func(r *Rank) {
		w := r.World()
		buf := make([]byte, 8)
		me := r.ID()
		if me >= 2 { // node 1 echoes: rank 2 to rank 0, rank 3 to rank 1
			for i := 0; i < rounds; i++ {
				w.Recv(buf, me-2, 9)
				w.Send(buf, me-2, 9)
			}
			return
		}
		lat := make([]time.Duration, rounds)
		for i := range lat {
			t0 := time.Now()
			w.Send(buf, me+2, 9)
			w.Recv(buf, me+2, 9)
			lat[i] = time.Since(t0)
		}
		sort.Slice(lat, func(a, b int) bool { return lat[a] < lat[b] })
		median[me] = lat[rounds/2]
	})
	tcpAllOK(t, errs)
	for rank, m := range median {
		t.Logf("rank %d: median round trip %v", rank, m)
		if m > 2500*time.Microsecond {
			t.Errorf("rank %d: median round trip %v: frames are waiting for the 10 ms tick", rank, m)
		}
	}
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
			links = r.Runtime().LinkStates()
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
	frames := tcpCounter(mets[:1], `pure_link_frames_sent_total{peer="1"}`)
	writes := tcpCounter(mets[:1], `pure_link_writes_total{peer="1"}`)
	t.Logf("node 0 -> 1: %d frames in %d writes", frames, writes)
	if writes == 0 || frames < n || 2*writes > frames {
		t.Errorf("%d frames in %d writes: the burst was not combined (or not counted)", frames, writes)
	}
	if len(links) != 1 || links[0].Writes == 0 || links[0].Writes > writes {
		t.Errorf("/links view disagrees with the series (%d writes): %+v", writes, links)
	}
}
