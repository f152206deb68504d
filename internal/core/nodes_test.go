package core

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/collective"
	"repro/internal/obs"
	"repro/internal/ssw"
	"repro/internal/topology"
	"repro/internal/transport"
)

// In-process nodes are the multi-node test harness: one runtime per node,
// joined by the link layer over transport.MemNet, with Config.Transport
// (listing no Addrs) carrying the links' fault plan and tuning.  Every
// cross-node code path — link protocol, comm ids, RMA watermarks — is the one
// a multi-process job runs; tcp_test.go keeps what needs a socket.  The
// tests that moved here from loopback TCP still carry TCP in their names
// (ROADMAP item 9 has the rename); `make chaos-net` names tcp_test.go's four
// socket-subject chaos tests, so it does not select these.

// nodesConfig places perNode ranks on each of nodes in-process nodes, with a
// watchdog that diagnoses instead of hanging if the protocol breaks.
func nodesConfig(nodes, perNode int) Config {
	return Config{
		NRanks:      nodes * perNode,
		Spec:        topology.Spec{Nodes: nodes, SocketsPerNode: 1, CoresPerSocket: perNode, ThreadsPerCore: 1},
		HangTimeout: 20 * time.Second,
	}
}

// The in-process runner's merged result, on 2 nodes x 2 ranks: each node's
// runtime returns its own error, and Run returns one *RunError for the job.

func twoByTwo(extra Config) Config {
	extra.NRanks = 4
	extra.Spec = topology.Spec{Nodes: 2, SocketsPerNode: 1, CoresPerSocket: 2, ThreadsPerCore: 1}
	return extra
}

// Rank 3 panics while the others wait in an Allreduce: node 1 aborts with the
// panic, node 0 hears of it as node 1's death, and the job's error is the
// panic's, with every survivor of both nodes listed and no node dead.
func TestInProcessNodesPanicMergesOneRunError(t *testing.T) {
	err := Run(twoByTwo(Config{}), func(r *Rank) {
		if r.ID() == 3 {
			panic("boom")
		}
		out := make([]byte, 8)
		r.World().Allreduce(f64b(1), out, collective.OpSum, collective.Float64)
	})
	re := asRunError(t, err)
	if re.Cause != CausePanic {
		t.Fatalf("cause = %q, want %q (err: %v)", re.Cause, CausePanic, err)
	}
	if len(re.Failures) != 1 || re.Failures[0].Rank != 3 {
		t.Fatalf("failures = %+v, want rank 3 only", re.Failures)
	}
	var blocked []int
	for _, b := range re.Blocked {
		blocked = append(blocked, b.Rank)
	}
	if !reflect.DeepEqual(blocked, []int{0, 1, 2}) {
		t.Fatalf("blocked = %v, want ranks 0-2 from both nodes (err: %v)", blocked, err)
	}
	if len(re.DeadNodes) != 0 {
		t.Fatalf("dead nodes = %v, want none: node 1 aborted, it did not die", re.DeadNodes)
	}
}

// A receive ring 0<-1<-2<-3<-0 crosses both nodes twice: each node's
// watchdog sees only its own ranks stall, and the merge finds the cycle.
func TestInProcessNodesCrossNodeDeadlockNamesCycle(t *testing.T) {
	start := time.Now()
	err := Run(twoByTwo(Config{HangTimeout: 300 * time.Millisecond}), func(r *Rank) {
		r.World().Recv(make([]byte, 8), (r.ID()+1)%4, 7)
	})
	re := asRunError(t, err)
	if re.Cause != CauseDeadlock {
		t.Fatalf("cause = %q, want %q (err: %v)", re.Cause, CauseDeadlock, err)
	}
	if got := fmt.Sprint(re.Cycle); got != "[0 1 2 3]" {
		t.Fatalf("cycle = %s, want [0 1 2 3] (err: %v)", got, err)
	}
	if len(re.Blocked) != 4 {
		t.Fatalf("blocked = %+v, want all 4 ranks", re.Blocked)
	}
	if took := time.Since(start); took > 10*time.Second {
		t.Fatalf("deadlock detection took %v", took)
	}
}

// A node the placement leaves empty still runs, so the others' links to it
// come up, and hosts nothing.
func TestInProcessNodesWithAnEmptyNode(t *testing.T) {
	spec := topology.Spec{Nodes: 3, SocketsPerNode: 1, CoresPerSocket: 2, ThreadsPerCore: 1}
	err := Run(Config{NRanks: 4, Spec: spec}, func(r *Rank) {
		out := make([]byte, 8)
		r.World().Allreduce(f64b(1), out, collective.OpSum, collective.Float64)
		if got := bToF64(out)[0]; got != 4 {
			t.Errorf("rank %d on node %d: allreduce = %v, want 4", r.ID(), r.Node(), got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestChaosTCPPingPong(t *testing.T) {
	const rounds = 50
	err := Run(nodesConfig(2, 1), func(r *Rank) {
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
	if err != nil {
		t.Fatal(err)
	}
}

// TestChaosTCPLargeRendezvous sends payloads beyond SmallMsgMax so the
// cross-node path carries them in single frames (the transport does not
// split; MaxPayload is far above any test payload).
func TestChaosTCPLargeRendezvous(t *testing.T) {
	const size = 256 << 10
	err := Run(nodesConfig(2, 1), func(r *Rank) {
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
	if err != nil {
		t.Fatal(err)
	}
}

// TestChaosTCPAllreduceSplit exercises the leader-tree collective legs
// across nodes plus the Allgather-based Split with its deterministic hashed
// comm ids (the cross-process correctness piece: every node must derive the
// same id without a shared counter).
func TestChaosTCPAllreduceSplit(t *testing.T) {
	const nodes, perNode = 2, 2
	err := Run(nodesConfig(nodes, perNode), func(r *Rank) {
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
	if err != nil {
		t.Fatal(err)
	}
}

// TestChaosTCPRMA drives the one-sided path across nodes: Put + Fence
// (barrier form), Get (request/reply frames), Accumulate, and the PSCW
// epoch frames, with the applied watermark riding KindApplied frames.
func TestChaosTCPRMA(t *testing.T) {
	err := Run(nodesConfig(2, 1), func(r *Rank) {
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
	if err != nil {
		t.Fatal(err)
	}
}

// TestChaosTCPLossyRecovers runs ping-pong traffic over links where a
// quarter of first transmissions reset the connection: redial and replay
// must recover every frame, and the recovery must be visible in the
// harvested metrics.
func TestChaosTCPLossyRecovers(t *testing.T) {
	if testing.Short() {
		t.Skip("lossy links reconnect for real")
	}
	cfg := nodesConfig(2, 1)
	cfg.Metrics = obs.NewMetrics()
	cfg.Transport = &transport.Config{Faults: transport.Faults{Seed: 42, ResetProb: 0.25}}
	err := Run(cfg, func(r *Rank) {
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
	if err != nil {
		t.Fatal(err)
	}
	if sumCounter("pure_tp_resets_injected_total", cfg.Metrics) == 0 {
		t.Fatal("fault plan injected no resets; the test exercised nothing")
	}
	if sumCounter("pure_tp_retransmits_total", cfg.Metrics) == 0 {
		t.Fatal("resets were injected but no reconnect replayed anything")
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
	cfg := nodesConfig(2, 2)
	cfg.Metrics = obs.NewMetrics()
	cfg.Transport = &transport.Config{Faults: transport.Faults{Seed: 9, DelayProb: 0.33, DelayMax: 2 * time.Millisecond}}
	err := Run(cfg, func(r *Rank) {
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
	if err != nil {
		t.Fatal(err)
	}
	if sumCounter("pure_tp_delays_injected_total", cfg.Metrics) == 0 {
		t.Fatal("fault plan injected no delays; the test exercised nothing")
	}
}

// TestChaosTCPSharedLinkRoundTrips: two ranks of one node round-tripping
// over the same link at once.  Whichever sends second finds the link busy
// and its frame is staged behind the other's; it must go out when the rank
// blocks for its answer (or, at the latest, on the other frame's ack) — never
// wait for the transport's 10 ms tick.
func TestChaosTCPSharedLinkRoundTrips(t *testing.T) {
	const rounds = 300
	var median [2]time.Duration
	err := Run(nodesConfig(2, 2), func(r *Rank) {
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
	if err != nil {
		t.Fatal(err)
	}
	for rank, m := range median {
		t.Logf("rank %d: median round trip %v", rank, m)
		if m > 2500*time.Microsecond {
			t.Errorf("rank %d: median round trip %v: frames are waiting for the 10 ms tick", rank, m)
		}
	}
}

// smallWindow makes the links' resend window two frames deep, so a burst
// outruns the acks at once and every other send goes through tpSend's
// full-window wait — and, with a spin budget of one probe, on into its yield
// boundaries and parks.
func smallWindow() Config {
	cfg := nodesConfig(2, 1)
	cfg.Transport, cfg.spinBudget = &transport.Config{MaxUnacked: 2}, 1
	return cfg
}

// TestTCPFullWindowSendsOnce: a send that found the resend window full goes
// out exactly once when there is room again.  A one-way burst through a
// two-frame window must arrive complete, in order and without duplicates, and
// must actually have waited for room.
func TestTCPFullWindowSendsOnce(t *testing.T) {
	const msgs = 20000
	var busy int64
	err := Run(smallWindow(), func(r *Rank) {
		w := r.World()
		buf := make([]byte, 8)
		if r.ID() == 0 {
			for i := uint64(0); i < msgs; i++ {
				binary.LittleEndian.PutUint64(buf, i)
				w.Send(buf, 1, 4)
			}
			w.Recv(buf, 1, 5) // the receiver has checked them all
			busy = r.rt.LinkStates()[0].SendBusy
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
	if err != nil {
		t.Fatal(err)
	}
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
	err := Run(smallWindow(), func(r *Rank) {
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
	if err != nil {
		t.Fatal(err)
	}
}

// TestSharedMemoryWaitsNeverPark keeps the wait table's shared-memory half:
// a wait that another rank's store completes spins, because a park costs
// more than the whole wait.  A single-node run goes through every such site
// — eager and rendezvous stalls, the intra-node request kinds, Execute's
// straggler wait, Fence, PSCW, the collectives, NotifyWait, the mailbox's
// Recv, Select and Send, WaitFor — each held open by a peer that arrives a
// millisecond late, long past the yield round after which a parking wait
// parks, and no rank parks once.  The remote half, waits that park and are
// woken, is TestPoisonUnparksCrossNodeRecv's.
func TestSharedMemoryWaitsNeverPark(t *testing.T) {
	setProcs(t, 1) // the owner runs chunk 0 before rank 1 can steal it
	const late = time.Millisecond
	var stats [2]RankStats
	var entered atomic.Int32
	var flag atomic.Bool
	err := Run(Config{NRanks: 2}, func(r *Rank) {
		w, me := r.World(), r.ID()
		// step runs wait on rank 1 and, a millisecond later, complete on rank 0.
		step := func(wait, complete func()) {
			if me == 1 {
				wait()
			} else {
				time.Sleep(late)
				complete()
			}
		}
		buf, big := make([]byte, 8), make([]byte, 16<<10)
		send := func(b []byte) func() { return func() { w.Send(b, 1-me, 0) } }
		recv := func(b []byte) func() { return func() { w.Recv(b, 1-me, 0) } }
		step(recv(buf), send(buf)) // eager receive stall
		step(recv(big), send(big)) // rendezvous receive
		step(send(big), recv(big)) // rendezvous send
		step(func() { w.Wait(w.Irecv(buf, 0, 0)) }, send(buf))
		ep := w.SendChannel(1-me, 1)
		if me == 0 {
			ep = w.RecvChannel(1, 1)
		}
		step(func() {
			for i := 0; i <= DefaultPBQSlots; i++ {
				ep.Send(buf) // the last one stalls on a full queue
			}
		}, func() {
			for i := 0; i <= DefaultPBQSlots; i++ {
				ep.Recv(buf)
			}
		})
		collectives := []func(){
			w.Barrier,
			func() { w.Allreduce(buf, make([]byte, 8), collective.OpSum, collective.Int64) },
			func() { w.Allreduce(big, make([]byte, len(big)), collective.OpSum, collective.Int64) },
			func() { w.Reduce(buf, make([]byte, 8), 1, collective.OpSum, collective.Int64) },
			func() { w.Bcast(buf, 0) },
		}
		for _, c := range collectives {
			step(c, c)
		}

		// Execute's straggler wait: rank 0 owns the task, rank 1 steals
		// chunk 1 while it waits for a message and sleeps in it, so the owner
		// waits for it.
		task := r.NewTask(2, func(int64, int64, any) {
			if entered.Add(1) == 1 {
				for entered.Load() < 2 {
					runtime.Gosched()
				}
				return
			}
			time.Sleep(late)
		})
		if me == 0 {
			if st := task.Execute(nil); st.StolenChunks != 1 {
				panic(fmt.Sprintf("task stats %+v: want chunk 1 stolen", st))
			}
			w.Send(buf, 1, 2)
		} else {
			w.Recv(buf, 0, 2)
		}

		win := w.WinCreate(make([]byte, 8))
		step(win.Fence, win.Fence)
		if me == 0 { // PSCW: rank 1's Start waits for the Post, rank 0's Wait for the Complete
			time.Sleep(late)
			win.Post([]int{1})
			win.Wait()
		} else {
			win.Start([]int{0})
			time.Sleep(late)
			win.Complete()
		}
		step(func() { win.NotifyWait(0, 1) }, func() { win.Notify(1, 0) })
		win.Free()

		shm := w.ShmemCreate(4096, 0)
		mb := shm.NewMailbox(1, 2, 8)
		step(func() { mb.Recv(buf) }, func() { mb.Send(buf) })
		step(func() { shm.Select(mb); mb.Recv(buf) }, func() { mb.Send(buf) })
		// The mailbox holds two messages: rank 0's third Send waits for room.
		if me == 0 {
			for i := 0; i < 3; i++ {
				mb.Send(buf)
			}
		} else {
			time.Sleep(late)
			for i := 0; i < 3; i++ {
				mb.Recv(buf)
			}
		}
		shm.Barrier()
		shm.FreeHeap()

		if me == 0 {
			w.Send(buf, 1, 3)
			time.Sleep(late)
			flag.Store(true)
			w.Recv(buf, 1, 3)
		} else {
			w.Recv(buf, 0, 3)
			r.WaitFor(flag.Load)
			w.Send(buf, 0, 3)
		}
		stats[me] = r.Stats()
	})
	if err != nil {
		t.Fatal(err)
	}
	for rank, st := range stats {
		if st.Parks != 0 {
			t.Errorf("rank %d parked %d times in shared-memory waits, want never", rank, st.Parks)
		}
	}
	if stats[1].PBQStallWaits == 0 {
		t.Error("rank 1 never stalled on a full queue: the send-stall site was not reached")
	}
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
	cfg := nodesConfig(2, 2)
	rcfg, err := cfg.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	// Each node's own error and counters, not the job's merged ones.
	rts, errs := runEachNode(rcfg, func(r *Rank) {
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
		st := rts[rank/2].stats[rank].RankStats // block placement: node rank/2 ran it
		t.Logf("rank %d: %d parks, %d woken, %d timed out", rank, st.Parks, st.ParkWakes, st.ParkTimeouts)
		if st.ParkTimeouts != 0 {
			t.Errorf("rank %d: %d park timeouts with a timer that never fires", rank, st.ParkTimeouts)
		}
		if st.Parks == 0 || st.ParkWakes != st.Parks {
			t.Errorf("rank %d: %d parks, %d ended by a wake-up; want every park, and at least the last one", rank, st.Parks, st.ParkWakes)
		}
	}
}

// TestTCPRejectsUnservedRankPair: the rank pair of an arriving frame is
// outside input.  A bare transport plays node 1 of a two-node, two-rank job
// (on the in-memory network node 0 runs on) and sends node 0 one frame whose
// pair node 0 does not serve; the frame must
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
			mem, addrs := transport.NewMemNet(), []string{"node:0", "node:1"}
			peer, err := transport.New(transport.Config{Node: 1, Addrs: addrs}, mem.Backend(), 2, transport.Handlers{})
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
			cfg := nodesConfig(2, 1)
			cfg.Transport = &transport.Config{Node: 0, Addrs: addrs}
			rcfg, err := cfg.withDefaults()
			if err != nil {
				t.Fatal(err)
			}
			_, err = runInternal(rcfg, mem.Backend(), func(r *Rank) {
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
