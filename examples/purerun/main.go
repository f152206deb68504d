// Command purerun-worker is the example worker for the purerun launcher: a
// small SPMD program that runs iterated Allreduces (with a ping-pong leg
// between neighbouring ranks) and verifies every result.  The same binary
// works standalone — with no PURE_ADDRS in the environment it runs all
// ranks in one process — or as one node of a multi-process job:
//
//	go build -o /tmp/worker ./examples/purerun
//	go run ./cmd/purerun -n 2 -ranks 4 /tmp/worker
//
// Environment knobs (beyond the launcher's PURE_NODE/PURE_ADDRS/PURE_JOB,
// and PURE_MONITOR, which purerun -monitor sets to this node's live-monitor
// listen address):
//
//	PURE_NRANKS    total ranks (default 4; must divide evenly over nodes)
//	PURE_ITERS     Allreduce iterations (default 50)
//	PURE_HB_MS     transport heartbeat interval in ms (chaos tuning)
//	PURE_DEAD_MS   transport peer-death silence threshold in ms
//	PURE_HANG_MS   watchdog hang timeout in ms (default 30000)
//	PURE_RESET     transport fault plan: per-frame connection-reset probability in [0,1]
//	PURE_TRACE_BIN write this node's binary trace dump here after the run; a
//	               "%d" in the path becomes the node id (else multi-node runs
//	               append ".node<id>").  Feed the per-node dumps to
//	               `puretrace merge` for the cluster-wide timeline.
//
// Exit codes: 0 success, 3 a peer node died (the structured *RunError named
// it), 1 anything else.  The node-death path prints one machine-readable
// line, "NODEDEAD dead=<nodes>", which the live chaos suite asserts on.
package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/pure"
)

func envInt(name string, def int) int {
	if s := os.Getenv(name); s != "" {
		if v, err := strconv.Atoi(s); err == nil {
			return v
		}
		fmt.Fprintf(os.Stderr, "worker: bad %s=%q\n", name, s)
		os.Exit(1)
	}
	return def
}

func main() {
	tcfg, err := pure.TransportFromEnv()
	if err != nil {
		fmt.Fprintln(os.Stderr, "worker:", err)
		os.Exit(1)
	}
	nranks := envInt("PURE_NRANKS", 4)
	iters := envInt("PURE_ITERS", 50)
	nodes := 1
	if tcfg != nil {
		nodes = len(tcfg.Addrs)
		if ms := envInt("PURE_HB_MS", 0); ms > 0 {
			tcfg.HeartbeatEvery = time.Duration(ms) * time.Millisecond
		}
		if ms := envInt("PURE_DEAD_MS", 0); ms > 0 {
			tcfg.PeerDeadAfter = time.Duration(ms) * time.Millisecond
		}
		if s := os.Getenv("PURE_RESET"); s != "" {
			p, err := strconv.ParseFloat(s, 64)
			if err != nil {
				fmt.Fprintf(os.Stderr, "worker: bad PURE_RESET=%q\n", s)
				os.Exit(1)
			}
			tcfg.Faults.Seed, tcfg.Faults.ResetProb = 7, p
		}
	}
	if nranks%nodes != 0 {
		fmt.Fprintf(os.Stderr, "worker: PURE_NRANKS=%d does not divide over %d nodes\n", nranks, nodes)
		os.Exit(1)
	}
	perNode := nranks / nodes

	cfg := pure.Config{
		NRanks:      nranks,
		Spec:        pure.Spec{Nodes: nodes, SocketsPerNode: 1, CoresPerSocket: perNode, ThreadsPerCore: 1},
		Transport:   tcfg,
		HangTimeout: time.Duration(envInt("PURE_HANG_MS", 30000)) * time.Millisecond,
		MonitorAddr: os.Getenv("PURE_MONITOR"),
	}
	traceBin := os.Getenv("PURE_TRACE_BIN")
	if traceBin != "" {
		cfg.Trace = pure.NewTrace(nranks, 0)
		if strings.Contains(traceBin, "%d") {
			traceBin = fmt.Sprintf(traceBin, envInt("PURE_NODE", 0))
		} else if nodes > 1 {
			traceBin = fmt.Sprintf("%s.node%d", traceBin, envInt("PURE_NODE", 0))
		}
	}
	rep, err := pure.RunWithReport(cfg, func(r *pure.Rank) {
		w := r.World()
		me, n := r.ID(), r.NRanks()
		in, out := make([]byte, 8), make([]byte, 8)
		buf := make([]byte, 8)
		for i := 0; i < iters; i++ {
			binary.LittleEndian.PutUint64(in, uint64(me+i))
			w.Allreduce(in, out, pure.Sum, pure.Int64)
			want := uint64(n*i + n*(n-1)/2)
			if got := binary.LittleEndian.Uint64(out); got != want {
				panic(fmt.Sprintf("iter %d: allreduce %d, want %d", i, got, want))
			}
			// One ping-pong leg between even/odd neighbours per iteration.
			if me%2 == 0 && me+1 < n {
				w.Send(in, me+1, 1)
				w.Recv(buf, me+1, 2)
			} else if me%2 == 1 {
				w.Recv(buf, me-1, 1)
				w.Send(buf, me-1, 2)
			}
			if me == 0 && i == 0 {
				fmt.Println("LOOP") // first iteration done: links are up
			}
		}
		if me == 0 {
			fmt.Printf("OK ranks=%d nodes=%d iters=%d\n", n, nodes, iters)
		}
	})
	if err != nil {
		var re *pure.RunError
		if errors.As(err, &re) && re.Cause == pure.CauseNodeDead {
			fmt.Printf("NODEDEAD dead=%v\n", re.DeadNodes)
			fmt.Fprintln(os.Stderr, "worker:", err)
			os.Exit(3)
		}
		fmt.Fprintln(os.Stderr, "worker:", err)
		os.Exit(1)
	}
	if traceBin != "" {
		f, err := os.Create(traceBin)
		if err == nil {
			err = rep.WriteTraceBin(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "worker: writing trace %s: %v\n", traceBin, err)
			os.Exit(1)
		}
		fmt.Printf("TRACE %s\n", traceBin)
	}
}
