package livechaos

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/pure"
)

// The test binary doubles as the worker: when workerEnv is set, TestMain
// runs one node of an SPMD job instead of the tests.  This keeps the suite
// hermetic — no `go build` at test time, no dependence on another binary's
// location — while still crossing a real process boundary.
const workerEnv = "PURE_LIVECHAOS_WORKER"

func TestMain(m *testing.M) {
	if os.Getenv(workerEnv) != "" {
		workerMain()
		return // workerMain exits
	}
	os.Exit(m.Run())
}

func envInt(name string, def int) int {
	if s := os.Getenv(name); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil {
			fmt.Fprintf(os.Stderr, "worker: bad %s=%q\n", name, s)
			os.Exit(1)
		}
		return v
	}
	return def
}

// workerMain is one node's main: iterated verified Allreduces over the
// world until PURE_ITERS runs out, unless PURE_WORKLOAD names another
// workload (shmem_chaos_test.go, statsd_chaos_test.go).  Exit codes: 0 success, 3 a peer node
// died (prints "NODEDEAD dead=<nodes>"), 1 anything else.
func workerMain() {
	tcfg, err := pure.TransportFromEnv()
	if err != nil || tcfg == nil {
		fmt.Fprintln(os.Stderr, "worker: need launcher environment:", err)
		os.Exit(1)
	}
	if ms := envInt("PURE_HB_MS", 0); ms > 0 {
		tcfg.HeartbeatEvery = time.Duration(ms) * time.Millisecond
	}
	if ms := envInt("PURE_DEAD_MS", 0); ms > 0 {
		tcfg.PeerDeadAfter = time.Duration(ms) * time.Millisecond
	}
	if s := os.Getenv("PURE_RESET"); s != "" {
		p, err := strconv.ParseFloat(s, 64)
		if err != nil {
			os.Exit(1)
		}
		tcfg.Faults.Seed, tcfg.Faults.ResetProb = 11, p
	}
	switch os.Getenv("PURE_WORKLOAD") {
	case "shmem-hist":
		shmemHistMain(tcfg) // exits
	case "statsd":
		statsdMain(tcfg) // exits
	}
	nodes := len(tcfg.Addrs)
	nranks := envInt("PURE_NRANKS", nodes)
	iters := envInt("PURE_ITERS", 100)
	cfg := pure.Config{
		NRanks:      nranks,
		Spec:        pure.Spec{Nodes: nodes, SocketsPerNode: 1, CoresPerSocket: nranks / nodes, ThreadsPerCore: 1},
		Transport:   tcfg,
		HangTimeout: time.Duration(envInt("PURE_HANG_MS", 20000)) * time.Millisecond,
		MonitorAddr: os.Getenv("PURE_MONITOR"),
		Metrics:     workerMetrics,
	}
	err = pure.Run(cfg, func(r *pure.Rank) {
		w := r.World()
		me, n := r.ID(), r.NRanks()
		in, out := make([]byte, 8), make([]byte, 8)
		for i := 0; i < iters; i++ {
			binary.LittleEndian.PutUint64(in, uint64(me+i))
			w.Allreduce(in, out, pure.Sum, pure.Int64)
			want := uint64(n*i + n*(n-1)/2)
			if got := binary.LittleEndian.Uint64(out); got != want {
				panic(fmt.Sprintf("iter %d: allreduce %d, want %d", i, got, want))
			}
			if me == 0 && i == 0 {
				fmt.Println("LOOP")
			}
		}
		if me == 0 {
			fmt.Println("OK")
		}
	})
	exitRun(err)
}

// workerMetrics is the registry of every worker workload's run.
var workerMetrics = pure.NewMetrics()

// exitRun ends a worker with the exit code of its run's outcome: 0 success
// (after printing the links' recovery counts, "LINKS resets=<n>
// reconnects=<n> replays=<frames>"), 3 a peer node died (after printing
// "NODEDEAD dead=<nodes>"), 1 anything else.
func exitRun(err error) {
	var re *pure.RunError
	switch {
	case err == nil:
		c := map[string]int64{}
		for _, s := range workerMetrics.Snapshot().Counters {
			c[s.Name] = s.Value
		}
		fmt.Printf("LINKS resets=%d reconnects=%d replays=%d\n",
			c["pure_tp_resets_injected_total"], c["pure_tp_reconnects_total"], c["pure_tp_retransmits_total"])
		os.Exit(0)
	case errors.As(err, &re) && re.Cause == pure.CauseNodeDead:
		fmt.Printf("NODEDEAD dead=%v\n", re.DeadNodes)
		fmt.Fprintln(os.Stderr, "worker:", err)
		os.Exit(3)
	}
	fmt.Fprintln(os.Stderr, "worker:", err)
	os.Exit(1)
}

// proc is one launched worker process plus its collected stdout.
type proc struct {
	cmd  *exec.Cmd
	mu   sync.Mutex
	out  []string
	loop chan struct{} // closed when a "LOOP" line arrives
	eof  chan struct{} // closed when the stdout scanner drains to EOF
}

func (p *proc) stdout() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return strings.Join(p.out, "\n")
}

// launchWorld starts one worker process per node and returns the handles.
// Optional perNode funcs contribute extra environment entries for each node
// (e.g. a distinct PURE_MONITOR address per process).
func launchWorld(t *testing.T, nodes int, extraEnv []string, perNode ...func(node int) []string) []*proc {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	addrs, err := transport.ReserveLoopback(nodes)
	if err != nil {
		t.Fatal(err)
	}
	job := uint64(os.Getpid())<<32 ^ uint64(time.Now().UnixNano())
	procs := make([]*proc, nodes)
	for i := range procs {
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(),
			workerEnv+"=1",
			"PURE_NODE="+strconv.Itoa(i),
			"PURE_ADDRS="+strings.Join(addrs, ","),
			"PURE_JOB="+strconv.FormatUint(job, 10),
		)
		cmd.Env = append(cmd.Env, extraEnv...)
		for _, f := range perNode {
			cmd.Env = append(cmd.Env, f(i)...)
		}
		cmd.Stderr = os.Stderr
		op, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		p := &proc{cmd: cmd, loop: make(chan struct{}), eof: make(chan struct{})}
		go func() {
			defer close(p.eof)
			sc := bufio.NewScanner(op)
			closed := false
			for sc.Scan() {
				line := sc.Text()
				p.mu.Lock()
				p.out = append(p.out, line)
				p.mu.Unlock()
				if !closed && strings.HasPrefix(line, "LOOP") {
					closed = true
					close(p.loop)
				}
			}
		}()
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		procs[i] = p
		t.Cleanup(func() { p.cmd.Process.Kill() })
	}
	return procs
}

// waitCode waits for the process with a deadline and returns its exit code.
// It waits for the stdout scanner to drain to EOF before calling Wait —
// Wait closes the pipe, and calling it with the scanner mid-read both races
// the close and can lose the worker's final lines (the NODEDEAD report the
// tests assert on arrives last).
func waitCode(t *testing.T, p *proc, d time.Duration) int {
	t.Helper()
	timedOut := false
	select {
	case <-p.eof:
	case <-time.After(d):
		timedOut = true
		p.cmd.Process.Kill()
		<-p.eof
	}
	p.cmd.Wait()
	if timedOut {
		t.Fatalf("worker did not exit within %v; stdout:\n%s", d, p.stdout())
	}
	return p.cmd.ProcessState.ExitCode()
}

// TestChaosLiveSIGKILL is the tentpole acceptance scenario: three real
// processes run a verified Allreduce loop, one is SIGKILLed mid-loop, and
// the survivors must return a structured node-dead failure naming the dead
// node — via the transport failure detector, well inside the watchdog's
// HangTimeout — instead of hanging.
func TestChaosLiveSIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes and waits on failure detection")
	}
	const hang = 20 * time.Second
	procs := launchWorld(t, 3, []string{
		"PURE_ITERS=1000000", // far more than will run: the kill cuts it short
		"PURE_HB_MS=5",
		"PURE_DEAD_MS=150",
		"PURE_HANG_MS=" + strconv.Itoa(int(hang.Milliseconds())),
	})
	select {
	case <-procs[0].loop:
	case <-time.After(30 * time.Second):
		t.Fatalf("world never completed its first Allreduce; node 0 stdout:\n%s", procs[0].stdout())
	}
	start := time.Now()
	if err := procs[1].cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 2} {
		code := waitCode(t, procs[i], hang+10*time.Second)
		if code != 3 {
			t.Fatalf("node %d: exit code %d, want 3 (node-dead); stdout:\n%s", i, code, procs[i].stdout())
		}
		// Every survivor must name the node that was killed — including the
		// one that learned of the death second-hand via a peer's abort Bye
		// (the Bye carries the originator's dead-node list).
		out := procs[i].stdout()
		if !strings.Contains(out, "NODEDEAD dead=[1]") {
			t.Fatalf("node %d: no NODEDEAD report naming node 1; stdout:\n%s", i, out)
		}
	}
	if e := time.Since(start); e >= hang {
		t.Fatalf("survivors took %v to report the death, not inside HangTimeout %v", e, hang)
	}
	if code := waitCode(t, procs[1], time.Second); code != -1 {
		t.Fatalf("killed node reported exit code %d, want -1 (signal)", code)
	}
}

// TestChaosLiveLossy resets the connection at 15%% of first transmissions on
// every link of a two-process world; redial and replay must recover every
// frame and the run must complete with every Allreduce verified.
func TestChaosLiveLossy(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes and redials real sockets")
	}
	procs := launchWorld(t, 2, []string{
		"PURE_ITERS=100",
		"PURE_RESET=0.15",
	})
	for i, p := range procs {
		if code := waitCode(t, p, 60*time.Second); code != 0 {
			t.Fatalf("node %d: exit code %d, want 0; stdout:\n%s", i, code, p.stdout())
		}
	}
	if out := procs[0].stdout(); !strings.Contains(out, "OK") {
		t.Fatalf("node 0 never printed OK; stdout:\n%s", out)
	}
	checkRecovered(t, procs)
}

// checkRecovered fails a lossy run unless its links, summed over the world's
// processes, injected a reset and replayed frames after a reconnect.
func checkRecovered(t *testing.T, procs []*proc) {
	t.Helper()
	var resets, reconnects, replays int64
	for _, p := range procs {
		for _, line := range strings.Split(p.stdout(), "\n") {
			var rs, rc, rp int64
			if n, _ := fmt.Sscanf(line, "LINKS resets=%d reconnects=%d replays=%d", &rs, &rc, &rp); n == 3 {
				resets, reconnects, replays = resets+rs, reconnects+rc, replays+rp
			}
		}
	}
	t.Logf("%d resets injected, %d reconnects, %d frames replayed", resets, reconnects, replays)
	if resets == 0 || replays == 0 {
		t.Fatalf("the links injected %d resets and replayed %d frames; the test exercised nothing", resets, replays)
	}
}
