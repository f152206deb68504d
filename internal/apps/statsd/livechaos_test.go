package statsd

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	proto "repro/internal/statsd"
	"repro/internal/transport"
	"repro/pure"
)

// The test binary doubles as a pipeline worker: when workerEnv is set,
// TestMain runs one node of a real multi-process statsd deployment instead
// of the tests (the same hermetic trick as internal/livechaos, applied to
// the full application: ingestion ranks on the front nodes, aggregators on
// the back node, live TCP in between).
const workerEnv = "PURE_STATSD_WORKER"

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

// workerMain is one node's main: the last node aggregates, every other node
// ingests (two ranks per node), and the world runs the pipeline repeatedly
// with the zero-sum checksum asserted after every run.  Exit codes: 0
// success, 3 a peer node died (prints "NODEDEAD dead=<nodes>"), 1 anything
// else — the purestatsd CLI follows the same convention.
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
	if s := os.Getenv("PURE_DROP"); s != "" {
		p, err := strconv.ParseFloat(s, 64)
		if err != nil {
			os.Exit(1)
		}
		tcfg.Faults.Seed, tcfg.Faults.DropProb = 11, p
		tcfg.RetryBackoff = 2 * time.Millisecond
		tcfg.RetryBudget = 1000
	}
	nodes := len(tcfg.Addrs)
	const perNode = 2
	nranks := nodes * perNode
	iters := envInt("PURE_STATSD_ITERS", 3)
	events := int64(envInt("PURE_STATSD_EVENTS", 4000))
	pcfg := pure.Config{
		NRanks:      nranks,
		Spec:        pure.Spec{Nodes: nodes, SocketsPerNode: 1, CoresPerSocket: perNode, ThreadsPerCore: 1},
		Transport:   tcfg,
		HangTimeout: time.Duration(envInt("PURE_HANG_MS", 20000)) * time.Millisecond,
	}
	cfg := Config{
		Ingesters:   nranks - perNode, // every node but the last ingests
		Aggregators: perNode,          // the last node aggregates
		Events:      events,
		Rounds:      2,
		Interner:    proto.NewInterner(4096), // node-shared across this process's ranks
	}
	err = pure.Run(pcfg, func(r *pure.Rank) {
		for i := 0; i < iters; i++ {
			res, err := Run(r, cfg)
			if err != nil {
				r.Abort(err)
				return
			}
			if !res.Exact || res.Applied != uint64(events) {
				panic(fmt.Sprintf("iter %d: inexact flush: applied %d of %d (sum %#x)",
					i, res.Applied, events, res.Sum))
			}
			if r.ID() == 0 && i == 0 {
				fmt.Printf("LOOP applied=%d sum=%#x\n", res.Applied, res.Sum)
			}
		}
		if r.ID() == 0 {
			fmt.Println("OK")
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
	os.Exit(0)
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
func launchWorld(t *testing.T, nodes int, extraEnv []string) []*proc {
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

// waitCode waits for the process with a deadline and returns its exit code,
// draining stdout to EOF first (Wait closes the pipe and would race the
// scanner out of the final NODEDEAD line).
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

// TestStatsdChaosLiveKill is the application acceptance scenario: a real
// three-process deployment (two ingestion nodes feeding one aggregation
// node over TCP) loses the AGGREGATOR node to SIGKILL mid-run.  Every
// survivor must unwind with a structured node-dead failure naming the dead
// node — ingestion must not hang on a shard queue whose consumer no longer
// exists.
func TestStatsdChaosLiveKill(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes and waits on failure detection")
	}
	const hang = 20 * time.Second
	procs := launchWorld(t, 3, []string{
		"PURE_STATSD_ITERS=1000000", // far more than will run: the kill cuts it short
		"PURE_STATSD_EVENTS=8000",
		"PURE_HB_MS=5",
		"PURE_DEAD_MS=150",
		"PURE_HANG_MS=" + strconv.Itoa(int(hang.Milliseconds())),
	})
	select {
	case <-procs[0].loop:
	case <-time.After(30 * time.Second):
		t.Fatalf("pipeline never completed its first run; node 0 stdout:\n%s", procs[0].stdout())
	}
	start := time.Now()
	if err := procs[2].cmd.Process.Kill(); err != nil { // node 2 hosts the aggregators
		t.Fatal(err)
	}
	for _, i := range []int{0, 1} {
		code := waitCode(t, procs[i], hang+10*time.Second)
		if code != 3 {
			t.Fatalf("node %d: exit code %d, want 3 (node-dead); stdout:\n%s", i, code, procs[i].stdout())
		}
		out := procs[i].stdout()
		if !strings.Contains(out, "NODEDEAD dead=[2]") {
			t.Fatalf("node %d: no NODEDEAD report naming node 2; stdout:\n%s", i, out)
		}
	}
	if e := time.Since(start); e >= hang {
		t.Fatalf("survivors took %v to report the death, not inside HangTimeout %v", e, hang)
	}
	if code := waitCode(t, procs[2], time.Second); code != -1 {
		t.Fatalf("killed node reported exit code %d, want -1 (signal)", code)
	}
}

// TestStatsdChaosLiveLossy drops 15%% of first transmissions on every link
// of a two-process deployment (ingesters on node 0, aggregators on node 1);
// the transport retransmits and every run's flush totals must stay exactly
// checksum-verified end to end.
func TestStatsdChaosLiveLossy(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes and rides retransmit timeouts")
	}
	procs := launchWorld(t, 2, []string{
		"PURE_STATSD_ITERS=3",
		"PURE_STATSD_EVENTS=4000",
		"PURE_DROP=0.15",
	})
	for i, p := range procs {
		if code := waitCode(t, p, 120*time.Second); code != 0 {
			t.Fatalf("node %d: exit code %d, want 0; stdout:\n%s", i, code, p.stdout())
		}
	}
	out := procs[0].stdout()
	if !strings.Contains(out, "OK") {
		t.Fatalf("node 0 never printed OK; stdout:\n%s", out)
	}
	if !strings.Contains(out, "applied=4000") {
		t.Fatalf("node 0 never reported exact applied totals; stdout:\n%s", out)
	}
}
