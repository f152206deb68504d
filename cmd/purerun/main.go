// Command purerun launches a multi-process Pure job on one machine: one OS
// process per virtual node, wired together over the real TCP transport.
//
// Usage:
//
//	purerun -n 3 ./worker                 # 3 nodes, reserved localhost ports
//	purerun -n 3 -ranks 12 ./worker       # ... and export PURE_NRANKS=12
//	purerun -addrs a:7001,b:7001 ./worker # explicit per-node addresses
//	purerun -n 3 -kill 1:200ms ./worker   # chaos: SIGKILL node 1 after 200ms
//	purerun -n 2 -timeout 30s ./worker    # kill the whole job after 30s
//	purerun -n 2 -monitor :0 ./worker     # + aggregated cluster monitor
//
// purerun reserves one localhost port per node (unless -addrs overrides
// them), spawns the worker command once per node with the transport
// environment set — PURE_NODE, PURE_ADDRS, PURE_JOB, and optionally
// PURE_NRANKS — prefixes every output line with "[node i]", and exits with
// the first non-zero worker exit code (or 1 for a signal death).
//
// With -monitor, purerun also reserves one monitor port per node, hands it
// to each worker as PURE_MONITOR (workers pass it to Config.MonitorAddr, so
// every node serves its own /metrics, /ranks and /links), prints each
// worker's monitor address, and serves the aggregated cluster view on the
// -monitor address: /metrics merges every node's scrape under a node="<id>"
// label, /cluster reports per-node liveness, rank wait states, and transport
// link telemetry.  The aggregator keeps serving while nodes die — a
// SIGKILLed node shows up as pure_cluster_node_up 0 and as a dying link
// (heartbeat age climbing, then down) on its peers.
//
// The worker maps the environment onto its configuration with
// pure.TransportFromEnv; the rank-to-node mapping comes from the worker's
// topology spec exactly as in a single-process run, so the same binary
// works standalone (no PURE_ADDRS) and under the launcher.  See
// docs/TRANSPORT.md.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs/cluster"
	"repro/internal/transport"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("purerun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	n := fs.Int("n", 0, "number of nodes (one OS process each); implied by -addrs")
	ranks := fs.Int("ranks", 0, "total rank count exported as PURE_NRANKS (0 = let the worker decide)")
	addrs := fs.String("addrs", "", "comma-separated host:port listen addresses, one per node (default: reserved localhost ports)")
	job := fs.Uint64("job", 0, "job id isolating this run from stale processes (0 = derived from pid and time)")
	kill := fs.String("kill", "", "chaos: 'node:delay' — SIGKILL that node's process after the delay (e.g. 1:200ms)")
	timeout := fs.Duration("timeout", 0, "kill every worker after this long (0 = no timeout)")
	monitor := fs.String("monitor", "", "serve the aggregated cluster monitor on this address (:0 picks a port) and give every worker a PURE_MONITOR address")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: purerun [flags] worker-command [args...]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	workerArgv := fs.Args()
	if len(workerArgv) == 0 {
		fs.Usage()
		return 2
	}

	var addrList []string
	if *addrs != "" {
		addrList = strings.Split(*addrs, ",")
		if *n != 0 && *n != len(addrList) {
			fmt.Fprintf(stderr, "purerun: -n %d contradicts the %d addresses in -addrs\n", *n, len(addrList))
			return 2
		}
	} else {
		if *n <= 0 {
			fmt.Fprintf(stderr, "purerun: need -n (node count) or -addrs\n")
			return 2
		}
		var err error
		if addrList, err = transport.ReserveLoopback(*n); err != nil {
			fmt.Fprintf(stderr, "purerun: reserving ports: %v\n", err)
			return 1
		}
	}
	nodes := len(addrList)

	killNode, killDelay, err := parseKill(*kill, nodes)
	if err != nil {
		fmt.Fprintf(stderr, "purerun: %v\n", err)
		return 2
	}

	jobID := *job
	if jobID == 0 {
		jobID = uint64(os.Getpid())<<32 ^ uint64(time.Now().UnixNano())
	}

	// Cluster monitor: one reserved monitor port per worker (exported as
	// PURE_MONITOR) plus the aggregator over all of them.  The addresses are
	// printed before the workers launch so tooling can start scraping while
	// the job runs.
	var monAddrs []string
	if *monitor != "" {
		var err error
		if monAddrs, err = transport.ReserveLoopback(nodes); err != nil {
			fmt.Fprintf(stderr, "purerun: reserving monitor ports: %v\n", err)
			return 1
		}
		nodeList := make([]cluster.Node, nodes)
		for i, a := range monAddrs {
			nodeList[i] = cluster.Node{Node: i, Addr: a}
			fmt.Fprintf(stderr, "purerun: node %d monitor http://%s/\n", i, a)
		}
		ln, err := net.Listen("tcp", *monitor)
		if err != nil {
			fmt.Fprintf(stderr, "purerun: cluster monitor listen %s: %v\n", *monitor, err)
			return 1
		}
		fmt.Fprintf(stderr, "purerun: cluster monitor http://%s/\n", ln.Addr())
		srv := &http.Server{Handler: cluster.New(nodeList, 0).Handler()}
		go srv.Serve(ln)
		defer srv.Close()
	}

	cmds := make([]*exec.Cmd, nodes)
	var outWG sync.WaitGroup
	var outMu sync.Mutex // interleave whole lines, not bytes
	for i := range cmds {
		cmd := exec.Command(workerArgv[0], workerArgv[1:]...)
		cmd.Env = append(os.Environ(),
			transport.EnvNode+"="+strconv.Itoa(i),
			transport.EnvAddrs+"="+strings.Join(addrList, ","),
			transport.EnvJob+"="+strconv.FormatUint(jobID, 10),
		)
		if *ranks > 0 {
			cmd.Env = append(cmd.Env, "PURE_NRANKS="+strconv.Itoa(*ranks))
		}
		if monAddrs != nil {
			cmd.Env = append(cmd.Env, transport.EnvMonitor+"="+monAddrs[i])
		}
		op, _ := cmd.StdoutPipe()
		ep, _ := cmd.StderrPipe()
		prefix := fmt.Sprintf("[node %d] ", i)
		for _, p := range []io.ReadCloser{op, ep} {
			outWG.Add(1)
			go func(p io.ReadCloser) {
				defer outWG.Done()
				sc := bufio.NewScanner(p)
				sc.Buffer(make([]byte, 64<<10), 1<<20)
				for sc.Scan() {
					outMu.Lock()
					fmt.Fprintf(stdout, "%s%s\n", prefix, sc.Text())
					outMu.Unlock()
				}
			}(p)
		}
		if err := cmd.Start(); err != nil {
			fmt.Fprintf(stderr, "purerun: starting node %d: %v\n", i, err)
			for _, c := range cmds[:i] {
				c.Process.Kill()
			}
			return 1
		}
		cmds[i] = cmd
	}

	if killNode >= 0 {
		go func() {
			time.Sleep(killDelay)
			fmt.Fprintf(stderr, "purerun: chaos: SIGKILL node %d after %v\n", killNode, killDelay)
			cmds[killNode].Process.Kill()
		}()
	}
	if *timeout > 0 {
		t := time.AfterFunc(*timeout, func() {
			fmt.Fprintf(stderr, "purerun: timeout %v expired, killing the job\n", *timeout)
			for _, c := range cmds {
				c.Process.Kill()
			}
		})
		defer t.Stop()
	}

	// Wait closes a command's pipes, so the readers must have seen EOF (every
	// worker exited, or was killed) before it is called: a last line still in
	// the pipe would be lost.
	outWG.Wait()
	code := 0
	for i, cmd := range cmds {
		err := cmd.Wait()
		st := cmd.ProcessState.ExitCode() // -1 for signal death
		switch {
		case err == nil:
			fmt.Fprintf(stderr, "purerun: node %d exited ok\n", i)
		case st >= 0:
			fmt.Fprintf(stderr, "purerun: node %d exited with code %d\n", i, st)
			if code == 0 {
				code = st
			}
		default:
			fmt.Fprintf(stderr, "purerun: node %d died: %v\n", i, err)
			if code == 0 {
				code = 1
			}
		}
	}
	return code
}

func parseKill(spec string, nodes int) (node int, delay time.Duration, err error) {
	if spec == "" {
		return -1, 0, nil
	}
	idx := strings.IndexByte(spec, ':')
	if idx < 0 {
		return -1, 0, fmt.Errorf("bad -kill %q (want node:delay, e.g. 1:200ms)", spec)
	}
	if node, err = strconv.Atoi(spec[:idx]); err != nil {
		return -1, 0, fmt.Errorf("bad -kill node in %q: %v", spec, err)
	}
	if node < 0 || node >= nodes {
		return -1, 0, fmt.Errorf("-kill node %d out of range [0,%d)", node, nodes)
	}
	if delay, err = time.ParseDuration(spec[idx+1:]); err != nil {
		return -1, 0, fmt.Errorf("bad -kill delay in %q: %v", spec, err)
	}
	return node, delay, nil
}
