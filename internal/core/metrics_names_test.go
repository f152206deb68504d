package core

import (
	"bufio"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/collective"
	"repro/internal/obs"
)

// Exported series names are a contract with dashboards, the cluster monitor
// and the benchmark's layer pass.  testdata/metrics_names.golden lists every
// series ("kind name", labels included) the run below exported at the commit
// before the metrics plane was rebuilt on collectors; the test fails when
// one goes missing.  New series are allowed — to make one part of the
// contract, add its line to the file.

// metricsNamesRun is one 2-node, 2-ranks-per-node run over loopback TCP that
// touches every instrumented family — p2p on all three paths, collectives,
// RMA, shmem, a task with a blocked neighbour to steal from it — while rank 0
// scrapes its node's live /metrics.  It returns every series name the nodes'
// registries export once the runs have returned.
func metricsNamesRun(t *testing.T) map[string]bool {
	mets := []*obs.Metrics{obs.NewMetrics(), obs.NewMetrics()}
	errs := tcpWorld(t, 2, 2, func(node int, cfg *Config) {
		cfg.Metrics = mets[node]
		cfg.MonitorAddr = "127.0.0.1:0"
	}, func(r *Rank) {
		w := r.World()
		small, large := make([]byte, 64), make([]byte, 16<<10)
		switch r.ID() {
		case 0:
			w.Send(small, 1, 1) // eager
			w.Send(large, 1, 1) // rendezvous
			w.Send(small, 2, 1) // remote
		case 1:
			w.Recv(small, 0, 1)
			w.Recv(large, 0, 1)
		case 2:
			w.Recv(small, 0, 1)
		}
		w.Barrier()
		out := make([]byte, 8)
		w.Allreduce(make([]byte, 8), out, collective.OpSum, collective.Int64)
		w.Reduce(make([]byte, 8), out, 0, collective.OpSum, collective.Int64)
		w.Bcast(out, 0)

		win := w.WinCreate(make([]byte, 64))
		win.Fence()
		win.Put(small[:8], (r.ID()+1)%4, 0) // ranks 0, 2 intra-node; 1, 3 across
		win.Accumulate(small[:8], (r.ID()+2)%4, 8, collective.OpSum, collective.Int64)
		win.Get(out, (r.ID()+2)%4, 16)
		win.Notify((r.ID()+2)%4, 0)
		win.NotifyWait(0, 1)
		win.Fence()
		win.Free()

		shm := w.ShmemCreate(1<<10, 4)
		off := shm.Malloc(64)
		shm.AtomicAdd((r.ID()+2)%4, off, 1)
		shm.Put((r.ID()+1)%4, off+8, small[:8])
		shm.Quiet()
		shm.Barrier()
		shm.FreeHeap()

		// Rank 0 works through a task while rank 1 is blocked on it: rank 1
		// steals chunks inside its wait.
		if r.ID() == 0 {
			task := r.NewTask(64, func(_, _ int64, _ any) { time.Sleep(50 * time.Microsecond) })
			task.Execute(nil)
			w.Send(small, 1, 2)
			resp, err := http.Get("http://" + r.MonitorAddr() + "/metrics")
			if err != nil {
				r.Abort(err)
			}
			if _, err := obs.ParsePrometheus(resp.Body); err != nil {
				r.Abort(err)
			}
			resp.Body.Close()
		} else if r.ID() == 1 {
			w.Recv(small, 0, 2)
		}
		w.Barrier()
	})
	tcpAllOK(t, errs)
	names := map[string]bool{}
	for _, m := range mets {
		snap := m.Snapshot()
		for _, c := range snap.Counters {
			names["counter "+c.Name] = true
		}
		for _, g := range snap.Gauges {
			names["gauge "+g.Name] = true
		}
		for _, h := range snap.Histograms {
			names["histogram "+h.Name] = true
		}
	}
	return names
}

func TestMetricsNamesGolden(t *testing.T) {
	f, err := os.Open("testdata/metrics_names.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	names := metricsNamesRun(t)
	n := 0
	for sc := bufio.NewScanner(f); sc.Scan(); n++ {
		if line := strings.TrimSpace(sc.Text()); !names[line] {
			t.Errorf("series no longer exported: %s", line)
		}
	}
	if n == 0 {
		t.Fatal("golden file is empty")
	}
	t.Logf("%d golden series present; the run exports %d", n, len(names))
}
