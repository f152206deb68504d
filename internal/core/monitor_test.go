package core

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/collective"
	"repro/internal/obs"
)

func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// TestMonitorLiveRun drives the whole MonitorAddr path end to end: rank 1
// blocks in an eager receive (the induced stall) while rank 0 scrapes the
// live monitor until /ranks reports the blocked wait state, round-trips
// /metrics through ParsePrometheus mid-run, and only then releases rank 1.
func TestMonitorLiveRun(t *testing.T) {
	met := obs.NewMetrics()
	type seen struct {
		blocked obs.RankState
		metrics obs.Snapshot
	}
	got := make(chan seen, 1)
	err := Run(Config{NRanks: 2, Metrics: met, MonitorAddr: "127.0.0.1:0"}, func(r *Rank) {
		c := r.World()
		buf := make([]byte, 8)
		if r.ID() == 1 {
			c.Recv(buf, 0, 7)
			return
		}
		base := "http://" + r.MonitorAddr()
		deadline := time.Now().Add(20 * time.Second)
		var s seen
		for {
			var view obs.RanksView
			if err := getJSON(base+"/ranks", &view); err != nil {
				r.Abort(fmt.Errorf("scraping /ranks: %w", err))
			}
			if len(view.Ranks) == 2 && view.Ranks[1].State == "blocked" && view.Ranks[1].Wait != nil {
				s.blocked = view.Ranks[1]
				break
			}
			if time.Now().After(deadline) {
				r.Abort(fmt.Errorf("rank 1 never showed as blocked: %+v", view))
			}
			time.Sleep(time.Millisecond)
		}
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			r.Abort(err)
		}
		snap, err := obs.ParsePrometheus(resp.Body)
		resp.Body.Close()
		if err != nil {
			r.Abort(fmt.Errorf("mid-run /metrics does not parse: %w", err))
		}
		s.metrics = snap
		got <- s
		c.Send(buf, 1, 7)
	})
	if err != nil {
		t.Fatal(err)
	}
	s := <-got
	w := s.blocked.Wait
	if w.Kind != "p2p-recv" || w.Peer != 0 || w.Tag != 7 || w.BlockedNs <= 0 {
		t.Fatalf("blocked wait state = %+v, want p2p-recv from rank 0 tag 7", w)
	}
	// The run's registry (not a private one) must be what the scrape serves:
	// the runtime's collector reports the pure_* series through it.
	names := map[string]bool{}
	for _, c := range s.metrics.Counters {
		names[c.Name] = true
	}
	if !names["pure_monitor_scrapes_total"] || !names["pure_sends_eager_total"] {
		t.Fatalf("mid-run scrape missing runtime metrics: %+v", names)
	}
}

// TestMetricsLiveScrape: ranks bump their cells (atomically, because the run
// has a registry) while another goroutine scrapes /metrics as fast as it can.
// Run under -race this is the check on the mixed plain/atomic discipline;
// everywhere it checks that no scraped counter ever decreases and that the
// final snapshot is exactly the harvested counters' sum.
func TestMetricsLiveScrape(t *testing.T) {
	met := obs.NewMetrics()
	addr := make(chan string, 1)
	stop := make(chan struct{})
	var scrapes atomic.Int64
	var scraper sync.WaitGroup
	scraper.Add(1)
	go func() {
		defer scraper.Done()
		url := "http://" + <-addr + "/metrics"
		last := map[string]int64{}
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Get(url)
			if err != nil {
				t.Errorf("scrape: %v", err)
				scrapes.Add(1)
				continue
			}
			snap, err := obs.ParsePrometheus(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Errorf("scrape does not parse: %v", err)
			}
			for _, c := range snap.Counters {
				if c.Value < last[c.Name] {
					t.Errorf("%s went from %d to %d", c.Name, last[c.Name], c.Value)
				}
				last[c.Name] = c.Value
			}
			scrapes.Add(1)
		}
	}()
	stats, err := RunWithStats(Config{NRanks: 4, Metrics: met, MonitorAddr: "127.0.0.1:0"}, func(r *Rank) {
		w, buf := r.World(), make([]byte, 8)
		in, out := make([]byte, 8), make([]byte, 8)
		if r.ID() == 0 {
			addr <- r.MonitorAddr()
		}
		peer := r.ID() ^ 1
		for it := 0; ; it++ {
			if r.ID() < peer {
				w.Send(buf, peer, 1)
				w.Recv(buf, peer, 2)
			} else {
				w.Recv(buf, peer, 1)
				w.Send(buf, peer, 2)
			}
			// Rank 0 decides when the scraper has seen enough; the Allreduce
			// tells everyone.
			in[0] = 0
			if r.ID() == 0 && it >= 200 && scrapes.Load() >= 5 {
				in[0] = 1
			}
			w.Allreduce(in, out, collective.OpSum, collective.Int64)
			if out[0] != 0 {
				break
			}
		}
		if r.ID() == 0 {
			// The monitor stops once the ranks have returned: stop scraping first.
			close(stop)
			scraper.Wait()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	var total RankStats
	for _, st := range stats {
		total.Add(st)
	}
	want := map[string]int64{}
	for _, row := range rankSeries {
		if row.name != "" {
			want[row.name] += *row.cell(&total)
		}
	}
	if want["pure_sends_eager_total"] < 800 || want["pure_allreduces_total"] < 800 {
		t.Fatalf("the run did not do its work: %+v", total)
	}
	for _, c := range met.Snapshot().Counters {
		if w, ok := want[c.Name]; ok && c.Value != w {
			t.Errorf("%s = %d in the final snapshot, %d in the harvested stats", c.Name, c.Value, w)
		}
		delete(want, c.Name)
	}
	for name := range want {
		t.Errorf("%s missing from the final snapshot", name)
	}
}

// TestMonitorRankStatesLifecycle checks the /ranks states a run moves
// through, including "done", via an httptest server mounted directly on the
// runtime's wait-registry hook.
func TestMonitorRankStatesLifecycle(t *testing.T) {
	done := make(chan struct{})
	err := Run(Config{NRanks: 2, MonitorAddr: "127.0.0.1:0"}, func(r *Rank) {
		if r.ID() != 0 {
			return // finishes immediately -> "done"
		}
		srv := httptest.NewServer(obs.NewMonitor(nil, r.Runtime().RankStates).Handler())
		defer srv.Close()
		deadline := time.Now().Add(20 * time.Second)
		for {
			var view obs.RanksView
			if err := getJSON(srv.URL+"/ranks", &view); err != nil {
				t.Errorf("scrape: %v", err)
				return
			}
			if view.Ranks[0].State == "running" && view.Ranks[1].State == "done" {
				close(done)
				return
			}
			if time.Now().After(deadline) {
				t.Errorf("states never settled: %+v", view.Ranks)
				return
			}
			time.Sleep(time.Millisecond)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	default:
		t.Fatal("lifecycle states not observed")
	}
}

func TestMonitorAddrAccessors(t *testing.T) {
	err := Run(Config{NRanks: 1, MonitorAddr: "127.0.0.1:0"}, func(r *Rank) {
		addr := r.MonitorAddr()
		if addr == "" || strings.HasSuffix(addr, ":0") {
			t.Errorf("MonitorAddr = %q, want a bound port", addr)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	err = Run(Config{NRanks: 1}, func(r *Rank) {
		if r.MonitorAddr() != "" {
			t.Errorf("MonitorAddr without monitor = %q, want empty", r.MonitorAddr())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMonitorBadAddrFailsRun(t *testing.T) {
	ran := false
	err := Run(Config{NRanks: 1, MonitorAddr: "256.0.0.1:bogus"}, func(r *Rank) { ran = true })
	if err == nil || !strings.Contains(err.Error(), "monitor") {
		t.Fatalf("err = %v, want monitor listen failure", err)
	}
	if ran {
		t.Fatal("ranks launched despite monitor failure")
	}
}
