package pure

import (
	"bytes"
	"encoding/json"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestTracedRunEndToEnd drives every instrumented protocol path under a
// trace + metrics config and checks the exports round-trip.
func TestTracedRunEndToEnd(t *testing.T) {
	trace := NewTrace(4, 0)
	met := NewMetrics()
	rep, err := RunWithReport(Config{NRanks: 4, Trace: trace, Metrics: met}, func(r *Rank) {
		c := r.World()
		if r.ID() == 0 {
			c.Send(make([]byte, 64), 1, 0)     // eager
			c.Send(make([]byte, 16<<10), 1, 0) // rendezvous
		} else if r.ID() == 1 {
			c.Recv(make([]byte, 64), 0, 0)
			c.Recv(make([]byte, 16<<10), 0, 0)
		}
		c.Barrier()
		out := make([]byte, 8)
		c.Allreduce(Int64Bytes([]int64{int64(r.ID())}), out, Sum, Int64)
		if r.ID() == 2 {
			task := r.NewTask(8, func(_, _ int64, _ any) {})
			task.Execute(nil)
		}
		c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}

	// Timeline: non-empty, sorted by start time, expected kinds present.
	tl := rep.Timeline()
	if len(tl) == 0 {
		t.Fatal("traced run produced no events")
	}
	if !sort.SliceIsSorted(tl, func(a, b int) bool { return tl[a].TS < tl[b].TS || (tl[a].TS == tl[b].TS && tl[a].Rank < tl[b].Rank) }) {
		t.Error("timeline not sorted by start time")
	}
	kinds := map[EventKind]int{}
	for _, e := range tl {
		kinds[e.Kind]++
	}
	for _, k := range []EventKind{
		obs.KSendEager, obs.KRecvEager, obs.KSendRendezvous, obs.KRecvRendezvous,
		obs.KRendezvousHandoff, obs.KBarrier, obs.KAllreduce, obs.KTaskExecute,
	} {
		if kinds[k] == 0 {
			t.Errorf("no %v events recorded", k)
		}
	}
	if kinds[obs.KBarrier] != 8 {
		t.Errorf("barrier events = %d, want 8 (4 ranks x 2)", kinds[obs.KBarrier])
	}

	// The send the payload took the rendezvous path for must have produced
	// exactly one handoff, stamped by the sender.
	if kinds[obs.KRendezvousHandoff] != 1 {
		t.Errorf("handoff events = %d, want 1", kinds[obs.KRendezvousHandoff])
	}

	// The registry serves the cells Report sums (TestMetricsAgreeWithReport
	// covers point-to-point path by path).
	snap := met.Snapshot()
	counters := map[string]int64{}
	for _, c := range snap.Counters {
		counters[c.Name] = c.Value
	}
	if counters["pure_barriers_total"] != 8 || rep.Total.Barriers != 8 {
		t.Errorf("barriers: metric %d, stats %d, want 8", counters["pure_barriers_total"], rep.Total.Barriers)
	}
	if counters["pure_tasks_executed_total"] != 1 {
		t.Errorf("tasks metric = %d", counters["pure_tasks_executed_total"])
	}

	// Prometheus round-trip.
	var prom bytes.Buffer
	if err := snap.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	back, err := ParsePrometheus(strings.NewReader(prom.String()))
	if err != nil {
		t.Fatalf("ParsePrometheus: %v\n%s", err, prom.String())
	}
	if len(back.Counters) != len(snap.Counters) {
		t.Errorf("round-trip counters: %d vs %d", len(back.Counters), len(snap.Counters))
	}

	// Chrome trace: valid JSON with thread metadata plus the recorded events.
	var ct bytes.Buffer
	if err := rep.WriteChromeTrace(&ct); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(ct.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != len(tl)+4 { // 4 thread_name metadata records
		t.Errorf("chrome trace has %d records, want %d", len(doc.TraceEvents), len(tl)+4)
	}
}

// TestMetricsAgreeWithReport checks that the registry and Report read the
// same cells: for every point-to-point API on every protocol path it can
// take, the per-path series equal the RankStats sums, count exactly the
// messages sent, and are zero for the other two paths.
func TestMetricsAgreeWithReport(t *testing.T) {
	const msgs = 10
	apis := []struct {
		name      string
		eagerOnly bool // no rendezvous-sized form: TryRecv refuses one, a batch must fit the eager limit
		send      func(w *Comm, ch *Channel, buf []byte)
		recv      func(w *Comm, ch *Channel, buf []byte)
	}{
		{"Send/Recv", false,
			func(_ *Comm, ch *Channel, buf []byte) { ch.Send(buf) },
			func(_ *Comm, ch *Channel, buf []byte) { ch.Recv(buf) }},
		{"Isend/Irecv", false,
			func(w *Comm, ch *Channel, buf []byte) { w.Wait(ch.Isend(buf)) },
			func(w *Comm, ch *Channel, buf []byte) { w.Wait(ch.Irecv(buf)) }},
		{"TrySend/TryRecv", true,
			func(_ *Comm, ch *Channel, buf []byte) {
				for !ch.TrySend(buf) {
					runtime.Gosched()
				}
			},
			func(_ *Comm, ch *Channel, buf []byte) {
				for {
					if _, ok := ch.TryRecv(buf); ok {
						return
					}
					runtime.Gosched()
				}
			}},
		{"SendBatch/RecvBatch", true,
			func(_ *Comm, ch *Channel, buf []byte) { ch.SendBatch([][]byte{buf[:len(buf)/2]}) },
			func(_ *Comm, ch *Channel, buf []byte) { ch.RecvBatch(buf, nil) }},
	}
	twoNodes := Spec{Nodes: 2, SocketsPerNode: 1, CoresPerSocket: 1, ThreadsPerCore: 1}
	paths := []struct {
		name string
		size int
		spec Spec
	}{
		{"eager", 64, Spec{}},
		{"rendezvous", 16 << 10, Spec{}},
		{"remote", 64, twoNodes},
	}
	for _, api := range apis {
		for _, path := range paths {
			if api.eagerOnly && path.name == "rendezvous" {
				continue
			}
			t.Run(api.name+"/"+path.name, func(t *testing.T) {
				met := NewMetrics()
				rep, err := RunWithReport(Config{NRanks: 2, Spec: path.spec, Metrics: met}, func(r *Rank) {
					w, buf := r.World(), make([]byte, path.size)
					for i := 0; i < msgs; i++ {
						if r.ID() == 0 {
							api.send(w, w.SendChannel(1, 5), buf)
						} else {
							api.recv(w, w.RecvChannel(0, 5), buf)
						}
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				series := map[string]int64{}
				for _, c := range met.Snapshot().Counters {
					series[c.Name] = c.Value
				}
				tot := rep.Total
				for _, row := range []struct {
					path               string
					sends, recvs, sent int64
				}{
					{"eager", tot.SendsEager, tot.RecvsEager, tot.BytesSentEager},
					{"rendezvous", tot.SendsRendezvous, tot.RecvsRendezvous, tot.BytesSentRendezvous},
					{"remote", tot.SendsRemote, tot.RecvsRemote, tot.BytesSentRemote},
				} {
					want := int64(0)
					if row.path == path.name {
						want = msgs
					}
					if got := series["pure_sends_"+row.path+"_total"]; got != want || row.sends != want {
						t.Errorf("%s sends: series %d, report %d, want %d", row.path, got, row.sends, want)
					}
					if got := series["pure_recvs_"+row.path+"_total"]; got != want || row.recvs != want {
						t.Errorf("%s recvs: series %d, report %d, want %d", row.path, got, row.recvs, want)
					}
					if got := series["pure_bytes_sent_"+row.path+"_total"]; got != row.sent || (want == 0) != (got == 0) {
						t.Errorf("%s bytes sent: series %d, report %d (path carried %d messages)", row.path, got, row.sent, want)
					}
				}
				if got := series["pure_bytes_received_total"]; got != tot.BytesReceived || got != tot.BytesSent || got < msgs*int64(path.size)/2 {
					t.Errorf("bytes: series received %d, report received %d sent %d", got, tot.BytesReceived, tot.BytesSent)
				}
			})
		}
	}
}

// TestUntracedReportExportsAreNoops checks the nil-trace conveniences.
func TestUntracedReportExportsAreNoops(t *testing.T) {
	rep, err := RunWithReport(Config{NRanks: 2}, func(r *Rank) { r.World().Barrier() })
	if err != nil {
		t.Fatal(err)
	}
	if rep.Timeline() != nil {
		t.Error("Timeline on untraced run should be nil")
	}
	var buf bytes.Buffer
	if err := rep.WriteChromeTrace(&buf); err != nil || buf.Len() != 0 {
		t.Errorf("WriteChromeTrace on untraced run wrote %d bytes, err %v", buf.Len(), err)
	}
}

// TestRankMetricsAccessor checks ranks can reach (and extend) the registry
// mid-run.
func TestRankMetricsAccessor(t *testing.T) {
	met := NewMetrics()
	err := Run(Config{NRanks: 2, Metrics: met}, func(r *Rank) {
		if r.Metrics() != met {
			t.Error("Rank.Metrics should return the configured registry")
		}
		r.Metrics().Counter("app_iterations_total").Inc()
		r.World().Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := met.Snapshot()
	for _, c := range snap.Counters {
		if c.Name == "app_iterations_total" {
			if c.Value != 2 {
				t.Errorf("app counter = %d, want 2", c.Value)
			}
			return
		}
	}
	t.Error("app_iterations_total missing from snapshot")
}

// TestInvalidConfigErrors verifies Run reports configuration mistakes as
// descriptive errors instead of panicking.
func TestInvalidConfigErrors(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"zero ranks", Config{}, "NRanks"},
		{"negative small-msg max", Config{NRanks: 2, SmallMsgMax: -1}, "SmallMsgMax"},
		{"negative pbq slots", Config{NRanks: 2, PBQSlots: -4}, "PBQSlots"},
		{"negative spin budget", Config{NRanks: 2, SpinBudget: -1}, "SpinBudget"},
		{"seats without custom policy", Config{NRanks: 2, Seats: []Seat{{}, {}}}, "Custom"},
		{"trace size mismatch", Config{NRanks: 2, Trace: NewTrace(3, 0)}, "Trace"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := Run(tc.cfg, func(*Rank) { t.Error("rank ran under invalid config") })
			if err == nil {
				t.Fatal("invalid config accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}
