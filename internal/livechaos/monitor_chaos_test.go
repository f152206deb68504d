package livechaos

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/transport"
)

// scrapeLinks fetches one node's /links view; any error means the monitor
// (and so the worker) is gone.
func scrapeLinks(addr string) (*obs.LinksView, error) {
	c := &http.Client{Timeout: 2 * time.Second}
	resp, err := c.Get("http://" + addr + "/links")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/links: %s", resp.Status)
	}
	var lv obs.LinksView
	if err := json.Unmarshal(body, &lv); err != nil {
		return nil, err
	}
	return &lv, nil
}

// TestChaosDyingLinkVisibleOnMonitor is the cluster-observability acceptance
// scenario for failures: a two-node world runs with per-process live
// monitors (PURE_MONITOR, exactly as purerun -monitor wires it), one node is
// SIGKILLed, and the survivor's /links view must show the link to the dead
// peer dying — heartbeat age climbing far past the heartbeat interval, or
// already marked dead — while the survivor is still running, i.e. before the
// failure detector turns the silence into a structured *RunError
// (CauseNodeDead, exit code 3).
func TestChaosDyingLinkVisibleOnMonitor(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes and waits on failure detection")
	}
	monAddrs, err := transport.ReserveLoopback(2)
	if err != nil {
		t.Fatal(err)
	}
	procs := launchWorld(t, 2, []string{
		"PURE_ITERS=1000000", // far more than will run: the kill cuts it short
		"PURE_HB_MS=5",
		"PURE_DEAD_MS=2000", // long detection window: the dying link stays observable
		"PURE_HANG_MS=20000",
	}, func(node int) []string {
		return []string{"PURE_MONITOR=" + monAddrs[node]}
	})
	select {
	case <-procs[0].loop:
	case <-time.After(30 * time.Second):
		t.Fatalf("world never completed its first Allreduce; node 0 stdout:\n%s", procs[0].stdout())
	}

	// Healthy first: node 0's monitor must show a live, traffic-carrying
	// link to node 1 before the chaos.
	deadline := time.Now().Add(10 * time.Second)
	for {
		lv, err := scrapeLinks(monAddrs[0])
		if err == nil && len(lv.Links) == 1 && lv.Links[0].Peer == 1 &&
			lv.Links[0].Up && lv.Links[0].FramesSent > 0 && lv.Links[0].HeartbeatsRecv > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("node 0 monitor never showed a healthy link to node 1 (last: %+v, err %v)", lv, err)
		}
		time.Sleep(10 * time.Millisecond)
	}

	if err := procs[1].cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}

	// The dying link must be observable on the survivor's monitor before the
	// survivor exits: heartbeats stop, so the heartbeat age climbs far past
	// the 5ms interval (or the transport already marks the peer dead) while
	// /links still answers.
	const dying = 250 * time.Millisecond // 50 missed heartbeat intervals
	sawDying := false
	deadline = time.Now().Add(15 * time.Second)
	for !sawDying && time.Now().Before(deadline) {
		lv, err := scrapeLinks(monAddrs[0])
		if err != nil {
			break // monitor gone: the survivor already tore down
		}
		if len(lv.Links) == 1 && lv.Links[0].Peer == 1 &&
			(lv.Links[0].Dead || lv.Links[0].HeartbeatAgeNs > int64(dying)) {
			sawDying = true
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !sawDying {
		t.Fatalf("node 0's /links never showed the link to the killed node dying before teardown")
	}

	// And only after that observability window does the structured failure
	// surface: exit code 3 naming the dead node.
	if code := waitCode(t, procs[0], 30*time.Second); code != 3 {
		t.Fatalf("survivor exit code %d, want 3 (node-dead); stdout:\n%s", code, procs[0].stdout())
	}
	if out := procs[0].stdout(); !strings.Contains(out, "NODEDEAD dead=[1]") {
		t.Fatalf("survivor did not name node 1 dead; stdout:\n%s", out)
	}
}
