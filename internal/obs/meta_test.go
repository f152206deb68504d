package obs

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"testing"
)

// TestTraceBinMetaRoundTrip writes a v2 dump with full metadata — node
// identity, placement, clock samples, link events — and reads it back.
func TestTraceBinMetaRoundTrip(t *testing.T) {
	events := []Event{
		{TS: 100, Dur: 5, Arg: 64, Rank: 0, Peer: 2, Kind: KSendRemote},
		{TS: 900, Arg: 64, Rank: 1, Peer: 3, Kind: KSendRemote},
	}
	meta := TraceMeta{
		Node:          1,
		Nodes:         2,
		StartUnixNano: 1_700_000_000_000_000_000,
		NodeOfRank:    []int32{0, 0, 1, 1},
		Clock: []ClockSample{
			{Peer: 0, LocalUnixNano: 1_700_000_000_000_001_000, OffsetNs: -42_000, DelayNs: 81_000},
			{Peer: 0, LocalUnixNano: 1_700_000_000_000_002_000, OffsetNs: -40_500, DelayNs: 77_000},
		},
		Links: []LinkEvent{
			{TS: 1_700_000_000_000_003_000, Kind: LinkSend, Node: 1, Peer: 0, Seq: 9, Bytes: 64},
			{TS: 1_700_000_000_000_004_000, Kind: LinkRecv, Node: 1, Peer: 0, Seq: 4, Bytes: 32},
			{TS: 1_700_000_000_000_005_000, Kind: LinkRetransmit, Node: 1, Peer: 0, Seq: 9, Bytes: 2},
		},
	}
	var buf bytes.Buffer
	if err := WriteTraceBinMeta(&buf, events, 4, 3, &meta); err != nil {
		t.Fatal(err)
	}
	d, err := ReadTraceBin(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if d.NRanks != 4 || d.Dropped != 3 || len(d.Events) != 2 {
		t.Fatalf("shape: %d ranks, %d dropped, %d events", d.NRanks, d.Dropped, len(d.Events))
	}
	if d.Meta.Node != 1 || d.Meta.Nodes != 2 || d.Meta.StartUnixNano != meta.StartUnixNano {
		t.Fatalf("meta header: %+v", d.Meta)
	}
	if len(d.Meta.NodeOfRank) != 4 || d.Meta.NodeOfRank[2] != 1 {
		t.Fatalf("placement: %v", d.Meta.NodeOfRank)
	}
	for i, cs := range meta.Clock {
		if d.Meta.Clock[i] != cs {
			t.Fatalf("clock sample %d: %+v != %+v", i, d.Meta.Clock[i], cs)
		}
	}
	for i, le := range meta.Links {
		if d.Meta.Links[i] != le {
			t.Fatalf("link event %d: %+v != %+v", i, d.Meta.Links[i], le)
		}
	}
	for i, e := range events {
		if d.Events[i] != e {
			t.Fatalf("event %d: %+v != %+v", i, d.Events[i], e)
		}
	}
}

// TestTraceBinEventsOnlyReadsAsNoMeta checks the meta-less writer (and so v1
// consumers' expectations): Node reads back as -1, everything else empty.
func TestTraceBinEventsOnlyReadsAsNoMeta(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTraceBinEvents(&buf, []Event{{TS: 5, Rank: 0, Kind: KSendEager, Peer: 1}}, 2, 0); err != nil {
		t.Fatal(err)
	}
	d, err := ReadTraceBin(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if d.Meta.Node != -1 || len(d.Meta.NodeOfRank) != 0 || len(d.Meta.Clock) != 0 || len(d.Meta.Links) != 0 {
		t.Fatalf("meta-less dump read back meta %+v, want Node=-1 and empty tables", d.Meta)
	}
}

// TestMonitorLinksEndpoint checks /links serves the installed source and a
// /metrics scrape evaluates the registry's collectors.
func TestMonitorLinksEndpoint(t *testing.T) {
	reg := NewMetrics()
	synced := 0
	mon := NewMonitor(reg, nil)
	links := func() []LinkState {
		return []LinkState{{Peer: 1, Up: true, EverUp: true, FramesSent: 12, SmoothedRTTNs: 80_000}}
	}
	mon.SetLinks(links)
	reg.Collect(func(s *Sink) {
		synced++
		ReportLinks(s, links())
	})
	srv := httptest.NewServer(mon.Handler())
	defer srv.Close()

	var lv LinksView
	_, body := monitorGet(t, srv, "/links")
	if err := json.Unmarshal([]byte(body), &lv); err != nil {
		t.Fatal(err)
	}
	if len(lv.Links) != 1 || lv.Links[0].Peer != 1 || !lv.Links[0].Up || lv.Links[0].FramesSent != 12 {
		t.Fatalf("/links = %+v", lv)
	}

	_, body = monitorGet(t, srv, "/metrics")
	if synced != 1 {
		t.Fatalf("collector ran %d times, want 1", synced)
	}
	if !bytes.Contains([]byte(body), []byte(`pure_link_frames_sent_total{peer="1"} 12`)) {
		t.Fatalf("scrape missing collected labeled series:\n%s", body)
	}
}
