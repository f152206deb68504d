package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sync"
	"sync/atomic"
)

// Spans are recorded by the benchmark, around the calls it makes into a
// layer — pure.Run, set-up, each phase, each decorated comm.Backend call,
// each ladder rung.  They stay in memory and are written as one Chrome
// trace JSON per workload when the benchmark ends.  Spans inside the
// program are a later change.

// span is one timed interval.  Parent is the ID of the span that caused it
// (-1 for a root); spans of one repetition share Rep.
type span struct {
	ID     int32
	Parent int32
	Name   string
	Rep    string
	Lane   int // 0 = the harness goroutine, 1+rank = a rank's goroutine
	Start  int64
	End    int64
}

// spanLog collects one workload's spans.  Each goroutine appends to its own
// lane, so recording takes no lock; a nil *spanLog (the timed repetitions)
// hands out nil lanes whose methods do nothing.
type spanLog struct {
	workload string
	nextID   atomic.Int32
	mu       sync.Mutex
	lanes    []*spanLane
}

type spanLane struct {
	log   *spanLog
	lane  int
	rep   string
	spans []span
}

const noSpan = int32(-1)

// lane returns a fresh single-writer lane for repetition rep.
func (l *spanLog) lane(lane int, rep string) *spanLane {
	if l == nil {
		return nil
	}
	ln := &spanLane{log: l, lane: lane, rep: rep}
	l.mu.Lock()
	l.lanes = append(l.lanes, ln)
	l.mu.Unlock()
	return ln
}

// begin opens a span and returns its ID; close it with end.
func (ln *spanLane) begin(name string, parent int32) int32 {
	if ln == nil {
		return noSpan
	}
	id := ln.log.nextID.Add(1) - 1
	ln.spans = append(ln.spans, span{ID: id, Parent: parent, Name: name, Rep: ln.rep, Lane: ln.lane, Start: now()})
	return id
}

func (ln *spanLane) end(id int32) {
	if ln == nil {
		return
	}
	t := now()
	for i := len(ln.spans) - 1; i >= 0; i-- {
		if ln.spans[i].ID == id {
			ln.spans[i].End = t
			return
		}
	}
}

// all returns every recorded span, ordered by start time.
func (l *spanLog) all() []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []span
	for _, ln := range l.lanes {
		out = append(out, ln.spans...)
	}
	slices.SortFunc(out, func(a, b span) int { return int(a.Start - b.Start) })
	return out
}

// selfTimes returns, per span ID, the span's duration minus the part of its
// interval that its child spans cover (children on different lanes run in
// parallel, so the covered part is the union of their intervals).
func selfTimes(spans []span) map[int32]int64 {
	children := map[int32][]span{}
	for _, s := range spans {
		if s.Parent != noSpan {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int32]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID] // already ordered by start
		covered, hi := int64(0), s.Start
		for _, k := range kids {
			lo, end := max(k.Start, hi), min(k.End, s.End)
			if end > lo {
				covered += end - lo
				hi = end
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// writeChromeTrace writes the spans in the Chrome trace_event format
// (chrome://tracing, https://ui.perfetto.dev): one complete event per
// span, one thread per lane, with the parent and the self time in args.
func (l *spanLog) writeChromeTrace(path string) error {
	spans := l.all()
	self := selfTimes(spans)
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		events = append(events, event{
			Name: s.Name, Ph: "X", Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: s.Lane,
			Args: map[string]any{
				"id": s.ID, "parent": s.Parent, "workload": l.workload, "rep": s.Rep,
				"self_us": float64(self[s.ID]) / 1e3,
			},
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"}); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
