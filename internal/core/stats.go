package core

import (
	"sync/atomic"

	"repro/internal/obs"
)

// RankStats is one rank's lifetime operation counters — the runtime's
// profiling mode (the paper ships "special debugging and profiling modes to
// assist in application development", §4.0.1).  Each counter is one cell
// that only its rank writes, from one site (Rank.count), and that every
// reader shares: the harvest after the run (Report), and — when the run has
// a metrics registry — the registry's collector at any time, which is the
// only case in which the writes are atomic.
type RankStats struct {
	Rank int
	Node int // node the rank was placed on

	// Point-to-point, by protocol path: sends are counted when posted,
	// receives when they complete.
	SendsEager          int64
	SendsRendezvous     int64
	SendsRemote         int64
	RecvsEager          int64
	RecvsRendezvous     int64
	RecvsRemote         int64
	BytesSentEager      int64
	BytesSentRendezvous int64
	BytesSentRemote     int64
	BytesSent           int64 // the three paths' sum; filled in by Stats and at rank exit
	BytesReceived       int64

	// PBQStallWaits counts sends that found the eager queue full: blocking
	// ones that parked for a slot, and TrySends that were refused.
	PBQStallWaits int64
	// RendezvousHandoffs counts single-copy transfers this rank completed as
	// the sender.
	RendezvousHandoffs int64

	// Collectives entered (application-level calls; the point-to-point
	// counters above also include the runtime-internal leader-tree messages
	// collectives generate across nodes).
	Barriers   int64
	Allreduces int64
	Reduces    int64
	Bcasts     int64
	Gathers    int64
	Scatters   int64
	Splits     int64

	// One-sided (RMA) operations posted by this rank.
	RmaPuts        int64
	RmaGets        int64
	RmaAccumulates int64
	RmaFences      int64
	RmaNotifies    int64
	RmaBytesPut    int64 // bytes moved by Put and Accumulate posts
	RmaBytesGot    int64 // bytes asked for by Get posts
	// RmaPutCopies counts payload copies into window memory made by this
	// rank — as the origin of an intra-node Put, or as the target applying a
	// remote one; an intra-node Put is exactly one copy.
	RmaPutCopies int64
	// RmaRemotePackets counts RMA frames this rank shipped to other nodes.
	RmaRemotePackets int64

	// PGAS (shmem) operations posted by this rank.
	ShmemPuts    int64
	ShmemGets    int64
	ShmemAtomics int64
	ShmemSends   int64 // mailbox messages sent
	ShmemRecvs   int64 // mailbox messages consumed

	// Tasks.
	TasksExecuted int64
	ChunksOwned   int64
	ChunksStolen  int64 // chunks *taken from* this rank's tasks by others

	// SSW-Loop stealing performed by this rank while blocked.  The thief
	// keeps these; the cells are filled in by Stats and at rank exit.
	StealAttempts   int64
	StealsSucceeded int64

	// Socket-completed waits (ssw.Waiter.WaitIdle): how often this rank
	// parked, and how those parks ended — unparked by whoever completed the
	// wait, or by the timer that keeps a parked rank stealing and checking
	// for poison.  Waits satisfied while still spinning count nowhere.  The
	// wake cell keeps these; filled in like the steal counts.
	Parks        int64
	ParkWakes    int64
	ParkTimeouts int64
}

// rankSeries is the one table of rank cells: where each lives in RankStats
// and the series the registry exports it as, summed over ranks (rows that
// share a name add up; "" is a cell only Report carries).  It also drives
// RankStats.Add.  A new counter is a field, a row here, and a Rank.count
// call at the one site it counts.
var rankSeries = []struct {
	name string
	cell func(*RankStats) *int64
}{
	{"pure_sends_eager_total", func(s *RankStats) *int64 { return &s.SendsEager }},
	{"pure_sends_rendezvous_total", func(s *RankStats) *int64 { return &s.SendsRendezvous }},
	{"pure_sends_remote_total", func(s *RankStats) *int64 { return &s.SendsRemote }},
	{"pure_recvs_eager_total", func(s *RankStats) *int64 { return &s.RecvsEager }},
	{"pure_recvs_rendezvous_total", func(s *RankStats) *int64 { return &s.RecvsRendezvous }},
	{"pure_recvs_remote_total", func(s *RankStats) *int64 { return &s.RecvsRemote }},
	{"pure_bytes_sent_eager_total", func(s *RankStats) *int64 { return &s.BytesSentEager }},
	{"pure_bytes_sent_rendezvous_total", func(s *RankStats) *int64 { return &s.BytesSentRendezvous }},
	{"pure_bytes_sent_remote_total", func(s *RankStats) *int64 { return &s.BytesSentRemote }},
	{"", func(s *RankStats) *int64 { return &s.BytesSent }},
	{"pure_bytes_received_total", func(s *RankStats) *int64 { return &s.BytesReceived }},
	{"pure_pbq_stall_waits_total", func(s *RankStats) *int64 { return &s.PBQStallWaits }},
	{"pure_rendezvous_handoffs_total", func(s *RankStats) *int64 { return &s.RendezvousHandoffs }},

	{"pure_barriers_total", func(s *RankStats) *int64 { return &s.Barriers }},
	{"pure_allreduces_total", func(s *RankStats) *int64 { return &s.Allreduces }},
	{"pure_reduces_total", func(s *RankStats) *int64 { return &s.Reduces }},
	{"pure_bcasts_total", func(s *RankStats) *int64 { return &s.Bcasts }},
	{"pure_gathers_total", func(s *RankStats) *int64 { return &s.Gathers }},
	{"pure_scatters_total", func(s *RankStats) *int64 { return &s.Scatters }},
	{"pure_splits_total", func(s *RankStats) *int64 { return &s.Splits }},

	{"pure_rma_puts_total", func(s *RankStats) *int64 { return &s.RmaPuts }},
	{"pure_rma_gets_total", func(s *RankStats) *int64 { return &s.RmaGets }},
	{"pure_rma_accumulates_total", func(s *RankStats) *int64 { return &s.RmaAccumulates }},
	{"pure_rma_fences_total", func(s *RankStats) *int64 { return &s.RmaFences }},
	{"pure_rma_notifies_total", func(s *RankStats) *int64 { return &s.RmaNotifies }},
	{"pure_rma_bytes_total", func(s *RankStats) *int64 { return &s.RmaBytesPut }},
	{"pure_rma_bytes_total", func(s *RankStats) *int64 { return &s.RmaBytesGot }},
	{"pure_rma_put_copies_total", func(s *RankStats) *int64 { return &s.RmaPutCopies }},
	{"pure_rma_remote_packets_total", func(s *RankStats) *int64 { return &s.RmaRemotePackets }},

	{"pure_shmem_puts_total", func(s *RankStats) *int64 { return &s.ShmemPuts }},
	{"pure_shmem_gets_total", func(s *RankStats) *int64 { return &s.ShmemGets }},
	{"pure_shmem_atomics_total", func(s *RankStats) *int64 { return &s.ShmemAtomics }},
	{"pure_shmem_sends_total", func(s *RankStats) *int64 { return &s.ShmemSends }},
	{"pure_shmem_recvs_total", func(s *RankStats) *int64 { return &s.ShmemRecvs }},

	{"pure_tasks_executed_total", func(s *RankStats) *int64 { return &s.TasksExecuted }},
	{"pure_chunks_owned_total", func(s *RankStats) *int64 { return &s.ChunksOwned }},
	{"pure_chunks_stolen_total", func(s *RankStats) *int64 { return &s.ChunksStolen }},

	{"pure_steal_attempts_total", func(s *RankStats) *int64 { return &s.StealAttempts }},
	{"pure_steals_total", func(s *RankStats) *int64 { return &s.StealsSucceeded }},
	{"pure_ssw_parks_total", func(s *RankStats) *int64 { return &s.Parks }},
	{"pure_ssw_park_wakes_total", func(s *RankStats) *int64 { return &s.ParkWakes }},
	{"pure_ssw_park_timeouts_total", func(s *RankStats) *int64 { return &s.ParkTimeouts }},
}

// Add folds other into s (Rank and Node are left untouched).
func (s *RankStats) Add(o RankStats) {
	for _, row := range rankSeries {
		*row.cell(s) += *row.cell(&o)
	}
}

// Messages returns the total point-to-point message count this rank sent.
func (s *RankStats) Messages() int64 {
	return s.SendsEager + s.SendsRendezvous + s.SendsRemote
}

// rankCells is one rank's counters as the runtime holds them: preallocated
// for every rank before any starts, so the collector never chases a
// half-built Rank and the harvest needs no rank handle.  The pad keeps two
// ranks' hot cells off one cacheline.
type rankCells struct {
	RankStats
	_ [64]byte
}

// count adds n to one of the rank's own cells.  Without a metrics registry
// nothing can read a cell before the rank has returned, so the add is plain;
// with one, the collector may be loading it, so the add is atomic — and
// uncontended, because no other rank writes the line.
func (r *Rank) count(cell *int64, n int64) {
	if r.liveStats {
		atomic.AddInt64(cell, n)
		return
	}
	*cell += n
}

// note is the one place a point-to-point message is observed — a send when
// it is posted, a receive when it completes: the path's message and byte
// cells, and its trace event.
func (r *Rank) note(kind reqKind, peer int32, n int) {
	st, ev := r.stats, obs.KSendEager
	msgs, bytes := &st.SendsEager, &st.BytesSentEager
	switch kind {
	case reqSendRvz:
		msgs, bytes, ev = &st.SendsRendezvous, &st.BytesSentRendezvous, obs.KSendRendezvous
	case reqRemoteSend:
		msgs, bytes, ev = &st.SendsRemote, &st.BytesSentRemote, obs.KSendRemote
	case reqRecvEager:
		msgs, bytes, ev = &st.RecvsEager, &st.BytesReceived, obs.KRecvEager
	case reqRecvRvz:
		msgs, bytes, ev = &st.RecvsRendezvous, &st.BytesReceived, obs.KRecvRendezvous
	case reqRemoteRecv:
		msgs, bytes, ev = &st.RecvsRemote, &st.BytesReceived, obs.KRecvRemote
	}
	r.count(msgs, 1)
	r.count(bytes, int64(n))
	if r.trace != nil {
		r.trace.Emit(ev, peer, int64(n))
	}
}

// Stats returns a snapshot of the rank's counters (valid any time from the
// rank's own goroutine; harvest after Run for the final values).
func (r *Rank) Stats() RankStats {
	st := *r.stats
	st.BytesSent = st.BytesSentEager + st.BytesSentRendezvous + st.BytesSentRemote
	st.StealAttempts, st.StealsSucceeded = r.thief.Attempts, r.thief.Stolen
	cell := r.wait.Cell
	st.Parks, st.ParkWakes, st.ParkTimeouts = cell.Parks, cell.Wakes, cell.Timeouts
	return st
}

// settleStats runs once, as the rank's goroutine exits: it stores what Stats
// fills in — the byte total, and the counts the thief and the wake cell keep
// as plain integers of their own — in the rank's cells, where the harvest
// and the collector find them.
func (r *Rank) settleStats() {
	final, st := r.Stats(), r.stats
	r.count(&st.BytesSent, final.BytesSent)
	r.count(&st.StealAttempts, final.StealAttempts)
	r.count(&st.StealsSucceeded, final.StealsSucceeded)
	r.count(&st.Parks, final.Parks)
	r.count(&st.ParkWakes, final.ParkWakes)
	r.count(&st.ParkTimeouts, final.ParkTimeouts)
}

// RunWithStats is Run plus a per-rank counter harvest: stats[i] is rank i's
// final counters (all zero for a rank another process ran, or one that died
// before it started).
func RunWithStats(cfg Config, main func(r *Rank)) ([]RankStats, error) {
	var stats []RankStats
	err := runInternal(cfg, main, func(rt *Runtime) {
		stats = make([]RankStats, len(rt.stats))
		for i := range rt.stats {
			stats[i] = rt.stats[i].RankStats
		}
	})
	return stats, err
}
