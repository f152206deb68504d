package core

// RankStats is one rank's lifetime operation counters — the runtime's
// profiling mode (the paper ships "special debugging and profiling modes to
// assist in application development", §4.0.1).  Counters are rank-local
// plain integers updated on the hot paths (no atomics: each rank owns its
// struct) and harvested after the rank's main returns.
type RankStats struct {
	Rank int
	Node int // node the rank was placed on

	// Point-to-point, by protocol path.
	SendsEager      int64
	SendsRendezvous int64
	SendsRemote     int64
	RecvsEager      int64
	RecvsRendezvous int64
	RecvsRemote     int64
	BytesSent       int64
	BytesReceived   int64

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

	// SSW-Loop stealing performed by this rank while blocked.
	StealAttempts   int64
	StealsSucceeded int64

	// Socket-completed waits (ssw.Waiter.WaitIdle): how often this rank
	// parked, and how those parks ended — unparked by whoever completed the
	// wait, or by the timer that keeps a parked rank stealing and checking
	// for poison.  Waits satisfied while still spinning count nowhere.
	Parks        int64
	ParkWakes    int64
	ParkTimeouts int64
}

// Add folds other into s (Rank is left untouched).
func (s *RankStats) Add(o RankStats) {
	s.SendsEager += o.SendsEager
	s.SendsRendezvous += o.SendsRendezvous
	s.SendsRemote += o.SendsRemote
	s.RecvsEager += o.RecvsEager
	s.RecvsRendezvous += o.RecvsRendezvous
	s.RecvsRemote += o.RecvsRemote
	s.BytesSent += o.BytesSent
	s.BytesReceived += o.BytesReceived
	s.Barriers += o.Barriers
	s.Allreduces += o.Allreduces
	s.Reduces += o.Reduces
	s.Bcasts += o.Bcasts
	s.Gathers += o.Gathers
	s.Scatters += o.Scatters
	s.Splits += o.Splits
	s.RmaPuts += o.RmaPuts
	s.RmaGets += o.RmaGets
	s.RmaAccumulates += o.RmaAccumulates
	s.RmaFences += o.RmaFences
	s.RmaNotifies += o.RmaNotifies
	s.RmaBytesPut += o.RmaBytesPut
	s.ShmemPuts += o.ShmemPuts
	s.ShmemGets += o.ShmemGets
	s.ShmemAtomics += o.ShmemAtomics
	s.ShmemSends += o.ShmemSends
	s.ShmemRecvs += o.ShmemRecvs
	s.TasksExecuted += o.TasksExecuted
	s.ChunksOwned += o.ChunksOwned
	s.ChunksStolen += o.ChunksStolen
	s.StealAttempts += o.StealAttempts
	s.StealsSucceeded += o.StealsSucceeded
	s.Parks += o.Parks
	s.ParkWakes += o.ParkWakes
	s.ParkTimeouts += o.ParkTimeouts
}

// Messages returns the total point-to-point message count this rank sent.
func (s *RankStats) Messages() int64 {
	return s.SendsEager + s.SendsRendezvous + s.SendsRemote
}

// Stats returns a snapshot of the rank's counters (valid any time from the
// rank's own goroutine; harvest after Run for the final values).
func (r *Rank) Stats() RankStats {
	st := r.stats
	st.Rank = r.id
	st.Node = r.node
	st.StealAttempts = r.thief.Attempts
	st.StealsSucceeded = r.thief.Stolen
	cell := r.wait.Cell
	st.Parks, st.ParkWakes, st.ParkTimeouts = cell.Parks, cell.Wakes, cell.Timeouts
	return st
}

// RunWithStats is Run plus a per-rank counter harvest: stats[i] is rank i's
// final counters.
func RunWithStats(cfg Config, main func(r *Rank)) ([]RankStats, error) {
	var stats []RankStats
	err := runInternal(cfg, main, func(ranks []*Rank) {
		stats = make([]RankStats, len(ranks))
		for i, r := range ranks {
			if r == nil {
				// The rank died inside newRank (its main panicked before the
				// bootstrap published the handle); it has no counters.
				stats[i].Rank = i
				continue
			}
			stats[i] = r.Stats()
		}
	})
	return stats, err
}
