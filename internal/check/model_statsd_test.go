//go:build purecheck

// Model tests for the statsd tagset interner (internal/statsd's lock-free
// hash-consing table).  Two ingestion ranks first-interning the same tagset
// race through the load / CAS-publish window; every interleaving must
// converge on ONE canonical *Tagset pointer, or downstream identity
// comparisons (hot-set hits, dictionary dedup) would silently split a
// series in two.
package check

import (
	"fmt"
	"testing"

	"repro/internal/statsd"
)

// internRaceThreads builds one schedule's workload: two ranks concurrently
// first-interning the same raw tagset.  The invariant demands pointer
// convergence, a single occupied slot, and exactly one recorded miss (the
// CAS loser must adopt the winner's pointer and count a hit, not publish a
// duplicate).
func internRaceThreads() Threads {
	it := statsd.NewInterner(64)
	raw := []byte("env:prod,host:web-3,service:api")
	hash := statsd.Hash64(raw)
	var got [2]*statsd.Tagset
	intern := func(i int) func() {
		return func() { got[i] = it.Intern(hash, raw) }
	}
	return Threads{
		Names: []string{"rank0-intern", "rank1-intern"},
		Fns:   []func(){intern(0), intern(1)},
		Final: func() error {
			if got[0] == nil || got[1] == nil {
				return fmt.Errorf("intern returned nil")
			}
			if got[0] != got[1] {
				return fmt.Errorf("first-intern race split the tagset: %p vs %p", got[0], got[1])
			}
			if got[0].Hash != hash || got[0].Raw != string(raw) {
				return fmt.Errorf("canonical tagset corrupted: hash %#x raw %q", got[0].Hash, got[0].Raw)
			}
			if it.Len() != 1 {
				return fmt.Errorf("race occupied %d slots, want 1", it.Len())
			}
			hits, misses, overflows := it.Stats()
			if misses != 1 || hits != 1 || overflows != 0 {
				return fmt.Errorf("race counted hits=%d misses=%d overflows=%d, want 1/1/0", hits, misses, overflows)
			}
			// A later intern of the same bytes must still resolve to the winner.
			if it.Intern(hash, raw) != got[0] {
				return fmt.Errorf("post-race intern returned a different pointer")
			}
			return nil
		},
	}
}

// internCollisionThreads races two DIFFERENT tagsets whose hashes collide
// into the same slot chain (same low bits), so one thread's probe walks
// past the other's freshly published entry: neither may adopt the other's
// tagset, and both must end up interned in distinct slots.
func internCollisionThreads() Threads {
	it := statsd.NewInterner(16) // mask 15: identical low bits collide
	rawA := []byte("env:prod,team:alpha")
	rawB := []byte("env:prod,team:bravo")
	hashA := statsd.Hash64(rawA)
	// Force a slot collision: give B a distinct hash with A's low bits.
	hashB := (statsd.Hash64(rawB) &^ uint64(15)) | (hashA & 15)
	var gotA, gotB *statsd.Tagset
	return Threads{
		Names: []string{"intern-A", "intern-B"},
		Fns: []func(){
			func() { gotA = it.Intern(hashA, rawA) },
			func() { gotB = it.Intern(hashB, rawB) },
		},
		Final: func() error {
			if gotA == gotB {
				return fmt.Errorf("colliding tagsets aliased one pointer")
			}
			if gotA.Raw != string(rawA) || gotB.Raw != string(rawB) {
				return fmt.Errorf("collision crossed raw bytes: %q / %q", gotA.Raw, gotB.Raw)
			}
			if it.Len() != 2 {
				return fmt.Errorf("collision occupied %d slots, want 2", it.Len())
			}
			if it.Intern(hashA, rawA) != gotA || it.Intern(hashB, rawB) != gotB {
				return fmt.Errorf("post-race interns did not resolve to the published entries")
			}
			return nil
		},
	}
}

// TestCheckInternFirstUseRace: under PCT schedules, concurrent first-intern
// of one tagset always converges on a single canonical pointer with exact
// hit/miss accounting.
func TestCheckInternFirstUseRace(t *testing.T) {
	hook(t)
	rep := RunPCT(1, SeedsFromEnv(1000), DefaultPCTDepth, internRaceThreads)
	if rep.Failed {
		t.Fatalf("intern first-use race: %s", rep.Error())
	}
	t.Logf("PCT: %d seeds, %d total steps", rep.Seeds, rep.TotalSteps)
}

// TestCheckInternFirstUseExhaustive explores EVERY schedule of the
// two-thread first-intern race (two schedpoints per thread).
func TestCheckInternFirstUseExhaustive(t *testing.T) {
	hook(t)
	rep := Exhaust(0, 0, internRaceThreads)
	if rep.Failed {
		t.Fatalf("intern first-use race (exhaustive): %s", rep.Error())
	}
	if !rep.Complete {
		t.Fatalf("exhaustive exploration hit the schedule budget (%d schedules)", rep.Schedules)
	}
	t.Logf("exhaustive: %d schedules, complete", rep.Schedules)
}

// TestCheckInternCollisionRace: racing inserts of distinct colliding
// tagsets neither alias nor lose an entry, under every schedule.
func TestCheckInternCollisionRace(t *testing.T) {
	hook(t)
	rep := Exhaust(0, 0, internCollisionThreads)
	if rep.Failed {
		t.Fatalf("intern collision race: %s", rep.Error())
	}
	if !rep.Complete {
		t.Fatalf("exhaustive exploration hit the schedule budget (%d schedules)", rep.Schedules)
	}
	t.Logf("exhaustive: %d schedules, complete", rep.Schedules)
}
