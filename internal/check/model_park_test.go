//go:build purecheck

// Model tests for the park/unpark protocol under socket-completed waits
// (ssw.WakeCell): the owner publishes parked, re-checks, blocks; a completer
// publishes, loads the state, signals.  Under the checker the block has no
// timer (schedpoint.Block), so a wake-up lost in any explored interleaving
// is a deadlock the scheduler reports.
package check

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ssw"
)

// parkThreads: one owner waits, park by park, for `rounds` conditions in
// turn; condition r holds once every completer has published its flag for
// round r.  Completers never wait for the owner, so tokens go stale across
// rounds.  wakeFirst builds the broken completer that signals before it
// publishes.
func parkThreads(completers, rounds int, wakeFirst bool) Threads {
	cell := ssw.NewWakeCell()
	flags := make([][]atomic.Bool, rounds)
	for r := range flags {
		flags[r] = make([]atomic.Bool, completers)
	}
	finished := false
	owner := func() {
		for r := range flags {
			cond := func() bool {
				for i := range flags[r] {
					if !flags[r][i].Load() {
						return false
					}
				}
				return true
			}
			for !cond() {
				cell.Park(cond, time.Hour)
			}
		}
		finished = true
	}
	fns := []func(){owner}
	names := []string{"owner"}
	for i := 0; i < completers; i++ {
		i := i
		fns = append(fns, func() {
			for r := range flags {
				if wakeFirst {
					cell.Wake()
				}
				Yield("complete:publish")
				flags[r][i].Store(true)
				if !wakeFirst {
					cell.Wake()
				}
			}
		})
		names = append(names, fmt.Sprintf("completer%d", i))
	}
	return Threads{Names: names, Fns: fns, Final: func() error {
		if !finished {
			return fmt.Errorf("owner never finished")
		}
		return nil
	}}
}

// TestCheckParkNoLostWakeup: with its condition true the owner never stays
// blocked — one completer and two concurrent ones, one wait and two in a row
// (stale tokens), under PCT and exhaustively.
func TestCheckParkNoLostWakeup(t *testing.T) {
	hook(t)
	for _, cfg := range []struct{ completers, rounds int }{{1, 1}, {2, 1}, {1, 2}, {2, 2}} {
		name := fmt.Sprintf("%d completers, %d rounds", cfg.completers, cfg.rounds)
		mk := func() Threads { return parkThreads(cfg.completers, cfg.rounds, false) }
		if rep := RunPCT(1, SeedsFromEnv(1000), DefaultPCTDepth, mk); rep.Failed {
			t.Fatalf("%s: %s", name, rep.Error())
		}
		rep := Exhaust(0, 0, mk)
		if rep.Failed {
			t.Fatalf("%s: %s", name, rep.Error())
		}
		t.Logf("%s: exhaustive %d schedules (complete=%v)", name, rep.Schedules, rep.Complete)
		if cfg.completers*cfg.rounds <= 2 && !rep.Complete {
			t.Fatalf("%s: the small configuration was not explored completely", name)
		}
	}
}

// TestCheckParkModelCatchesWakeBeforePublish: the control.  A completer that
// signals before it publishes loses the wake-up in some interleaving, and
// the model must find it — as the deadlock it is.
func TestCheckParkModelCatchesWakeBeforePublish(t *testing.T) {
	hook(t)
	rep := Exhaust(0, 0, func() Threads { return parkThreads(1, 1, true) })
	if !rep.Failed || !strings.Contains(rep.Result.Err.Error(), "deadlock") {
		t.Fatalf("signal-before-publish went unnoticed over %d schedules (failed=%v, err=%v)", rep.Schedules, rep.Failed, rep.Result.Err)
	}
	t.Logf("found after %d schedules: %v", rep.Schedules, rep.Result.Err)
}
