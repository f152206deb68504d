//go:build purecheck

// Model tests for the park/unpark protocol under socket-completed waits
// (ssw.Waiter with a WakeCell): the owner publishes parked, re-checks,
// blocks; a completer publishes, loads the state, signals.  Under the checker the block has no
// timer (schedpoint.Block), so a wake-up lost in any explored interleaving
// is a deadlock the scheduler reports.
package check

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/ssw"
)

// parkThreads: one owner waits, through the SSW loop of a Waiter with a
// Cell (a spin budget of 2, one yield round, then parks), for `rounds`
// conditions in turn; condition r holds once every completer has published
// its flag for round r.  Completers never wait for the owner, so tokens go
// stale across rounds.  With nested, the first wait's progress hook runs a
// second Waiter's wait on the same cell, as a rank's link send does when it
// waits for room inside a wait, for a flag one more completer publishes;
// when the inner wait returns, the cell must show the outer wait again, and
// once the owner is done, no wait at all.  wakeFirst builds the broken
// completer that signals before it publishes.
func parkThreads(completers, rounds int, nested, wakeFirst bool) Threads {
	cell := ssw.NewWakeCell()
	flags := make([][]atomic.Bool, rounds)
	for r := range flags {
		flags[r] = make([]atomic.Bool, completers)
	}
	var innerFlag atomic.Bool
	var finished bool
	var stateErr error
	complete := func(flag *atomic.Bool) {
		if wakeFirst {
			cell.Wake()
		}
		Yield("complete:publish")
		flag.Store(true)
		if !wakeFirst {
			cell.Wake()
		}
	}
	owner := func() {
		w := &ssw.Waiter{SpinBudget: 2, Cell: cell}
		if nested {
			inner := &ssw.Waiter{SpinBudget: 2, Cell: cell}
			innerPending := true
			w.Progress = func() {
				if innerPending {
					innerPending = false
					inner.Wait(innerFlag.Load)
					if !cell.Wake() { // the owner's own cell, while waiting: a load, no token
						stateErr = fmt.Errorf("the cell shows no wait after a nested wait returned inside another")
					}
				}
			}
		}
		for r := range flags {
			w.Wait(func() bool {
				for i := range flags[r] {
					if !flags[r][i].Load() {
						return false
					}
				}
				return true
			})
		}
		if cell.Wake() {
			stateErr = fmt.Errorf("the cell shows a wait after the owner's last wait returned")
		}
		finished = true
	}
	fns := []func(){owner}
	names := []string{"owner"}
	for i := 0; i < completers; i++ {
		i := i
		fns = append(fns, func() {
			for r := range flags {
				complete(&flags[r][i])
			}
		})
		names = append(names, fmt.Sprintf("completer%d", i))
	}
	if nested {
		fns = append(fns, func() { complete(&innerFlag) })
		names = append(names, "inner")
	}
	return Threads{Names: names, Fns: fns, Final: func() error {
		if !finished {
			return fmt.Errorf("owner never finished")
		}
		return stateErr
	}}
}

// TestCheckParkNoLostWakeup: with its condition true the owner never stays
// blocked — one completer and two concurrent ones, one wait and two in a row
// (stale tokens), with and without a wait nested in the first, under PCT and
// exhaustively.
func TestCheckParkNoLostWakeup(t *testing.T) {
	hook(t)
	for _, cfg := range []struct {
		completers, rounds int
		nested             bool
	}{{1, 1, false}, {2, 1, false}, {1, 2, false}, {2, 2, false}, {1, 1, true}} {
		name := fmt.Sprintf("%d completers, %d rounds, nested %v", cfg.completers, cfg.rounds, cfg.nested)
		mk := func() Threads { return parkThreads(cfg.completers, cfg.rounds, cfg.nested, false) }
		if rep := RunPCT(1, SeedsFromEnv(1000), DefaultPCTDepth, mk); rep.Failed {
			t.Fatalf("%s: %s", name, rep.Error())
		}
		rep := Exhaust(0, 0, mk)
		if rep.Failed {
			t.Fatalf("%s: %s", name, rep.Error())
		}
		t.Logf("%s: exhaustive %d schedules (complete=%v)", name, rep.Schedules, rep.Complete)
		if completions := cfg.completers * cfg.rounds; (completions <= 2 || cfg.nested && completions == 1) && !rep.Complete {
			t.Fatalf("%s: the small configuration was not explored completely", name)
		}
	}
}

// TestCheckParkModelCatchesWakeBeforePublish: the control.  A completer that
// signals before it publishes loses the wake-up in some interleaving, and
// the model must find it — as the deadlock it is.
func TestCheckParkModelCatchesWakeBeforePublish(t *testing.T) {
	hook(t)
	rep := Exhaust(0, 0, func() Threads { return parkThreads(1, 1, false, true) })
	if !rep.Failed || !strings.Contains(rep.Result.Err.Error(), "deadlock") {
		t.Fatalf("signal-before-publish went unnoticed over %d schedules (failed=%v, err=%v)", rep.Schedules, rep.Failed, rep.Result.Err)
	}
	t.Logf("found after %d schedules: %v", rep.Schedules, rep.Result.Err)
}
