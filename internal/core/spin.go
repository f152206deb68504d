package core

import "repro/internal/ssw"

// deriveSpinBudget grades the SSW-Loop spin budget by how oversubscribed
// the host is:
//
//   - Every spinner can own a hardware thread (gomaxprocs >= live): spin
//     freely, the paper's discipline — the peer flipping the condition is
//     running *right now* on another core.
//   - A single P (gomaxprocs == 1): no peer can run concurrently, ever, so
//     every probe after the first is pure waste and the only useful move
//     is yielding the P to whoever will flip the condition.  Near-immediate
//     yield: a blocked receive pays two probes per wakeup, not a full
//     budget.
//   - In between: scale the budget by the occupancy ratio.  Some peers are
//     running concurrently, so moderate spinning still catches flips
//     without a scheduler round trip, but burning a full budget per wakeup
//     just starves the descheduled ones.
func deriveSpinBudget(gomaxprocs, live int) int {
	switch {
	case live <= 0 || gomaxprocs >= live:
		return ssw.DefaultSpinBudget
	case gomaxprocs == 1:
		return 2
	default:
		b := ssw.DefaultSpinBudget * gomaxprocs / live
		if b < 4 {
			b = 4
		}
		return b
	}
}
