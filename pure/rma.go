package pure

import (
	"repro/internal/core"
	"repro/internal/rma"
)

// NotifySlots is the number of independent notification counters each rank
// exposes per window.
const NotifySlots = rma.NotifySlots

// Window is a one-sided communication window (the analogue of MPI_Win):
// shared-memory windows with Put / Get / Accumulate and lock-free epoch
// synchronization.  A Window handle belongs to the rank that created it; its
// methods are documented on repro/internal/core's Win, and docs/RMA.md has
// the full semantics.  The short version:
//
//   - Comm.WinCreate collectively exposes a buffer per rank.  Intra-node Put
//     and Get are single direct copies into/out of the peer's exposed
//     memory; inter-node operations ride the links as frames and are applied
//     by the target's runtime.
//   - Operations become visible only through synchronization: Fence epochs,
//     Post/Start/Complete/Wait (PSCW) for neighbor-scoped epochs, or
//     Notify/NotifyWait counters for producer-consumer patterns.
//   - Unsynchronized concurrent access to the same window bytes is an
//     application data race, exactly as in MPI; Accumulate is the exception
//     (serialized per target).
type Window = core.Win
