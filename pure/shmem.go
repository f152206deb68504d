package pure

import "repro/internal/core"

// Shmem is one rank's handle on a symmetric heap (the PE-local view of the
// PGAS layer): an OpenSHMEM-style symmetric heap over RMA windows, with
// addressed operations by (rank, offset) and actor-style mailboxes on top.
// Its methods are documented on repro/internal/core's Shm, and docs/SHMEM.md
// has the full semantics.  The short version:
//
//   - Comm.ShmemCreate collectively carves an identically sized, 8-aligned
//     region per rank; Malloc/Free run a deterministic symmetric allocator,
//     so the k-th Malloc returns the same offset on every rank and one
//     offset names the "same" object everywhere.
//   - Put/Get/AtomicAdd/AtomicFetchAdd/AtomicCAS/AtomicStore/AtomicLoad
//     address (target rank, heap offset).  Intra-node they are direct
//     copies and hardware atomics on the shared region (zero allocations);
//     inter-node they ride the RMA frame transport and apply through the
//     same atomics on the target, so updates from every origin compose.
//   - Quiet completes the caller's outstanding operations (applied at
//     their targets, not merely delivered); Fence states per-target
//     ordering (structural in this runtime); Barrier is Quiet plus a
//     communicator barrier.
//   - Mailboxes are bounded MPSC rings in the owner's region: any rank
//     Sends, the owner Polls/Recvs, and Select waits on several mailboxes
//     at once, parked in the work-stealing SSW loop.
type Shmem = core.Shm

// Mailbox is an actor-style bounded queue owned by one rank, created
// collectively by Shmem.NewMailbox: any member Sends, only the owner
// Polls/Recvs.  Per-sender FIFO.
type Mailbox = core.Mailbox
