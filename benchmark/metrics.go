package main

// The metric tables.  BENCHMARK.json at the repository root is generated
// from them (`-print-manifest`), and benchmark_test.go asserts the two stay
// equal, so a later change cannot silently rename the yardstick.

// metricDef is one metric of the manifest.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: the share of the parent's median it may worsen by
	// Moves says, for a per-layer metric, which end-to-end metric on which
	// workload it should move, written down before anything is measured.
	// BENCHMARK.json has no field for it; the result file and README do.
	Moves string
}

// endToEnd is what a user of the runtime sees.  The driver requires every
// run to report every end-to-end metric, so each is defined for every
// workload (the table in README.md says what it is on each), is never 0,
// and is measured in the timed repetitions with nothing observed.
//
// Every bound is the largest the driver allows.  Six of the seven workloads
// repeat to 1-6 % between back-to-back runs, but the box is a 2-vCPU VM
// whose host drifts: xnode-tcp, whose latency is mostly vCPU wake-up time,
// moved by 20 % over half an hour with the code unchanged.  A bound below
// the drift would reject unchanged code; comparisons finer than the bound
// are made with interleaved runs and the per-layer counters (README).
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "op_ns_p50", Unit: "ns", Better: "lower", Bound: 0.25},
	{Name: "op_ns_p90", Unit: "ns", Better: "lower", Bound: 0.25},
	{Name: "throughput_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
}

// perLayer is the ladder.  A metric is 0 on a workload that bypasses its
// layer — that is the "predicted flat" column of the README made checkable.
// The first block holds the phase metrics of single workloads; they are
// end-to-end quantities in everything but the driver's sense (it wants
// every end-to-end metric on every workload), so they carry no bound.
var perLayer = []metricDef{
	{Name: "wall_s", Unit: "s", Better: "lower", Moves: "time to solution of one fixed-size repetition; every workload (see README: why it is not end-to-end)"},
	{Name: "rtt_8B_ns_p50", Unit: "ns", Better: "lower", Moves: "op_ns_p50 on p2p-intra, xnode-tcp (it is that metric there)"},
	{Name: "rtt_8B_ns_p99", Unit: "ns", Better: "lower", Moves: "op_ns_p99 on p2p-intra, xnode-tcp (it is that metric there)"},
	{Name: "rtt_64KiB_ns_p50", Unit: "ns", Better: "lower", Moves: "wall_s on p2p-intra, xnode-tcp (rendezvous phase)"},
	{Name: "stream_msgs_per_s", Unit: "1/s", Better: "higher", Moves: "throughput_per_s on p2p-intra, xnode-tcp (it is that metric there)"},
	{Name: "barrier_ns_p50", Unit: "ns", Better: "lower", Moves: "throughput_per_s and wall_s on coll-intra"},
	{Name: "allreduce_8B_ns_p50", Unit: "ns", Better: "lower", Moves: "op_ns_p50 on coll-intra (it is that metric there); wall_s on xnode-tcp"},
	{Name: "allreduce_8B_ns_p99", Unit: "ns", Better: "lower", Moves: "op_ns_p99 on coll-intra (it is that metric there)"},
	{Name: "allreduce_64KiB_ns_p50", Unit: "ns", Better: "lower", Moves: "wall_s on coll-intra (partitioned-reducer phase)"},
	{Name: "events_per_s", Unit: "1/s", Better: "higher", Moves: "throughput_per_s on statsd-stream (it is that metric there)"},
	{Name: "updates_per_s", Unit: "1/s", Better: "higher", Moves: "throughput_per_s on pgas-hist (it is that metric there)"},
	{Name: "allocs_per_op", Unit: "1/op", Better: "lower", Moves: "the machine-independent gate on every workload; wall_s through GC work"},

	{Name: "queue.pbq_rtt_8B_ns", Unit: "ns", Better: "lower", Moves: "op_ns_p50 on p2p-intra (first rung of the intra-node ladder)"},
	{Name: "queue.pbq_rtt_8KiB_ns", Unit: "ns", Better: "lower", Moves: "op_ns_p50 on p2p-intra for eager payloads near the threshold"},
	{Name: "queue.pbq_enqueue_full", Unit: "count", Better: "lower", Moves: "throughput_per_s on p2p-intra, statsd-stream"},
	{Name: "queue.pbq_depth_max", Unit: "count", Better: "lower", Moves: "throughput_per_s on p2p-intra, statsd-stream"},

	{Name: "core.channel_rtt_8B_ns", Unit: "ns", Better: "lower", Moves: "op_ns_p50 on p2p-intra"},
	{Name: "core.channel_tax_ns", Unit: "ns", Better: "lower", Moves: "op_ns_p50 on p2p-intra (= channel - queue.pbq_rtt_8B_ns)"},
	{Name: "core.isend_irecv_rtt_8B_ns", Unit: "ns", Better: "lower", Moves: "wall_s on comd-balanced (Sendrecv is Isend+Irecv+Wait)"},
	{Name: "core.rendezvous_rtt_64KiB_ns", Unit: "ns", Better: "lower", Moves: "wall_s on p2p-intra"},
	{Name: "core.rendezvous_MBps", Unit: "MB/s", Better: "higher", Moves: "wall_s on p2p-intra"},
	{Name: "core.memcpy_MBps", Unit: "MB/s", Better: "higher", Moves: "nothing: the floor rendezvous is compared with"},
	{Name: "core.rendezvous_over_memcpy", Unit: "ratio", Better: "lower", Moves: "wall_s on p2p-intra (1.0 = one copy at memory speed)"},
	{Name: "core.send_ns_per_msg", Unit: "ns", Better: "lower", Moves: "throughput_per_s on p2p-intra"},
	{Name: "core.sendbatch_ns_per_msg", Unit: "ns", Better: "lower", Moves: "throughput_per_s on statsd-stream"},
	{Name: "core.sends_eager", Unit: "count", Better: "lower", Moves: "exact count; flat on coll-intra, pgas-hist"},
	{Name: "core.sends_rendezvous", Unit: "count", Better: "lower", Moves: "exact count; flat on coll-intra, pgas-hist"},
	{Name: "core.sends_remote", Unit: "count", Better: "lower", Moves: "exact count; nonzero only on xnode-tcp"},
	{Name: "core.bytes_sent", Unit: "bytes", Better: "lower", Moves: "exact count"},
	{Name: "core.remote_tax_ns", Unit: "ns", Better: "lower", Moves: "op_ns_p50 on xnode-tcp (= rtt_8B_ns_p50 - transport.link_rtt_8B_ns)"},

	{Name: "pure.comm_rtt_8B_ns", Unit: "ns", Better: "lower", Moves: "wall_s on comd-balanced (apps use Comm, not Channel)"},
	{Name: "pure.wrapper_tax_ns", Unit: "ns", Better: "lower", Moves: "wall_s on comd-balanced (= comm - channel)"},
	{Name: "comm.backend_rtt_8B_ns", Unit: "ns", Better: "lower", Moves: "wall_s on comd-balanced"},
	{Name: "comm.backend_tax_ns", Unit: "ns", Better: "lower", Moves: "wall_s on comd-balanced (= backend - comm)"},
	{Name: "comm.p2p_s", Unit: "s", Better: "lower", Moves: "wall_s on comd-balanced"},
	{Name: "comm.collective_s", Unit: "s", Better: "lower", Moves: "wall_s on comd-balanced"},
	{Name: "comm.task_s", Unit: "s", Better: "lower", Moves: "wall_s on comd-steal"},
	{Name: "comm.compute_s", Unit: "s", Better: "lower", Moves: "wall_s on comd-balanced, comd-steal (= wall - the three above)"},
	{Name: "comm.msgs_per_step", Unit: "1/step", Better: "lower", Moves: "wall_s on comd-balanced"},
	{Name: "comm.bytes_per_step", Unit: "B/step", Better: "lower", Moves: "wall_s on comd-balanced"},

	{Name: "ssw.steal_attempts", Unit: "count", Better: "lower", Moves: "wall_s on comd-steal; flat on comd-balanced"},
	{Name: "ssw.steals_succeeded", Unit: "count", Better: "higher", Moves: "wall_s on comd-steal"},
	{Name: "ssw.steal_hit_ratio", Unit: "ratio", Better: "higher", Moves: "wall_s on comd-steal"},
	{Name: "ssw.blocked_s", Unit: "s", Better: "lower", Moves: "wall_s on comd-steal, comd-balanced"},

	{Name: "sched.task_execute_s", Unit: "s", Better: "lower", Moves: "wall_s on comd-steal"},
	{Name: "sched.chunks_owned", Unit: "count", Better: "lower", Moves: "wall_s on comd-steal"},
	{Name: "sched.chunks_stolen", Unit: "count", Better: "higher", Moves: "wall_s on comd-steal"},
	{Name: "sched.stolen_frac", Unit: "ratio", Better: "higher", Moves: "wall_s on comd-steal"},
	{Name: "sched.steal_speedup", Unit: "ratio", Better: "higher", Moves: "wall_s on comd-steal (untasked run / tasked run)"},
	{Name: "sched.task_overhead_ns", Unit: "ns", Better: "lower", Moves: "wall_s on comd-steal; the price of a task on a balanced run"},

	{Name: "collective.sptd_allreduce_8B_ns", Unit: "ns", Better: "lower", Moves: "op_ns_p50 on coll-intra"},
	{Name: "collective.partitioned_allreduce_64KiB_ns", Unit: "ns", Better: "lower", Moves: "wall_s on coll-intra"},
	{Name: "collective.partitioned_MBps", Unit: "MB/s", Better: "higher", Moves: "wall_s on coll-intra; rollup share of throughput_per_s on statsd-stream"},
	{Name: "collective.comm_tax_ns", Unit: "ns", Better: "lower", Moves: "op_ns_p50 on coll-intra (= allreduce_8B_ns_p50 - raw SPTD)"},
	{Name: "collective.bcast_8B_ns", Unit: "ns", Better: "lower", Moves: "informational; shares the dropbox with op_ns_p50 on coll-intra"},
	{Name: "collective.reduce_8B_ns", Unit: "ns", Better: "lower", Moves: "informational; shares the dropbox with op_ns_p50 on coll-intra"},
	{Name: "collective.allreduce_8B_4r_ns", Unit: "ns", Better: "lower", Moves: "informational: 4 ranks on 2 cores measure the Go scheduler"},
	{Name: "collective.calls", Unit: "count", Better: "lower", Moves: "exact count; flat on p2p-intra"},

	{Name: "transport.raw_tcp_rtt_8B_ns", Unit: "ns", Better: "lower", Moves: "nothing: the loopback floor under op_ns_p50 on xnode-tcp"},
	{Name: "transport.link_rtt_8B_ns", Unit: "ns", Better: "lower", Moves: "op_ns_p50 on xnode-tcp"},
	{Name: "transport.link_tax_ns", Unit: "ns", Better: "lower", Moves: "op_ns_p50 on xnode-tcp (= link - raw TCP)"},
	{Name: "transport.link_allocs_per_frame", Unit: "1/frame", Better: "lower", Moves: "allocs_per_op on xnode-tcp"},
	{Name: "transport.dial_s", Unit: "s", Better: "lower", Moves: "setup_s on xnode-tcp"},
	{Name: "transport.frames_per_msg", Unit: "ratio", Better: "lower", Moves: "throughput_per_s on xnode-tcp"},
	{Name: "transport.bytes_per_msg", Unit: "B/msg", Better: "lower", Moves: "throughput_per_s on xnode-tcp"},
	{Name: "transport.acks_sent", Unit: "count", Better: "lower", Moves: "throughput_per_s on xnode-tcp"},
	{Name: "transport.retransmits", Unit: "count", Better: "lower", Moves: "must be 0 on loopback"},
	{Name: "transport.retry_rounds", Unit: "count", Better: "lower", Moves: "must be 0 on loopback"},
	{Name: "transport.send_busy", Unit: "count", Better: "lower", Moves: "throughput_per_s on xnode-tcp"},
	{Name: "transport.allreduce_2x2_ns_p50", Unit: "ns", Better: "lower", Moves: "informational: 2 nodes x 2 ranks oversubscribe 2 cores"},
	{Name: "transport.allreduce_2x2_ns_p90", Unit: "ns", Better: "lower", Moves: "informational: a timer, not wire time (ROADMAP item 3)"},

	{Name: "shmem.atomic_add_ns", Unit: "ns", Better: "lower", Moves: "throughput_per_s on pgas-hist"},
	{Name: "shmem.put_8B_ns", Unit: "ns", Better: "lower", Moves: "informational; same addressed-op path as throughput_per_s on pgas-hist"},
	{Name: "shmem.put_1KiB_ns", Unit: "ns", Better: "lower", Moves: "informational; same addressed-op path as throughput_per_s on pgas-hist"},
	{Name: "shmem.barrier_ns", Unit: "ns", Better: "lower", Moves: "op_ns_p99 on pgas-hist (round ends)"},
	{Name: "shmem.mailbox_rtt_ns", Unit: "ns", Better: "lower", Moves: "informational; no workload uses mailboxes"},
	{Name: "rma.put_fence_8B_ns", Unit: "ns", Better: "lower", Moves: "informational; the window layer under shmem"},
	{Name: "shmem.atomics", Unit: "count", Better: "lower", Moves: "exact count; nonzero only on pgas-hist"},

	{Name: "statsd.parse_ns_per_line", Unit: "ns", Better: "lower", Moves: "throughput_per_s on statsd-stream"},
	{Name: "statsd.aggregate_ns_per_event", Unit: "ns", Better: "lower", Moves: "throughput_per_s on statsd-stream"},
	{Name: "statsd.events_per_frame", Unit: "ratio", Better: "higher", Moves: "throughput_per_s on statsd-stream"},
	{Name: "statsd.dropped", Unit: "count", Better: "lower", Moves: "must be 0 under the blocking policy"},
	{Name: "statsd.stolen_chunks", Unit: "count", Better: "higher", Moves: "throughput_per_s on statsd-stream"},

	{Name: "obs.trace_overhead_ratio", Unit: "ratio", Better: "lower", Moves: "no end-to-end metric by construction: the check that disabled tracing stays free"},
	{Name: "obs.monitor_overhead_ratio", Unit: "ratio", Better: "lower", Moves: "no end-to-end metric by construction (p2p-intra only)"},
	{Name: "obs.trace_events", Unit: "count", Better: "lower", Moves: "obs.trace_overhead_ratio"},
	{Name: "obs.trace_dropped", Unit: "count", Better: "lower", Moves: "obs.trace_overhead_ratio"},

	{Name: "proc.cpu_s", Unit: "s", Better: "lower", Moves: "says whether the processor was busy when a throughput moved"},
	{Name: "proc.cpu_util", Unit: "cores", Better: "lower", Moves: "says whether the processor was busy when a throughput moved"},
	{Name: "proc.heap_sys_mb", Unit: "MB", Better: "lower", Moves: "memory, so work moved into set-up shows"},
	{Name: "proc.alloc_bytes_per_op", Unit: "B/op", Better: "lower", Moves: "allocs_per_op"},
	{Name: "proc.gc_cycles", Unit: "count", Better: "lower", Moves: "wall_s through GC work"},
	{Name: "harness.timer_ns", Unit: "ns", Better: "lower", Moves: "nothing: the cost of the one clock reading every latency sample carries"},
	{Name: "apps.comd_parallel_eff", Unit: "ratio", Better: "higher", Moves: "wall_s on comd-balanced, comd-steal (one-rank run / 2 x wall_s)"},
	{Name: "apps.comd_atom_steps_per_s", Unit: "1/s", Better: "higher", Moves: "throughput_per_s on comd-balanced, comd-steal (it is that metric there)"},
}

// allocsBound is the absolute regression bound -compare applies to
// allocs_per_op, which is 0 on most workloads and so cannot have a
// relative one.
const allocsBound = 0.05
