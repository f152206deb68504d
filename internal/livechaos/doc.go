// Package livechaos holds the live-process chaos suite: tests that launch
// real OS processes (one per virtual node, re-execing the test binary as
// the worker), connect them over the real TCP transport, and then kill,
// starve, or degrade them mid-run.  It complements the in-process chaos
// tests in internal/core (TestChaosTCP*) with the one failure mode those
// cannot express — a whole node dying without unwinding anything — and the
// purerun launcher's end-to-end path.  A worker runs the verified
// Allreduce loop, or the workload PURE_WORKLOAD names: "shmem-hist" (the
// remote-atomic histogram) or "statsd" (the aggregation pipeline).  See
// docs/TRANSPORT.md.
package livechaos
