// Package netsim stands in for the inter-node network.  The paper runs on
// Cori's Cray Aries dragonfly interconnect and delegates cross-node traffic
// to Cray MPICH; this reproduction runs every rank in one address space, so
// a cross-node message would otherwise be indistinguishable from a local
// one.  netsim restores the distinction by charging a modeled wire time
// (latency + size/bandwidth + per-message host CPU overhead) before a
// cross-node payload is delivered.
//
// The same cost model is shared with the discrete-event simulator
// (internal/cluster), which uses Cost directly instead of spinning.
package netsim

import (
	"runtime"
	"time"
)

// Config models one link class of the network.
type Config struct {
	// LatencyNs is the one-way zero-byte latency in nanoseconds.
	LatencyNs int64
	// BytesPerNs is the effective per-rank bandwidth (bytes per nanosecond;
	// 1.0 == 1 GB/s x 1e9/2^30 ≈ 0.93 GiB/s).
	BytesPerNs float64
	// PerMsgCPUNs is host-side software overhead per message (matching,
	// library dispatch) charged in addition to the wire time.
	PerMsgCPUNs int64
	// TimeScale divides every modeled delay, so tests can run the same model
	// quickly.  Zero or one means full scale.
	TimeScale int64
}

// Aries returns a cost model in the regime of the Cray Aries network used in
// the paper's evaluation: ~1.3 us one-way latency and ~10 GB/s effective
// per-rank bandwidth.
func Aries() Config {
	return Config{LatencyNs: 1300, BytesPerNs: 10.0, PerMsgCPUNs: 250}
}

// Loopback returns a near-zero-cost model for single-node configurations and
// fast tests.
func Loopback() Config {
	return Config{LatencyNs: 0, BytesPerNs: 0, PerMsgCPUNs: 0}
}

// Cost returns the modeled nanoseconds to move a message of the given size
// across the link (before TimeScale).
func (c Config) Cost(bytes int) int64 {
	t := c.LatencyNs + c.PerMsgCPUNs
	if c.BytesPerNs > 0 {
		t += int64(float64(bytes) / c.BytesPerNs)
	}
	return t
}

// Network charges the cost model's wire delays in the real runtime.  It
// never loses, duplicates or reorders anything: loss and recovery belong to
// internal/transport, the one link layer.
type Network struct {
	cfg Config
}

// New builds a network with the given cost model.
func New(cfg Config) *Network { return &Network{cfg: cfg} }

// Transfer blocks the caller for the modeled time of moving bytes across the
// link.  Short delays busy-spin for fidelity; delays beyond ~5 us yield to
// the scheduler between probes so an oversubscribed host stays live.
func (n *Network) Transfer(bytes int) {
	d := n.cfg.Cost(bytes)
	if n.cfg.TimeScale > 1 {
		d /= n.cfg.TimeScale
	}
	if d <= 0 {
		return
	}
	deadline := time.Now().Add(time.Duration(d))
	for time.Now().Before(deadline) {
		if d > 5000 {
			runtime.Gosched()
		}
	}
}
