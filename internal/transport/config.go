package transport

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// Defaults.  Heartbeats are cheap (one 64-byte frame per link per interval),
// so the interval errs toward fast failure detection; PeerDeadAfter trades
// false positives under scheduler stalls against detection latency and must
// sit well below the watchdog's HangTimeout (Validate enforces it) so a dead
// node is named before the hang diagnosis fires.
const (
	DefaultHeartbeatEvery  = 25 * time.Millisecond
	DefaultPeerDeadFactor  = 8 // PeerDeadAfter = factor * HeartbeatEvery
	DefaultDialTimeout     = 2 * time.Second
	DefaultDialBackoff     = 20 * time.Millisecond
	DefaultDialBackoffMax  = time.Second
	DefaultRetryBudget     = 16
	DefaultRetryBackoff    = 20 * time.Millisecond
	DefaultRetryBackoffMax = time.Second
	// DefaultMaxUnacked bounds the per-link resend buffer (frames).  A full
	// buffer pushes back on senders instead of growing without bound toward
	// a slow or silent peer.
	DefaultMaxUnacked = 4096
	// DefaultDrainTimeout bounds the graceful-close drain (see
	// Config.DrainTimeout).
	DefaultDrainTimeout = 2 * time.Second
)

// Faults is the fault plan, the runtime's only injector of loss and delay:
// seeded, deterministic per link, and applied only to the first transmission
// of a sequenced frame — retransmissions are exempt, so every injected drop
// is recoverable and exercises exactly the recovery path.  Delays are applied
// on the receive side (the reader sleeps before processing), modeling added
// one-way latency; one longer than the sender's retransmit timer also brings
// duplicates.  Nothing reorders a stream: what arrives past a gap is the
// go-back-N receiver's own discard.
type Faults struct {
	Seed      uint64        // RNG seed; links derive independent streams from it
	DropProb  float64       // probability a sequenced frame's first transmission is dropped
	DelayProb float64       // probability an arriving sequenced frame is delayed
	DelayMax  time.Duration // upper bound of the injected (uniform) delay
}

// Active reports whether any fault injection is configured.
func (f Faults) Active() bool { return f.DropProb > 0 || f.DelayProb > 0 }

// Config configures one node's transport endpoint.
type Config struct {
	// Node is this process's node id in [0, len(Addrs)).
	Node int
	// Addrs is the listen address of every node in the job, indexed by node
	// id.  All nodes must be configured with the same table.
	Addrs []string
	// Job identifies the job; links reject peers from a different job (a
	// stale process from a previous run redialing a reused port).
	Job uint64

	// HeartbeatEvery is the per-link keepalive interval (0 = default).
	HeartbeatEvery time.Duration
	// PeerDeadAfter declares a peer dead when nothing — data, ack, or
	// heartbeat — has arrived on its link for this long (0 = default:
	// DefaultPeerDeadFactor heartbeat intervals).  It must be shorter than
	// the runtime's HangTimeout, so survivors learn *which node* died
	// instead of diagnosing an anonymous stall.
	PeerDeadAfter time.Duration

	// DialTimeout bounds one connection attempt; DialBackoff/DialBackoffMax
	// shape the exponential backoff between attempts (0 = defaults).
	DialTimeout    time.Duration
	DialBackoff    time.Duration
	DialBackoffMax time.Duration

	// RetryBudget is how many retransmission rounds a link tolerates without
	// ack progress before declaring the peer dead; RetryBackoff/
	// RetryBackoffMax shape the exponential backoff between rounds
	// (0 = defaults, negative RetryBudget is invalid).
	RetryBudget     int
	RetryBackoff    time.Duration
	RetryBackoffMax time.Duration

	// MaxUnacked bounds the per-link resend buffer in frames (0 = default).
	MaxUnacked int

	// DrainTimeout bounds how long a graceful Close waits for in-flight
	// frames to be acknowledged before tearing connections down
	// (0 = default).  Sends complete at post, so without the drain a
	// process whose last act is a send could exit with the frame still in
	// the resend buffer — or still waiting on the initial dial — and the
	// payload would be silently lost while the peer blocks until heartbeat
	// death.  Aborts skip the drain: poison must not wait behind a wedged
	// link.
	DrainTimeout time.Duration

	// LinkEvents, when positive, gives each link a transport trace ring of
	// that many entries recording frame send/recv/retransmit events with
	// link sequence numbers (read back via Transport.LinkEvents).  The
	// runtime enables it exactly when rank tracing is on; 0 keeps the send
	// path free of trace work.
	LinkEvents int

	// Faults is the transport fault plan (chaos testing).
	Faults Faults
}

// WithDefaults returns c with zero values replaced by the defaults.
func (c Config) WithDefaults() Config {
	if c.HeartbeatEvery == 0 {
		c.HeartbeatEvery = DefaultHeartbeatEvery
	}
	if c.PeerDeadAfter == 0 {
		c.PeerDeadAfter = DefaultPeerDeadFactor * c.HeartbeatEvery
	}
	if c.DialTimeout == 0 {
		c.DialTimeout = DefaultDialTimeout
	}
	if c.DialBackoff == 0 {
		c.DialBackoff = DefaultDialBackoff
	}
	if c.DialBackoffMax == 0 {
		c.DialBackoffMax = DefaultDialBackoffMax
	}
	if c.RetryBudget == 0 {
		c.RetryBudget = DefaultRetryBudget
	}
	if c.RetryBackoff == 0 {
		c.RetryBackoff = DefaultRetryBackoff
	}
	if c.RetryBackoffMax == 0 {
		c.RetryBackoffMax = DefaultRetryBackoffMax
	}
	if c.MaxUnacked == 0 {
		c.MaxUnacked = DefaultMaxUnacked
	}
	if c.DrainTimeout == 0 {
		c.DrainTimeout = DefaultDrainTimeout
	}
	return c
}

// Validate checks the (defaults-resolved) configuration, returning a
// descriptive error for each way it can be wrong.  hangTimeout is the
// runtime watchdog's timeout (0 when the watchdog is disarmed): failure
// detection must beat it, or every node death would be reported as an
// anonymous stall.
func (c *Config) Validate(hangTimeout time.Duration) error {
	if len(c.Addrs) == 0 {
		return fmt.Errorf("transport: Addrs is empty: a transport needs one listen address per node")
	}
	if c.Node < 0 || c.Node >= len(c.Addrs) {
		return fmt.Errorf("transport: Node %d out of range [0,%d) of the Addrs table", c.Node, len(c.Addrs))
	}
	for i, a := range c.Addrs {
		if a == "" {
			return fmt.Errorf("transport: Addrs[%d] is empty: every node needs a listen address", i)
		}
		if !strings.Contains(a, ":") {
			return fmt.Errorf("transport: Addrs[%d] = %q has no port (want host:port)", i, a)
		}
	}
	seen := make(map[string]int, len(c.Addrs))
	for i, a := range c.Addrs {
		if j, dup := seen[a]; dup {
			return fmt.Errorf("transport: Addrs[%d] and Addrs[%d] are both %q: nodes cannot share a listen address", j, i, a)
		}
		seen[a] = i
	}
	for _, d := range []struct {
		name string
		v    time.Duration
	}{
		{"HeartbeatEvery", c.HeartbeatEvery},
		{"PeerDeadAfter", c.PeerDeadAfter},
		{"DialTimeout", c.DialTimeout},
		{"DialBackoff", c.DialBackoff},
		{"DialBackoffMax", c.DialBackoffMax},
		{"RetryBackoff", c.RetryBackoff},
		{"RetryBackoffMax", c.RetryBackoffMax},
		{"DrainTimeout", c.DrainTimeout},
	} {
		if d.v <= 0 {
			return fmt.Errorf("transport: %s must be positive (0 selects the default before validation), got %v", d.name, d.v)
		}
	}
	if c.PeerDeadAfter < c.HeartbeatEvery {
		return fmt.Errorf("transport: PeerDeadAfter (%v) below HeartbeatEvery (%v) would declare every peer dead between heartbeats",
			c.PeerDeadAfter, c.HeartbeatEvery)
	}
	if hangTimeout > 0 && c.PeerDeadAfter >= hangTimeout {
		return fmt.Errorf("transport: PeerDeadAfter (%v) must be below HangTimeout (%v) so a dead node is named before the watchdog diagnoses an anonymous stall",
			c.PeerDeadAfter, hangTimeout)
	}
	if c.RetryBudget < 0 {
		return fmt.Errorf("transport: RetryBudget must not be negative (0 selects the default %d), got %d", DefaultRetryBudget, c.RetryBudget)
	}
	if c.MaxUnacked < 0 {
		return fmt.Errorf("transport: MaxUnacked must not be negative (0 selects the default %d), got %d", DefaultMaxUnacked, c.MaxUnacked)
	}
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"DropProb", c.Faults.DropProb},
		{"DelayProb", c.Faults.DelayProb},
	} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("transport: Faults.%s must be in [0, 1], got %g", p.name, p.v)
		}
	}
	if c.Faults.DelayProb > 0 && c.Faults.DelayMax <= 0 {
		return fmt.Errorf("transport: Faults.DelayProb %g needs a positive Faults.DelayMax", c.Faults.DelayProb)
	}
	return nil
}

// Environment variables understood by FromEnv (set by the purerun launcher).
const (
	EnvNode  = "PURE_NODE"  // this process's node id
	EnvAddrs = "PURE_ADDRS" // comma-separated listen addresses, indexed by node id
	EnvJob   = "PURE_JOB"   // numeric job id (optional, default 0)
	// EnvMonitor is the monitor listen address purerun -monitor assigns to
	// each worker.  FromEnv does not consume it (the monitor belongs to the
	// runtime, not the transport); workers read it and set
	// Config.MonitorAddr so the launcher's aggregator can scrape them.
	EnvMonitor = "PURE_MONITOR"
)

// FromEnv builds a Config from the PURE_NODE / PURE_ADDRS / PURE_JOB
// environment, the contract between the purerun launcher and the processes
// it spawns.  It returns (nil, nil) when PURE_ADDRS is unset — the process
// is running standalone, not under a launcher.
func FromEnv() (*Config, error) {
	addrs := os.Getenv(EnvAddrs)
	if addrs == "" {
		return nil, nil
	}
	nodeStr := os.Getenv(EnvNode)
	if nodeStr == "" {
		return nil, fmt.Errorf("transport: %s is set but %s is not", EnvAddrs, EnvNode)
	}
	node, err := strconv.Atoi(nodeStr)
	if err != nil {
		return nil, fmt.Errorf("transport: bad %s %q: %v", EnvNode, nodeStr, err)
	}
	cfg := &Config{Node: node, Addrs: strings.Split(addrs, ",")}
	if j := os.Getenv(EnvJob); j != "" {
		job, err := strconv.ParseUint(j, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("transport: bad %s %q: %v", EnvJob, j, err)
		}
		cfg.Job = job
	}
	return cfg, nil
}
