package transport

import (
	"strings"
	"testing"
	"time"
)

// validConfig is a defaults-resolved two-node configuration the error cases
// below perturb one field at a time.
func validConfig() Config {
	return Config{Node: 0, Addrs: []string{"127.0.0.1:9001", "127.0.0.1:9002"}}.WithDefaults()
}

func TestConfigValidateOK(t *testing.T) {
	c := validConfig()
	if err := c.Validate(0); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	if err := c.Validate(time.Second); err != nil {
		t.Fatalf("valid config rejected under hang timeout: %v", err)
	}
}

// TestConfigValidateErrors checks that every way the transport configuration
// can be wrong produces an error that names the field and says what to do
// about it — these strings surface verbatim from pure.Run, so they are the
// user's only diagnostic.
func TestConfigValidateErrors(t *testing.T) {
	cases := []struct {
		name        string
		mut         func(*Config)
		hangTimeout time.Duration
		want        []string
	}{
		{"empty addrs", func(c *Config) { c.Addrs = nil }, 0,
			[]string{"Addrs is empty", "one listen address per node"}},
		{"node negative", func(c *Config) { c.Node = -1 }, 0,
			[]string{"Node -1 out of range"}},
		{"node past table", func(c *Config) { c.Node = 2 }, 0,
			[]string{"Node 2 out of range", "[0,2)"}},
		{"empty addr entry", func(c *Config) { c.Addrs[1] = "" }, 0,
			[]string{"Addrs[1] is empty"}},
		{"addr without port", func(c *Config) { c.Addrs[1] = "hostonly" }, 0,
			[]string{`Addrs[1] = "hostonly" has no port`, "host:port"}},
		{"duplicate addrs", func(c *Config) { c.Addrs[1] = c.Addrs[0] }, 0,
			[]string{"Addrs[0] and Addrs[1]", "cannot share a listen address"}},
		{"negative heartbeat", func(c *Config) { c.HeartbeatEvery = -time.Second }, 0,
			[]string{"HeartbeatEvery must be positive"}},
		{"negative dial timeout", func(c *Config) { c.DialTimeout = -1 }, 0,
			[]string{"DialTimeout must be positive"}},
		{"peer-dead below heartbeat", func(c *Config) { c.PeerDeadAfter = c.HeartbeatEvery / 2 }, 0,
			[]string{"PeerDeadAfter", "below HeartbeatEvery", "dead between heartbeats"}},
		{"peer-dead above hang timeout", func(c *Config) {}, 100 * time.Millisecond,
			[]string{"PeerDeadAfter", "must be below HangTimeout", "anonymous stall"}},
		{"negative drain timeout", func(c *Config) { c.DrainTimeout = -time.Second }, 0,
			[]string{"DrainTimeout must be positive"}},
		{"negative max unacked", func(c *Config) { c.MaxUnacked = -1 }, 0,
			[]string{"MaxUnacked must not be negative"}},
		{"reset prob above one", func(c *Config) { c.Faults.ResetProb = 1.5 }, 0,
			[]string{"Faults.ResetProb must be in [0, 1]", "1.5"}},
		{"negative delay prob", func(c *Config) { c.Faults.DelayProb = -0.25 }, 0,
			[]string{"Faults.DelayProb must be in [0, 1]"}},
		{"delay prob without max", func(c *Config) { c.Faults.DelayProb = 0.5 }, 0,
			[]string{"Faults.DelayProb 0.5 needs a positive Faults.DelayMax"}},
	}
	for _, tc := range cases {
		c := validConfig()
		tc.mut(&c)
		err := c.Validate(tc.hangTimeout)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		for _, want := range tc.want {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q missing %q", tc.name, err, want)
			}
		}
	}
}

func TestConfigWithDefaults(t *testing.T) {
	c := Config{Addrs: []string{"a:1", "b:2"}}.WithDefaults()
	if c.HeartbeatEvery != DefaultHeartbeatEvery {
		t.Fatalf("HeartbeatEvery = %v", c.HeartbeatEvery)
	}
	if c.PeerDeadAfter != DefaultPeerDeadFactor*DefaultHeartbeatEvery {
		t.Fatalf("PeerDeadAfter = %v", c.PeerDeadAfter)
	}
	if c.MaxUnacked != DefaultMaxUnacked {
		t.Fatalf("MaxUnacked = %d", c.MaxUnacked)
	}
	if c.DrainTimeout != DefaultDrainTimeout {
		t.Fatalf("DrainTimeout = %v, want %v", c.DrainTimeout, DefaultDrainTimeout)
	}
	// A custom heartbeat scales the derived dead interval.
	c2 := Config{HeartbeatEvery: 5 * time.Millisecond}.WithDefaults()
	if c2.PeerDeadAfter != DefaultPeerDeadFactor*5*time.Millisecond {
		t.Fatalf("derived PeerDeadAfter = %v", c2.PeerDeadAfter)
	}
}

func TestFromEnv(t *testing.T) {
	t.Setenv(EnvAddrs, "")
	cfg, err := FromEnv()
	if cfg != nil || err != nil {
		t.Fatalf("unset env: %v, %v", cfg, err)
	}

	t.Setenv(EnvAddrs, "127.0.0.1:1,127.0.0.1:2,127.0.0.1:3")
	if _, err := FromEnv(); err == nil {
		t.Fatal("missing PURE_NODE accepted")
	}
	t.Setenv(EnvNode, "nope")
	if _, err := FromEnv(); err == nil {
		t.Fatal("bad PURE_NODE accepted")
	}
	t.Setenv(EnvNode, "2")
	t.Setenv(EnvJob, "77")
	cfg, err = FromEnv()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Node != 2 || len(cfg.Addrs) != 3 || cfg.Job != 77 {
		t.Fatalf("env config: %+v", cfg)
	}
	t.Setenv(EnvJob, "not-a-number")
	if _, err := FromEnv(); err == nil {
		t.Fatal("bad PURE_JOB accepted")
	}
}
