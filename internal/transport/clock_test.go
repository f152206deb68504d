package transport

import (
	"testing"
)

// sym feeds one symmetric-path exchange: the peer's clock leads ours by off,
// each direction takes d, and the peer holds the echo for hold.
func sym(c *ClockEstimator, t0, off, d, hold int64) bool {
	t1 := t0 + d + off    // peer receives our heartbeat (peer clock)
	t2 := t1 + hold       // peer sends its heartbeat back (peer clock)
	t3 := t0 + 2*d + hold // we receive it (our clock)
	return c.AddSample(t0, t1, t2, t3)
}

func TestClockEstimatorSymmetric(t *testing.T) {
	var c ClockEstimator
	const off, d = 5_000_000, 40_000 // peer leads by 5ms, 40µs one-way
	t0 := int64(1_000_000)
	for i := 0; i < 10; i++ {
		if !sym(&c, t0, off, d, 10_000) {
			t.Fatalf("sample %d rejected", i)
		}
		t0 += 1_000_000
	}
	got, ok := c.Offset()
	if !ok || got != off {
		t.Fatalf("Offset() = %d, %v; want %d, true", got, ok, off)
	}
	delay, ok := c.Delay()
	if !ok || delay != 2*d {
		t.Fatalf("Delay() = %d, %v; want %d, true", delay, ok, 2*d)
	}
	if c.Samples() != 10 {
		t.Fatalf("Samples() = %d, want 10", c.Samples())
	}
}

func TestClockEstimatorAsymmetricDelays(t *testing.T) {
	// With asymmetric path delays d1 (to peer) and d2 (back), the estimate's
	// error is (d1-d2)/2 — bounded by half the RTT.  The min-delay filter
	// must pick the most symmetric (lowest-RTT) sample.
	var c ClockEstimator
	const off = -3_000_000 // peer lags by 3ms
	add := func(t0, d1, d2 int64) {
		t1 := t0 + d1 + off
		t2 := t1 + 1000
		t3 := t0 + d1 + d2 + 1000
		c.AddSample(t0, t1, t2, t3)
	}
	// Noisy asymmetric samples, then one clean symmetric exchange.
	add(1_000_000, 900_000, 100_000)
	add(2_000_000, 50_000, 750_000)
	add(3_000_000, 20_000, 20_000) // lowest RTT, symmetric
	add(4_000_000, 600_000, 60_000)
	got, ok := c.Offset()
	if !ok || got != off {
		t.Fatalf("Offset() = %d, %v; want %d (the symmetric sample)", got, ok, off)
	}
	// Every estimate, even from a skewed sample, stays within RTT/2 of truth.
	for _, w := range c.win {
		est := w.offset
		if diff := est - off; diff > w.delay/2 || diff < -w.delay/2 {
			t.Fatalf("sample offset %d off by %d, beyond delay/2 = %d", est, diff, w.delay/2)
		}
	}
}

func TestClockEstimatorRejectsBadSamples(t *testing.T) {
	var c ClockEstimator
	if c.AddSample(0, 50, 60, 100) {
		t.Fatal("accepted sample with zero t0 (no echo yet)")
	}
	if c.AddSample(100, 0, 60, 200) {
		t.Fatal("accepted sample with zero t1")
	}
	if !sym(&c, 1_000_000, 0, 10_000, 100) {
		t.Fatal("rejected a valid sample")
	}
	// Stale echo: the peer re-sent an echo of the same (or an older)
	// heartbeat of ours; t0 does not advance.
	if sym(&c, 1_000_000, 0, 10_000, 100) {
		t.Fatal("accepted duplicate echo (t0 not advanced)")
	}
	if sym(&c, 500_000, 0, 10_000, 100) {
		t.Fatal("accepted out-of-order echo (t0 went backwards)")
	}
	if c.AddSample(2_000_000, 2_000_100, 2_000_200, 1_999_000) {
		t.Fatal("accepted sample with t3 < t0")
	}
	// Hold longer than the round trip implies negative path delay.
	if c.AddSample(3_000_000, 3_000_100, 3_900_000, 3_100_000) {
		t.Fatal("accepted sample with negative path delay")
	}
	if got := c.Samples(); got != 1 {
		t.Fatalf("Samples() = %d, want 1 (only the valid one)", got)
	}
	if _, ok := c.Offset(); !ok {
		t.Fatal("Offset() not available after one valid sample")
	}
}

func TestClockEstimatorWindowSlides(t *testing.T) {
	// After the window fills, old samples fall out: a persistent change in
	// offset eventually wins even though earlier samples had lower delay.
	var c ClockEstimator
	t0 := int64(1_000_000)
	for i := 0; i < clockWindow; i++ {
		sym(&c, t0, 1_000_000, 10_000, 100) // old offset 1ms, low delay
		t0 += 1_000_000
	}
	for i := 0; i < clockWindow; i++ {
		sym(&c, t0, 9_000_000, 50_000, 100) // new offset 9ms, higher delay
		t0 += 1_000_000
	}
	got, ok := c.Offset()
	if !ok || got != 9_000_000 {
		t.Fatalf("Offset() = %d, %v; want 9000000 after window slid", got, ok)
	}
}
