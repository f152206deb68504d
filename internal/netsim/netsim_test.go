package netsim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestCostFormula(t *testing.T) {
	c := Config{LatencyNs: 1000, BytesPerNs: 10, PerMsgCPUNs: 200}
	if got := c.Cost(0); got != 1200 {
		t.Fatalf("Cost(0) = %d, want 1200", got)
	}
	if got := c.Cost(10000); got != 1200+1000 {
		t.Fatalf("Cost(10000) = %d, want 2200", got)
	}
}

func TestCostZeroBandwidthIsLatencyOnly(t *testing.T) {
	c := Config{LatencyNs: 500}
	if got := c.Cost(1 << 20); got != 500 {
		t.Fatalf("Cost = %d, want 500", got)
	}
}

func TestAriesRegime(t *testing.T) {
	a := Aries()
	// ~1.3us zero-byte, ~10 GB/s.
	if a.Cost(0) < 1000 || a.Cost(0) > 3000 {
		t.Fatalf("Aries zero-byte cost %d outside ~1.3us regime", a.Cost(0))
	}
	mb := a.Cost(1 << 20)
	if mb < 100_000 || mb > 200_000 {
		t.Fatalf("Aries 1MiB cost %d outside ~10GB/s regime", mb)
	}
}

func TestLoopbackIsFree(t *testing.T) {
	l := Loopback()
	if l.Cost(1<<20) != 0 {
		t.Fatalf("loopback cost %d, want 0", l.Cost(1<<20))
	}
	start := time.Now()
	New(l).Transfer(1 << 20)
	if time.Since(start) > 10*time.Millisecond {
		t.Fatal("loopback transfer took real time")
	}
}

// Property: cost is monotone in message size.
func TestCostMonotoneProperty(t *testing.T) {
	c := Aries()
	f := func(a, b uint16) bool {
		x, y := int(a), int(b)
		if x > y {
			x, y = y, x
		}
		return c.Cost(x) <= c.Cost(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTransferTakesModeledTime(t *testing.T) {
	n := New(Config{LatencyNs: 2_000_000}) // 2ms, well above timer noise
	start := time.Now()
	n.Transfer(0)
	elapsed := time.Since(start)
	if elapsed < 1500*time.Microsecond {
		t.Fatalf("transfer returned after %v, want >= ~2ms", elapsed)
	}
}

func TestTimeScaleDividesDelay(t *testing.T) {
	n := New(Config{LatencyNs: 50_000_000, TimeScale: 1000}) // 50ms -> 50us
	start := time.Now()
	n.Transfer(0)
	if time.Since(start) > 20*time.Millisecond {
		t.Fatal("TimeScale not applied")
	}
}
