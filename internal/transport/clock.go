package transport

// NTP-style clock offset estimation over heartbeat echoes.  Every received
// heartbeat that echoes one of ours yields the four classic timestamps
//
//	t0  we sent a heartbeat            (local clock)
//	t1  the peer received it           (peer clock)
//	t2  the peer sent the echo         (peer clock)
//	t3  the echo arrived               (local clock)
//
// from which offset = ((t1-t0)+(t2-t3))/2 estimates the peer clock minus the
// local clock at the midpoint of the exchange, with an error bounded by half
// the path asymmetry, and delay = (t3-t0)-(t2-t1) is the round trip with the
// peer's holding time removed.  The estimator keeps a sliding window of
// samples and reports the offset of the minimum-delay sample (the standard
// NTP filter: queueing only ever adds delay, so the fastest exchange is the
// least distorted).

// clockWindow is the sliding sample window.  At the default 25ms heartbeat
// cadence it spans ~1.6s — long enough to catch a quiet network moment,
// short enough to follow a drifting peer clock.
const clockWindow = 64

type clockObs struct {
	offset int64
	delay  int64
}

// ClockEstimator derives the clock offset of one peer from heartbeat
// echo samples.  Methods are not safe for concurrent use; the link guards
// its estimator with clockMu.
type ClockEstimator struct {
	win    []clockObs
	lastT0 int64 // newest accepted sample's t0, to drop stale/duplicate echoes
	total  int   // accepted samples ever
}

// AddSample feeds one echo exchange.  It reports whether the sample was
// accepted; stale echoes (t0 not newer than the previous sample's), clock
// nonsense (echo before send on either clock) and non-positive round trips
// are rejected.
func (ce *ClockEstimator) AddSample(t0, t1, t2, t3 int64) bool {
	if t0 == 0 || t1 == 0 {
		return false // peer had nothing to echo yet
	}
	if t0 <= ce.lastT0 {
		return false // out-of-order or duplicated echo
	}
	hold := t2 - t1 // peer clock: receive -> echo
	if hold < 0 || t3 < t0 {
		return false
	}
	delay := (t3 - t0) - hold
	if delay <= 0 {
		return false
	}
	ce.lastT0 = t0
	ce.total++
	obs := clockObs{
		offset: ((t1 - t0) + (t2 - t3)) / 2,
		delay:  delay,
	}
	if len(ce.win) == clockWindow {
		copy(ce.win, ce.win[1:])
		ce.win[len(ce.win)-1] = obs
	} else {
		ce.win = append(ce.win, obs)
	}
	return true
}

// Samples returns the number of accepted samples ever.
func (ce *ClockEstimator) Samples() int { return ce.total }

// best returns the window's minimum-delay observation.
func (ce *ClockEstimator) best() (clockObs, bool) {
	if len(ce.win) == 0 {
		return clockObs{}, false
	}
	b := ce.win[0]
	for _, o := range ce.win[1:] {
		if o.delay < b.delay {
			b = o
		}
	}
	return b, true
}

// Offset returns the current offset estimate (peer clock minus local clock,
// nanoseconds): the offset of the window's minimum-delay sample.
func (ce *ClockEstimator) Offset() (int64, bool) {
	b, ok := ce.best()
	return b.offset, ok
}

// Delay returns the window's minimum filtered round-trip delay.
func (ce *ClockEstimator) Delay() (int64, bool) {
	b, ok := ce.best()
	return b.delay, ok
}
