//go:build purecheck

package ssw

import "time"

// schedHook and blockHook are the installed checker hooks (nil outside
// checker runs); see internal/core/hooks_check.go for the discipline.
var (
	schedHook func(string)
	blockHook func(cond func() bool)
)

func schedpoint(label string) {
	if h := schedHook; h != nil {
		h(label)
	}
}

// SetSchedHook installs (or, with nils, removes) the checker's hooks: the
// schedpoint hook and the wait a parked owner blocks in.
func SetSchedHook(sched func(string), block func(cond func() bool)) {
	schedHook, blockHook = sched, block
}

// block under the checker has no timer: the owner waits, as a checker thread,
// for a token to be in the slot.  A lost wake-up is then a deadlock the
// checker reports, not a timeout that hides it.
func (c *WakeCell) block(timeout time.Duration) bool {
	if h := blockHook; h != nil {
		h(func() bool { return len(c.sig) > 0 })
		<-c.sig
		return true
	}
	return c.blockTimed(timeout)
}
