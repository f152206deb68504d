//go:build purecheck

// Package schedpoint, under the purecheck build tag: Point and Block hand
// control to the hooks internal/check installs.  See hooks_prod.go for the
// production no-ops.
package schedpoint

// The installed hooks (nil outside checker runs).  They are written only
// while no hooked goroutines are running (the checker installs them before
// spawning its cooperative threads and clears them after they join), so the
// plain variables are race-free.
var (
	pointHook func(string)
	blockHook func(cond func() bool)
)

// Point hands control to the checker at a named synchronization point.
func Point(label string) {
	if h := pointHook; h != nil {
		h(label)
	}
}

// Block is a blocking step under the checker: with a hook installed the
// caller waits, as a checker thread, until cond holds, and Block reports
// true; without one it reports false and the caller blocks for real.
func Block(cond func() bool) bool {
	h := blockHook
	if h != nil {
		h(cond)
	}
	return h != nil
}

// Set installs (or, with nils, removes) the checker's hooks.  Only the
// internal/check model tests call it; it exists only under the purecheck
// build tag.
func Set(point func(string), block func(cond func() bool)) {
	pointHook, blockHook = point, block
}
