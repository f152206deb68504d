//go:build !purecheck

// Package schedpoint is the deterministic concurrency checker's scheduling
// seam: the lock-free protocols call Point at every load and store that
// takes part in a cross-thread protocol.  In normal builds Point is this
// empty function, which the compiler inlines away to nothing (the label is a
// constant and the call vanishes); under the `purecheck` build tag it
// dispatches to a hook that the internal/check harness installs to explore
// thread interleavings.
package schedpoint

// Point marks a named synchronization point.
func Point(label string) {}

// Block reports false: outside the checker a blocking step blocks for real.
func Block(cond func() bool) bool { return false }
