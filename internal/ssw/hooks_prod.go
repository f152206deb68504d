//go:build !purecheck

package ssw

import "time"

// schedpoint is the deterministic concurrency checker's scheduling seam (see
// internal/core/hooks_prod.go): nothing in normal builds.
func schedpoint(label string) {}

// block is the park's blocking step; the checker build replaces it.
func (c *WakeCell) block(timeout time.Duration) bool { return c.blockTimed(timeout) }
