//go:build purecheck

package check

import (
	"testing"

	"repro/internal/schedpoint"
)

// hook routes the instrumented packages' schedpoints — and the block a
// parked ssw owner waits in — to the checker for the duration of the test.
func hook(t *testing.T) {
	schedpoint.Set(Hook, Wait)
	t.Cleanup(func() { schedpoint.Set(nil, nil) })
}
