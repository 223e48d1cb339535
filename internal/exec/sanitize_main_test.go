//go:build sanitize

package exec

import (
	"fmt"
	"os"
	"testing"

	"gofusion/internal/memory"
)

// TestMain (sanitize builds only) fails the package when the checked
// allocator recorded a double release, an over-shrink or a reservation or
// spill file still live after the tests ran — in particular across the
// partial aggregate's early release at its pass-through switch, a cancel
// mid-pass-through and an abandoned exchange output.
func TestMain(m *testing.M) {
	code := m.Run()
	if fs := memory.SanitizerFindings(); len(fs) > 0 {
		for _, f := range fs {
			fmt.Fprintln(os.Stderr, "sanitizer:", f)
		}
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}
