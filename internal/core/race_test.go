//go:build race

package core

import "testing"

// The race detector instruments allocations, so the AllocsPerRun
// regressions only assert in non-race runs (CI runs them in a dedicated
// step).
func skipIfRace(t *testing.T) {
	t.Skip("allocation-regression assertions are skipped under -race")
}
