package wallclock_test

import (
	"testing"

	"snet/internal/analysis/analysistest"
	"snet/internal/analysis/framework"
	"snet/internal/analysis/wallclock"
)

func TestWallclock(t *testing.T) {
	analysistest.Run(t, "testdata",
		[]*framework.Analyzer{wallclock.Analyzer},
		"snet/internal/wire", "snet/internal/other")
}
