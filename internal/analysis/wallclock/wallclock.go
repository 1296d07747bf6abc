// Package wallclock enforces the testability invariant on the transport
// and durability layers: production code in snet/internal/wire and
// snet/internal/journal must not read the wall clock or create timers
// directly — all time flows through the injected clock seams (wire.Clock,
// journal.Clock), which is what lets the fault detectors (heartbeat
// sweep, liveness timeout, call deadlines, quarantine cool-down) and the
// journal's batched-fsync interval be driven by synthetic time in
// deterministic tests instead of by sleeping.
//
// Banned in those packages: time.Now, time.Sleep, time.Since, time.Until,
// time.After, time.AfterFunc, time.NewTimer, time.NewTicker, time.Tick —
// whether called or referenced as a value. The deliberate exceptions are
// exactly two kinds, each carrying a `//lint:reason`: the default
// real-time bindings inside the clock seams themselves, and net.Conn
// deadline arithmetic (the kernel compares deadlines against real time,
// so a synthetic cluster clock must not shift them).
package wallclock

import (
	"go/ast"
	"go/types"

	"snet/internal/analysis/framework"
)

// packages is the analyzer's scope: transport production code whose fault
// detectors must be drivable by synthetic time.
var packages = map[string]bool{
	"snet/internal/wire":    true,
	"snet/internal/journal": true,
}

// banned is the set of time-package functions that read the wall clock or
// bind a wait to it.
var banned = map[string]bool{
	"Now":       true,
	"Sleep":     true,
	"Since":     true,
	"Until":     true,
	"After":     true,
	"AfterFunc": true,
	"NewTimer":  true,
	"NewTicker": true,
	"Tick":      true,
}

// Analyzer is the wallclock pass.
var Analyzer = &framework.Analyzer{
	Name: "wallclock",
	Doc: "transport code must route all time through the injected clock seams " +
		"(wire.Clock, journal.Clock) so fault detectors stay deterministically testable",
	Run: run,
}

func run(pass *framework.Pass) error {
	if !packages[pass.Path] {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj, ok := pass.Info.Uses[sel.Sel]
			if !ok {
				return true
			}
			fn, ok := obj.(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" || !banned[fn.Name()] {
				return true
			}
			// Methods share names with the banned package functions
			// (time.Time.After, time.Time.Since via embedding, ...): only
			// package-level functions read the wall clock.
			if sig, isSig := fn.Type().(*types.Signature); isSig && sig.Recv() != nil {
				return true
			}
			if pass.Allowed(sel) {
				return true
			}
			pass.Reportf(sel.Pos(), "direct time.%s in %s: route through the injected clock seam "+
				"(wire.Clock / journal.Clock) so fault detectors stay deterministically testable",
				fn.Name(), pass.Path)
			return true
		})
	}
	return nil
}
