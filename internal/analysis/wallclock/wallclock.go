// Package wallclock forbids reading the host's wall clock on simulation
// paths. Every instant in a run must come from the Scheduler's virtual
// clock (sim.Time): a single time.Now() on a sim path silently couples
// results to host speed and destroys the fixed-seed byte-identical
// guarantee the paper's per-hop latency comparisons rest on.
package wallclock

import (
	"go/ast"
	"strings"

	"tradenet/internal/analysis"
)

// banned are the time-package functions that read or wait on the wall
// clock. Pure type/arithmetic uses of package time (time.Duration,
// d.Nanoseconds) stay legal: sim.Duration converts through them for
// display.
var banned = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
	"AfterFunc": true,
}

// Analyzer implements the check.
var Analyzer = &analysis.Analyzer{
	Name: "wallclock",
	Doc:  "forbid time.Now/Since/Sleep and friends in internal/ simulation code; use the Scheduler's virtual clock",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	// Only simulation code is bound: cmd/ holds harnesses that may
	// legitimately time or pace against the real world.
	if !strings.HasPrefix(pass.Pkg.Path(), analysis.ModulePath+"/internal/") {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := analysis.CalleeFunc(pass.TypesInfo, call)
			if analysis.IsPkgFunc(fn, "time") && banned[fn.Name()] {
				pass.Reportf(call.Pos(),
					"time.%s reads the wall clock on a simulation path; use the Scheduler's virtual clock (sim.Time)", fn.Name())
			}
			return true
		})
	}
	return nil
}
