// Command simlint is the multichecker for the simulator's determinism,
// hot-path, and parallel-safety contracts. It runs eleven analyzers over the
// given package patterns and exits nonzero if any contract is violated:
//
//	wallclock    no time.Now/Since/Sleep in internal/ sim code
//	globalrand   no package-level math/rand draws
//	maporder     no map-ordered iteration reaching the event schedule
//	hotalloc     no closure-allocating At/After on the per-frame path
//	unitmix      no bare numeric literals in unit-typed positions
//	sharedstate  no writes to package-level vars from run-reachable code
//	goroutine    no go/chan/select in simulation packages outside RunParallel
//	floatorder   no float accumulation in map-ordered or cross-worker merges
//	ptrorder     no pointer-keyed maps, %p, or pointer-comparison sorts
//	framemut     no writes into a netsim.Frame's Data outside package netsim
//	deadcode     no function that no main, init or var initializer reaches
//
// sharedstate, goroutine, floatorder, ptrorder and deadcode are
// interprocedural: they share a call graph (static + interface dispatch +
// callback references + package-level var initializers) that always spans
// the whole module plus bench/, whatever patterns are given; findings are
// reported only on the packages the patterns name.
//
// Usage:
//
//	go run ./cmd/simlint [-json] [packages]
//
// -json emits one JSON object per finding per line (file, line, col,
// analyzer, message), deterministically ordered by file, line, analyzer —
// the shape CI's problem matcher consumes to annotate PRs.
//
// Findings can be suppressed line-by-line (or function-by-function via the
// doc comment) with a justified directive:
//
//	//simlint:allow wallclock: self-timing block measures real codec cost
//
// Unjustified and stale directives are themselves reported. See DESIGN.md
// "Determinism contract & simlint" and "Parallel-safety contract".
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"tradenet/internal/analysis"
	"tradenet/internal/analysis/deadcode"
	"tradenet/internal/analysis/floatorder"
	"tradenet/internal/analysis/framemut"
	"tradenet/internal/analysis/globalrand"
	"tradenet/internal/analysis/goroutine"
	"tradenet/internal/analysis/hotalloc"
	"tradenet/internal/analysis/maporder"
	"tradenet/internal/analysis/ptrorder"
	"tradenet/internal/analysis/sharedstate"
	"tradenet/internal/analysis/unitmix"
	"tradenet/internal/analysis/wallclock"
)

// analyzers is the full simlint suite.
var analyzers = []*analysis.Analyzer{
	wallclock.Analyzer,
	globalrand.Analyzer,
	maporder.Analyzer,
	hotalloc.Analyzer,
	unitmix.Analyzer,
	sharedstate.Analyzer,
	goroutine.Analyzer,
	floatorder.Analyzer,
	ptrorder.Analyzer,
	framemut.Analyzer,
	deadcode.Analyzer,
}

// jsonFinding is the -json wire shape: one object per line, stable field
// order, so CI problem matchers can regexp it line by line.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func main() {
	jsonOut := flag.Bool("json", false, "emit one JSON object per finding per line")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: simlint [-json] [packages]\n\nAnalyzers:\n")
		for _, a := range analyzers {
			fmt.Fprintf(os.Stderr, "  %-11s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	pkgs, err := analysis.LoadProgram(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simlint:", err)
		os.Exit(2)
	}
	diags, err := analysis.RunAnalyzers(pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simlint:", err)
		os.Exit(2)
	}
	cwd, _ := os.Getwd()
	enc := json.NewEncoder(os.Stdout)
	for _, d := range diags {
		name := d.Position.Filename
		if rel, err := filepath.Rel(cwd, name); err == nil && len(rel) < len(name) {
			name = rel
		}
		if *jsonOut {
			if err := enc.Encode(jsonFinding{
				File:     name,
				Line:     d.Position.Line,
				Col:      d.Position.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			}); err != nil {
				fmt.Fprintln(os.Stderr, "simlint:", err)
				os.Exit(2)
			}
			continue
		}
		fmt.Printf("%s:%d:%d: %s (%s)\n", name, d.Position.Line, d.Position.Column, d.Message, d.Analyzer)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "simlint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}
