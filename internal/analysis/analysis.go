// Package analysis is a small, dependency-free static-analysis framework
// modeled on golang.org/x/tools/go/analysis, built for the simulator's
// determinism and hot-path contracts (see DESIGN.md "Determinism contract &
// simlint"). The module is offline-only, so rather than depending on
// x/tools it carries the minimal pieces the simlint analyzers need:
// an Analyzer/Pass/Diagnostic shape, a package loader driven by
// `go list -export` (driver.go), and the `//simlint:allow` escape-hatch
// directive (directive.go).
//
// The analyzers live in subpackages, one each, and cmd/simlint is the
// multichecker that runs them over package patterns.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer describes one check: a name (also the key accepted by
// //simlint:allow directives), one-line documentation, and a Run function
// applied once per loaded package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Diagnostic is one reported finding.
type Diagnostic struct {
	Pos      token.Pos
	Position token.Position // resolved by RunAnalyzers; keys the stable sort
	Message  string
	Analyzer string
}

// Pass carries one analyzer's view of one type-checked package, plus the
// whole-load Program (call graph and Run*-reachability) the
// interprocedural analyzers share.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Prog      *Program

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
		Analyzer: p.Analyzer.Name,
	})
}

// RunAnalyzers applies every analyzer to every package not marked
// GraphOnly, resolves //simlint:allow directives (suppressing covered
// findings, reporting unjustified or stale directives), and returns the
// surviving diagnostics. One Program (call graph and reachability sets)
// is built per call and shared by every pass, so the interprocedural
// analyzers resolve dispatch once per load. Diagnostics come back in a deterministic order — by file,
// line, analyzer name, column, message — so CI diffs and -json output are
// stable across runs and analyzer registration order.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	prog := &Program{Pkgs: pkgs}
	var out []Diagnostic
	for _, pkg := range pkgs {
		if pkg.GraphOnly {
			continue
		}
		var raw []Diagnostic
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				Prog:      prog,
				diags:     &raw,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.ImportPath, err)
			}
		}
		kept := filterDirectives(pkg, analyzers, raw)
		for i := range kept {
			kept[i].Position = pkg.Fset.Position(kept[i].Pos)
		}
		out = append(out, kept...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Position.Filename != b.Position.Filename {
			return a.Position.Filename < b.Position.Filename
		}
		if a.Position.Line != b.Position.Line {
			return a.Position.Line < b.Position.Line
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		if a.Position.Column != b.Position.Column {
			return a.Position.Column < b.Position.Column
		}
		return a.Message < b.Message
	})
	return out, nil
}
