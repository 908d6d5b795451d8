// Package analysistest runs one analyzer over a fixture package and checks
// its findings against expectations written in the fixture source, in the
// style of golang.org/x/tools/go/analysis/analysistest: a comment
//
//	// want `regexp` `another regexp`
//
// on a line expects exactly one finding per pattern on that line, and every
// finding must be claimed by some expectation. Patterns are usually
// backquoted so regexp metacharacters need no double escaping.
package analysistest

import (
	"regexp"
	"strconv"
	"testing"

	"tradenet/internal/analysis"
)

// wantRE pulls the expectation list out of a comment; patternRE then splits
// it into individual quoted or backquoted patterns.
var (
	wantRE    = regexp.MustCompile(`// want (.*)$`)
	patternRE = regexp.MustCompile("`[^`]*`" + `|"(?:[^"\\]|\\.)*"`)
)

// expectation is one pattern awaiting a finding on its line.
type expectation struct {
	line int
	re   *regexp.Regexp
	met  bool
}

// Run loads the fixture package rooted at dir, type-checking it under
// importPath (which the analyzers' path-sensitive logic sees), runs the
// analyzer, and reports mismatches against the fixture's // want comments.
// deps lists the import paths the fixture needs export data for.
//
//simlint:allow deadcode: test infrastructure, called by every analyzer's _test.go
func Run(t *testing.T, dir, importPath string, deps []string, a *analysis.Analyzer) {
	t.Helper()
	pkg, err := analysis.LoadDir(dir, importPath, deps)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	diags, err := analysis.RunAnalyzers([]*analysis.Package{pkg}, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s on %s: %v", a.Name, dir, err)
	}

	var wants []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				line := pkg.Fset.Position(c.Pos()).Line
				pats := patternRE.FindAllString(m[1], -1)
				if len(pats) == 0 {
					t.Fatalf("%s:%d: // want comment with no quoted pattern", dir, line)
				}
				for _, q := range pats {
					pat, err := strconv.Unquote(q)
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %s: %v", dir, line, q, err)
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", dir, line, pat, err)
					}
					wants = append(wants, &expectation{line: line, re: re})
				}
			}
		}
	}

	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		claimed := false
		for _, w := range wants {
			if !w.met && w.line == pos.Line && w.re.MatchString(d.Message) {
				w.met = true
				claimed = true
				break
			}
		}
		if !claimed {
			t.Errorf("%s:%d:%d: unexpected finding: %s (%s)",
				pos.Filename, pos.Line, pos.Column, d.Message, d.Analyzer)
		}
	}
	for _, w := range wants {
		if !w.met {
			t.Errorf("%s:%d: no %s finding matched %q", dir, w.line, a.Name, w.re.String())
		}
	}
}
