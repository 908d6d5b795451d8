package analysis_test

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"tradenet/internal/analysis"
	"tradenet/internal/analysis/wallclock"
)

// TestDirectives runs wallclock over the directives fixture and asserts the
// exact surviving findings: the justified function-scope allow is fully
// silent, the unjustified line-scope allow suppresses its finding but is
// reported itself, and the stale allow is reported.
func TestDirectives(t *testing.T) {
	dir := filepath.Join("testdata", "directives")
	pkg, err := analysis.LoadDir(dir, "tradenet/internal/fixture", []string{"time"})
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	diags, err := analysis.RunAnalyzers([]*analysis.Package{pkg}, []*analysis.Analyzer{wallclock.Analyzer})
	if err != nil {
		t.Fatalf("running wallclock: %v", err)
	}
	var msgs []string
	for _, d := range diags {
		msgs = append(msgs, d.Message)
	}
	if len(diags) != 2 {
		t.Fatalf("got %d findings, want 2 (unjustified + stale):\n%s",
			len(diags), strings.Join(msgs, "\n"))
	}
	if !strings.Contains(msgs[0], "needs a justification") {
		t.Errorf("first finding should report the unjustified directive, got: %s", msgs[0])
	}
	if !strings.Contains(msgs[1], "stale allow directive") {
		t.Errorf("second finding should report the stale directive, got: %s", msgs[1])
	}
	// The stale report names the directive's own file:line — the position
	// the diagnostic carries must appear verbatim in the message.
	self := fmt.Sprintf("at fixture.go:%d", diags[1].Position.Line)
	if !strings.Contains(msgs[1], self) {
		t.Errorf("stale directive report should carry its own position %q, got: %s", self, msgs[1])
	}
	if diags[1].Position.Line == 0 {
		t.Error("diagnostic Position was not resolved by RunAnalyzers")
	}
}

// TestLoad smoke-tests the go-list-driven loader against a real module
// package.
func TestLoad(t *testing.T) {
	pkgs, err := analysis.Load(".", "tradenet/internal/sim")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) != 1 || pkgs[0].ImportPath != "tradenet/internal/sim" {
		t.Fatalf("Load returned %d packages, want exactly tradenet/internal/sim", len(pkgs))
	}
	if pkgs[0].Types == nil || pkgs[0].Types.Scope().Lookup("Scheduler") == nil {
		t.Fatal("loaded package is missing type information for Scheduler")
	}
}

// TestLoadProgram checks that the graph spans the whole module and the
// benchmark module whatever the patterns name, and that only the named
// packages are reported on.
func TestLoadProgram(t *testing.T) {
	pkgs, err := analysis.LoadProgram(".", "tradenet/internal/sim")
	if err != nil {
		t.Fatalf("LoadProgram: %v", err)
	}
	reported := map[string]bool{}
	for _, p := range pkgs {
		reported[p.ImportPath] = !p.GraphOnly
	}
	for _, path := range []string{"tradenet/internal/sim", "tradenet/internal/core", "tradenet/cmd/tradenet", "tradenet/bench"} {
		if _, ok := reported[path]; !ok {
			t.Errorf("LoadProgram did not load %s", path)
		}
	}
	for path, r := range reported {
		if r != (path == "tradenet/internal/sim") {
			t.Errorf("%s: reported = %v", path, r)
		}
	}
}
