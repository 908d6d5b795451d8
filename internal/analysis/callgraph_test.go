package analysis_test

import (
	"path/filepath"
	"testing"

	"tradenet/internal/analysis"
)

// loadCallgraphFixture loads the callgraph fixture as a one-package
// Program.
func loadCallgraphFixture(t *testing.T) *analysis.Program {
	t.Helper()
	dir := filepath.Join("testdata", "callgraph")
	pkg, err := analysis.LoadDir(dir, "tradenet/internal/fixture", nil)
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	return &analysis.Program{Pkgs: []*analysis.Package{pkg}}
}

const fixturePath = "tradenet/internal/fixture"

// TestCallGraphEdges asserts the structural edges: interface dispatch fans
// out to every satisfying method set (and only those), method values and
// plain function values create reference edges, and mutual recursion links
// both directions.
func TestCallGraphEdges(t *testing.T) {
	prog := loadCallgraphFixture(t)
	cg := prog.CallGraph()

	edges := func(id string) map[string]bool {
		t.Helper()
		n, ok := cg.Nodes[analysis.FuncID(id)]
		if !ok {
			t.Fatalf("no node for %s", id)
		}
		out := map[string]bool{}
		for _, c := range n.Callees {
			out[string(c)] = true
		}
		return out
	}

	// Interface dispatch: dispatch's Handle call resolves to all three
	// implementations, whatever their parameter names, but not the
	// signature-mismatched decoy.
	d := edges(fixturePath + ".dispatch")
	for _, want := range []string{
		fixturePath + ".(Doubler).Handle",
		fixturePath + ".(Accum).Handle",
		fixturePath + ".(Renamed).Handle",
	} {
		if !d[want] {
			t.Errorf("dispatch should have an interface-dispatch edge to %s; has %v", want, d)
		}
	}
	if d[fixturePath+".(Decoy).Handle"] {
		t.Errorf("dispatch must not resolve to Decoy.Handle (signature mismatch); has %v", d)
	}

	// Mutual recursion: each links to the other.
	if !edges(fixturePath + ".ping")[fixturePath+".pong"] {
		t.Error("ping should call pong")
	}
	if !edges(fixturePath + ".pong")[fixturePath+".ping"] {
		t.Error("pong should call ping")
	}

	// Reference edges from the root: a plain function value and a bound
	// method value.
	r := edges(fixturePath + ".RunFixture")
	if !r[fixturePath+".viaValue"] {
		t.Errorf("RunFixture should reference viaValue as a callback; has %v", r)
	}
	if !r[fixturePath+".(Counter).Bump"] {
		t.Errorf("RunFixture should reference the method value Counter.Bump; has %v", r)
	}

	// Package-level vars: the function that mentions one gets an edge to
	// its node, and the node's edges are its initializer's calls.
	if !r[fixturePath+".registry"] {
		t.Errorf("RunFixture should have an edge to the var registry; has %v", r)
	}
	if !edges(fixturePath + ".registry")[fixturePath+".fromRegistry"] {
		t.Error("registry's initializer should call fromRegistry")
	}
}

// TestRunReachability asserts the taint: everything the run root touches
// (statically, through callbacks, through interfaces, through recursion)
// is reachable; the orphan chain is not.
func TestRunReachability(t *testing.T) {
	prog := loadCallgraphFixture(t)

	reachable := []string{
		".RunFixture", ".leaf", ".invoke", ".viaValue", ".(Counter).Bump",
		".ping", ".pong", ".dispatch", ".(Doubler).Handle", ".(Accum).Handle",
		".(Renamed).Handle", ".registry", ".fromRegistry",
	}
	for _, suffix := range reachable {
		if !prog.RunReachable(analysis.FuncID(fixturePath + suffix)) {
			t.Errorf("%s should be reachable from RunFixture", suffix)
		}
	}
	for _, suffix := range []string{".orphan", ".orphanCallee", ".(Decoy).Handle", ".unusedTable"} {
		if prog.RunReachable(analysis.FuncID(fixturePath + suffix)) {
			t.Errorf("%s must not be reachable from RunFixture", suffix)
		}
	}
}
