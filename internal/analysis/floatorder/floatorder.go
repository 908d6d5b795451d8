// Package floatorder flags floating-point accumulation whose fold order
// is not provably fixed. Float addition is not associative: summing the
// same multiset of values in two different orders can round differently,
// so an accumulator driven by map iteration (randomized per run) or by a
// cross-worker merge (ordered by completion unless the code insists
// otherwise) yields run-to-run drift in exactly the aggregate statistics
// the experiments render. Integer accumulation is immune — the fix is to
// sum in integers (durations, counts) when possible, otherwise to fold in
// a deterministic order and say so with a justified
// //simlint:allow floatorder directive.
//
// Two shapes are flagged in run-reachable code:
//
//   - a float compound assignment (+=, -=, *=, /=) inside a `range` over a
//     map: the fold order is randomized per run,
//   - a float compound assignment inside any loop of a function that fans
//     out via core.RunParallel, directly or through the replication helper
//     core.replicate: that loop is a cross-worker merge path, where the
//     sharded kernel will one day deliver per-region results — merge order
//     must be pinned to index order and documented.
package floatorder

import (
	"go/ast"
	"go/token"
	"go/types"

	"tradenet/internal/analysis"
)

// fanOuts are the fan-out harnesses whose result merges are
// order-sensitive.
var fanOuts = map[analysis.FuncID]bool{
	analysis.FuncID(analysis.ModulePath + "/internal/core.RunParallel"): true,
	analysis.FuncID(analysis.ModulePath + "/internal/core.replicate"):   true,
}

// Analyzer implements the check.
var Analyzer = &analysis.Analyzer{
	Name: "floatorder",
	Doc:  "forbid float accumulation in map-ordered loops and cross-worker merge paths; sum integers or pin the fold order",
	Run:  run,
}

// floatAccumOps are the compound assignments that fold into an
// accumulator.
var floatAccumOps = map[token.Token]bool{
	token.ADD_ASSIGN: true,
	token.SUB_ASSIGN: true,
	token.MUL_ASSIGN: true,
	token.QUO_ASSIGN: true,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if !pass.ReachableDecl(fd) {
				continue
			}
			checkDecl(pass, fd)
		}
	}
	return nil
}

func checkDecl(pass *analysis.Pass, fd *ast.FuncDecl) {
	info := pass.TypesInfo

	// Does this function fan out via RunParallel? If so, every loop in it
	// is treated as a potential cross-worker merge.
	merges := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if fn := analysis.CalleeFunc(info, call); fn != nil && fanOuts[analysis.IDOf(fn)] {
				merges = true
			}
		}
		return true
	})

	// Walk with an explicit loop-context stack: mapRange counts the
	// enclosing range-over-map statements, loops the enclosing loops of
	// any kind.
	var visit func(n ast.Node, mapRange, loops int)
	visit = func(n ast.Node, mapRange, loops int) {
		switch n := n.(type) {
		case nil:
			return
		case *ast.RangeStmt:
			inner := loops + 1
			mr := mapRange
			if t := info.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Map); ok {
					mr++
				}
			}
			for _, s := range n.Body.List {
				visit(s, mr, inner)
			}
			return
		case *ast.ForStmt:
			for _, s := range n.Body.List {
				visit(s, mapRange, loops+1)
			}
			return
		case *ast.AssignStmt:
			if floatAccumOps[n.Tok] && len(n.Lhs) == 1 && isFloat(info.TypeOf(n.Lhs[0])) {
				switch {
				case mapRange > 0:
					pass.Reportf(n.Pos(),
						"float accumulation in %s driven by map iteration; fold order is randomized per run — sum integers or iterate sorted keys", fd.Name.Name)
				case merges && loops > 0:
					pass.Reportf(n.Pos(),
						"float accumulation in cross-worker merge %s (fans out via RunParallel); pin the fold to index order and justify with //simlint:allow floatorder, or sum integers", fd.Name.Name)
				}
			}
		}
		// Generic descent for everything else (including the statement
		// kinds above once their loop bookkeeping is done).
		ast.Inspect(n, func(c ast.Node) bool {
			if c == n {
				return true
			}
			switch c.(type) {
			case *ast.RangeStmt, *ast.ForStmt, *ast.AssignStmt:
				visit(c, mapRange, loops)
				return false
			}
			return true
		})
	}
	for _, s := range fd.Body.List {
		visit(s, 0, 0)
	}
}

// isFloat reports whether t's core type is a floating-point kind.
func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
