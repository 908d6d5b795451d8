// Package sharedstate forbids mutating package-level state from code a
// simulation run can reach. RunParallel's contract — and the per-region
// sharded kernel's, once regions run on their own goroutines — is that
// every run (or region) is an island: two workers touching the same
// package-level variable is a data race at worst and a
// schedule-order-dependence at best, either of which destroys the
// byte-identical-output guarantee. The check is interprocedural: a write
// buried three calls below RunFailover is as much a violation as one in
// the entry point itself.
//
// Three shapes count as mutation of a package-level var declared in this
// module:
//
//   - a direct write: assignment, compound assignment, or ++/-- whose
//     left-hand side is the var or an element/field of it,
//   - taking its address (the escape that enables aliased writes),
//   - calling a pointer-receiver method on it (the implicit &v — this is
//     how a shared sync.Pool or registry actually gets mutated).
//
// Reads stay legal: immutable package-level configuration (error values,
// variant tables) is fine. Deliberately shared, concurrency-safe state —
// the netsim frame pool is the canonical case — carries a justified
// //simlint:allow sharedstate directive instead.
package sharedstate

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"tradenet/internal/analysis"
)

// Analyzer implements the check.
var Analyzer = &analysis.Analyzer{
	Name: "sharedstate",
	Doc:  "forbid writes, address-taking, and pointer-receiver calls on package-level vars in run-reachable code",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	pass.RunReachableCode(func(name string, body ast.Node) { checkBody(pass, name, body) })
	return nil
}

func checkBody(pass *analysis.Pass, name string, body ast.Node) {
	info := pass.TypesInfo
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if v := pkgLevelVar(info, lhs); v != nil {
					pass.Reportf(lhs.Pos(),
						"write to package-level var %s.%s from run-reachable %s; runs must not share mutable state — move it into per-run state",
						v.Pkg().Name(), v.Name(), name)
				}
			}
		case *ast.IncDecStmt:
			if v := pkgLevelVar(info, n.X); v != nil {
				pass.Reportf(n.Pos(),
					"write to package-level var %s.%s from run-reachable %s; runs must not share mutable state — move it into per-run state",
					v.Pkg().Name(), v.Name(), name)
			}
		case *ast.UnaryExpr:
			if n.Op != token.AND {
				return true
			}
			if v := pkgLevelVar(info, n.X); v != nil {
				pass.Reportf(n.Pos(),
					"address of package-level var %s.%s taken in run-reachable %s; the alias enables shared writes across runs",
					v.Pkg().Name(), v.Name(), name)
			}
		case *ast.CallExpr:
			sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := info.Uses[sel.Sel].(*types.Func)
			if !ok || !pointerReceiver(fn) {
				return true
			}
			// The implicit &v: a pointer-receiver method on an addressable
			// package-level var mutates shared state. A var that already
			// holds a pointer is a read (the pointee is out of this
			// analyzer's aliasing scope).
			v := pkgLevelVar(info, sel.X)
			if v == nil {
				return true
			}
			if _, isPtr := v.Type().Underlying().(*types.Pointer); isPtr {
				return true
			}
			pass.Reportf(n.Pos(),
				"pointer-receiver call %s.%s on package-level var %s.%s in run-reachable %s; shared mutable state across runs",
				v.Name(), fn.Name(), v.Pkg().Name(), v.Name(), name)
		}
		return true
	})
}

// pkgLevelVar resolves expr to the package-level module variable at its
// base, unwrapping selectors, indexing, dereferences, and parens — so
// `v.Field[i] = x` counts as a write to v. It returns nil for locals,
// fields of locals, blank, and vars of non-module packages.
func pkgLevelVar(info *types.Info, expr ast.Expr) *types.Var {
	for {
		switch e := ast.Unparen(expr).(type) {
		case *ast.SelectorExpr:
			// pkg.Var: the selector resolves to the var itself.
			if id, ok := e.X.(*ast.Ident); ok {
				if _, isPkg := info.Uses[id].(*types.PkgName); isPkg {
					return asPkgVar(info.Uses[e.Sel])
				}
			}
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.StarExpr:
			// *p = x writes through a pointer: the var p itself is read.
			return nil
		case *ast.Ident:
			if e.Name == "_" {
				return nil
			}
			obj := info.Uses[e]
			if obj == nil {
				obj = info.Defs[e]
			}
			return asPkgVar(obj)
		default:
			return nil
		}
	}
}

// asPkgVar filters obj down to a package-level var declared in this
// module.
func asPkgVar(obj types.Object) *types.Var {
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil {
		return nil
	}
	if !strings.HasPrefix(v.Pkg().Path(), analysis.ModulePath) {
		return nil
	}
	if v.Parent() != v.Pkg().Scope() {
		return nil
	}
	return v
}

// pointerReceiver reports whether fn is a method with a pointer receiver.
func pointerReceiver(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	_, ok = sig.Recv().Type().(*types.Pointer)
	return ok
}
