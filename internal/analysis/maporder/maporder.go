// Package maporder flags `range` over a Go map inside functions whose
// effects can reach the event schedule. Go randomizes map iteration order
// per run, so a map-ordered loop that schedules events, emits frames,
// programs forwarding state, or invokes delivery callbacks makes the
// schedule — and therefore every downstream latency measurement — differ
// between runs of the same seed. This is the classic silent determinism
// killer in fan-out code (multicast tree installation, feed arbitration).
//
// A function is considered schedule-reaching when it, or any same-package
// function it calls directly (one level of transitivity), does any of:
//
//   - call a sim.Scheduler scheduling method (At/AtArgs/AtArgs3/...),
//   - emit frames or program forwarding state (netsim Port.Send,
//     NIC.Send, Stream.Write, device JoinGroup/LeaveGroup/Learn —
//     mroute/FIB insertion order decides hardware-vs-software placement
//     when tables overflow),
//   - invoke a func-typed value (delivery callbacks: in this event-driven
//     codebase a callback is how frames and messages propagate).
//
// The fix is to iterate sorted keys (or restructure around a slice or an
// index); provably order-independent loops (pure min/max/sum reductions)
// may carry a justified //simlint:allow maporder directive instead.
package maporder

import (
	"go/ast"
	"go/types"

	"tradenet/internal/analysis"
)

// schedMethods are sim.Scheduler methods that enqueue events.
var schedMethods = map[string]bool{
	"At": true, "AtPrio": true, "AtArgs": true, "AtArgs3": true,
	"After": true, "AfterPrio": true, "AfterArgs": true, "AfterArgs3": true,
	"Every": true,
}

// emitters are methods whose call order is schedule- or placement-visible,
// keyed by defining package.
var emitters = map[string]map[string]bool{
	analysis.NetsimPath: {"Send": true, "Write": true, "HandleFrame": true},
	analysis.DevicePath: {"JoinGroup": true, "LeaveGroup": true, "Learn": true},
}

// Analyzer implements the check.
var Analyzer = &analysis.Analyzer{
	Name: "maporder",
	Doc:  "flag range over a map in functions that schedule events, emit frames, or invoke callbacks; iterate sorted keys",
	Run:  run,
}

// funcInfo is what one function declaration contributes to the analysis.
type funcInfo struct {
	decl     *ast.FuncDecl
	ownSink  bool
	callees  []*types.Func
	mapRange []*ast.RangeStmt
}

func run(pass *analysis.Pass) error {
	infos := map[*types.Func]*funcInfo{}
	var order []*types.Func
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			infos[obj] = inspect(pass, fd)
			order = append(order, obj)
		}
	}
	for _, obj := range order {
		fi := infos[obj]
		sink := fi.ownSink
		if !sink {
			for _, callee := range fi.callees {
				if ci, ok := infos[callee]; ok && ci.ownSink {
					sink = true
					break
				}
			}
		}
		if !sink {
			continue
		}
		for _, rng := range fi.mapRange {
			pass.Reportf(rng.Pos(),
				"range over a map in %s, whose effects reach the event schedule; map order is randomized per run — iterate sorted keys", fi.decl.Name.Name)
		}
	}
	return nil
}

// inspect walks one declaration (including nested function literals) and
// records its map ranges, its sinks, and its same-package static callees.
func inspect(pass *analysis.Pass, fd *ast.FuncDecl) *funcInfo {
	fi := &funcInfo{decl: fd}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			if t := pass.TypesInfo.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Map); ok && !isCollectKeys(pass.TypesInfo, n) {
					fi.mapRange = append(fi.mapRange, n)
				}
			}
		case *ast.CallExpr:
			if analysis.IsConversion(pass.TypesInfo, n) {
				return true
			}
			fn := analysis.CalleeFunc(pass.TypesInfo, n)
			if fn == nil {
				// Dynamic call of a func-typed value: a delivery callback.
				if !isBuiltin(pass.TypesInfo, n) {
					fi.ownSink = true
				}
				return true
			}
			if analysis.IsMethodOf(fn, analysis.SimPath, "Scheduler") && schedMethods[fn.Name()] {
				fi.ownSink = true
				return true
			}
			for pkg, names := range emitters {
				if names[fn.Name()] && methodOfPkg(fn, pkg) {
					fi.ownSink = true
					return true
				}
			}
			if fn.Pkg() != nil && fn.Pkg().Path() == pass.Pkg.Path() {
				fi.callees = append(fi.callees, fn)
			}
		}
		return true
	})
	return fi
}

// isCollectKeys reports whether rng is the first half of the sanctioned
// sorted-keys idiom: a loop whose entire body appends the range key to a
// slice (`for k := range m { keys = append(keys, k) }`, possibly through a
// conversion). Collecting keys is order-independent — the slice is sorted
// before anything order-sensitive consumes it, and a later sink in the same
// function still gets flagged through its own loop.
func isCollectKeys(info *types.Info, rng *ast.RangeStmt) bool {
	keyID, ok := rng.Key.(*ast.Ident)
	if !ok || keyID.Name == "_" {
		return false
	}
	if rng.Value != nil {
		if v, ok := rng.Value.(*ast.Ident); !ok || v.Name != "_" {
			return false
		}
	}
	if len(rng.Body.List) != 1 {
		return false
	}
	as, ok := rng.Body.List[0].(*ast.AssignStmt)
	if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return false
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) < 2 || call.Ellipsis.IsValid() {
		return false
	}
	fnID, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || fnID.Name != "append" {
		return false
	}
	if _, builtin := info.Uses[fnID].(*types.Builtin); !builtin {
		return false
	}
	keyObj := info.Defs[keyID]
	for _, arg := range call.Args[1:] {
		e := ast.Unparen(arg)
		if c, ok := e.(*ast.CallExpr); ok && len(c.Args) == 1 {
			e = ast.Unparen(c.Args[0]) // unwrap a conversion around the key
		}
		id, ok := e.(*ast.Ident)
		if !ok || keyObj == nil || info.Uses[id] != keyObj {
			return false
		}
	}
	return true
}

// methodOfPkg reports whether fn is a method declared in pkgPath.
func methodOfPkg(fn *types.Func, pkgPath string) bool {
	if fn.Pkg() == nil || fn.Pkg().Path() != pkgPath {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil
}

// isBuiltin reports whether the call invokes a builtin (len, append, ...)
// or an identifier the type checker resolved to a non-func object.
func isBuiltin(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	_, builtin := info.Uses[id].(*types.Builtin)
	return builtin
}
