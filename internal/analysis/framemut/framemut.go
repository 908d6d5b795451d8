// Package framemut keeps frames immutable once built. Replication points
// copy nothing: netsim.Frame.Clone hands an untraced frame itself to every
// leg, and gives a traced leg a header that aliases the original's bytes, so
// a switch fan-out puts one *Frame and one backing array in front of
// hundreds of receivers. A store through one holder is therefore a store
// into everybody's frame. The rule (DESIGN.md "Frame ownership and
// immutability") is that a frame is written only while it is being built —
// by appending into a fresh NewFrame() — and never after it is first sent.
//
// Three shapes write into existing frame bytes and are flagged when their
// target is the Data field of a netsim.Frame:
//
//   - an element store: f.Data[i] = v, f.Data[i] |= v, f.Data[i]++,
//   - a copy with the frame as destination: copy(f.Data[k:], src),
//   - an in-place append: append(f.Data[:k], ...), which overwrites the
//     bytes past k instead of growing a fresh tail.
//
// And the builder rule: an assignment to the Data, Origin or ID field of a
// netsim.Frame is legal only through a variable whose every binding is
// netsim.NewFrame(), netsim.NewFrameBytes(...) or a Frame composite literal
// — the frame is this code's own and nobody else holds it yet. So
// fr.Data = pkt.AppendUDPFrame(fr.Data, ...) on a fresh frame builds, and
// the same line on a received frame, a parameter or the result of Clone
// (which may be the shared original) is flagged. Trace stays assignable: it
// is the one per-holder field, and is non-nil only on a frame nobody shares.
//
// Package netsim itself is exempt: it is where frames are constructed. The
// check is syntactic: a write through a local alias (d := f.Data; d[0] = 1;
// g := []*netsim.Frame{f}; g[0].ID = 1) is not seen.
package framemut

import (
	"go/ast"
	"go/types"

	"tradenet/internal/analysis"
)

// Analyzer implements the check.
var Analyzer = &analysis.Analyzer{
	Name: "framemut",
	Doc:  "forbid writes into a netsim.Frame that is not under construction, outside package netsim; a sent frame and its bytes are shared by reference",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if pass.Pkg.Path() == analysis.NetsimPath {
		return nil
	}
	info := pass.TypesInfo
	for _, f := range pass.Files {
		built := builtFrames(info, f)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					checkStore(pass, lhs)
					checkField(pass, built, lhs)
				}
			case *ast.IncDecStmt:
				checkStore(pass, n.X)
				checkField(pass, built, n.X)
			case *ast.CallExpr:
				id, ok := ast.Unparen(n.Fun).(*ast.Ident)
				if !ok || len(n.Args) == 0 {
					return true
				}
				if _, builtin := info.Uses[id].(*types.Builtin); !builtin {
					return true
				}
				dst := ast.Unparen(n.Args[0])
				switch id.Name {
				case "copy":
					if isFrameData(info, sliceBase(dst)) {
						pass.Reportf(dst.Pos(),
							"copy into the Data of a netsim.Frame: frame bytes are shared by every replica once sent; build a new frame with NewFrame and append")
					}
				case "append":
					if _, resliced := dst.(*ast.SliceExpr); resliced && isFrameData(info, sliceBase(dst)) {
						pass.Reportf(dst.Pos(),
							"in-place append over the Data of a netsim.Frame overwrites bytes its replicas share; append into a fresh NewFrame instead")
					}
				}
			}
			return true
		})
	}
	return nil
}

// builtFrames returns the frame variables of file whose every binding — the
// declaration and each later assignment — is a builder expression: the
// variables through which the builder rule lets Data, Origin and ID be set.
// Parameters, range variables and results of anything else are absent.
func builtFrames(info *types.Info, file *ast.File) map[types.Object]bool {
	built := make(map[types.Object]bool)
	bind := func(lhs ast.Expr, rhs ast.Expr) {
		id, ok := lhs.(*ast.Ident)
		if !ok {
			return
		}
		obj := info.ObjectOf(id)
		if obj == nil || !isFrame(obj.Type()) {
			return
		}
		was, seen := built[obj]
		built[obj] = (was || !seen) && rhs != nil && isBuilder(info, rhs)
	}
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				var rhs ast.Expr // stays nil for a multi-value call
				if len(n.Rhs) == len(n.Lhs) {
					rhs = n.Rhs[i]
				}
				bind(lhs, rhs)
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				var rhs ast.Expr
				if len(n.Values) == len(n.Names) {
					rhs = n.Values[i]
				}
				bind(name, rhs)
			}
		}
		return true
	})
	return built
}

// isBuilder reports whether e yields a frame nobody else holds:
// netsim.NewFrame(), netsim.NewFrameBytes(...) or a Frame composite literal.
func isBuilder(info *types.Info, e ast.Expr) bool {
	e = ast.Unparen(e)
	if u, ok := e.(*ast.UnaryExpr); ok {
		e = ast.Unparen(u.X)
	}
	switch e := e.(type) {
	case *ast.CompositeLit:
		return isFrame(info.TypeOf(e))
	case *ast.CallExpr:
		fn := analysis.CalleeFunc(info, e)
		return analysis.IsPkgFunc(fn, analysis.NetsimPath) &&
			(fn.Name() == "NewFrame" || fn.Name() == "NewFrameBytes")
	}
	return false
}

// checkField reports lhs when it assigns the Data, Origin or ID field of a
// frame through anything but a variable this file built.
func checkField(pass *analysis.Pass, built map[types.Object]bool, lhs ast.Expr) {
	sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
	if !ok || !isFrame(pass.TypesInfo.TypeOf(sel.X)) {
		return
	}
	switch sel.Sel.Name {
	case "Data", "Origin", "ID":
	default:
		return
	}
	if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok && built[pass.TypesInfo.ObjectOf(id)] {
		return
	}
	pass.Reportf(lhs.Pos(),
		"assignment to the %s of a netsim.Frame this code did not build: a sent frame is shared by every replica, Clone's result included; set fields only on a frame fresh from NewFrame, NewFrameBytes or a literal",
		sel.Sel.Name)
}

// checkStore reports lhs when it is an element of a frame's Data.
func checkStore(pass *analysis.Pass, lhs ast.Expr) {
	ix, ok := ast.Unparen(lhs).(*ast.IndexExpr)
	if !ok || !isFrameData(pass.TypesInfo, sliceBase(ix.X)) {
		return
	}
	pass.Reportf(lhs.Pos(),
		"store into the Data of a netsim.Frame: frame bytes are shared by every replica once sent; build a new frame with NewFrame and append")
}

// sliceBase strips parentheses and slice expressions: the operand whose
// backing array e[a:b][c:] still addresses.
func sliceBase(e ast.Expr) ast.Expr {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return e
		}
	}
}

// isFrameData reports whether e selects the Data field of a netsim.Frame
// or *netsim.Frame.
func isFrameData(info *types.Info, e ast.Expr) bool {
	sel, ok := e.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "Data" && isFrame(info.TypeOf(sel.X))
}

// isFrame reports whether t is netsim.Frame or *netsim.Frame.
func isFrame(t types.Type) bool {
	if t == nil {
		return false
	}
	pkgPath, name := analysis.NamedType(t)
	return pkgPath == analysis.NetsimPath && name == "Frame"
}
