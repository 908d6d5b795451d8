// Package framemut keeps frame bytes immutable once built. Replication
// points no longer copy: netsim.Frame.Clone returns a header that aliases
// the original's bytes, so a switch fan-out hands the same backing array
// to hundreds of receivers. A store into one holder's Data is therefore a
// store into everybody's. The rule (DESIGN.md "Frame ownership and
// immutability") is that Data is written only while the frame is being
// built — by appending into a fresh NewFrame() — and never after the frame
// is first sent.
//
// Three shapes write into existing frame bytes and are flagged when their
// target is the Data field of a netsim.Frame:
//
//   - an element store: f.Data[i] = v, f.Data[i] |= v, f.Data[i]++,
//   - a copy with the frame as destination: copy(f.Data[k:], src),
//   - an in-place append: append(f.Data[:k], ...), which overwrites the
//     bytes past k instead of growing a fresh tail.
//
// Building stays legal: f.Data = append(f.Data, ...) and
// f.Data = pkt.AppendUDPFrame(f.Data, ...) only add bytes past the length,
// and on a clone — whose capacity is clamped to its length — they
// reallocate. Package netsim itself is exempt: it is where frames are
// constructed. The check is syntactic: a write through a local alias
// (d := f.Data; d[0] = 1) is not seen.
package framemut

import (
	"go/ast"
	"go/types"

	"tradenet/internal/analysis"
)

// Analyzer implements the check.
var Analyzer = &analysis.Analyzer{
	Name: "framemut",
	Doc:  "forbid writes into the Data of a netsim.Frame outside package netsim; frame bytes are shared by reference once sent",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if pass.Pkg.Path() == analysis.NetsimPath {
		return nil
	}
	info := pass.TypesInfo
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					checkStore(pass, lhs)
				}
			case *ast.IncDecStmt:
				checkStore(pass, n.X)
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
	if !ok || sel.Sel.Name != "Data" {
		return false
	}
	t := info.TypeOf(sel.X)
	if t == nil {
		return false
	}
	pkgPath, name := analysis.NamedType(t)
	return pkgPath == analysis.NetsimPath && name == "Frame"
}
