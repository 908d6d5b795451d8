// Package deadcode reports functions that no entry point of the program
// reaches. Fixed-seed output is the simulator's spec, so code no
// experiment, binary or benchmark runs is not part of it: it documents
// behaviour nothing exercises and costs a reader the time to find that out.
// A function only a test calls counts as dead, because tests are not
// loaded.
//
// The roots are main and init of every package, every package-level var
// initializer, and the methods the standard library calls through its own
// interfaces (String, Error, Format, Len/Less/Swap, Read/Write,
// MarshalJSON); see analysis.Program.Live. Run simlint over the module:
// LoadProgram always builds the graph over the whole module plus bench/,
// so reachability does not depend on the patterns named.
//
// A function whose body is one return statement that calls nothing but
// conversions and builtins (len, cap) is not reported: tests read state through such accessors,
// and they cost nothing to keep. Any other finding is fixed by deleting the
// code, or kept with //simlint:allow deadcode: <reason>, where the reason
// names the non-test caller or the ROADMAP item that will call it.
package deadcode

import (
	"go/ast"
	"go/types"
	"strings"

	"tradenet/internal/analysis"
)

// Analyzer implements the check.
var Analyzer = &analysis.Analyzer{
	Name: "deadcode",
	Doc:  "report functions no main, init, var initializer or standard-library interface call reaches; delete them",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok || accessor(pass.TypesInfo, fd) {
				continue
			}
			id := analysis.IDOf(obj)
			if pass.Prog.Live(id) {
				continue
			}
			pass.Reportf(fd.Name.Pos(),
				"%s is reached by no main, init or package-level var initializer; delete it, or name its caller with //simlint:allow deadcode",
				strings.TrimPrefix(string(id), pass.Pkg.Path()+"."))
		}
	}
	return nil
}

// accessor reports whether fd's body is a single return statement that
// calls nothing but conversions and builtins.
func accessor(info *types.Info, fd *ast.FuncDecl) bool {
	if len(fd.Body.List) != 1 {
		return false
	}
	ret, ok := fd.Body.List[0].(*ast.ReturnStmt)
	if !ok {
		return false
	}
	calls := false
	ast.Inspect(ret, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && !analysis.IsConversion(info, call) && !builtin(info, call) {
			calls = true
		}
		return !calls
	})
	return !calls
}

// builtin reports whether call calls a builtin such as len: it runs no code
// of the module, so a return of len(x.q) still only reads state.
func builtin(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	_, ok = info.Uses[id].(*types.Builtin)
	return ok
}
