package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// Interprocedural layer: a call graph over every package of one Load, the
// reachable-from-Run* taint the parallel-safety analyzers (sharedstate,
// floatorder) share, and the reachable-from-any-entry-point set deadcode
// reports against. The graph is built once per Load — RunAnalyzers hands
// every Pass the same *Program — so the analyzers pay for resolution a
// single time per `go list -export` load.
//
// Identity across type-checker universes is the one real subtlety. Load
// type-checks each target package from source, but a target's *imports*
// come from gc export data, so the same function is represented by two
// distinct *types.Func objects: the source one (in its own package's
// check) and the export one (seen by its importers). Object identity
// therefore cannot key the graph; a stable textual FuncID can, and
// interface satisfaction is likewise matched on method name plus a
// fully-qualified signature string rather than types.Implements.
//
// Package-level vars with an initializer are nodes too, keyed like a
// package-level function ("pkg/path.name"). A var's edges are the functions
// its initializer calls or mentions, closures included, and every function
// that mentions the var gets an edge to it. That is how a table of
// closures (an experiment registry, a handler map) carries control from
// whoever reads the table to the code inside it.

// FuncID names a function or method unambiguously across universes:
// "pkg/path.Name" for package-level functions, "pkg/path.(Recv).Name" for
// methods. Pointer receivers are canonicalized away so value- and
// pointer-receiver call sites resolve to the same node.
type FuncID string

// IDOf returns fn's FuncID. Generic instantiations are keyed by their
// origin so call sites and declarations agree.
func IDOf(fn *types.Func) FuncID {
	fn = fn.Origin()
	path := ""
	if fn.Pkg() != nil {
		path = fn.Pkg().Path()
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return FuncID(path + "." + fn.Name())
	}
	rt := sig.Recv().Type()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	name := "?"
	switch t := rt.(type) {
	case *types.Named:
		name = t.Obj().Name()
	case *types.Interface:
		name = "interface"
	}
	return FuncID(path + ".(" + name + ")." + fn.Name())
}

// CGNode is one function, or one package-level var with an initializer,
// declared in a loaded source package.
type CGNode struct {
	ID      FuncID
	Name    string
	Decl    *ast.FuncDecl // nil for a var
	Pkg     *Package
	Callees []FuncID // sorted, deduplicated
}

// CallGraph maps every function declared in the loaded packages to its
// outgoing edges. Edges may name functions with no node (standard library,
// export-data-only callees); they simply have no outgoing edges of their
// own.
type CallGraph struct {
	Nodes map[FuncID]*CGNode
}

// concreteMethod is one entry of the interface-resolution index.
type concreteMethod struct {
	id  FuncID
	sig string // fully-qualified parameter/result signature
}

// sigString renders a function type with package-path qualification so
// signatures compare equal across type-checker universes.
func sigString(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return ""
	}
	// Drop the receiver and the parameter and result names: interface
	// methods carry the interface as receiver, concrete methods their own
	// type, and an implementation may name its parameters differently from
	// the interface it satisfies. Only the types must match.
	bare := types.NewSignatureType(nil, nil, nil, unnamed(sig.Params()), unnamed(sig.Results()), sig.Variadic())
	return types.TypeString(bare, func(p *types.Package) string { return p.Path() })
}

// unnamed returns t with every variable's name dropped.
func unnamed(t *types.Tuple) *types.Tuple {
	vars := make([]*types.Var, t.Len())
	for i := range vars {
		vars[i] = types.NewParam(token.NoPos, nil, "", t.At(i).Type())
	}
	return types.NewTuple(vars...)
}

// BuildCallGraph constructs the graph for pkgs: static dispatch through
// identifiers and selectors, interface dispatch resolved against the method
// sets of every named type declared in pkgs, and reference edges — a
// function mentioned as a value (callback, method value, stored handler)
// gets an edge from the function that mentions it, which is how
// event-driven code actually transfers control here (schedule a handler
// now, the wheel invokes it later).
func BuildCallGraph(pkgs []*Package) *CallGraph {
	cg := &CallGraph{Nodes: map[FuncID]*CGNode{}}

	// Index the method sets of all source-declared named types for
	// interface resolution.
	methodIndex := map[string][]concreteMethod{}
	for _, pkg := range pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if types.IsInterface(named) {
				continue
			}
			// The pointer method set includes both value- and
			// pointer-receiver methods.
			ms := types.NewMethodSet(types.NewPointer(named))
			for i := 0; i < ms.Len(); i++ {
				m, ok := ms.At(i).Obj().(*types.Func)
				if !ok {
					continue
				}
				methodIndex[m.Name()] = append(methodIndex[m.Name()], concreteMethod{
					id:  IDOf(m),
					sig: sigString(m),
				})
			}
		}
	}

	// add records a node. Several init functions, or several blank vars, of
	// one package share an ID; their edges are merged into one node.
	add := func(node *CGNode) {
		if prev, ok := cg.Nodes[node.ID]; ok {
			node.Callees = sortedIDs(append(prev.Callees, node.Callees...))
		}
		cg.Nodes[node.ID] = node
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					obj, ok := pkg.TypesInfo.Defs[d.Name].(*types.Func)
					if !ok || d.Body == nil {
						continue
					}
					add(&CGNode{ID: IDOf(obj), Name: d.Name.Name, Decl: d, Pkg: pkg,
						Callees: collectEdges(pkg, methodIndex, d.Body)})
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						vs, ok := spec.(*ast.ValueSpec)
						if !ok || len(vs.Values) == 0 || d.Tok != token.VAR {
							continue
						}
						roots := make([]ast.Node, len(vs.Values))
						for i, v := range vs.Values {
							roots[i] = v
						}
						callees := collectEdges(pkg, methodIndex, roots...)
						for _, name := range vs.Names {
							add(&CGNode{ID: VarID(pkg.Types, name.Name), Name: name.Name, Pkg: pkg, Callees: callees})
						}
					}
				}
			}
		}
	}
	return cg
}

// VarID returns the node ID of the package-level var name in pkg.
func VarID(pkg *types.Package, name string) FuncID {
	return FuncID(pkg.Path() + "." + name)
}

// pkgVar returns the package-level var obj names, or nil.
func pkgVar(obj types.Object) *types.Var {
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
		return nil
	}
	return v
}

// collectEdges walks declaration bodies or var initializers (function
// literals included — their calls are attributed to the enclosing
// declaration) and returns their outgoing edges.
func collectEdges(pkg *Package, methodIndex map[string][]concreteMethod, roots ...ast.Node) []FuncID {
	info := pkg.TypesInfo
	seen := map[FuncID]bool{}
	inspect := func(f func(ast.Node) bool) {
		for _, r := range roots {
			ast.Inspect(r, f)
		}
	}

	// First pass: remember which identifiers are the operator of a direct
	// call, so the reference walk below doesn't double-count them.
	calleeIdents := map[*ast.Ident]bool{}
	inspect(func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			calleeIdents[fun] = true
		case *ast.SelectorExpr:
			calleeIdents[fun.Sel] = true
		}
		return true
	})

	inspect(func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if IsConversion(info, n) {
				return true
			}
			if fn := CalleeFunc(info, n); fn != nil {
				// Static dispatch — but a call through an interface-typed
				// receiver resolves to the interface method; fan it out to
				// every declared type whose method set satisfies it.
				if recvIsInterface(fn) {
					for _, impl := range implementersOf(fn, methodIndex) {
						seen[impl] = true
					}
				} else {
					seen[IDOf(fn)] = true
				}
			}
		case *ast.Ident:
			if v := pkgVar(info.Uses[n]); v != nil {
				// A package-level var read, written or called: its
				// initializer's code runs on the mentioner's behalf.
				seen[VarID(v.Pkg(), v.Name())] = true
				return true
			}
			if calleeIdents[n] {
				return true
			}
			if fn, ok := info.Uses[n].(*types.Func); ok {
				// A function referenced as a value: passed, stored, or
				// returned. Whoever holds the value may call it, so the
				// referencer gets the edge.
				if recvIsInterface(fn) {
					for _, impl := range implementersOf(fn, methodIndex) {
						seen[impl] = true
					}
				} else {
					seen[IDOf(fn)] = true
				}
			}
		}
		return true
	})

	out := make([]FuncID, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	return sortedIDs(out)
}

// sortedIDs sorts ids and drops duplicates.
func sortedIDs(ids []FuncID) []FuncID {
	slices.Sort(ids)
	return slices.Compact(ids)
}

// recvIsInterface reports whether fn is declared on an interface (an
// abstract method, resolved by implementersOf rather than directly).
func recvIsInterface(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return types.IsInterface(sig.Recv().Type())
}

// implementersOf returns the concrete methods matching an interface
// method: same name, identical fully-qualified signature.
func implementersOf(fn *types.Func, methodIndex map[string][]concreteMethod) []FuncID {
	want := sigString(fn)
	var out []FuncID
	for _, c := range methodIndex[fn.Name()] {
		if c.sig == want {
			out = append(out, c.id)
		}
	}
	return out
}

// Program is the whole-load view shared by every Pass of one RunAnalyzers
// call: the loaded packages, their call graph, and the two reachability
// sets, each built once on first use.
type Program struct {
	Pkgs []*Package

	cg    *CallGraph
	reach map[FuncID]bool
	live  map[FuncID]bool
}

// CallGraph returns the load's call graph, building it on first call.
func (p *Program) CallGraph() *CallGraph {
	if p.cg == nil {
		p.cg = BuildCallGraph(p.Pkgs)
	}
	return p.cg
}

// reachFrom returns every node reachable from the nodes isRoot accepts.
func (p *Program) reachFrom(isRoot func(*CGNode) bool) map[FuncID]bool {
	cg := p.CallGraph()
	seen := map[FuncID]bool{}
	var queue []FuncID
	for id, n := range cg.Nodes {
		if isRoot(n) {
			seen[id] = true
			queue = append(queue, id)
		}
	}
	for len(queue) > 0 {
		n, ok := cg.Nodes[queue[0]]
		queue = queue[1:]
		if !ok {
			continue
		}
		for _, callee := range n.Callees {
			if !seen[callee] {
				seen[callee] = true
				queue = append(queue, callee)
			}
		}
	}
	return seen
}

// RunReachable reports whether id executes inside a run entry point: an
// exported function or method in a module package whose name begins with
// "Run" (RunParallel, RunFailover, Scheduler.RunUntil, ...). Anything one of
// those can reach — including through callbacks, interface dispatch and
// package-level tables of closures — executes inside a simulation run and
// is bound by the parallel-safety contract. The linter's own packages run
// no simulation: their Run* functions (RunAnalyzers, RunReachable,
// analysistest.Run) are not entry points.
func (p *Program) RunReachable(id FuncID) bool {
	if p.reach == nil {
		p.reach = p.reachFrom(func(n *CGNode) bool {
			return n.Decl != nil && strings.HasPrefix(n.Name, "Run") && ast.IsExported(n.Name) &&
				strings.HasPrefix(n.Pkg.ImportPath, ModulePath) &&
				!strings.HasPrefix(n.Pkg.ImportPath, ModulePath+"/internal/analysis")
		})
	}
	return p.reach[id]
}

// stdlibCalled are the methods the standard library calls through
// interfaces declared outside the loaded packages (fmt.Stringer, error,
// fmt.Formatter, sort.Interface, io.Reader/Writer, json.Marshaler), which
// interface dispatch in the graph cannot see.
var stdlibCalled = map[string]bool{
	"String": true, "Error": true, "Format": true,
	"Len": true, "Less": true, "Swap": true,
	"Read": true, "Write": true, "MarshalJSON": true,
}

// Live reports whether id can execute from some entry point of the loaded
// program: main and init of every package, every package-level var
// initializer, and the methods the standard library calls through its own
// interfaces (stdlibCalled). Tests are not loaded, so a function only a
// test calls is not live.
func (p *Program) Live(id FuncID) bool {
	if p.live == nil {
		p.live = p.reachFrom(func(n *CGNode) bool {
			switch {
			case n.Decl == nil:
				return true
			case n.Decl.Recv != nil:
				return stdlibCalled[n.Name]
			default:
				return n.Name == "init" || (n.Name == "main" && n.Pkg.Types.Name() == "main")
			}
		})
	}
	return p.live[id]
}

// RunReachableCode calls visit with the body of every function in the
// pass's package that a Run* entry point reaches, and with the initializer
// of every package-level var such code mentions: the closures in it run
// inside a run too. name is the function's or the var's name.
func (pass *Pass) RunReachableCode(visit func(name string, body ast.Node)) {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				obj, ok := pass.TypesInfo.Defs[d.Name].(*types.Func)
				if ok && d.Body != nil && pass.Prog.RunReachable(IDOf(obj)) {
					visit(d.Name.Name, d.Body)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok || d.Tok != token.VAR {
						continue
					}
					for _, name := range vs.Names {
						if pass.Prog.RunReachable(VarID(pass.Pkg, name.Name)) {
							for _, v := range vs.Values {
								visit(name.Name, v)
							}
							break
						}
					}
				}
			}
		}
	}
}
