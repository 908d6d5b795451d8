package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
)

// Package is one loaded, parsed, type-checked package.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	TypesInfo  *types.Info

	// GraphOnly marks a package loaded only so the call graph sees its
	// calls: analyzers do not report on it.
	GraphOnly bool
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	DepOnly    bool
	Standard   bool
	Error      *struct{ Err string }
}

// goList runs `go list -e -export -json -deps` over patterns in dir and
// returns the decoded package records. -export makes the go command compile
// everything and report per-package export-data paths, which is what lets
// the type checker resolve imports without golang.org/x/tools — the module
// is built fully offline.
func goList(dir string, patterns []string) ([]listPkg, error) {
	args := append([]string{
		"list", "-e", "-export", "-deps",
		"-json=ImportPath,Dir,GoFiles,Export,DepOnly,Standard,Error",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.String())
	}
	var pkgs []listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list %v: decoding: %v", patterns, err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// exportImporter returns a types.Importer that reads gc export data from the
// files `go list -export` reported.
func exportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	lookup := func(path string) (io.ReadCloser, error) {
		e, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(e)
	}
	return importer.ForCompiler(fset, "gc", lookup)
}

// newInfo returns a types.Info with every map analyzers consult populated.
func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Implicits:  map[ast.Node]types.Object{},
	}
}

// Load lists patterns (relative to dir; "" means the current directory),
// parses and type-checks every matched package in the main module, and
// returns them sorted by import path. Test files are excluded: the
// determinism contracts bind simulation code, and tests legitimately use
// wall clocks and ad-hoc iteration.
func Load(dir string, patterns ...string) ([]*Package, error) {
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string, len(listed))
	var targets []listPkg
	for _, p := range listed {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly && !p.Standard {
			if p.Error != nil {
				return nil, fmt.Errorf("%s: %s", p.ImportPath, p.Error.Err)
			}
			targets = append(targets, p)
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })

	fset := token.NewFileSet()
	imp := exportImporter(fset, exports)
	var out []*Package
	for _, t := range targets {
		if len(t.GoFiles) == 0 {
			continue
		}
		pkg, err := checkDir(fset, imp, t.ImportPath, t.Dir, t.GoFiles)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// LoadProgram loads the packages patterns name (relative to dir) together
// with every other package of their module and of the benchmark module in
// its bench/ directory, if there is one. The extra packages are marked
// GraphOnly: they give the call graph its real callers and entry points, so
// reachability does not depend on which patterns were named, but nothing is
// reported on them.
func LoadProgram(dir string, patterns ...string) ([]*Package, error) {
	root, err := exec.Command("go", "-C", dir, "env", "GOMOD").Output()
	if err != nil {
		return nil, fmt.Errorf("go env GOMOD: %v", err)
	}
	modDir := filepath.Dir(string(bytes.TrimSpace(root)))
	named, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	report := map[string]bool{}
	for _, p := range named {
		report[p.ImportPath] = !p.DepOnly && !p.Standard
	}
	pkgs, err := Load(modDir, "./...")
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(modDir, "bench", "go.mod")); err == nil {
		bench, err := Load(filepath.Join(modDir, "bench"), "./...")
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, bench...)
	}
	for _, p := range pkgs {
		p.GraphOnly = !report[p.ImportPath]
	}
	return pkgs, nil
}

// LoadDir parses and type-checks the single package formed by files (under
// dir) as importPath, resolving its imports through export data for deps
// and everything deps transitively needs. It exists for analysistest
// fixtures, which live under testdata/ where the go tool will not list
// them.
//
//simlint:allow deadcode: test infrastructure, called by analysistest.Run and the call-graph tests
func LoadDir(dir, importPath string, deps []string) (*Package, error) {
	exports := map[string]string{}
	if len(deps) > 0 {
		listed, err := goList(dir, deps)
		if err != nil {
			return nil, err
		}
		for _, p := range listed {
			if p.Export != "" {
				exports[p.ImportPath] = p.Export
			}
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".go" {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	fset := token.NewFileSet()
	return checkDir(fset, exportImporter(fset, exports), importPath, dir, names)
}

// checkDir parses the named files in dir and type-checks them as one
// package.
func checkDir(fset *token.FileSet, imp types.Importer, importPath, dir string, names []string) (*Package, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := newInfo()
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(importPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("%s: type checking: %v", importPath, err)
	}
	return &Package{
		ImportPath: importPath,
		Dir:        dir,
		Fset:       fset,
		Files:      files,
		Types:      tpkg,
		TypesInfo:  info,
	}, nil
}
