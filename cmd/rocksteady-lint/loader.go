package main

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
	"strings"
)

// Package is one loaded, type-checked package: the unit analyzers run on.
type Package struct {
	Path  string // import path ("rocksteady/internal/wire")
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader resolves packages the way the go command does, with one
// `go list -deps -export -json` call per Load: patterns, build
// constraints and the module layout are the go command's business. Module
// packages are type-checked from source, in the dependency order go list
// gives, because the analyzers need their syntax; everything else (the
// standard library) is read from the export data go list points at.
//
// A Loader is one cache: each package is checked once, so a types.Object
// stands for the same declaration whichever package mentions it. The
// module-wide facts are keyed by that identity.
type Loader struct {
	fset    *token.FileSet
	pkgs    map[string]*Package // module packages checked so far
	exports map[string]string   // import path -> export data file
	gc      types.Importer
}

// NewLoader returns a Loader with an empty cache.
func NewLoader() *Loader {
	l := &Loader{
		fset:    token.NewFileSet(),
		pkgs:    make(map[string]*Package),
		exports: make(map[string]string),
	}
	l.gc = importer.ForCompiler(l.fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := l.exports[path]
		if !ok || file == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(file)
	})
	return l
}

// listedPackage is the part of a `go list -json` record the loader reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
	DepOnly    bool
	Error      *struct{ Err string }
}

// Load lists patterns and their dependencies, type-checks every module
// package among them, and returns the packages the patterns name. A
// package go list reports with an error fails the load, naming it.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	args := append([]string{"list", "-e", "-deps", "-export",
		"-json=ImportPath,Dir,GoFiles,Export,Standard,DepOnly,Error", "--"}, patterns...)
	var stderr bytes.Buffer
	cmd := exec.Command("go", args...)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	var roots []*Package
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var lp listedPackage
		if err := dec.Decode(&lp); err != nil {
			return nil, fmt.Errorf("go list output: %v", err)
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("%s: %s", lp.ImportPath, strings.TrimSpace(lp.Error.Err))
		}
		if lp.Standard {
			if !lp.DepOnly {
				return nil, fmt.Errorf("%s: not a module package", lp.ImportPath)
			}
			l.exports[lp.ImportPath] = lp.Export
			continue
		}
		pkg := l.pkgs[lp.ImportPath]
		if pkg == nil {
			files := make([]string, len(lp.GoFiles))
			for i, f := range lp.GoFiles {
				files[i] = filepath.Join(lp.Dir, f)
			}
			if pkg, err = l.check(lp.ImportPath, files); err != nil {
				return nil, err
			}
		}
		if !lp.DepOnly {
			roots = append(roots, pkg)
		}
	}
	return roots, nil
}

// check parses files and type-checks them as the package importPath. The
// packages they import must already be in the cache or have export data.
func (l *Loader) check(importPath string, files []string) (*Package, error) {
	var asts []*ast.File
	for _, f := range files {
		af, err := parser.ParseFile(l.fset, f, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		asts = append(asts, af)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{
		Importer: l,
		Error:    func(err error) {}, // collect only the first hard error below
	}
	tpkg, err := conf.Check(importPath, l.fset, asts, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", importPath, err)
	}
	p := &Package{Path: importPath, Fset: l.fset, Files: asts, Types: tpkg, Info: info}
	l.pkgs[importPath] = p
	return p, nil
}

// Import implements types.Importer for check: module packages come from
// the cache, everything else from export data.
func (l *Loader) Import(path string) (*types.Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p.Types, nil
	}
	return l.gc.Import(path)
}
