package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// Analyzer is one invariant checker. Most analyzers are purely
// intra-procedural and run independently per package; analyzers that need
// module-wide knowledge (seqcheck's write-section obligations, rcucheck's
// publisher functions) additionally implement Collect, which runs over
// every package before any per-package Run starts and deposits
// cross-function facts in ModuleFacts.
type Analyzer struct {
	Name string
	Doc  string
	// PathPrefixes restricts the analyzer to packages whose import path
	// starts with one of these prefixes. Empty means every package.
	PathPrefixes []string
	// Collect, if set, is the module-wide fact pass: it sees every loaded
	// package (it must filter by AppliesTo itself if scoped) and runs
	// single-threaded before the parallel per-package Run phase. Facts are
	// read-only once Run starts.
	Collect func(pkgs []*Package, facts *ModuleFacts)
	Run     func(*Pass)
}

// AppliesTo reports whether the analyzer covers the given import path.
func (a *Analyzer) AppliesTo(path string) bool {
	if len(a.PathPrefixes) == 0 {
		return true
	}
	for _, p := range a.PathPrefixes {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

// Pass carries one analyzer run over one package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	// Facts is the module-wide fact layer populated by the Collect phase;
	// read-only during Run.
	Facts  *ModuleFacts
	report func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Pkg.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the static type of e, or nil.
func (p *Package) TypeOf(e ast.Expr) types.Type {
	if tv, ok := p.Info.Types[e]; ok {
		return tv.Type
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := p.Info.ObjectOf(id); obj != nil {
			return obj.Type()
		}
	}
	return nil
}

// ObjectOf resolves an identifier to its object, or nil.
func (p *Package) ObjectOf(id *ast.Ident) types.Object { return p.Info.ObjectOf(id) }

// Diagnostic is one finding, ordered by position for stable output.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// ignoreKey identifies one suppressed (file, line, analyzer) site.
type ignoreKey struct {
	file     string
	line     int
	analyzer string
}

// ignoreDirective is one //lint:ignore comment. used flips to true the
// first time it suppresses a diagnostic; directives that stay unused are
// themselves reported so stale annotations can't accumulate.
type ignoreDirective struct {
	pos      token.Position
	analyzer string
	used     bool
}

// ignoreSet holds one package's directives, indexed by the (file, line,
// analyzer) sites they cover. Each directive covers its own line and the
// line directly below it (so it can sit above the flagged statement or
// trail it).
type ignoreSet struct {
	directives []*ignoreDirective
	byKey      map[ignoreKey]*ignoreDirective
}

// suppress reports whether d is covered by a directive, marking it used.
func (s *ignoreSet) suppress(d Diagnostic) bool {
	dir := s.byKey[ignoreKey{file: d.Pos.Filename, line: d.Pos.Line, analyzer: d.Analyzer}]
	if dir == nil {
		return false
	}
	dir.used = true
	return true
}

// collectIgnores scans a package's comments for lint:ignore directives:
//
//	//lint:ignore <analyzer> <reason>
//
// A missing reason is itself reported as a diagnostic.
func collectIgnores(pkg *Package, report func(Diagnostic)) *ignoreSet {
	set := &ignoreSet{byKey: make(map[ignoreKey]*ignoreDirective)}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//lint:ignore ")
				if !ok {
					continue
				}
				fields := strings.Fields(text)
				pos := pkg.Fset.Position(c.Pos())
				if len(fields) < 2 {
					report(Diagnostic{
						Analyzer: "lint",
						Pos:      pos,
						Message:  "malformed lint:ignore directive: need \"//lint:ignore <analyzer> <reason>\"",
					})
					continue
				}
				dir := &ignoreDirective{pos: pos, analyzer: fields[0]}
				set.directives = append(set.directives, dir)
				for _, line := range []int{pos.Line, pos.Line + 1} {
					set.byKey[ignoreKey{file: pos.Filename, line: line, analyzer: fields[0]}] = dir
				}
			}
		}
	}
	return set
}

// auditIgnores reports directives that suppressed nothing. A directive
// naming an analyzer that is registered but not enabled for this run
// (in single-analyzer fixture tests) is skipped: we can't tell whether it
// would have matched. A directive naming an analyzer that doesn't exist
// at all is always an error.
func auditIgnores(set *ignoreSet, enabled []*Analyzer, report func(Diagnostic)) {
	enabledNames := make(map[string]bool, len(enabled))
	for _, a := range enabled {
		enabledNames[a.Name] = true
	}
	registered := make(map[string]bool, len(allAnalyzers))
	for _, a := range allAnalyzers {
		registered[a.Name] = true
	}
	for _, dir := range set.directives {
		switch {
		case !registered[dir.analyzer]:
			report(Diagnostic{
				Analyzer: "lint",
				Pos:      dir.pos,
				Message:  fmt.Sprintf("lint:ignore names unknown analyzer %q", dir.analyzer),
			})
		case enabledNames[dir.analyzer] && !dir.used:
			report(Diagnostic{
				Analyzer: "lint",
				Pos:      dir.pos,
				Message:  fmt.Sprintf("unused lint:ignore directive: no %s diagnostic here to suppress", dir.analyzer),
			})
		}
	}
}

// RunAnalyzers applies every enabled analyzer to every package and returns
// surviving diagnostics sorted by position. Analyzers with a Collect hook
// first run their module-wide fact pass sequentially over every package;
// the per-package analysis phase then fans out across GOMAXPROCS workers
// (packages are immutable by that point, facts are read-only, and each
// package's diagnostics and ignore bookkeeping are package-local, so the
// only shared write is the mutex-guarded result append).
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	facts := newModuleFacts()
	for _, a := range analyzers {
		if a.Collect != nil {
			a.Collect(pkgs, facts)
		}
	}

	var (
		mu    sync.Mutex
		diags []Diagnostic
	)
	addAll := func(ds []Diagnostic) {
		mu.Lock()
		diags = append(diags, ds...)
		mu.Unlock()
	}

	workers := runtime.GOMAXPROCS(0)
	if workers > len(pkgs) {
		workers = len(pkgs)
	}
	if workers < 1 {
		workers = 1
	}
	jobs := make(chan *Package)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pkg := range jobs {
				var local []Diagnostic
				ignores := collectIgnores(pkg, func(d Diagnostic) { local = append(local, d) })
				for _, a := range analyzers {
					if !a.AppliesTo(pkg.Path) {
						continue
					}
					pass := &Pass{
						Analyzer: a,
						Pkg:      pkg,
						Facts:    facts,
						report: func(d Diagnostic) {
							if ignores.suppress(d) {
								return
							}
							local = append(local, d)
						},
					}
					a.Run(pass)
				}
				auditIgnores(ignores, analyzers, func(d Diagnostic) { local = append(local, d) })
				addAll(local)
			}
		}()
	}
	for _, pkg := range pkgs {
		jobs <- pkg
	}
	close(jobs)
	wg.Wait()

	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// calleeObj resolves a call's target function object (methods and
// package functions), or nil for builtins and indirect calls.
func calleeObj(pkg *Package, call *ast.CallExpr) types.Object {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if fn, ok := pkg.ObjectOf(fun).(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := pkg.ObjectOf(fun.Sel).(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// pkgFunc resolves call to the package-level function it calls, or nil
// for methods, builtins, conversions and calls of function values. It
// goes through the type checker, so renamed imports are handled.
func pkgFunc(pkg *Package, call *ast.CallExpr) *types.Func {
	fn, ok := calleeObj(pkg, call).(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Type().(*types.Signature).Recv() != nil {
		return nil
	}
	return fn
}

// isPkgFunc reports whether call calls the package-level function
// pkgPath.name.
func isPkgFunc(pkg *Package, call *ast.CallExpr, pkgPath, name string) bool {
	fn := pkgFunc(pkg, call)
	return fn != nil && fn.Pkg().Path() == pkgPath && fn.Name() == name
}
