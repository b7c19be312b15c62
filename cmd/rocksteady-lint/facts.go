package main

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ModuleFacts is the cross-function fact layer. Analyzers that need
// module-wide knowledge (a helper whose write-section obligation reaches
// its callers, a publisher function defined far from its callers)
// deposit summaries here during the sequential Collect phase; the
// parallel per-package Run phase then consumes them read-only.
//
// Facts are keyed by types.Object. The loader typechecks the whole module
// through one shared cache, so the *types.Var for, say,
// server.Server.tablets is the same object no matter which package's AST
// mentions it — that identity is what makes cross-package summaries sound.
type ModuleFacts struct {
	// SeqFindings holds seqcheck's cross-function diagnostics (guarded
	// mutations reached outside any write section, through the call
	// graph), keyed by import path.
	SeqFindings map[string][]FactFinding

	// RCUSources marks functions whose result is a pointer loaded from an
	// atomic.Pointer (directly, or by returning another source's result):
	// their callers receive published memory that must not be mutated.
	RCUSources map[types.Object]bool
}

// FactFinding is a diagnostic computed during the Collect phase and
// replayed by the owning package's Run, so it flows through the normal
// //lint:ignore suppression and position sorting.
type FactFinding struct {
	Pos     token.Pos
	Message string
}

func newModuleFacts() *ModuleFacts {
	return &ModuleFacts{
		SeqFindings: make(map[string][]FactFinding),
		RCUSources:  make(map[types.Object]bool),
	}
}

// reportFacts replays the pass's precomputed findings from the given
// per-package table.
func reportFacts(pass *Pass, table map[string][]FactFinding) {
	for _, f := range table[pass.Pkg.Path] {
		pass.Reportf(f.Pos, "%s", f.Message)
	}
}

// isAtomicNamed reports whether t (possibly behind a pointer) is one of
// sync/atomic's typed-atomic named types (atomic.Int64, atomic.Pointer[T],
// ...), returning its name.
func isAtomicNamed(t types.Type) (string, bool) {
	if t == nil {
		return "", false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync/atomic" {
		return "", false
	}
	return obj.Name(), true
}

// atomicMethodOn resolves a call of the form x.M(...) where M is a method
// of a sync/atomic typed value, returning the receiver expression and the
// method name.
func atomicMethodOn(p *Package, call *ast.CallExpr) (recv ast.Expr, method string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return nil, "", false
	}
	fn, isFn := p.ObjectOf(sel.Sel).(*types.Func)
	if !isFn {
		return nil, "", false
	}
	sig, isSig := fn.Type().(*types.Signature)
	if !isSig || sig.Recv() == nil {
		return nil, "", false
	}
	if _, atomicRecv := isAtomicNamed(sig.Recv().Type()); !atomicRecv {
		return nil, "", false
	}
	return sel.X, sel.Sel.Name, true
}

// baseIdentOf peels selectors, index expressions, stars, and parens off e
// and returns the root identifier, or nil (e.g. when the root is a call).
func baseIdentOf(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}
