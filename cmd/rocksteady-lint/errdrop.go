package main

import (
	"go/ast"
	"go/types"
)

// errdrop forbids silently dropped errors in the hot-path packages. A bare
// call statement (or go statement) whose callee returns an error — alone
// or as the last of several results — discards it invisibly; on the
// server/transport path that usually means a dead connection or failed
// replication is never noticed. Explicitly assigning to the blank
// identifier (`_ = conn.Close()`) is allowed: it states the intent.
// Deferred calls are exempt (the idiomatic `defer f.Close()`).
var errdropAnalyzer = &Analyzer{
	Name: "errdrop",
	Doc:  "no silently discarded error returns in the server/transport hot path",
	PathPrefixes: []string{
		"rocksteady/internal/core",
		"rocksteady/internal/dispatch",
		"rocksteady/internal/transport",
		"rocksteady/internal/server",
	},
	Run: runErrdrop,
}

func runErrdrop(pass *Pass) {
	errType := types.Universe.Lookup("error").Type()
	returnsError := func(call *ast.CallExpr) bool {
		t := pass.Pkg.TypeOf(call)
		if t == nil {
			return false
		}
		switch t := t.(type) {
		case *types.Tuple:
			return t.Len() > 0 && types.Identical(t.At(t.Len()-1).Type(), errType)
		default:
			return types.Identical(t, errType)
		}
	}
	check := func(call *ast.CallExpr, how string) {
		if returnsError(call) {
			pass.Reportf(call.Pos(), "%s discards the error returned by %s; handle it or assign it to _", how, callName(call))
		}
	}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.DeferStmt:
				// Idiomatic defer f.Close(): exempt, but a deferred
				// function literal's body is still checked.
				if fl, ok := n.Call.Fun.(*ast.FuncLit); ok {
					ast.Inspect(fl.Body, func(m ast.Node) bool {
						if es, ok := m.(*ast.ExprStmt); ok {
							if call, ok := es.X.(*ast.CallExpr); ok {
								check(call, "call statement")
							}
						}
						return true
					})
				}
				return false
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					check(call, "call statement")
				}
			case *ast.GoStmt:
				if _, isLit := n.Call.Fun.(*ast.FuncLit); !isLit {
					check(n.Call, "go statement")
				}
			}
			return true
		})
	}
}

// callName renders the callee for diagnostics (fmt.Fprintf, conn.Close).
func callName(call *ast.CallExpr) string {
	switch f := call.Fun.(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		if x, ok := f.X.(*ast.Ident); ok {
			return x.Name + "." + f.Sel.Name
		}
		return "(...)." + f.Sel.Name
	default:
		return "function call"
	}
}
