package main

import (
	"go/ast"
	"go/types"
)

// ctxcheck enforces the context-first RPC lifecycle. Every deadline and
// cancellation signal in Rocksteady flows through a context.Context handed
// down from the caller (client → target → source for a migration pull
// chain), so two shapes of code silently break the chain:
//
//   - a function that accepts a ctx anywhere but first, which invites
//     call sites to thread the wrong one (and breaks the uniform
//     "ctx, err := ..." reading order the rest of the tree follows)
//
//   - a context.Background()/context.TODO() conjured mid-stack, which
//     detaches everything below it from the caller's deadline
//
// Fresh roots are legitimate only where a lifetime genuinely starts: a
// main function, a test, or a long-lived server/harness loop that outlives
// any one request. Package main and _test.go files are exempt wholesale
// (the loader never sees test files; mains are skipped here); the server
// roots each carry a //lint:ignore ctxcheck annotation naming why they are
// roots. Detaching from a live ctx inside request-scoped code should use
// context.WithoutCancel, which keeps the trace id and shows intent.
var ctxcheckAnalyzer = &Analyzer{
	Name: "ctxcheck",
	Doc:  "ctx must be the first parameter; no context.Background()/TODO() outside mains, tests, and annotated roots",
	Run:  runCtxcheck,
}

func runCtxcheck(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		isMain := f.Name.Name == "main"
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				checkCtxFirst(pass, n.Type)
			case *ast.FuncLit:
				checkCtxFirst(pass, n.Type)
			case *ast.CallExpr:
				if isMain {
					return true
				}
				for _, name := range []string{"Background", "TODO"} {
					if isPkgFunc(pass.Pkg, n, "context", name) {
						pass.Reportf(n.Pos(), "context.%s detaches from the caller's deadline: thread the incoming ctx (or annotate a deliberate root)", name)
					}
				}
			}
			return true
		})
	}
}

// checkCtxFirst reports any context.Context parameter that is not the
// function's first parameter.
func checkCtxFirst(pass *Pass, ft *ast.FuncType) {
	if ft.Params == nil {
		return
	}
	pos := 0
	for _, field := range ft.Params.List {
		width := len(field.Names)
		if width == 0 {
			width = 1 // unnamed parameter
		}
		if pos > 0 && isContextType(pass, field.Type) {
			pass.Reportf(field.Pos(), "context.Context must be the first parameter")
		}
		pos += width
	}
}

func isContextType(pass *Pass, e ast.Expr) bool {
	t := pass.Pkg.TypeOf(e)
	if t == nil {
		return false
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}
