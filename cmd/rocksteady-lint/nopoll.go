package main

import (
	"go/ast"
)

// nopoll keeps sleep-polling out of the latency-critical layers. The whole
// point of the Rocksteady port is that migration must not add tail latency
// (§3); PR 1 replaced every sleep-poll in the dispatch/migration path with
// event-driven channels, and this analyzer stops them from coming back.
//
// Flagged inside internal/core, internal/dispatch, internal/transport, and
// internal/server:
//
//   - any call to time.Sleep (the model sleeps in the fabric's bandwidth
//     simulation carry //lint:ignore annotations explaining themselves)
//   - runtime.Gosched, which only ever appears as a yield inside a spin
//     loop
//   - a for-loop with an empty body (a pure spin-wait)
var nopollAnalyzer = &Analyzer{
	Name: "nopoll",
	Doc:  "no sleep-polls or busy-wait loops in the dispatch/migration hot path",
	PathPrefixes: []string{
		"rocksteady/internal/core",
		"rocksteady/internal/dispatch",
		"rocksteady/internal/transport",
		"rocksteady/internal/server",
	},
	Run: runNopoll,
}

func runNopoll(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if isPkgFunc(pass.Pkg, n, "time", "Sleep") {
					pass.Reportf(n.Pos(), "time.Sleep in a hot-path package: use event-driven waiting (channels, sync.Cond) instead of polling")
				}
				if isPkgFunc(pass.Pkg, n, "runtime", "Gosched") {
					pass.Reportf(n.Pos(), "runtime.Gosched in a hot-path package: yielding spin loops poll the scheduler; block on an event instead")
				}
			case *ast.ForStmt:
				if len(n.Body.List) == 0 {
					pass.Reportf(n.Pos(), "empty for-loop body is a busy-wait: block on an event instead")
				}
			}
			return true
		})
	}
}
