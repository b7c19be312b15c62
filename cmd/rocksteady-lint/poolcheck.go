package main

import (
	"go/ast"
	"go/token"
	"go/types"
)

// poolcheck enforces the wire pool ownership contract (DESIGN.md,
// "Transport performance model"): a value acquired with wire.GetBuffer or
// wire.GetRecordSlice must, on every control-flow path, either be released
// with the matching Release function or have its ownership transferred
// (returned, sent, stored, or passed to another function). After a release
// the value is dead: any further use is flagged, as is a possible second
// release.
//
// The analysis is intra-procedural and path-sensitive over the AST: if/
// switch/select branches fork the tracking state and merge afterwards.
// Ownership transfer is deliberately conservative — aliasing a tracked
// value, capturing it in a closure, or passing it (not a field of it) to
// any call stops tracking, so the analyzer never second-guesses hand-offs
// like TCP.Send queueing a frame on a peer connection.
var poolcheckAnalyzer = &Analyzer{
	Name: "poolcheck",
	Doc:  "pooled wire.Buffer / []Record values must be released exactly once on every path",
	Run:  runPoolcheck,
}

const wirePkgPath = "rocksteady/internal/wire"

// poolStatus is a bitmask of the states a tracked value may be in across
// the paths that reach a program point.
type poolStatus uint8

const (
	poolLive     poolStatus = 1 << iota // acquired, not yet released
	poolReleased                        // released back to the pool
)

// poolVar is the per-variable tracking record.
type poolVar struct {
	status  poolStatus
	get     string    // acquiring function name (GetBuffer / GetRecordSlice)
	getPos  token.Pos // acquisition site, where leaks are reported
	declPos token.Pos // position of the acquiring statement (scope checks)
}

type poolState map[types.Object]*poolVar

func (st poolState) clone() poolState {
	out := make(poolState, len(st))
	for k, v := range st {
		c := *v
		out[k] = &c
	}
	return out
}

// merge unions the statuses of two non-terminated paths. A variable only
// one path tracks (the other released-and-rescoped or escaped it) becomes
// untracked: poolcheck reports only must-leaks along fully tracked paths.
func (st poolState) merge(other poolState) poolState {
	out := make(poolState)
	for k, a := range st {
		if b, ok := other[k]; ok {
			m := *a
			m.status = a.status | b.status
			out[k] = &m
		}
	}
	return out
}

func runPoolcheck(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if es, ok := n.(*ast.ExprStmt); ok {
				if call, ok := es.X.(*ast.CallExpr); ok {
					if get, isGet := getCall(pass.Pkg, call); isGet {
						pass.Reportf(call.Pos(), "result of wire.%s is discarded: the pooled value leaks", get)
					}
				}
			}
			return true
		})
	}
	// Function literals are analyzed as functions in their own right (a
	// worker closure that acquires a buffer must release it too); the
	// enclosing function's walk stops tracking anything a literal
	// captures, so nothing is double-reported.
	forEachFunc(pass.Pkg.Files, func(body *ast.BlockStmt) {
		pc := &poolChecker{pass: pass, reported: make(map[token.Pos]bool)}
		w := &pathWalker[poolState]{
			expr:   pc.expr,
			assign: pc.assign,
			send: func(s *ast.SendStmt, st poolState) {
				pc.expr(s.Chan, st)
				pc.escapeOrUse(s.Value, st)
			},
			deferStmt: pc.deferStmt,
			exit: func(_ token.Pos, results []ast.Expr, st poolState) {
				for _, r := range results {
					pc.escapeOrUse(r, st)
				}
				pc.checkLeaks(st)
			},
			scopeEnd: pc.scopeEnd,
		}
		pc.quiet = w.quiet
		w.walkFunc(body, make(poolState))
	})
}

type poolChecker struct {
	pass  *Pass
	quiet func() bool // the walker's silent pass: report nothing
	// reported holds the acquisitions (by Get call position) already
	// diagnosed, so each Get is reported at most once across forked states.
	reported map[token.Pos]bool
}

// report emits one diagnostic per acquisition.
func (pc *poolChecker) report(v *poolVar, pos token.Pos, format string, args ...any) {
	if !pc.quiet() && !pc.reported[v.getPos] {
		pc.reported[v.getPos] = true
		pc.pass.Reportf(pos, format, args...)
	}
}

// getCall returns the pool-acquiring function name if call is
// wire.GetBuffer or wire.GetRecordSlice.
func getCall(pkg *Package, call *ast.CallExpr) (string, bool) {
	for _, name := range []string{"GetBuffer", "GetRecordSlice"} {
		if isPkgFunc(pkg, call, wirePkgPath, name) {
			return name, true
		}
	}
	return "", false
}

// releaseCall returns the pool-releasing function name if call is
// wire.ReleaseBuffer or wire.ReleaseRecordSlice.
func (pc *poolChecker) releaseCall(call *ast.CallExpr) (string, bool) {
	for _, name := range []string{"ReleaseBuffer", "ReleaseRecordSlice"} {
		if isPkgFunc(pc.pass.Pkg, call, wirePkgPath, name) {
			return name, true
		}
	}
	return "", false
}

// checkLeaks reports every variable still (possibly) live when a path
// leaves the function.
func (pc *poolChecker) checkLeaks(st poolState) {
	for obj, v := range st {
		if v.status&poolLive != 0 {
			pc.report(v, v.getPos, "%s from wire.%s is not released on every path to the end of the function", obj.Name(), v.get)
		}
	}
}

// scopeEnd reports variables acquired inside the scope that are still
// live as it closes — they go out of scope unreleased (this is what
// catches per-iteration leaks in loop bodies).
func (pc *poolChecker) scopeEnd(scope ast.Node, st poolState) {
	for obj, v := range st {
		if v.declPos >= scope.Pos() && v.declPos <= scope.End() {
			if v.status&poolLive != 0 {
				pc.report(v, v.getPos, "%s from wire.%s goes out of scope without being released on every path", obj.Name(), v.get)
			}
			delete(st, obj)
		}
	}
}

// deferStmt: defer wire.Release*(v) guarantees release on every path, so
// v stops being tracked. Other defers are ordinary escape points.
func (pc *poolChecker) deferStmt(s *ast.DeferStmt, st poolState) {
	if _, isRel := pc.releaseCall(s.Call); isRel && len(s.Call.Args) == 1 {
		if obj := pc.identObj(s.Call.Args[0]); obj != nil {
			if _, tracked := st[obj]; tracked {
				delete(st, obj)
				return
			}
		}
	}
	pc.expr(s.Call, st)
}

// assign handles tracking starts (x := wire.GetBuffer(), var x =
// wire.GetBuffer()), overwrites, and aliasing escapes.
func (pc *poolChecker) assign(s ast.Stmt, lhs, rhs []ast.Expr, st poolState) {
	// x := wire.Get*() / x = wire.Get*()
	if len(lhs) == 1 && len(rhs) == 1 {
		if call, ok := rhs[0].(*ast.CallExpr); ok {
			if get, isGet := getCall(pc.pass.Pkg, call); isGet {
				if obj := pc.identObj(lhs[0]); obj != nil {
					if prev, tracked := st[obj]; tracked && prev.status&poolLive != 0 {
						pc.report(prev, call.Pos(), "%s is overwritten by wire.%s while the previous pooled value may still be live", obj.Name(), get)
					}
					st[obj] = &poolVar{status: poolLive, get: get, getPos: call.Pos(), declPos: s.Pos()}
					return
				}
				// Get result assigned to a non-ident (field, index):
				// ownership lives in that location; not tracked.
				pc.expr(lhs[0], st)
				return
			}
		}
	}
	for _, r := range rhs {
		pc.escapeOrUse(r, st)
	}
	for _, l := range lhs {
		// Overwriting a live tracked variable with something new loses the
		// only reference to the pooled value.
		if obj := pc.identObj(l); obj != nil {
			if v, tracked := st[obj]; tracked {
				// Self-referential reassignment (rs = rs[:0], out = append(out, ...))
				// keeps the same backing value: retain tracking.
				if !rhsMentions(pc.pass.Pkg, rhs, obj) {
					if v.status&poolLive != 0 {
						pc.report(v, s.Pos(), "%s is overwritten while the pooled value from wire.%s may still be live", obj.Name(), v.get)
					}
					delete(st, obj)
				}
			}
			continue
		}
		pc.expr(l, st)
	}
}

func rhsMentions(pkg *Package, rhs []ast.Expr, obj types.Object) bool {
	found := false
	for _, r := range rhs {
		ast.Inspect(r, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && pkg.ObjectOf(id) == obj {
				found = true
			}
			return !found
		})
	}
	return found
}

// identObj unwraps a plain identifier (not a selector or index) to its
// object.
func (pc *poolChecker) identObj(e ast.Expr) types.Object {
	if id, ok := e.(*ast.Ident); ok {
		return pc.pass.Pkg.ObjectOf(id)
	}
	return nil
}

// escapeOrUse handles value contexts that transfer ownership when the
// whole tracked value appears (return values, channel sends, RHS of
// assignments to other variables).
func (pc *poolChecker) escapeOrUse(e ast.Expr, st poolState) {
	if obj := pc.identObj(e); obj != nil {
		if v, tracked := st[obj]; tracked {
			pc.useCheck(e.Pos(), obj, v)
			delete(st, obj) // ownership transferred
			return
		}
	}
	pc.expr(e, st)
}

// useCheck flags a use of a possibly-released value.
func (pc *poolChecker) useCheck(pos token.Pos, obj types.Object, v *poolVar) {
	if v.status&poolReleased != 0 && !pc.quiet() {
		pc.pass.Reportf(pos, "%s is used after wire.Release%s returned it to the pool", obj.Name(), releaseSuffix(v.get))
	}
}

func releaseSuffix(get string) string {
	if get == "GetBuffer" {
		return "Buffer"
	}
	return "RecordSlice"
}

// expr walks an expression, recording uses, releases, and escapes of
// tracked variables.
func (pc *poolChecker) expr(e ast.Expr, st poolState) {
	switch e := e.(type) {
	case nil:
		return
	case *ast.Ident:
		if obj := pc.pass.Pkg.ObjectOf(e); obj != nil {
			if v, tracked := st[obj]; tracked {
				pc.useCheck(e.Pos(), obj, v)
			}
		}
	case *ast.CallExpr:
		pc.call(e, st)
	case *ast.FuncLit:
		// A closure capturing a tracked variable takes over its
		// lifetime: stop tracking everything it references.
		ast.Inspect(e.Body, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := pc.pass.Pkg.ObjectOf(id); obj != nil {
					delete(st, obj)
				}
			}
			return true
		})
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			// Taking the address aliases the value: stop tracking.
			if obj := pc.identObj(e.X); obj != nil {
				if v, tracked := st[obj]; tracked {
					pc.useCheck(e.Pos(), obj, v)
					delete(st, obj)
					return
				}
			}
		}
		pc.expr(e.X, st)
	case *ast.CompositeLit:
		// Storing the value in a literal transfers ownership.
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				pc.expr(kv.Key, st)
				pc.escapeOrUse(kv.Value, st)
				continue
			}
			pc.escapeOrUse(el, st)
		}
	case *ast.SelectorExpr:
		pc.expr(e.X, st)
	case *ast.IndexExpr:
		pc.expr(e.X, st)
		pc.expr(e.Index, st)
	case *ast.SliceExpr:
		pc.expr(e.X, st)
		pc.expr(e.Low, st)
		pc.expr(e.High, st)
		pc.expr(e.Max, st)
	case *ast.StarExpr:
		pc.expr(e.X, st)
	case *ast.ParenExpr:
		pc.expr(e.X, st)
	case *ast.BinaryExpr:
		pc.expr(e.X, st)
		pc.expr(e.Y, st)
	case *ast.TypeAssertExpr:
		pc.expr(e.X, st)
	case *ast.KeyValueExpr:
		pc.expr(e.Key, st)
		pc.expr(e.Value, st)
	default:
		// Types, literals: nothing tracked inside.
	}
}

// call handles Release calls, builtins (which never take ownership), and
// ordinary calls (which do).
func (pc *poolChecker) call(call *ast.CallExpr, st poolState) {
	if rel, isRel := pc.releaseCall(call); isRel {
		if len(call.Args) == 1 {
			if obj := pc.identObj(call.Args[0]); obj != nil {
				if v, tracked := st[obj]; tracked {
					if v.status&poolReleased != 0 {
						pc.report(v, call.Pos(), "%s may be released more than once (wire.%s already ran on some path)", obj.Name(), rel)
					}
					v.status = poolReleased
					return
				}
			}
		}
		for _, a := range call.Args {
			pc.expr(a, st)
		}
		return
	}
	if _, isGet := getCall(pc.pass.Pkg, call); isGet {
		// Get in a value context (argument, return, literal): ownership
		// goes wherever the value goes; nothing to track. The discarded
		// case (expression statement) is reported by runPoolcheck.
		return
	}
	pc.expr(call.Fun, st)
	builtinOrConv := pc.isBuiltinOrConversion(call)
	for _, a := range call.Args {
		if obj := pc.identObj(a); obj != nil {
			if v, tracked := st[obj]; tracked {
				pc.useCheck(a.Pos(), obj, v)
				if !builtinOrConv {
					delete(st, obj) // ownership handed to the callee
				}
				continue
			}
		}
		pc.expr(a, st)
	}
}

func (pc *poolChecker) isBuiltinOrConversion(call *ast.CallExpr) bool {
	fun := call.Fun
	if p, ok := fun.(*ast.ParenExpr); ok {
		fun = p.X
	}
	if id, ok := fun.(*ast.Ident); ok {
		if obj := pc.pass.Pkg.ObjectOf(id); obj != nil {
			if _, isBuiltin := obj.(*types.Builtin); isBuiltin {
				return true
			}
		}
	}
	if tv, ok := pc.pass.Pkg.Info.Types[fun]; ok && tv.IsType() {
		return true
	}
	return false
}
