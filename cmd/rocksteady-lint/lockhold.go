package main

import (
	"go/ast"
	"go/token"
	"go/types"
)

// lockhold guards against the dispatch/TCP coalescing deadlock class: a
// goroutine that blocks on a transport Send or an unbuffered/full channel
// while holding a sync.Mutex or sync.RWMutex can deadlock the whole
// dispatch loop (the peer needs the same lock to drain the queue that
// would unblock the send). The TCP write path is explicitly structured to
// drop the peer lock before writev for exactly this reason.
//
// The analysis tracks, per function and path, the set of mutexes held
// (x.Lock()/x.RLock() ... x.Unlock()/x.RUnlock(); defer x.Unlock() holds
// to the end) and flags while any are held:
//
//   - channel send statements (ch <- v) outside a select with a default
//   - select statements containing a send with no default case
//   - calls to a Send method on a transport endpoint (anything whose Send
//     has the func(*wire.Message) error signature)
//
// sync.Cond operations are exempt: Wait atomically releases the mutex.
var lockholdAnalyzer = &Analyzer{
	Name: "lockhold",
	Doc:  "no blocking transport Send or channel send while a sync mutex is held",
	Run:  runLockhold,
}

func runLockhold(pass *Pass) {
	lc := &lockChecker{pass: pass, commSends: make(map[*ast.SendStmt]bool)}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectStmt); ok {
				lc.noteSelect(sel)
			}
			return true
		})
	}
	w := &pathWalker[lockSet]{
		expr: lc.expr,
		send: lc.send,
		// defer mu.Unlock() means the lock is held for the rest of the
		// function: deliberately do NOT clear it. Everything else inside
		// a defer runs at exit; scan it with the current held set.
		deferStmt: func(s *ast.DeferStmt, held lockSet) {
			if obj, op := lc.mutexOp(s.Call); obj != nil && (op == "Unlock" || op == "RUnlock") {
				return
			}
			lc.expr(s.Call, held)
		},
		// A spawned goroutine does not inherit the holder's locks.
		goStmt: func(s *ast.GoStmt, _ lockSet) { lc.expr(s.Call, make(lockSet)) },
	}
	// A function literal runs on its own goroutine or call frame: it holds
	// no locks on entry, and the enclosing walk does not look inside it.
	lc.quiet = w.quiet
	forEachFunc(pass.Pkg.Files, func(body *ast.BlockStmt) { w.walkFunc(body, make(lockSet)) })
}

// lockSet maps the object of a mutex-typed variable or field to "held on
// some path reaching here".
type lockSet map[types.Object]bool

func (ls lockSet) clone() lockSet {
	out := make(lockSet, len(ls))
	for k, v := range ls {
		out[k] = v
	}
	return out
}

// merge unions two path states: held anywhere is held (conservative).
func (ls lockSet) merge(other lockSet) lockSet {
	out := ls.clone()
	for k, v := range other {
		if v {
			out[k] = true
		}
	}
	return out
}

func (ls lockSet) anyHeld() (types.Object, bool) {
	for k, v := range ls {
		if v {
			return k, true
		}
	}
	return nil, false
}

type lockChecker struct {
	pass  *Pass
	quiet func() bool // the walker's silent pass: report nothing
	// commSends maps each send that is a select clause's communication to
	// whether that select has a default case (and so never blocks).
	commSends map[*ast.SendStmt]bool
}

func (lc *lockChecker) reportf(pos token.Pos, format string, args ...any) {
	if !lc.quiet() {
		lc.pass.Reportf(pos, format, args...)
	}
}

// noteSelect records the sends a select makes in its clauses.
func (lc *lockChecker) noteSelect(sel *ast.SelectStmt) {
	hasDefault := false
	for _, clause := range sel.Body.List {
		if c, ok := clause.(*ast.CommClause); ok && c.Comm == nil {
			hasDefault = true
		}
	}
	for _, clause := range sel.Body.List {
		if send, ok := clause.(*ast.CommClause).Comm.(*ast.SendStmt); ok {
			lc.commSends[send] = hasDefault
		}
	}
}

// send flags a channel send that can block while a lock is held: a plain
// send statement, or a select's send clause when the select has no
// default.
func (lc *lockChecker) send(s *ast.SendStmt, held lockSet) {
	lc.expr(s.Chan, held)
	lc.expr(s.Value, held)
	what := "channel send"
	if nonBlocking, inSelect := lc.commSends[s]; inSelect {
		if nonBlocking {
			return
		}
		what = "blocking select send"
	}
	if obj, any := held.anyHeld(); any {
		lc.reportf(s.Pos(), "%s while %s is held: if the channel is full this blocks with the lock taken; release it first", what, obj.Name())
	}
}

// expr scans an expression for lock transitions and blocking calls.
func (lc *lockChecker) expr(e ast.Expr, held lockSet) {
	ast.Inspect(e, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			// Literal bodies are analyzed separately with an empty lock
			// set; they do not run under the creator's locks.
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if obj, op := lc.mutexOp(call); obj != nil {
			switch op {
			case "Lock", "RLock":
				held[obj] = true
			case "Unlock", "RUnlock":
				held[obj] = false
			}
			return false
		}
		if lc.isTransportSend(call) {
			if obj, any := held.anyHeld(); any {
				lc.reportf(call.Pos(), "transport Send while %s is held: a blocked write deadlocks everyone needing the lock; release it first", obj.Name())
			}
		}
		return true
	})
}

// mutexOp recognizes x.Lock()/x.Unlock()/x.RLock()/x.RUnlock() where x is
// a sync.Mutex or sync.RWMutex (possibly behind a pointer) and returns the
// object identifying x plus the operation name.
func (lc *lockChecker) mutexOp(call *ast.CallExpr) (types.Object, string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	op := sel.Sel.Name
	switch op {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return nil, ""
	}
	t := lc.pass.Pkg.TypeOf(sel.X)
	if t == nil || !isSyncMutex(t) {
		return nil, ""
	}
	// Identify the mutex by the last selector component (field or var).
	switch x := sel.X.(type) {
	case *ast.Ident:
		return lc.pass.Pkg.ObjectOf(x), op
	case *ast.SelectorExpr:
		return lc.pass.Pkg.ObjectOf(x.Sel), op
	default:
		return nil, ""
	}
}

func isSyncMutex(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// isTransportSend recognizes calls to a Send method with the transport
// Endpoint signature func(*wire.Message) error, on either the interface or
// a concrete endpoint.
func (lc *lockChecker) isTransportSend(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Send" {
		return false
	}
	obj := lc.pass.Pkg.ObjectOf(sel.Sel)
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || sig.Params().Len() != 1 || sig.Results().Len() != 1 {
		return false
	}
	param, ok := sig.Params().At(0).Type().(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := param.Elem().(*types.Named)
	if !ok || named.Obj().Name() != "Message" || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != wirePkgPath {
		return false
	}
	return types.Identical(sig.Results().At(0).Type(), types.Universe.Lookup("error").Type())
}
