package main

import (
	"go/ast"
	"go/token"
)

// pathState is one analyzer's facts along one control-flow path. States
// are reference types (maps) that hooks update in place; the walker clones
// a state where paths fork and merges the survivors where they join.
type pathState[S any] interface {
	clone() S
	merge(S) S
}

// pathWalker is the path-sensitive statement walker that poolcheck,
// lockhold and seqcheck share. It owns control flow: branches fork the
// state, joins merge it, and a path that returns drops out. The analyzer
// supplies hooks for everything else. expr is required;
// a nil hook falls back to scanning the statement's expressions with expr.
//
// Control flow is modelled as Go runs it:
//   - a select always runs one of its clauses, and a switch with a default
//     always runs one of its cases: neither has a path that skips them all;
//   - fallthrough carries its path into the next case;
//   - break joins its path to the state after the statement it breaks,
//     and continue joins it to the end of the loop body;
//   - return ends the path at a function exit, and goto ends it;
//   - a loop body is walked twice: once from the entry state with
//     reporting muted, to find the state an iteration leaves behind, and
//     once from the entry state merged with it, so the body also sees what
//     a previous iteration brings in; the state after the loop merges the
//     entry state with the body's ends;
//   - a select clause's communication and a type switch's guard are
//     evaluated on the path.
type pathWalker[S pathState[S]] struct {
	// expr scans an expression evaluated on the path.
	expr func(e ast.Expr, st S)
	// assign sees an assignment or a var declaration storing rhs into lhs.
	assign func(s ast.Stmt, lhs, rhs []ast.Expr, st S)
	// send sees a channel send, including a select clause's.
	send func(s *ast.SendStmt, st S)
	// deferStmt and goStmt see the two statements that run a call
	// somewhere other than here and now.
	deferStmt func(s *ast.DeferStmt, st S)
	goStmt    func(s *ast.GoStmt, st S)
	// exit sees a path leave the function: a return with its results, or
	// the closing brace with none.
	exit func(at token.Pos, results []ast.Expr, st S)
	// scopeEnd sees a path leave a block or a case clause alive; anything
	// declared inside the node goes out of scope here.
	scopeEnd func(scope ast.Node, st S)

	label   string       // the label of the statement being entered
	targets []*target[S] // the enclosing statements break and continue reach
	// muted counts the loop bodies being walked in their first, silent
	// pass; hooks must not report while quiet says so.
	muted int
}

// quiet reports whether the walk is in a silent pass: hooks update the
// state as usual but report nothing.
func (w *pathWalker[S]) quiet() bool { return w.muted > 0 }

// target collects the paths that break out of, or continue, one
// enclosing for, range, switch or select statement. A nil state means no
// path has arrived.
type target[S pathState[S]] struct {
	label     string
	loop      bool
	brk, cont *S
}

func arrive[S pathState[S]](at **S, st S) {
	if *at != nil {
		st = (**at).merge(st)
	}
	*at = &st
}

// leave pops t and joins the paths that broke out of it to out.
func (w *pathWalker[S]) leave(t *target[S], out S, term bool) (S, bool) {
	w.targets = w.targets[:len(w.targets)-1]
	if t.brk == nil {
		return out, term
	}
	return join(out, term, *t.brk, false)
}

// branch sends a break or continue path to the statement it names.
func (w *pathWalker[S]) branch(s *ast.BranchStmt, st S) {
	for i := len(w.targets) - 1; i >= 0; i-- {
		t := w.targets[i]
		switch {
		case s.Label != nil && s.Label.Name != t.label:
			// labels another statement
		case s.Tok == token.BREAK:
			arrive(&t.brk, st)
			return
		case s.Tok == token.CONTINUE && t.loop:
			arrive(&t.cont, st)
			return
		}
	}
}

// forEachFunc calls fn with the body of every function declaration and
// function literal in files, nested literals included.
func forEachFunc(files []*ast.File, fn func(body *ast.BlockStmt)) {
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					fn(n.Body)
				}
			case *ast.FuncLit:
				fn(n.Body)
			}
			return true
		})
	}
}

// walkFunc walks a function body from the entry state st.
func (w *pathWalker[S]) walkFunc(body *ast.BlockStmt, st S) {
	if st, term := w.block(body.List, st); !term {
		w.exitPath(body.Rbrace, nil, st)
	}
}

func (w *pathWalker[S]) exprs(st S, es ...ast.Expr) {
	for _, e := range es {
		if e != nil {
			w.expr(e, st)
		}
	}
}

func (w *pathWalker[S]) exitPath(at token.Pos, results []ast.Expr, st S) {
	if w.exit != nil {
		w.exit(at, results, st)
		return
	}
	w.exprs(st, results...)
}

// block walks a statement list and reports whether every path through it
// ended.
func (w *pathWalker[S]) block(stmts []ast.Stmt, st S) (S, bool) {
	for _, s := range stmts {
		var term bool
		if st, term = w.stmt(s, st); term {
			return st, true
		}
	}
	return st, false
}

// scope is block for a statement list that is its own scope.
func (w *pathWalker[S]) scope(n ast.Node, stmts []ast.Stmt, st S) (S, bool) {
	st, term := w.block(stmts, st)
	if !term && w.scopeEnd != nil {
		w.scopeEnd(n, st)
	}
	return st, term
}

// join merges two forked paths; a path that ended contributes nothing.
func join[S pathState[S]](a S, aTerm bool, b S, bTerm bool) (S, bool) {
	switch {
	case aTerm && bTerm:
		return a, true
	case aTerm:
		return b, false
	case bTerm:
		return a, false
	}
	return a.merge(b), false
}

func (w *pathWalker[S]) bind(s ast.Stmt, lhs, rhs []ast.Expr, st S) {
	if w.assign != nil {
		w.assign(s, lhs, rhs, st)
		return
	}
	w.exprs(st, rhs...)
	w.exprs(st, lhs...)
}

func (w *pathWalker[S]) stmt(s ast.Stmt, st S) (S, bool) {
	label := w.label
	w.label = ""
	switch s := s.(type) {
	case *ast.ExprStmt:
		w.expr(s.X, st)
	case *ast.IncDecStmt:
		w.expr(s.X, st)
	case *ast.AssignStmt:
		w.bind(s, s.Lhs, s.Rhs, st)
	case *ast.DeclStmt:
		gd, _ := s.Decl.(*ast.GenDecl)
		for _, spec := range gd.Specs {
			if vs, ok := spec.(*ast.ValueSpec); ok {
				lhs := make([]ast.Expr, len(vs.Names))
				for i, name := range vs.Names {
					lhs[i] = name
				}
				w.bind(s, lhs, vs.Values, st)
			}
		}
	case *ast.SendStmt:
		if w.send != nil {
			w.send(s, st)
		} else {
			w.exprs(st, s.Chan, s.Value)
		}
	case *ast.DeferStmt:
		if w.deferStmt != nil {
			w.deferStmt(s, st)
		} else {
			w.expr(s.Call, st)
		}
	case *ast.GoStmt:
		if w.goStmt != nil {
			w.goStmt(s, st)
		} else {
			w.expr(s.Call, st)
		}
	case *ast.ReturnStmt:
		w.exitPath(s.Pos(), s.Results, st)
		return st, true
	case *ast.BranchStmt:
		if s.Tok == token.FALLTHROUGH {
			return st, false
		}
		w.branch(s, st)
		return st, true
	case *ast.LabeledStmt:
		w.label = s.Label.Name
		return w.stmt(s.Stmt, st)
	case *ast.BlockStmt:
		return w.scope(s, s.List, st)
	case *ast.IfStmt:
		st, _ = w.stmt(s.Init, st)
		w.exprs(st, s.Cond)
		thenSt, thenTerm := w.scope(s.Body, s.Body.List, st.clone())
		if s.Else == nil {
			return join(thenSt, thenTerm, st, false)
		}
		elseSt, elseTerm := w.stmt(s.Else, st.clone())
		return join(thenSt, thenTerm, elseSt, elseTerm)
	case *ast.ForStmt:
		st, _ = w.stmt(s.Init, st)
		w.exprs(st, s.Cond)
		return w.loop(label, s.Body, s.Post, st)
	case *ast.RangeStmt:
		w.expr(s.X, st)
		return w.loop(label, s.Body, nil, st)
	case *ast.SwitchStmt:
		st, _ = w.stmt(s.Init, st)
		w.exprs(st, s.Tag)
		return w.clauses(label, s.Body, st, hasDefaultClause(s.Body))
	case *ast.TypeSwitchStmt:
		st, _ = w.stmt(s.Init, st)
		switch guard := s.Assign.(type) {
		case *ast.AssignStmt:
			w.exprs(st, guard.Rhs...)
		case *ast.ExprStmt:
			w.expr(guard.X, st)
		}
		return w.clauses(label, s.Body, st, hasDefaultClause(s.Body))
	case *ast.SelectStmt:
		return w.clauses(label, s.Body, st, true)
	}
	return st, false
}

// loop walks a loop body twice, the first pass silent, and joins the
// paths that break out of the second after the loop.
func (w *pathWalker[S]) loop(label string, body *ast.BlockStmt, post ast.Stmt, st S) (S, bool) {
	w.muted++
	_, end, term := w.iteration(label, body, post, st.clone())
	w.targets = w.targets[:len(w.targets)-1]
	w.muted--
	if !term {
		st = st.merge(end)
	}
	t, end, term := w.iteration(label, body, post, st.clone())
	if !term {
		st = st.merge(end)
	}
	return w.leave(t, st, false)
}

// iteration walks a loop body once from st and leaves its target pushed.
// The paths that reach the body's end or continue run post and join in
// end; the paths that break collect in t.
func (w *pathWalker[S]) iteration(label string, body *ast.BlockStmt, post ast.Stmt, st S) (t *target[S], end S, term bool) {
	t = &target[S]{label: label, loop: true}
	w.targets = append(w.targets, t)
	end, term = w.scope(body, body.List, st)
	if t.cont != nil {
		end, term = join(end, term, *t.cont, false)
	}
	if !term {
		end, _ = w.stmt(post, end)
	}
	return t, end, term
}

// clauses forks st into each case or comm clause and joins the paths that
// leave the construct. Unless the construct is exhaustive, the path that
// runs no clause leaves it too, with st unchanged.
func (w *pathWalker[S]) clauses(label string, body *ast.BlockStmt, st S, exhaustive bool) (S, bool) {
	t := &target[S]{label: label}
	w.targets = append(w.targets, t)
	out, outTerm := st, exhaustive
	var carried S // the path a fallthrough hands to the next case
	carrying := false
	for _, clause := range body.List {
		var branch S
		var stmts []ast.Stmt
		switch c := clause.(type) {
		case *ast.CaseClause:
			w.exprs(st, c.List...)
			branch, stmts = st.clone(), c.Body
		case *ast.CommClause:
			branch, stmts = st.clone(), c.Body
			branch, _ = w.stmt(c.Comm, branch)
		}
		if carrying {
			branch, carrying = branch.merge(carried), false
		}
		branch, term := w.scope(clause, stmts, branch)
		if n := len(stmts); !term && n > 0 && isFallthrough(stmts[n-1]) {
			carried, carrying = branch, true
			continue
		}
		out, outTerm = join(out, outTerm, branch, term)
	}
	return w.leave(t, out, outTerm)
}

func isFallthrough(s ast.Stmt) bool {
	b, ok := s.(*ast.BranchStmt)
	return ok && b.Tok == token.FALLTHROUGH
}

func hasDefaultClause(body *ast.BlockStmt) bool {
	for _, clause := range body.List {
		if c, ok := clause.(*ast.CaseClause); ok && c.List == nil {
			return true
		}
	}
	return false
}
