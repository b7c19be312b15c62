package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// seqcheck enforces the seqlock write protocol of the storage hash table:
// state that lock-free readers load optimistically (declared with a
// //lint:seqguard annotation, e.g. hash-table slots and buckets) may only
// be mutated between beginWrite and endWrite on the owning stripe — the
// odd/even sequence bumps are what tell a racing reader to retry, so a
// single unbracketed store silently corrupts reads without ever failing a
// test.
//
// The analyzer works structurally, so the fixture and the real table are
// checked by the same rules:
//
//   - a "stripe" is any struct with a sync.Mutex/RWMutex and an atomic
//     uint sequence field whose name contains "seq"; its write-section
//     primitives are the methods that lock-then-bump (begin) and
//     bump-then-unlock (end).
//   - the stripe sequence may only be touched by those primitives.
//   - mutations of seqguard-annotated state must sit between a begin and
//     its matching end. Functions that mutate guarded state with no local
//     bracket are legal only if they are helpers the protocol recognizes —
//     methods of the guarded type itself, or functions named *Locked —
//     and the obligation then propagates to their callers through the
//     module-wide fact layer (calling putLocked outside a write section is
//     as wrong as storing a slot directly).
//   - begin/end must pair on every path: no end without begin, no nested
//     begin on the same stripe, no path that returns with the section
//     open (a deferred end keeps it open to function exit, which is fine).
var seqcheckAnalyzer = &Analyzer{
	Name:         "seqcheck",
	Doc:          "seqlock-guarded state mutated only inside begin/endWrite stripe write sections",
	PathPrefixes: []string{seqcheckPathPrefix},
	Collect:      collectSeq,
	Run:          func(pass *Pass) { reportFacts(pass, pass.Facts.SeqFindings) },
}

// seqcheckPathPrefix scopes the analyzer to the storage layer; named
// separately because Collect must apply the same filter without touching
// the analyzer variable (self-reference in the initializer is an
// initialization cycle).
const seqcheckPathPrefix = "rocksteady/internal/storage"

// seqMutatingMethods are the typed-atomic methods that change state;
// Load and friends are what readers do and are always fine.
var seqMutatingMethods = map[string]bool{
	"Store": true, "Add": true, "Swap": true,
	"CompareAndSwap": true, "Or": true, "And": true,
}

// seqEvent is one begin/end occurrence inside a function, in source order.
type seqEvent struct {
	pos      token.Pos
	kind     int // 0 begin, 1 end, 2 deferred end
	recvBase types.Object
}

const (
	evBegin = iota
	evEnd
	evDeferEnd
)

// seqInterval is one write-section position range: statements positioned
// inside it run between a begin and its end.
type seqInterval struct{ start, end token.Pos }

// seqFuncInfo is the per-function summary the cross-function pass works on.
type seqFuncInfo struct {
	pkg       *Package
	obj       types.Object
	exempt    bool
	intervals []seqInterval
	// mutations are direct writes to guarded state; calls are invocations
	// of other module functions (resolved to their objects) that may carry
	// a propagated write-section obligation.
	mutations []FactFinding
	calls     []seqCall
}

type seqCall struct {
	pos    token.Pos
	callee types.Object
	name   string
}

func collectSeq(pkgs []*Package, facts *ModuleFacts) {
	var scoped []*Package
	for _, pkg := range pkgs {
		if pkg.Path == seqcheckPathPrefix || strings.HasPrefix(pkg.Path, seqcheckPathPrefix+"/") {
			scoped = append(scoped, pkg)
		}
	}
	if len(scoped) == 0 {
		return
	}

	sc := &seqCollector{
		stripeTypes:   make(map[types.Object]bool),
		seqFields:     make(map[types.Object]bool),
		guardedTypes:  make(map[types.Object]bool),
		guardedFields: make(map[types.Object]string),
		begins:        make(map[types.Object]bool),
		ends:          make(map[types.Object]bool),
	}
	for _, pkg := range scoped {
		sc.discoverTypes(pkg)
	}
	for _, pkg := range scoped {
		sc.discoverPrimitives(pkg)
	}

	report := func(pkg *Package, pos token.Pos, format string, args ...any) {
		facts.SeqFindings[pkg.Path] = append(facts.SeqFindings[pkg.Path],
			FactFinding{Pos: pos, Message: fmt.Sprintf(format, args...)})
	}

	// Per-function summaries, the seq-field discipline check, and the
	// begin/end pairing walk.
	var infos []*seqFuncInfo
	for _, pkg := range scoped {
		pkgReport := func(pos token.Pos, format string, args ...any) {
			report(pkg, pos, format, args...)
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
					infos = append(infos, sc.summarize(pkg, fd))
					sc.checkSeqDiscipline(pkg, fd, pkgReport)
				}
			}
		}
		pw := &seqPairWalker{sc: sc, pkg: pkg}
		w := &pathWalker[secSet]{
			expr:      pw.expr,
			deferStmt: pw.deferStmt,
			// A spawned goroutine runs outside the section; a literal it
			// runs is walked on its own.
			goStmt: func(*ast.GoStmt, secSet) {},
			exit: func(at token.Pos, results []ast.Expr, state secSet) {
				for _, r := range results {
					pw.expr(r, state)
				}
				pw.checkExit(at, state)
			},
		}
		pw.report = func(pos token.Pos, format string, args ...any) {
			if !w.quiet() {
				pkgReport(pos, format, args...)
			}
		}
		// Function literals run on their own frames with no section open.
		forEachFunc(pkg.Files, func(body *ast.BlockStmt) { w.walkFunc(body, make(secSet)) })
	}

	// Fixpoint: an exempt helper that mutates guarded state (or calls a
	// helper that does) outside a local write section carries the
	// obligation outward to its callers.
	required := make(map[types.Object]bool)
	for changed := true; changed; {
		changed = false
		for _, fi := range infos {
			if !fi.exempt || fi.obj == nil || required[fi.obj] {
				continue
			}
			needs := false
			for _, m := range fi.mutations {
				if !inSeqInterval(fi.intervals, m.Pos) {
					needs = true
				}
			}
			for _, c := range fi.calls {
				if required[c.callee] && !inSeqInterval(fi.intervals, c.pos) {
					needs = true
				}
			}
			if needs {
				required[fi.obj] = true
				changed = true
			}
		}
	}

	// Violations: in ordinary functions, every unbracketed guarded
	// mutation and every unbracketed call to an obligated helper.
	for _, fi := range infos {
		if fi.exempt {
			continue
		}
		for _, m := range fi.mutations {
			if !inSeqInterval(fi.intervals, m.Pos) {
				report(fi.pkg, m.Pos, "%s", m.Message)
			}
		}
		for _, c := range fi.calls {
			if required[c.callee] && !inSeqInterval(fi.intervals, c.pos) {
				report(fi.pkg, c.pos, "call to %s outside a stripe write section, but it mutates seqlock-guarded state; bracket the call with beginWrite/endWrite", c.name)
			}
		}
	}
}

type seqCollector struct {
	stripeTypes   map[types.Object]bool   // structs with {mutex, atomic seq}
	seqFields     map[types.Object]bool   // the atomic sequence fields
	guardedTypes  map[types.Object]bool   // //lint:seqguard annotated types
	guardedFields map[types.Object]string // field object -> "type.field"
	begins, ends  map[types.Object]bool   // write-section primitive methods
}

// discoverTypes finds stripe-shaped structs and seqguard-annotated types.
func (sc *seqCollector) discoverTypes(pkg *Package) {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				obj := pkg.Info.Defs[ts.Name]
				if obj == nil {
					continue
				}
				st, ok := obj.Type().Underlying().(*types.Struct)
				if !ok {
					continue
				}
				if hasSeqGuardDirective(gd.Doc) || hasSeqGuardDirective(ts.Doc) {
					sc.guardedTypes[obj] = true
					for i := 0; i < st.NumFields(); i++ {
						fld := st.Field(i)
						sc.guardedFields[fld] = obj.Name() + "." + fld.Name()
					}
				}
				sc.discoverStripe(obj, st)
			}
		}
	}
}

// discoverStripe records obj as a stripe if its struct has a sync mutex
// and an atomic unsigned sequence field.
func (sc *seqCollector) discoverStripe(obj types.Object, st *types.Struct) {
	var hasMu bool
	var seqs []*types.Var
	for i := 0; i < st.NumFields(); i++ {
		fld := st.Field(i)
		if isSyncMutex(fld.Type()) {
			hasMu = true
		}
		if name, ok := isAtomicNamed(fld.Type()); ok &&
			(name == "Uint64" || name == "Uint32") &&
			strings.Contains(strings.ToLower(fld.Name()), "seq") {
			seqs = append(seqs, fld)
		}
	}
	if hasMu && len(seqs) > 0 {
		sc.stripeTypes[obj] = true
		for _, s := range seqs {
			sc.seqFields[s] = true
		}
	}
}

func hasSeqGuardDirective(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.HasPrefix(c.Text, "//lint:seqguard") {
			return true
		}
	}
	return false
}

// recvTypeObj resolves a method's receiver base type object, or nil.
func recvTypeObj(pkg *Package, fd *ast.FuncDecl) types.Object {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return nil
	}
	t := fd.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.ParenExpr:
			t = x.X
		case *ast.Ident:
			return pkg.ObjectOf(x)
		case *ast.IndexExpr: // generic receiver, not used here
			t = x.X
		default:
			return nil
		}
	}
}

// finalSelObj resolves the last named component of a receiver path
// (x.f -> f, x.f[i] -> f, ident -> ident's object).
func finalSelObj(pkg *Package, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			return pkg.ObjectOf(x.Sel)
		case *ast.Ident:
			return pkg.ObjectOf(x)
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

// discoverPrimitives classifies stripe methods: lock-then-bump is a begin,
// bump-then-unlock is an end.
func (sc *seqCollector) discoverPrimitives(pkg *Package) {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if !sc.stripeTypes[recvTypeObj(pkg, fd)] {
				continue
			}
			var lockPos, unlockPos, addPos token.Pos
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
					switch sel.Sel.Name {
					case "Lock":
						if t := pkg.TypeOf(sel.X); t != nil && isSyncMutex(t) {
							lockPos = call.Pos()
						}
					case "Unlock":
						if t := pkg.TypeOf(sel.X); t != nil && isSyncMutex(t) {
							unlockPos = call.Pos()
						}
					}
				}
				if recv, method, ok := atomicMethodOn(pkg, call); ok && seqMutatingMethods[method] {
					if sc.seqFields[finalSelObj(pkg, recv)] {
						addPos = call.Pos()
					}
				}
				return true
			})
			fnObj := pkg.Info.Defs[fd.Name]
			if lockPos.IsValid() && addPos.IsValid() && lockPos < addPos {
				sc.begins[fnObj] = true
			}
			if addPos.IsValid() && unlockPos.IsValid() && addPos < unlockPos {
				sc.ends[fnObj] = true
			}
		}
	}
}

// checkSeqDiscipline flags direct bumps of a stripe sequence anywhere but
// the stripe's own methods.
func (sc *seqCollector) checkSeqDiscipline(pkg *Package, fd *ast.FuncDecl, report func(token.Pos, string, ...any)) {
	if sc.stripeTypes[recvTypeObj(pkg, fd)] {
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		recv, method, ok := atomicMethodOn(pkg, call)
		if !ok || !seqMutatingMethods[method] {
			return true
		}
		if obj := finalSelObj(pkg, recv); obj != nil && sc.seqFields[obj] {
			report(call.Pos(), "stripe sequence %s bumped directly; only the stripe's write-section primitives may touch it", obj.Name())
		}
		return true
	})
}

// summarize builds the per-function write-section intervals and the list
// of guarded mutations and propagating calls.
func (sc *seqCollector) summarize(pkg *Package, fd *ast.FuncDecl) *seqFuncInfo {
	fnObj := pkg.Info.Defs[fd.Name]
	recvObj := recvTypeObj(pkg, fd)
	fi := &seqFuncInfo{
		pkg: pkg,
		obj: fnObj,
		exempt: strings.HasSuffix(fd.Name.Name, "Locked") ||
			sc.guardedTypes[recvObj] || sc.stripeTypes[recvObj] ||
			sc.begins[fnObj] || sc.ends[fnObj],
	}

	// Write-section intervals: pair each begin with the next end after it;
	// a deferred end (or a dangling begin — the pairing walker reports
	// that separately) keeps the section open to the end of the function.
	var events []seqEvent
	deferCalls := make(map[*ast.CallExpr]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			if obj := calleeObj(pkg, n.Call); obj != nil && sc.ends[obj] {
				deferCalls[n.Call] = true
				events = append(events, seqEvent{pos: n.Call.Pos(), kind: evDeferEnd})
			}
		case *ast.CallExpr:
			if deferCalls[n] {
				return true
			}
			switch obj := calleeObj(pkg, n); {
			case obj != nil && sc.begins[obj]:
				events = append(events, seqEvent{pos: n.Pos(), kind: evBegin})
			case obj != nil && sc.ends[obj]:
				events = append(events, seqEvent{pos: n.Pos(), kind: evEnd})
			}
		}
		return true
	})
	sort.Slice(events, func(i, j int) bool { return events[i].pos < events[j].pos })
	var open []token.Pos
	for _, ev := range events {
		switch ev.kind {
		case evBegin:
			open = append(open, ev.pos)
		case evEnd:
			if n := len(open); n > 0 {
				fi.intervals = append(fi.intervals, seqInterval{start: open[n-1], end: ev.pos})
				open = open[:n-1]
			}
		case evDeferEnd:
			if n := len(open); n > 0 {
				fi.intervals = append(fi.intervals, seqInterval{start: open[n-1], end: fd.Body.End()})
				open = open[:n-1]
			}
		}
	}
	for _, p := range open {
		fi.intervals = append(fi.intervals, seqInterval{start: p, end: fd.Body.End()})
	}

	// Guarded mutations: atomic mutating methods on guarded fields, plain
	// assignments and inc/dec of guarded fields; plus calls to any module
	// function (the fixpoint decides which callees matter).
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if recv, method, ok := atomicMethodOn(pkg, n); ok && seqMutatingMethods[method] {
				if obj := finalSelObj(pkg, recv); obj != nil {
					if label, guarded := sc.guardedFields[obj]; guarded {
						fi.mutations = append(fi.mutations, FactFinding{
							Pos:     n.Pos(),
							Message: fmt.Sprintf("mutation of seqlock-guarded %s outside a stripe write section; bracket it with beginWrite/endWrite", label),
						})
					}
				}
				return true
			}
			if obj := calleeObj(pkg, n); obj != nil {
				fi.calls = append(fi.calls, seqCall{pos: n.Pos(), callee: obj, name: obj.Name()})
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				sel, ok := lhs.(*ast.SelectorExpr)
				if !ok {
					continue
				}
				if label, guarded := sc.guardedFields[pkg.ObjectOf(sel.Sel)]; guarded {
					fi.mutations = append(fi.mutations, FactFinding{
						Pos:     lhs.Pos(),
						Message: fmt.Sprintf("plain write to seqlock-guarded %s outside a stripe write section; bracket it with beginWrite/endWrite", label),
					})
				}
			}
		case *ast.IncDecStmt:
			if sel, ok := n.X.(*ast.SelectorExpr); ok {
				if label, guarded := sc.guardedFields[pkg.ObjectOf(sel.Sel)]; guarded {
					fi.mutations = append(fi.mutations, FactFinding{
						Pos:     n.Pos(),
						Message: fmt.Sprintf("plain write to seqlock-guarded %s outside a stripe write section; bracket it with beginWrite/endWrite", label),
					})
				}
			}
		}
		return true
	})
	return fi
}

func inSeqInterval(intervals []seqInterval, pos token.Pos) bool {
	for _, iv := range intervals {
		if iv.start <= pos && pos <= iv.end {
			return true
		}
	}
	return false
}

// seqPairWalker holds the pathWalker hooks of the begin/end pairing
// check: per path it knows, for each stripe variable, whether its write
// section is open and whether a deferred end covers function exit.
type seqPairWalker struct {
	sc     *seqCollector
	pkg    *Package
	report func(token.Pos, string, ...any)
}

type secInfo struct{ open, deferred bool }

type secSet map[types.Object]secInfo

func (s secSet) clone() secSet {
	out := make(secSet, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

// merge unions two path states; open anywhere is open, and a deferred end
// only counts if both paths registered it.
func (s secSet) merge(other secSet) secSet {
	out := make(secSet, len(s)+len(other))
	for k, a := range s {
		b := other[k]
		out[k] = mergeSec(a, b)
	}
	for k, b := range other {
		if _, seen := s[k]; !seen {
			out[k] = mergeSec(secInfo{}, b)
		}
	}
	return out
}

func mergeSec(a, b secInfo) secInfo {
	switch {
	case a.open && b.open:
		return secInfo{open: true, deferred: a.deferred && b.deferred}
	case a.open:
		return a
	case b.open:
		return b
	default:
		return secInfo{}
	}
}

func (w *seqPairWalker) checkExit(pos token.Pos, state secSet) {
	for obj, info := range state {
		if info.open && !info.deferred {
			w.report(pos, "stripe write section on %s still open at function exit; endWrite missing on this path", obj.Name())
		}
	}
}

// deferStmt registers a deferred endWrite, which keeps the section open
// to function exit and closes it there.
func (w *seqPairWalker) deferStmt(s *ast.DeferStmt, state secSet) {
	if obj := calleeObj(w.pkg, s.Call); obj != nil && w.sc.ends[obj] {
		if key := w.stripeKey(s.Call); key != nil {
			info := state[key]
			info.deferred = true
			state[key] = info
		}
		return
	}
	w.expr(s.Call, state)
}

// expr scans an expression for begin/end transitions, in source order.
func (w *seqPairWalker) expr(e ast.Expr, state secSet) {
	ast.Inspect(e, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false // analyzed separately with a fresh state
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		obj := calleeObj(w.pkg, call)
		if obj == nil {
			return true
		}
		key := w.stripeKey(call)
		if key == nil {
			return true
		}
		switch {
		case w.sc.begins[obj]:
			if state[key].open {
				w.report(call.Pos(), "write section on %s opened while already open; nested beginWrite deadlocks on the stripe mutex", key.Name())
			}
			state[key] = secInfo{open: true}
		case w.sc.ends[obj]:
			if !state[key].open {
				w.report(call.Pos(), "endWrite on %s without a matching beginWrite; the stripe sequence goes odd and readers spin", key.Name())
			}
			state[key] = secInfo{}
		}
		return true
	})
}

// stripeKey identifies the stripe a begin/end call operates on by the base
// variable of its receiver, or nil when the receiver is not a trackable
// path (e.g. a chained call).
func (w *seqPairWalker) stripeKey(call *ast.CallExpr) types.Object {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	base := baseIdentOf(sel.X)
	if base == nil {
		return nil
	}
	return w.pkg.ObjectOf(base)
}
