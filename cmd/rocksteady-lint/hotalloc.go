package main

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// hotalloc is the static complement to alloc_budget_test.go: functions
// annotated //lint:hotpath (the Get/decode/enqueue-pickup paths whose
// allocs/op the runtime budgets pin) are scanned for constructs that
// obviously allocate, so a regression is caught at lint time with a line
// number instead of at test time with a count.
//
// Flagged inside a hotpath function:
//
//   - make and new
//   - slice and map composite literals, and &T{...} (escaping); plain
//     value literals like Ref{...} are stack-friendly and allowed
//   - append into anything other than the slice itself (x = append(x, ...)
//     amortizes against caller-owned capacity and is allowed)
//   - function literals (a closure capturing variables allocates)
//   - string <-> []byte conversions
//   - interface boxing at call sites: a concrete non-pointer value passed
//     to an interface parameter escapes to the heap
//
// The annotation is deliberately per-function and the analysis local:
// what a callee allocates is the callee's business to annotate.
var hotallocAnalyzer = &Analyzer{
	Name: "hotalloc",
	Doc:  "no obvious allocation constructs in //lint:hotpath functions",
	Run:  runHotalloc,
}

func runHotalloc(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hasHotpathDirective(fd.Doc) {
				continue
			}
			checkHotFunc(pass, fd)
		}
	}
}

func hasHotpathDirective(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.HasPrefix(c.Text, "//lint:hotpath") {
			return true
		}
	}
	return false
}

func checkHotFunc(pass *Pass, fd *ast.FuncDecl) {
	pkg := pass.Pkg

	// Self-appends (x = append(x, ...)) and address-taken composite
	// literals are recognized at their parent node, one pre-pass so the
	// main walk can consult them.
	allowedAppend := make(map[*ast.CallExpr]bool)
	escapingLit := make(map[*ast.CompositeLit]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, rhs := range n.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || !isBuiltinCall(pkg, call, "append") || len(call.Args) == 0 {
					continue
				}
				lhsObj := finalSelObj(pkg, n.Lhs[i])
				argObj := finalSelObj(pkg, call.Args[0])
				if lhsObj != nil && lhsObj == argObj {
					allowedAppend[call] = true
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if lit, ok := n.X.(*ast.CompositeLit); ok {
					escapingLit[lit] = true
				}
			}
		}
		return true
	})

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			pass.Reportf(n.Pos(), "closure in hotpath function %s allocates; hoist it or pass state explicitly", fd.Name.Name)
			return false
		case *ast.CompositeLit:
			t := pass.Pkg.TypeOf(n)
			if t == nil {
				return true
			}
			switch t.Underlying().(type) {
			case *types.Slice:
				pass.Reportf(n.Pos(), "slice literal allocates in hotpath function %s", fd.Name.Name)
			case *types.Map:
				pass.Reportf(n.Pos(), "map literal allocates in hotpath function %s", fd.Name.Name)
			default:
				if escapingLit[n] {
					pass.Reportf(n.Pos(), "&composite literal escapes to the heap in hotpath function %s", fd.Name.Name)
				}
			}
		case *ast.CallExpr:
			checkHotCall(pass, fd, n, allowedAppend)
		}
		return true
	})
}

func checkHotCall(pass *Pass, fd *ast.FuncDecl, call *ast.CallExpr, allowedAppend map[*ast.CallExpr]bool) {
	pkg := pass.Pkg

	switch {
	case isBuiltinCall(pkg, call, "make"):
		pass.Reportf(call.Pos(), "make allocates in hotpath function %s; preallocate or pool the buffer", fd.Name.Name)
		return
	case isBuiltinCall(pkg, call, "new"):
		pass.Reportf(call.Pos(), "new allocates in hotpath function %s", fd.Name.Name)
		return
	case isBuiltinCall(pkg, call, "append"):
		if !allowedAppend[call] {
			pass.Reportf(call.Pos(), "append result does not feed back into its argument in hotpath function %s; growth escapes the caller's buffer", fd.Name.Name)
		}
		return
	}

	// Conversions: string([]byte) and []byte(string) copy.
	if tv, ok := pkg.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		dst, src := tv.Type, pass.Pkg.TypeOf(call.Args[0])
		if src != nil && isStringBytesPair(dst, src) {
			pass.Reportf(call.Pos(), "string/[]byte conversion copies in hotpath function %s", fd.Name.Name)
		}
		return
	}

	// Interface boxing: concrete non-pointer argument to an interface
	// parameter escapes.
	sig, ok := pass.Pkg.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	if call.Ellipsis.IsValid() {
		return // passing an existing ...slice boxes nothing new
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if !types.IsInterface(pt) {
			continue
		}
		at := pass.Pkg.TypeOf(arg)
		if at == nil || types.IsInterface(at) || boxesForFree(at) {
			continue
		}
		if tv, ok := pkg.Info.Types[arg]; ok && tv.IsNil() {
			continue
		}
		pass.Reportf(arg.Pos(), "interface boxing: %s passed to interface parameter allocates in hotpath function %s", at.String(), fd.Name.Name)
	}
}

// boxesForFree reports whether storing a value of type t in an interface
// needs no heap copy: pointer-shaped values go straight in the data word.
func boxesForFree(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	}
	if b, ok := t.Underlying().(*types.Basic); ok && b.Kind() == types.UnsafePointer {
		return true
	}
	return false
}

// isStringBytesPair reports whether (dst, src) is a string<->[]byte pair
// in either direction.
func isStringBytesPair(dst, src types.Type) bool {
	return (isStringType(dst) && isByteSlice(src)) || (isByteSlice(dst) && isStringType(src))
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

// isBuiltinCall reports whether call invokes the named builtin (shadowed
// identifiers — e.g. a parameter named new — resolve to variables and do
// not match).
func isBuiltinCall(pkg *Package, call *ast.CallExpr, name string) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, isBuiltin := pkg.ObjectOf(id).(*types.Builtin)
	return isBuiltin
}
