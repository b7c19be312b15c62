package main

import (
	"go/ast"
)

// atomiccheck enforces the first rule of the lock-free read path: a word
// that is ever accessed through sync/atomic is accessed through sync/atomic
// everywhere. One plain load racing an atomic store is enough to lose the
// data-race guarantee the seqlock and RCU protocols rest on.
//
// The tree keeps that rule by construction: shared words are typed atomics
// (atomic.Int64, atomic.Pointer[T], ...), whose every access is a method
// call, so no access can be plain. What remains to check is that nothing
// goes back to sync/atomic's package-level functions (atomic.AddInt64(&x.f,
// 1) and friends), which act on a plain word that the rest of the code can
// still read and write plainly. Copying a typed atomic, the other way to
// fork its state, is go vet's copylocks check: every typed atomic embeds a
// noCopy, and make check runs vet.
var atomiccheckAnalyzer = &Analyzer{
	Name: "atomiccheck",
	Doc:  "use sync/atomic's typed atomics, never its package-level functions on plain words",
	Run:  runAtomiccheck,
}

func runAtomiccheck(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if fn := pkgFunc(pass.Pkg, call); fn != nil && fn.Pkg().Path() == "sync/atomic" {
					pass.Reportf(call.Pos(), "atomic.%s acts on a plain word that other code can still access plainly; declare it as a typed atomic (atomic.Int64, atomic.Pointer[T], ...)", fn.Name())
				}
			}
			return true
		})
	}
}
