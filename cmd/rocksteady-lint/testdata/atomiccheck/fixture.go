// Package atomiccheckfixture plants atomiccheck violations: calls of
// sync/atomic's package-level functions, which act on plain words that
// other code can still access plainly. Typed atomics are the sanctioned
// form; copying one is go vet's copylocks finding, not atomiccheck's.
package atomiccheckfixture

import (
	"sync/atomic"
	atom "sync/atomic"
)

type counter struct {
	n int64
}

func badAdd(c *counter) {
	atomic.AddInt64(&c.n, 1) // want:atomiccheck "atomic.AddInt64 acts on a plain word"
}

func badLoad(c *counter) int64 {
	return atomic.LoadInt64(&c.n) // want:atomiccheck "atomic.LoadInt64 acts on a plain word"
}

func badRenamedImport(c *counter) bool {
	return atom.CompareAndSwapInt64(&c.n, 0, 1) // want:atomiccheck "atomic.CompareAndSwapInt64 acts on a plain word"
}

func okIgnored(c *counter) {
	//lint:ignore atomiccheck fixture exercises the escape hatch
	atomic.StoreInt64(&c.n, 9)
}

type gauge struct {
	v atomic.Int64
}

func okMethods(g *gauge) int64 {
	g.v.Add(1)
	return g.v.Load()
}

func okAddress(g *gauge) *atomic.Int64 {
	return &g.v // sharing by address is the legitimate way
}
