// Package seqcheckfixture plants seqcheck violations against a miniature of
// the storage hash table's seqlock: a stripe (mutex + atomic sequence) with
// beginWrite/endWrite primitives, and seqguard-annotated slot state that
// may only change inside a write section. The analyzer discovers all of
// this structurally — the fixture and the real table are checked by the
// same rules.
package seqcheckfixture

import (
	"sync"
	"sync/atomic"
)

type stripe struct {
	mu  sync.RWMutex
	seq atomic.Uint64
}

func (s *stripe) beginWrite() {
	s.mu.Lock()
	s.seq.Add(1)
}

func (s *stripe) endWrite() {
	s.seq.Add(1)
	s.mu.Unlock()
}

// slot is optimistically read with no lock; every mutation must happen
// between beginWrite and endWrite on the owning stripe.
//
//lint:seqguard
type slot struct {
	ref atomic.Uint64
	gen uint64
}

// store is a guarded-type method: exempt from local bracketing, but the
// write-section obligation propagates to its callers.
func (s *slot) store(h uint64) {
	s.ref.Store(h)
	s.gen++
}

type table struct {
	st    stripe
	slots []slot
}

func (t *table) put(h uint64) {
	t.st.beginWrite()
	t.slots[0].ref.Store(h)
	t.st.endWrite()
}

// putLocked is exempt by naming convention; callers inherit the obligation.
func (t *table) putLocked(h uint64) {
	t.slots[0].ref.Store(h)
}

func (t *table) goodCallHelper(h uint64) {
	t.st.beginWrite()
	t.putLocked(h)
	t.st.endWrite()
}

func (t *table) badCallHelper(h uint64) {
	t.putLocked(h) // want:seqcheck "call to putLocked outside a stripe write section"
}

func (t *table) badCallSlotMethod(h uint64) {
	t.slots[0].store(h) // want:seqcheck "call to store outside a stripe write section"
}

func (t *table) badDirectStore(h uint64) {
	t.slots[0].ref.Store(h) // want:seqcheck "mutation of seqlock-guarded slot.ref outside a stripe write section"
}

func (t *table) badPlainWrite(g uint64) {
	t.slots[0].gen = g // want:seqcheck "plain write to seqlock-guarded slot.gen outside a stripe write section"
}

func (t *table) goodPlainWrite(g uint64) {
	t.st.beginWrite()
	t.slots[0].gen = g
	t.st.endWrite()
}

func (t *table) badSeqBump() {
	t.st.seq.Add(1) // want:seqcheck "stripe sequence seq bumped directly"
}

func (t *table) goodDeferredEnd(h uint64) {
	t.st.beginWrite()
	defer t.st.endWrite()
	t.slots[0].ref.Store(h)
}

func (t *table) badOpenAtReturn(h uint64) uint64 {
	t.st.beginWrite()
	return h // want:seqcheck "still open at function exit"
}

func (t *table) badOpenAtExit(h uint64) {
	t.st.beginWrite()
	t.slots[0].ref.Store(h)
} // want:seqcheck "still open at function exit"

func (t *table) badEndWithoutBegin() {
	t.st.endWrite() // want:seqcheck "endWrite on t without a matching beginWrite"
}

func (t *table) badNestedBegin() {
	t.st.beginWrite()
	t.st.beginWrite() // want:seqcheck "opened while already open"
	t.slots[0].ref.Store(2)
	t.st.endWrite()
}

// A switch with a default always runs one of its cases: when every case
// ends the section, nothing is left open at exit.
func (t *table) goodEndOnEverySwitchArm(h uint64, k int) {
	t.st.beginWrite()
	switch k {
	case 0:
		t.slots[0].ref.Store(h)
		t.st.endWrite()
	default:
		t.st.endWrite()
	}
}

// fallthrough carries the open section into the case that ends it.
func (t *table) goodFallthroughIntoEnd(h uint64, k int) {
	t.st.beginWrite()
	switch k {
	case 0:
		t.slots[0].ref.Store(h)
		fallthrough
	default:
		t.st.endWrite()
	}
}

func (t *table) read() uint64 {
	return t.slots[0].ref.Load() // lock-free reads are always legal
}

func (t *table) okIgnored(h uint64) {
	//lint:ignore seqcheck fixture exercises the escape hatch
	t.slots[0].ref.Store(h)
}
