// Package lockholdfixture plants lockhold violations: blocking sends with
// a sync.Mutex held.
package lockholdfixture

import (
	"sync"
	"sync/atomic"

	"rocksteady/internal/wire"
)

type fakeEndpoint struct{}

func (fakeEndpoint) Send(m *wire.Message) error { return nil }

type guarded struct {
	mu  sync.Mutex
	rw  sync.RWMutex
	ch  chan int
	ep  fakeEndpoint
	val int
}

func (g *guarded) badChanSend() {
	g.mu.Lock()
	g.ch <- 1 // want:lockhold "channel send while mu is held"
	g.mu.Unlock()
}

func (g *guarded) badTransportSend(m *wire.Message) {
	g.mu.Lock()
	_ = g.ep.Send(m) // want:lockhold "transport Send while mu is held"
	g.mu.Unlock()
}

func (g *guarded) badUnderDefer(m *wire.Message) {
	g.mu.Lock()
	defer g.mu.Unlock()
	_ = g.ep.Send(m) // want:lockhold "transport Send while mu is held"
}

func (g *guarded) badAfterMergedBranch(cond bool) {
	g.mu.Lock()
	if cond {
		g.mu.Unlock()
		return
	}
	g.ch <- 2 // want:lockhold "channel send while mu is held"
	g.mu.Unlock()
}

func (g *guarded) badSelectSend() {
	g.rw.RLock()
	select {
	case g.ch <- 3: // want:lockhold "blocking select send while rw is held"
	}
	g.rw.RUnlock()
}

func (g *guarded) okSendAfterUnlock(m *wire.Message) {
	g.mu.Lock()
	v := g.val
	g.mu.Unlock()
	g.ch <- v
	_ = g.ep.Send(m)
}

func (g *guarded) okNonBlockingSend() {
	g.mu.Lock()
	select {
	case g.ch <- 4:
	default:
	}
	g.mu.Unlock()
}

func (g *guarded) okGoroutineDoesNotInheritLock() {
	g.mu.Lock()
	go func() {
		g.ch <- 5
	}()
	g.mu.Unlock()
}

// A select without a default always runs one of its clauses: when every
// clause unlocks, nothing after the select runs with the lock held.
func (g *guarded) okSelectUnlocksEveryArm(done <-chan struct{}, in <-chan int) {
	g.mu.Lock()
	select {
	case <-done:
		g.mu.Unlock()
	case v := <-in:
		g.val = v
		g.mu.Unlock()
	}
	g.ch <- 7
}

// fallthrough carries the path into the next case, which unlocks; a
// switch with a default has no path that skips every case.
func (g *guarded) okFallthroughIntoUnlock(k int) {
	g.mu.Lock()
	switch k {
	case 0:
		g.val++
		fallthrough
	case 1:
		g.mu.Unlock()
	default:
		g.mu.Unlock()
	}
	g.ch <- 8
}

// The lock case 0 takes is still held in case 1, which it falls into.
func (g *guarded) badFallthroughCarriesLock(k int) {
	switch k {
	case 0:
		g.mu.Lock()
		fallthrough
	case 1:
		g.ch <- 9 // want:lockhold "channel send while mu is held"
		g.mu.Unlock()
	}
}

// A break leaves the switch with the lock still held, although every
// path that reaches the end of a case unlocks.
func (g *guarded) badBreakKeepsLock(k int) {
	g.mu.Lock()
	switch k {
	case 0:
		if g.val > 0 {
			break
		}
		g.mu.Unlock()
	default:
		g.mu.Unlock()
	}
	g.ch <- 10 // want:lockhold "channel send while mu is held"
}

// The lock taken at the bottom of one iteration is still held at the top
// of the next, where the send runs.
func (g *guarded) badLockCarriedIntoNextIteration(n int) {
	for i := 0; i < n; i++ {
		g.ch <- i // want:lockhold "channel send while mu is held"
		g.mu.Lock()
	}
	g.mu.Unlock()
}

// Every iteration releases what it takes: the next one starts unlocked.
func (g *guarded) okLockReleasedEachIteration(n int) {
	for i := 0; i < n; i++ {
		g.ch <- i
		g.mu.Lock()
		g.val++
		g.mu.Unlock()
	}
}

func (g *guarded) okIgnored() {
	g.mu.Lock()
	//lint:ignore lockhold fixture exercises the escape hatch
	g.ch <- 6
	g.mu.Unlock()
}

// seqlockGuarded models a seqlock write section (storage.HashTable
// stripes): the mutex serializes writers while the odd/even sequence fends
// off lock-free readers. The sequence bumps do not hide the held mutex —
// a blocking send between beginWrite-style Lock/Add and Add/Unlock is
// still a deadlock risk for every reader that falls back to the lock.
type seqlockGuarded struct {
	mu  sync.RWMutex
	seq atomic.Uint64
	ch  chan int
	ep  fakeEndpoint
}

func (s *seqlockGuarded) badSendInsideWriteSection() {
	s.mu.Lock()
	s.seq.Add(1) // seq odd: readers spin or queue on mu
	s.ch <- 1    // want:lockhold "channel send while mu is held"
	s.seq.Add(1)
	s.mu.Unlock()
}

func (s *seqlockGuarded) badTransportSendInsideWriteSection(m *wire.Message) {
	s.mu.Lock()
	s.seq.Add(1)
	_ = s.ep.Send(m) // want:lockhold "transport Send while mu is held"
	s.seq.Add(1)
	s.mu.Unlock()
}

func (s *seqlockGuarded) okSendAfterWriteSection() {
	s.mu.Lock()
	s.seq.Add(1)
	s.seq.Add(1)
	s.mu.Unlock()
	s.ch <- 2
}

// cowRegistry models an RCU/copy-on-write publisher (server tablet map):
// writers rebuild under a small mutex and publish via atomic pointer
// store. The publisher mutex is writer-only — readers never touch it —
// but a blocking send under it still stalls every later registry change.
type cowRegistry struct {
	mu      sync.Mutex
	current atomic.Pointer[[]int]
	notify  chan struct{}
	ep      fakeEndpoint
}

func (r *cowRegistry) badNotifyWhilePublishing(next []int) {
	r.mu.Lock()
	r.current.Store(&next)
	r.notify <- struct{}{} // want:lockhold "channel send while mu is held"
	r.mu.Unlock()
}

func (r *cowRegistry) badSendWhilePublishing(next []int, m *wire.Message) {
	r.mu.Lock()
	r.current.Store(&next)
	_ = r.ep.Send(m) // want:lockhold "transport Send while mu is held"
	r.mu.Unlock()
}

func (r *cowRegistry) okPublishThenNotify(next []int) {
	r.mu.Lock()
	r.current.Store(&next)
	r.mu.Unlock()
	// The snapshot is already visible to readers; notifications happen
	// outside the publisher mutex.
	select {
	case r.notify <- struct{}{}:
	default:
	}
}

// groupCommitter models the backup replicator's flush: append events
// accumulate under the flusher mutex, and the temptation is to marshal and
// send the batch right there. But OnAppend enqueues under that same mutex
// from inside the log shard lock, so a send blocked on a slow backup
// stalls every writer on every shard. The real flush snapshots the pending
// batch and drops the mutex before assembling or sending anything.
type groupCommitter struct {
	mu      sync.Mutex
	pending []int
	ep      fakeEndpoint
}

func (g *groupCommitter) badFlushUnderLock(m *wire.Message) {
	g.mu.Lock()
	for range g.pending {
		_ = g.ep.Send(m) // want:lockhold "transport Send while mu is held"
	}
	g.pending = g.pending[:0]
	g.mu.Unlock()
}

func (g *groupCommitter) okSnapshotThenFlush(m *wire.Message) {
	g.mu.Lock()
	batch := g.pending
	g.pending = nil
	g.mu.Unlock()
	// Coalescing, marshalling, and the per-backup RPCs all run with the
	// mutex dropped; appenders keep enqueueing into the fresh slice.
	for range batch {
		_ = g.ep.Send(m)
	}
}
