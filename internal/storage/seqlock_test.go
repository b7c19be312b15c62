package storage

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"rocksteady/internal/wire"
)

// TestSeqlockUncontendedGetTakesNoLock is the deterministic proof of the
// acceptance criterion "Get performs zero mutex acquisitions on the
// uncontended path": with no writer active, any number of Gets must leave
// both contention counters (which the fast path only touches when a
// sequence check fails) at zero, and must never block on the stripe mutex
// even while a test goroutine holds it exclusively — a lock-taking reader
// would deadlock here, a lock-free one returns immediately.
func TestSeqlockUncontendedGetTakesNoLock(t *testing.T) {
	l := NewShardedLog(1<<16, 1, nil)
	ht := NewHashTable(1024)
	ref, _ := mustAppend(t, l, 1, "alpha", "one")
	key := []byte("alpha")
	h := wire.HashKey(key)
	ht.Put(1, key, h, ref)

	r0, f0 := ht.SeqlockStats()
	for i := 0; i < 1000; i++ {
		if _, ok := ht.Get(1, key, h); !ok {
			t.Fatal("Get missed")
		}
		if got := ht.GetByHash(1, h); len(got) != 1 {
			t.Fatalf("GetByHash returned %d refs", len(got))
		}
	}
	r1, f1 := ht.SeqlockStats()
	if r1 != r0 || f1 != f0 {
		t.Fatalf("uncontended reads touched contention counters: retries %d->%d fallbacks %d->%d", r0, r1, f0, f1)
	}

	// Hold the stripe mutex (seq stays even — this models a would-be
	// reader-locker, not a writer). A Get that acquired any lock would
	// block forever; the seqlock path must answer straight through.
	st := ht.stripeOf(ht.BucketOf(h))
	st.mu.Lock()
	got, ok := ht.Get(1, key, h)
	st.mu.Unlock()
	if !ok || got != ref {
		t.Fatal("Get under a held stripe mutex failed")
	}
	if r2, f2 := ht.SeqlockStats(); r2 != r1 || f2 != f1 {
		t.Fatal("Get under a held (but write-section-free) mutex counted contention")
	}
}

// TestSeqlockRetryAndFallback forces both slow paths deterministically: an
// odd stripe sequence (a writer mid-section) must make Get burn its
// optimistic retries and then fall back to the stripe read lock — and the
// fallback must still return the right answer.
func TestSeqlockRetryAndFallback(t *testing.T) {
	l := NewShardedLog(1<<16, 1, nil)
	ht := NewHashTable(1024)
	ref, _ := mustAppend(t, l, 1, "alpha", "one")
	key := []byte("alpha")
	h := wire.HashKey(key)
	ht.Put(1, key, h, ref)

	st := ht.stripeOf(ht.BucketOf(h))
	st.seq.Add(1) // simulate a writer stalled inside its write section
	defer st.seq.Add(1)

	r0, f0 := ht.SeqlockStats()
	got, ok := ht.Get(1, key, h)
	if !ok || got != ref {
		t.Fatal("fallback Get failed")
	}
	r1, f1 := ht.SeqlockStats()
	if r1-r0 != seqlockRetries {
		t.Fatalf("retries = %d, want %d", r1-r0, seqlockRetries)
	}
	if f1-f0 != 1 {
		t.Fatalf("fallbacks = %d, want 1", f1-f0)
	}

	if got := ht.GetByHash(1, h); len(got) != 1 || got[0] != ref {
		t.Fatalf("fallback GetByHash = %v", got)
	}
	if r2, f2 := ht.SeqlockStats(); r2-r1 != seqlockRetries || f2-f1 != 1 {
		t.Fatalf("GetByHash slow path counters: retries +%d fallbacks +%d", r2-r1, f2-f1)
	}
}

// TestSeqlockGetZeroAllocs pins the lock-free read path at zero
// allocations per op.
func TestSeqlockGetZeroAllocs(t *testing.T) {
	l := NewShardedLog(1<<16, 1, nil)
	ht := NewHashTable(1024)
	ref, _ := mustAppend(t, l, 1, "alpha", "one")
	key := []byte("alpha")
	h := wire.HashKey(key)
	ht.Put(1, key, h, ref)

	allocs := testing.AllocsPerRun(1000, func() {
		if _, ok := ht.Get(1, key, h); !ok {
			t.Fatal("Get missed")
		}
	})
	if allocs != 0 {
		t.Fatalf("HashTable.Get allocates %.1f/op, want 0", allocs)
	}
}

// TestSeqlockTornRefSafety hand-crafts the torn read the seqlock design
// must survive: a (segment, offset) pair whose offset points past the
// segment's published bytes. refMatches and refHeader must reject it by
// bounds check instead of panicking.
func TestSeqlockTornRefSafety(t *testing.T) {
	l := NewShardedLog(1<<16, 1, nil)
	ref, _ := mustAppend(t, l, 1, "alpha", "one")

	torn := Ref{Seg: ref.Seg, Off: uint32(ref.Seg.Len()) + 7}
	if refMatches(torn, 1, []byte("alpha")) {
		t.Fatal("refMatches accepted an out-of-bounds ref")
	}
	if _, ok := refHeader(torn); ok {
		t.Fatal("refHeader accepted an out-of-bounds ref")
	}
	// Just inside the buffer but past the last full header: still rejected.
	torn2 := Ref{Seg: ref.Seg, Off: uint32(ref.Seg.Len()) - 1}
	if refMatches(torn2, 1, []byte("alpha")) {
		t.Fatal("refMatches accepted a truncated-header ref")
	}
}

// TestHashTableSeqlockStress hammers lock-free readers against every
// writer the system has — PutIfNewer replay, Remove/re-insert churn, and
// forced cleaner relocation — on overlapping stripes. Run under -race this
// checks the atomics discipline; the value assertions check that no torn
// read ever escapes a validated read section.
func TestHashTableSeqlockStress(t *testing.T) {
	// Small segments force frequent head rollover so the cleaner always
	// has mostly-dead segments to relocate from.
	l := NewShardedLog(1<<12, 1, nil)
	ht := NewHashTable(256) // few stripes -> heavy reader/writer overlap
	cleaner := NewCleaner(l, ht)

	const keys = 64
	type kv struct {
		key  []byte
		hash uint64
	}
	pairs := make([]kv, keys)
	for i := range pairs {
		k := []byte(fmt.Sprintf("stress-key-%03d", i))
		pairs[i] = kv{key: k, hash: wire.HashKey(k)}
	}
	// Seed every key so readers always have something to find.
	for i, p := range pairs {
		ref, _, err := l.AppendObject(1, p.key, []byte(fmt.Sprintf("v-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		ht.Put(1, p.key, p.hash, ref)
	}

	var wg sync.WaitGroup
	const readers = 4
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 20000; i++ {
				p := pairs[rng.Intn(keys)]
				if ref, ok := ht.Get(1, p.key, p.hash); ok {
					h, key, _, err := ref.Entry()
					if err != nil {
						t.Errorf("Get returned undecodable ref: %v", err)
						return
					}
					if h.Type == EntryObject && string(key) != string(p.key) {
						t.Errorf("Get returned wrong key %q for %q", key, p.key)
						return
					}
				}
				for _, ref := range ht.GetByHash(1, p.hash) {
					if _, err := ref.Header(); err != nil {
						t.Errorf("GetByHash returned undecodable ref: %v", err)
						return
					}
				}
			}
		}(int64(r))
	}

	// Writer 1: PutIfNewer replay traffic (the migration replay rule).
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(101))
		for i := 0; i < 8000; i++ {
			p := pairs[rng.Intn(keys)]
			v := l.NextVersion()
			ref, err := l.Append(0, EntryObject, 1, v, 0, p.key, []byte("replayed"))
			if err != nil {
				return // log closed or full; fine for a stress test
			}
			if prev, stored := ht.PutIfNewer(1, p.key, p.hash, ref, v); stored && !prev.IsZero() {
				MarkDeadRef(prev)
			} else if !stored {
				MarkDeadRef(ref)
			}
		}
	}()

	// Writer 2: Remove / re-insert churn.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(202))
		for i := 0; i < 8000; i++ {
			p := pairs[rng.Intn(keys)]
			if prev, ok := ht.Remove(1, p.key, p.hash); ok {
				MarkDeadRef(prev)
				ref, _, err := l.AppendObject(1, p.key, []byte("reborn"))
				if err != nil {
					return
				}
				if old, existed := ht.Put(1, p.key, p.hash, ref); existed {
					MarkDeadRef(old)
				}
			}
		}
	}()

	// Writer 3: forced cleaner relocation (ReplaceRef on live stripes).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			cleaner.CleanOnce()
		}
	}()

	wg.Wait()

	// Post-condition: every surviving entry decodes and round-trips.
	ht.ForEach(func(hash uint64, ref Ref) bool {
		h, key, _, err := ref.Entry()
		if err != nil {
			t.Errorf("post-stress entry undecodable: %v", err)
			return false
		}
		if h.Type == EntryObject && wire.HashKey(key) != hash {
			t.Errorf("post-stress hash mismatch for key %q", key)
			return false
		}
		return true
	})
}
