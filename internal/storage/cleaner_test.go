package storage

import (
	"fmt"
	"testing"

	"rocksteady/internal/wire"
)

// buildDirtyLog writes n objects then overwrites a fraction of them,
// marking the stale versions dead the way a master does.
func buildDirtyLog(t testing.TB, segSize, n int, overwriteEvery int) (*Log, *HashTable) {
	t.Helper()
	l := NewShardedLog(segSize, 1, nil)
	ht := NewHashTable(n * 2)
	put := func(k string) {
		key := []byte(k)
		h := wire.HashKey(key)
		ref, _, err := l.AppendObject(1, key, []byte("value-payload"))
		if err != nil {
			t.Fatal(err)
		}
		if prev, existed := ht.Put(1, key, h, ref); existed {
			l.MarkDead(prev)
		}
	}
	for i := 0; i < n; i++ {
		put(fmt.Sprintf("key-%05d", i))
	}
	for i := 0; i < n; i += overwriteEvery {
		put(fmt.Sprintf("key-%05d", i))
	}
	return l, ht
}

func TestCleanerReclaimsDeadSpace(t *testing.T) {
	l, ht := buildDirtyLog(t, 2048, 500, 2) // half the keys rewritten
	before := l.SegmentCount()
	totalReclaimed := 0
	for i := 0; i < 100; i++ {
		n, ok := c(l, ht).CleanOnce()
		if !ok {
			break
		}
		totalReclaimed += n
	}
	if totalReclaimed == 0 {
		t.Fatal("cleaner reclaimed nothing")
	}
	if l.SegmentCount() >= before {
		t.Errorf("segment count did not drop: %d -> %d", before, l.SegmentCount())
	}
	// Every key must still resolve to a valid, current entry.
	for i := 0; i < 500; i++ {
		k := fmt.Sprintf("key-%05d", i)
		ref, ok := ht.Get(1, []byte(k), wire.HashKey([]byte(k)))
		if !ok {
			t.Fatalf("key %q lost after cleaning", k)
		}
		if _, _, _, err := ref.Entry(); err != nil {
			t.Fatalf("key %q ref invalid after cleaning: %v", k, err)
		}
	}
}

func c(l *Log, ht *HashTable) *Cleaner { return NewCleaner(l, ht) }

func TestCleanerSkipsMostlyLiveSegments(t *testing.T) {
	l, ht := buildDirtyLog(t, 2048, 200, 1_000_000) // nothing overwritten
	if _, ok := c(l, ht).CleanOnce(); ok {
		t.Error("cleaner ran on a fully live log")
	}
}

func TestCleanerPreservesLiveTombstones(t *testing.T) {
	l := NewShardedLog(1024, 1, nil)
	ht := NewHashTable(256)
	// Write an object, then delete it: the tombstone must survive cleaning
	// while the object's segment exists.
	key := []byte("deleted-key")
	h := wire.HashKey(key)
	ref, v, err := l.AppendObject(1, key, []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	ht.Put(1, key, h, ref)
	objSeg := ref.Seg.ID
	if _, err := l.Append(0, EntryTombstone, 1, v+1, objSeg, key, nil); err != nil {
		t.Fatal(err)
	}
	if prev, ok := ht.Remove(1, key, h); ok {
		l.MarkDead(prev)
	}
	// Fill more segments so there are victims, then seal everything.
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("fill-%03d", i)
		r, _, _ := l.AppendObject(1, []byte(k), []byte("x"))
		ht.Put(1, []byte(k), wire.HashKey([]byte(k)), r)
	}
	l.Seal()
	cl := c(l, ht)
	cl.WriteCostThreshold = 1.01 // clean everything
	for i := 0; i < 200; i++ {
		if _, ok := cl.CleanOnce(); !ok {
			break
		}
	}
	// The deleted key must stay deleted; the fill keys must survive.
	if _, ok := ht.Get(1, key, h); ok {
		t.Error("deleted key resurfaced")
	}
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("fill-%03d", i)
		if _, ok := ht.Get(1, []byte(k), wire.HashKey([]byte(k))); !ok {
			t.Errorf("fill key %q lost", k)
		}
	}
}

func TestCleanerDropsExpiredTombstones(t *testing.T) {
	l := NewShardedLog(512, 1, nil)
	ht := NewHashTable(64)
	// Tombstone referencing a segment that is already gone (Aux=999).
	if _, err := l.Append(0, EntryTombstone, 1, 5, 999, []byte("old"), nil); err != nil {
		t.Fatal(err)
	}
	l.Seal()
	cl := c(l, ht)
	cl.WriteCostThreshold = 1.01
	if _, ok := cl.CleanOnce(); !ok {
		t.Fatal("cleaner did not run")
	}
	// The tombstone must not be relocated: no segments should remain
	// holding a tombstone for "old".
	found := false
	_ = l.ForEachEntry(func(ref Ref, h EntryHeader) bool {
		if h.Type == EntryTombstone {
			found = true
		}
		return true
	})
	if found {
		t.Error("expired tombstone relocated")
	}
}

func TestCleanerAccounting(t *testing.T) {
	l, ht := buildDirtyLog(t, 2048, 400, 2)
	_, liveBefore, _, _ := l.Stats()
	for i := 0; i < 50; i++ {
		if _, ok := c(l, ht).CleanOnce(); !ok {
			break
		}
	}
	_, liveAfter, _, cleaned := l.Stats()
	if cleaned == 0 {
		t.Fatal("no cleaned bytes recorded")
	}
	// Live bytes should not balloon: relocation replaces, it doesn't add.
	if liveAfter > liveBefore {
		t.Errorf("live bytes grew during cleaning: %d -> %d", liveBefore, liveAfter)
	}
}
