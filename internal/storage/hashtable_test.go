package storage

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"rocksteady/internal/wire"
)

func mustAppend(t testing.TB, l *Log, table wire.TableID, key, value string) (Ref, uint64) {
	t.Helper()
	ref, v, err := l.AppendObject(table, []byte(key), []byte(value))
	if err != nil {
		t.Fatal(err)
	}
	return ref, v
}

func TestHashTableBasicOps(t *testing.T) {
	l := NewShardedLog(1<<16, 1, nil)
	ht := NewHashTable(1024)
	ref, _ := mustAppend(t, l, 1, "alpha", "one")
	h := wire.HashKey([]byte("alpha"))

	if _, ok := ht.Get(1, []byte("alpha"), h); ok {
		t.Fatal("Get on empty table succeeded")
	}
	if prev, existed := ht.Put(1, []byte("alpha"), h, ref); existed || !prev.IsZero() {
		t.Fatal("fresh Put reported existing entry")
	}
	got, ok := ht.Get(1, []byte("alpha"), h)
	if !ok || got != ref {
		t.Fatal("Get after Put failed")
	}
	if ht.Len() != 1 {
		t.Fatalf("Len = %d", ht.Len())
	}

	// Same key, different table: must not match.
	if _, ok := ht.Get(2, []byte("alpha"), h); ok {
		t.Fatal("cross-table Get matched")
	}

	ref2, _ := mustAppend(t, l, 1, "alpha", "two")
	prev, existed := ht.Put(1, []byte("alpha"), h, ref2)
	if !existed || prev != ref {
		t.Fatal("replacing Put did not return previous ref")
	}
	if ht.Len() != 1 {
		t.Fatalf("Len after replace = %d", ht.Len())
	}

	rem, ok := ht.Remove(1, []byte("alpha"), h)
	if !ok || rem != ref2 {
		t.Fatal("Remove failed")
	}
	if ht.Len() != 0 {
		t.Fatalf("Len after remove = %d", ht.Len())
	}
	if _, ok := ht.Remove(1, []byte("alpha"), h); ok {
		t.Fatal("second Remove succeeded")
	}
}

func TestHashTablePutIfNewer(t *testing.T) {
	l := NewShardedLog(1<<16, 1, nil)
	ht := NewHashTable(64)
	key := []byte("k")
	h := wire.HashKey(key)

	r5, err := l.Append(0, EntryObject, 1, 5, 0, key, []byte("v5"))
	if err != nil {
		t.Fatal(err)
	}
	r9, err := l.Append(0, EntryObject, 1, 9, 0, key, []byte("v9"))
	if err != nil {
		t.Fatal(err)
	}
	r7, err := l.Append(0, EntryObject, 1, 7, 0, key, []byte("v7"))
	if err != nil {
		t.Fatal(err)
	}

	if _, stored := ht.PutIfNewer(1, key, h, r5, 5); !stored {
		t.Fatal("insert into empty slot rejected")
	}
	if _, stored := ht.PutIfNewer(1, key, h, r9, 9); !stored {
		t.Fatal("newer version rejected")
	}
	if _, stored := ht.PutIfNewer(1, key, h, r7, 7); stored {
		t.Fatal("stale version accepted — replay would clobber a newer write")
	}
	if _, stored := ht.PutIfNewer(1, key, h, r9, 9); stored {
		t.Fatal("equal version accepted — duplicate replay must be a no-op")
	}
	got, _ := ht.Get(1, key, h)
	if gh, _ := got.Header(); gh.Version != 9 {
		t.Fatalf("final version %d, want 9", gh.Version)
	}
}

// Model-based property test: the hash table must behave exactly like a
// map[string]Ref under a random stream of Put/Remove/Get.
func TestHashTableVersusModel(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	l := NewShardedLog(1<<20, 1, nil)
	ht := NewHashTable(256) // deliberately small: exercises overflow chains
	model := map[string]Ref{}
	keys := make([]string, 200)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%04d", i)
	}
	for step := 0; step < 20_000; step++ {
		k := keys[rng.Intn(len(keys))]
		h := wire.HashKey([]byte(k))
		switch rng.Intn(3) {
		case 0: // put
			ref, _ := mustAppend(t, l, 1, k, "v")
			prev, existed := ht.Put(1, []byte(k), h, ref)
			mprev, mexisted := model[k]
			if existed != mexisted || (existed && prev != mprev) {
				t.Fatalf("step %d: Put(%q) existed=%v prev=%v; model %v %v", step, k, existed, prev, mexisted, mprev)
			}
			model[k] = ref
		case 1: // remove
			prev, existed := ht.Remove(1, []byte(k), h)
			mprev, mexisted := model[k]
			if existed != mexisted || (existed && prev != mprev) {
				t.Fatalf("step %d: Remove(%q) mismatch", step, k)
			}
			delete(model, k)
		case 2: // get
			ref, ok := ht.Get(1, []byte(k), h)
			mref, mok := model[k]
			if ok != mok || (ok && ref != mref) {
				t.Fatalf("step %d: Get(%q) mismatch", step, k)
			}
		}
		if ht.Len() != len(model) {
			t.Fatalf("step %d: Len %d != model %d", step, ht.Len(), len(model))
		}
	}
}

func fillTable(t testing.TB, l *Log, ht *HashTable, table wire.TableID, n int) map[string]uint64 {
	t.Helper()
	hashes := map[string]uint64{}
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("obj-%06d", i)
		ref, _ := mustAppend(t, l, table, k, "payload")
		h := wire.HashKey([]byte(k))
		ht.Put(table, []byte(k), h, ref)
		hashes[k] = h
	}
	return hashes
}

// ScanRange over a partitioning of the full hash space must visit every
// entry exactly once, regardless of how often scans are suspended and
// resumed — the invariant Pull correctness rests on.
func TestScanRangePartitionsCoverExactlyOnce(t *testing.T) {
	l := NewShardedLog(1<<20, 1, nil)
	ht := NewHashTable(512)
	hashes := fillTable(t, l, ht, 1, 3000)

	for _, parts := range [][]wire.HashRange{
		wire.FullRange().Split(1),
		wire.FullRange().Split(8),
		wire.FullRange().Split(13),
	} {
		seen := map[string]int{}
		for _, p := range parts {
			token := uint64(0)
			for {
				visited := 0
				next, done := ht.ScanRange(1, p, token, func(ref Ref, _ EntryHeader) bool {
					_, key, _, err := ref.Entry()
					if err != nil {
						t.Fatal(err)
					}
					seen[string(key)]++
					visited++
					return visited < 7 // force frequent suspend/resume
				})
				token = next
				if done {
					break
				}
			}
		}
		if len(seen) != len(hashes) {
			t.Fatalf("%d partitions: saw %d keys, want %d", len(parts), len(seen), len(hashes))
		}
		for k, n := range seen {
			if n != 1 {
				t.Fatalf("key %q visited %d times", k, n)
			}
		}
	}
}

func TestScanRangeFiltersTableAndRange(t *testing.T) {
	l := NewShardedLog(1<<20, 1, nil)
	ht := NewHashTable(256)
	fillTable(t, l, ht, 1, 500)
	fillTable(t, l, ht, 2, 500)

	half := wire.FullRange().Split(2)[0]
	count := 0
	ht.ScanRange(1, half, 0, func(ref Ref, sh EntryHeader) bool {
		h, key, _, err := ref.Entry()
		if h != sh {
			t.Fatalf("ScanRange header %v, entry header %v", sh, h)
		}
		if err != nil || h.Table != 1 {
			t.Fatalf("wrong table entry in scan: %v %v", h, err)
		}
		if !half.Contains(wire.HashKey(key)) {
			t.Fatalf("hash outside range for key %q", key)
		}
		count++
		return true
	})
	if count == 0 || count == 500 {
		t.Fatalf("suspicious half-range count %d", count)
	}
}

func TestGetByHash(t *testing.T) {
	l := NewShardedLog(1<<16, 1, nil)
	ht := NewHashTable(64)
	hashes := fillTable(t, l, ht, 1, 100)
	for k, h := range hashes {
		refs := ht.GetByHash(1, h)
		found := false
		for _, r := range refs {
			_, key, _, err := r.Entry()
			if err != nil {
				t.Fatal(err)
			}
			if string(key) == k {
				found = true
			}
		}
		if !found {
			t.Fatalf("GetByHash missed key %q", k)
		}
		if len(ht.GetByHash(2, h)) != 0 {
			t.Fatal("GetByHash matched wrong table")
		}
	}
}

func TestRemoveRange(t *testing.T) {
	l := NewShardedLog(1<<20, 1, nil)
	ht := NewHashTable(256)
	hashes := fillTable(t, l, ht, 1, 1000)
	half := wire.FullRange().Split(2)[1]
	var removedBytes int
	removed := ht.RemoveRange(1, half, func(ref Ref) { removedBytes += ref.Size() })
	wantRemoved := 0
	for _, h := range hashes {
		if half.Contains(h) {
			wantRemoved++
		}
	}
	if removed != wantRemoved {
		t.Fatalf("removed %d, want %d", removed, wantRemoved)
	}
	if removedBytes == 0 {
		t.Fatal("onRemove never called")
	}
	if ht.Len() != 1000-wantRemoved {
		t.Fatalf("Len after RemoveRange = %d", ht.Len())
	}
	for k, h := range hashes {
		_, ok := ht.Get(1, []byte(k), h)
		if half.Contains(h) && ok {
			t.Fatalf("key %q should be gone", k)
		}
		if !half.Contains(h) && !ok {
			t.Fatalf("key %q should remain", k)
		}
	}
}

func TestCountRange(t *testing.T) {
	l := NewShardedLog(1<<20, 1, nil)
	ht := NewHashTable(256)
	fillTable(t, l, ht, 1, 800)
	n, b := ht.CountRange(1, wire.FullRange())
	if n != 800 || b == 0 {
		t.Fatalf("CountRange = %d, %d", n, b)
	}
	h1, _ := ht.CountRange(1, wire.FullRange().Split(2)[0])
	h2, _ := ht.CountRange(1, wire.FullRange().Split(2)[1])
	if h1+h2 != 800 {
		t.Fatalf("halves don't sum: %d + %d", h1, h2)
	}
}

func TestReplaceRefAndRefersTo(t *testing.T) {
	l := NewShardedLog(1<<16, 1, nil)
	ht := NewHashTable(64)
	key := []byte("cleanme")
	h := wire.HashKey(key)
	ref1, _ := mustAppend(t, l, 1, "cleanme", "v1")
	ht.Put(1, key, h, ref1)
	if !ht.RefersTo(1, key, h, ref1) {
		t.Fatal("RefersTo false for current ref")
	}
	ref2, _ := mustAppend(t, l, 1, "cleanme", "v1")
	if !ht.ReplaceRef(1, key, h, ref1, ref2) {
		t.Fatal("ReplaceRef failed")
	}
	if ht.RefersTo(1, key, h, ref1) {
		t.Fatal("old ref still current")
	}
	// CAS with stale old ref must fail.
	if ht.ReplaceRef(1, key, h, ref1, ref1) {
		t.Fatal("stale ReplaceRef succeeded")
	}
}

func TestHashTableConcurrentDisjointRegions(t *testing.T) {
	l := NewShardedLog(1<<22, 1, nil)
	ht := NewHashTable(1 << 12)
	parts := wire.FullRange().Split(8)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			count := 0
			for count < 500 {
				k := fmt.Sprintf("w%d-%d", w, rng.Int())
				h := wire.HashKey([]byte(k))
				if !parts[w].Contains(h) {
					continue
				}
				ref, _, err := l.AppendObject(1, []byte(k), []byte("v"))
				if err != nil {
					t.Error(err)
					return
				}
				ht.Put(1, []byte(k), h, ref)
				if _, ok := ht.Get(1, []byte(k), h); !ok {
					t.Errorf("lost key %q", k)
					return
				}
				count++
			}
		}(w)
	}
	wg.Wait()
	if ht.Len() != 8*500 {
		t.Fatalf("Len = %d, want %d", ht.Len(), 8*500)
	}
}

func TestHashTableForEach(t *testing.T) {
	l := NewShardedLog(1<<20, 1, nil)
	ht := NewHashTable(128)
	fillTable(t, l, ht, 1, 300)
	n := 0
	ht.ForEach(func(hash uint64, ref Ref) bool { n++; return true })
	if n != 300 {
		t.Fatalf("ForEach visited %d", n)
	}
	n = 0
	ht.ForEach(func(hash uint64, ref Ref) bool { n++; return false })
	if n != 1 {
		t.Fatalf("ForEach early stop visited %d", n)
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 1000: 1024}
	for in, want := range cases {
		if got := nextPow2(in); got != want {
			t.Errorf("nextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}
