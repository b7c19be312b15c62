//go:build !race

package recovery

import (
	"fmt"
	"testing"

	"rocksteady/internal/storage"
)

// TestAddSegmentZeroAllocsPerEntry pins the scan's cost: once the state is
// sized from the replica bytes, folding a segment of paper-shaped records
// (30 B keys, 100 B values) with overwrites and deletes allocates nothing.
// Keys and values alias the segment instead of being copied.
func TestAddSegmentZeroAllocsPerEntry(t *testing.T) {
	l := storage.NewShardedLog(1<<20, 1, nil)
	value := make([]byte, 100)
	for i := 0; i < 4000; i++ {
		key := []byte(fmt.Sprintf("user%026d", i%3000))
		typ, val := storage.EntryObject, value
		if i%10 == 9 {
			typ, val = storage.EntryTombstone, nil
		}
		if _, err := l.Append(0, typ, 1, uint64(i+1), 0, key, val); err != nil {
			t.Fatal(err)
		}
	}
	seg := l.Segments()[0]
	data := seg.Data(0, seg.Len())

	r := NewReplayer(nil)
	r.reserve(len(data))
	allocs := testing.AllocsPerRun(20, func() {
		clear(r.slots)
		r.states = r.states[:0]
		r.Entries = 0
		r.AddSegment(data)
	})
	if r.Entries != 4000 || len(r.states) != 3000 {
		t.Fatalf("scanned %d entries into %d keys, want 4000 into 3000", r.Entries, len(r.states))
	}
	if allocs != 0 {
		t.Fatalf("AddSegment made %v allocations for %d entries, want 0", allocs, r.Entries)
	}
}
