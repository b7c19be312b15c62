package recovery

import (
	"fmt"
	"reflect"
	"testing"

	"rocksteady/internal/storage"
	"rocksteady/internal/wire"
)

// segmentData snapshots every segment of a log as raw replica bytes.
func segmentData(l *storage.Log) [][]byte {
	var out [][]byte
	for _, seg := range l.Segments() {
		data := make([]byte, seg.Len())
		copy(data, seg.Data(0, seg.Len()))
		out = append(out, data)
	}
	return out
}

// replayPermutation feeds the segments in the given order and returns the
// surviving records.
func replayPermutation(segs [][]byte, order []int) ([]wire.Record, uint64) {
	r := NewReplayer(nil)
	for _, i := range order {
		r.AddSegment(segs[i])
	}
	return r.Live()
}

// permutations generates all orderings of [0..n).
func permutations(n int) [][]int {
	var out [][]int
	var rec func(cur, rest []int)
	rec = func(cur, rest []int) {
		if len(rest) == 0 {
			out = append(out, append([]int(nil), cur...))
			return
		}
		for i := range rest {
			next := append(append([]int(nil), rest[:i]...), rest[i+1:]...)
			rec(append(cur, rest[i]), next)
		}
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	rec(nil, idx)
	return out
}

// TestReplayOrderIndependentAcrossShards: a sharded log interleaves one
// master's appends across several concurrently open segments, so backup
// replicas no longer arrive in a meaningful segment-ID order. Replay must
// converge to the same hash-table state no matter which order segments are
// fed in — the epoch stamped into every entry breaks version ties.
func TestReplayOrderIndependentAcrossShards(t *testing.T) {
	l := storage.NewShardedLog(4096, 3, nil)

	// Interleave same-key overwrites across shards: key k is written on
	// shard 0, overwritten on shard 1, overwritten again on shard 2, so
	// the newest version of every key lives in a different segment than
	// the older ones.
	for round := 0; round < 3; round++ {
		for k := 0; k < 8; k++ {
			key := []byte(fmt.Sprintf("key-%02d", k))
			value := []byte(fmt.Sprintf("round-%d", round))
			if _, err := l.Append(round, storage.EntryObject, 1, l.NextVersion(), 0, key, value); err != nil {
				t.Fatal(err)
			}
		}
	}
	// A deletion on yet another shard: the tombstone must hold against the
	// older object copies regardless of feed order.
	delVersion := l.NextVersion()
	if _, err := l.Append(1, storage.EntryTombstone, 1, delVersion, 0, []byte("key-00"), nil); err != nil {
		t.Fatal(err)
	}

	segs := segmentData(l)
	if len(segs) != 3 {
		t.Fatalf("expected 3 shard-head segments, got %d", len(segs))
	}

	var want []wire.Record
	var wantCeiling uint64
	for i, order := range permutations(len(segs)) {
		got, ceiling := replayPermutation(segs, order)
		if i == 0 {
			want, wantCeiling = got, ceiling
			continue
		}
		if ceiling != wantCeiling {
			t.Fatalf("order %v: ceiling %d, want %d", order, ceiling, wantCeiling)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("order %v: replay diverged\ngot  %+v\nwant %+v", order, got, want)
		}
	}

	// Spot-check content: key-00 deleted, every other key at round-2.
	for _, rec := range want {
		if string(rec.Key) == "key-00" {
			t.Fatalf("deleted key survived: %+v", rec)
		}
		if string(rec.Value) != "round-2" {
			t.Fatalf("key %q = %q, want newest round-2", rec.Key, rec.Value)
		}
	}
	if len(want) != 7 {
		t.Fatalf("replay produced %d records, want 7", len(want))
	}
}

// TestReplayVersionTieBrokenByEpoch: two copies of one key at the SAME
// version (what the cleaner produces when it relocates a live entry into
// another segment) must resolve identically regardless of feed order: the
// higher epoch — the relocated, newer physical copy — wins.
func TestReplayVersionTieBrokenByEpoch(t *testing.T) {
	l := storage.NewShardedLog(4096, 2, nil)

	v := l.NextVersion()
	// Original copy on shard 0, relocated copy (same version, later epoch,
	// same payload in real life — different here to make the winner
	// observable) on shard 1.
	if _, err := l.Append(0, storage.EntryObject, 1, v, 0, []byte("k"), []byte("original")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(1, storage.EntryObject, 1, v, 0, []byte("k"), []byte("relocated")); err != nil {
		t.Fatal(err)
	}

	segs := segmentData(l)
	if len(segs) != 2 {
		t.Fatalf("expected 2 segments, got %d", len(segs))
	}
	for _, order := range [][]int{{0, 1}, {1, 0}} {
		recs, _ := replayPermutation(segs, order)
		if len(recs) != 1 {
			t.Fatalf("order %v: %d records, want 1", order, len(recs))
		}
		if string(recs[0].Value) != "relocated" {
			t.Fatalf("order %v: value %q, want the higher-epoch copy", order, recs[0].Value)
		}
	}
}
