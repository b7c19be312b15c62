package recovery

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"rocksteady/internal/storage"
	"rocksteady/internal/wire"
)

// buildSegments writes entries into a log and returns the raw segment
// bytes as a backup would hold them.
func buildSegments(t testing.TB, write func(l *storage.Log)) []wire.BackupSegment {
	t.Helper()
	l := storage.NewShardedLog(1024, 1, nil)
	write(l)
	var segs []wire.BackupSegment
	for _, s := range l.Segments() {
		segs = append(segs, wire.BackupSegment{
			LogID: storage.MainLogID, SegmentID: s.ID, Data: s.Data(0, s.Len()),
		})
	}
	return segs
}

func TestReplayerNewestWins(t *testing.T) {
	segs := buildSegments(t, func(l *storage.Log) {
		for i := 0; i < 3; i++ {
			if _, _, err := l.AppendObject(1, []byte("key"), []byte(fmt.Sprintf("v%d", i))); err != nil {
				t.Fatal(err)
			}
		}
	})
	r := NewReplayer(nil)
	r.AddBackupSegments(segs)
	live, ceiling := r.Live()
	if len(live) != 1 {
		t.Fatalf("live = %d records", len(live))
	}
	if string(live[0].Value) != "v2" || live[0].Version != 3 {
		t.Fatalf("got %q v%d", live[0].Value, live[0].Version)
	}
	if ceiling != 3 {
		t.Fatalf("ceiling = %d", ceiling)
	}
}

func TestReplayerTombstoneFolding(t *testing.T) {
	segs := buildSegments(t, func(l *storage.Log) {
		ref, v, _ := l.AppendObject(1, []byte("dead"), []byte("x"))
		_, _, _ = l.AppendObject(1, []byte("alive"), []byte("y"))
		_, _ = l.Append(0, storage.EntryTombstone, 1, v+10, ref.Seg.ID, []byte("dead"), nil)
	})
	r := NewReplayer(nil)
	r.AddBackupSegments(segs)
	live, _ := r.Live()
	if len(live) != 1 || string(live[0].Key) != "alive" {
		t.Fatalf("live = %+v", live)
	}
}

func TestReplayerDeleteThenRewrite(t *testing.T) {
	segs := buildSegments(t, func(l *storage.Log) {
		ref, v, _ := l.AppendObject(1, []byte("k"), []byte("v1"))
		_, _ = l.Append(0, storage.EntryTombstone, 1, v+1, ref.Seg.ID, []byte("k"), nil)
		_, _ = l.Append(0, storage.EntryObject, 1, v+2, 0, []byte("k"), []byte("v2"))
	})
	r := NewReplayer(nil)
	r.AddBackupSegments(segs)
	live, _ := r.Live()
	if len(live) != 1 || string(live[0].Value) != "v2" {
		t.Fatalf("live = %+v", live)
	}
}

func TestReplayerFilter(t *testing.T) {
	segs := buildSegments(t, func(l *storage.Log) {
		for i := 0; i < 100; i++ {
			_, _, _ = l.AppendObject(1, []byte(fmt.Sprintf("k%02d", i)), []byte("v"))
		}
		_, _, _ = l.AppendObject(2, []byte("other-table"), []byte("v"))
	})
	half := wire.FullRange().Split(2)[0]
	r := NewReplayer(func(table wire.TableID, hash uint64) bool {
		return table == 1 && half.Contains(hash)
	})
	r.AddBackupSegments(segs)
	live, _ := r.Live()
	for _, rec := range live {
		if rec.Table != 1 || !half.Contains(wire.HashKey(rec.Key)) {
			t.Fatalf("filter leak: %+v", rec)
		}
	}
	if len(live) == 0 || len(live) == 100 {
		t.Fatalf("suspicious filtered count %d", len(live))
	}
}

func TestReplayerDeduplicatesReplicas(t *testing.T) {
	segs := buildSegments(t, func(l *storage.Log) {
		for i := 0; i < 10; i++ {
			_, _, _ = l.AppendObject(1, []byte(fmt.Sprintf("k%d", i)), []byte("v"))
		}
	})
	// Three backups hold copies of the same segments.
	tripled := append(append(append([]wire.BackupSegment{}, segs...), segs...), segs...)
	r := NewReplayer(nil)
	r.AddBackupSegments(tripled)
	live, _ := r.Live()
	if len(live) != 10 {
		t.Fatalf("live = %d, want 10", len(live))
	}
	if r.Entries != 10 {
		t.Fatalf("scanned %d entries; replicas not deduplicated", r.Entries)
	}
}

func TestReplayerPrefersLongestReplica(t *testing.T) {
	segs := buildSegments(t, func(l *storage.Log) {
		_, _, _ = l.AppendObject(1, []byte("a"), []byte("v1"))
		_, _, _ = l.AppendObject(1, []byte("b"), []byte("v2"))
	})
	// One backup missed the tail of the segment.
	short := wire.BackupSegment{LogID: segs[0].LogID, SegmentID: segs[0].SegmentID,
		Data: segs[0].Data[:len(segs[0].Data)/2]}
	r := NewReplayer(nil)
	r.AddBackupSegments([]wire.BackupSegment{short, segs[0]})
	live, _ := r.Live()
	if len(live) != 2 {
		t.Fatalf("live = %d, want 2 (longest replica should win)", len(live))
	}
}

func TestReplayerTornTail(t *testing.T) {
	segs := buildSegments(t, func(l *storage.Log) {
		_, _, _ = l.AppendObject(1, []byte("complete"), []byte("v"))
		_, _, _ = l.AppendObject(1, []byte("torn"), []byte("vv"))
	})
	data := segs[0].Data
	torn := data[:len(data)-3] // rip the tail of the last entry
	r := NewReplayer(nil)
	r.AddSegment(torn)
	live, _ := r.Live()
	if len(live) != 1 || string(live[0].Key) != "complete" {
		t.Fatalf("live = %+v", live)
	}
	if r.Malformed != 1 {
		t.Fatalf("Malformed = %d", r.Malformed)
	}
}

func TestReplayerMultiLogMerge(t *testing.T) {
	// Source log: original records up to version ceiling.
	srcSegs := buildSegments(t, func(l *storage.Log) {
		_, _ = l.Append(0, storage.EntryObject, 1, 10, 0, []byte("hot"), []byte("old"))
		_, _ = l.Append(0, storage.EntryObject, 1, 11, 0, []byte("cold"), []byte("unchanged"))
	})
	// Target log tail: a write the target accepted during migration, with
	// a version above the ceiling (§3.4's lineage dependency).
	tgtSegs := buildSegments(t, func(l *storage.Log) {
		_, _ = l.Append(0, storage.EntryObject, 1, 100, 0, []byte("hot"), []byte("new"))
	})
	r := NewReplayer(nil)
	r.AddBackupSegments(srcSegs)
	r.AddBackupSegments(tgtSegs)
	live, ceiling := r.Live()
	if len(live) != 2 {
		t.Fatalf("live = %d", len(live))
	}
	byKey := map[string]wire.Record{}
	for _, rec := range live {
		byKey[string(rec.Key)] = rec
	}
	if string(byKey["hot"].Value) != "new" {
		t.Fatalf("target write lost: %q", byKey["hot"].Value)
	}
	if string(byKey["cold"].Value) != "unchanged" {
		t.Fatalf("source record lost")
	}
	if ceiling != 100 {
		t.Fatalf("ceiling = %d", ceiling)
	}
}

// TestReplayerCrashBeforeAck models a master crashing after appending an
// entry locally but before the append reached any backup: the replicas
// hold only the acked prefix, and recovery must reconstruct exactly the
// pre-crash acknowledged state — the unacked suffix never happened.
func TestReplayerCrashBeforeAck(t *testing.T) {
	l := storage.NewShardedLog(1024, 1, nil)
	if _, _, err := l.AppendObject(1, []byte("k"), []byte("acked")); err != nil {
		t.Fatal(err)
	}
	seg := l.Segments()[0]
	ackedLen := seg.Len()
	// The crash interrupts replication of this second append: it exists in
	// the master's memory only.
	if _, _, err := l.AppendObject(1, []byte("k"), []byte("never-acked")); err != nil {
		t.Fatal(err)
	}
	replica := wire.BackupSegment{LogID: storage.MainLogID, SegmentID: seg.ID,
		Data: seg.Data(0, ackedLen)}
	r := NewReplayer(nil)
	r.AddBackupSegments([]wire.BackupSegment{replica})
	live, ceiling := r.Live()
	if len(live) != 1 || string(live[0].Value) != "acked" {
		t.Fatalf("live = %+v, want only the acked write", live)
	}
	if ceiling != live[0].Version {
		t.Fatalf("ceiling %d leaked past the acked prefix (version %d)", ceiling, live[0].Version)
	}
}

// TestReplayerCrashAfterPartialPull models a migration target crashing
// mid-pull: its side log holds copies of some source records (original
// versions) plus writes it accepted after ownership transfer (versions
// above the ceiling). Merging with the source's log must yield the exact
// union — newest version per key, nothing lost, nothing duplicated.
func TestReplayerCrashAfterPartialPull(t *testing.T) {
	srcSegs := buildSegments(t, func(l *storage.Log) {
		_, _ = l.Append(0, storage.EntryObject, 1, 1, 0, []byte("a"), []byte("a-old"))
		_, _ = l.Append(0, storage.EntryObject, 1, 2, 0, []byte("b"), []byte("b-src"))
		_, _ = l.Append(0, storage.EntryObject, 1, 3, 0, []byte("c"), []byte("c-unpulled"))
	})
	// Target side log: pulled copies of a and b retain source versions; the
	// post-transfer write to a gets a version above the ceiling (3).
	tgtSegs := buildSegments(t, func(l *storage.Log) {
		_, _ = l.Append(0, storage.EntryObject, 1, 1, 0, []byte("a"), []byte("a-old"))
		_, _ = l.Append(0, storage.EntryObject, 1, 2, 0, []byte("b"), []byte("b-src"))
		_, _ = l.Append(0, storage.EntryObject, 1, 50, 0, []byte("a"), []byte("a-target-write"))
	})
	for i := range tgtSegs {
		tgtSegs[i].LogID = 7 // a side log, not the main log
	}
	r := NewReplayer(nil)
	r.AddBackupSegments(srcSegs)
	r.AddBackupSegments(tgtSegs)
	live, ceiling := r.Live()
	if len(live) != 3 {
		t.Fatalf("live = %d records (%+v), want exactly 3", len(live), live)
	}
	byKey := map[string]wire.Record{}
	for _, rec := range live {
		byKey[string(rec.Key)] = rec
	}
	if string(byKey["a"].Value) != "a-target-write" || byKey["a"].Version != 50 {
		t.Fatalf("post-transfer write lost: %+v", byKey["a"])
	}
	if string(byKey["b"].Value) != "b-src" || string(byKey["c"].Value) != "c-unpulled" {
		t.Fatalf("pulled/unpulled records corrupted: %+v", byKey)
	}
	if ceiling != 50 {
		t.Fatalf("ceiling = %d", ceiling)
	}
}

// TestReplayerDoubleRecoveryIdempotent feeds the same replica set twice
// (a retried recovery) and compares against a single-pass replay: the
// outputs must be identical, byte for byte — recovery can always be
// safely re-run.
func TestReplayerDoubleRecoveryIdempotent(t *testing.T) {
	segs := buildSegments(t, func(l *storage.Log) {
		ref, _, _ := l.AppendObject(1, []byte("del"), []byte("x"))
		_, _ = l.Append(0, storage.EntryTombstone, 1, 100, ref.Seg.ID, []byte("del"), nil)
		for i := 0; i < 20; i++ {
			_, _ = l.Append(0, storage.EntryObject, 1, uint64(200+i), 0, []byte(fmt.Sprintf("k%02d", i)), []byte(fmt.Sprintf("v%d", i)))
		}
	})
	once := NewReplayer(nil)
	once.AddBackupSegments(segs)
	twice := NewReplayer(nil)
	twice.AddBackupSegments(segs)
	twice.AddBackupSegments(segs)
	for _, tombstones := range []bool{false, true} {
		a, ca := once.live(tombstones)
		b, cb := twice.live(tombstones)
		if ca != cb {
			t.Fatalf("ceilings diverge: %d vs %d", ca, cb)
		}
		if len(a) != len(b) {
			t.Fatalf("tombstones=%v: %d vs %d records", tombstones, len(a), len(b))
		}
		for i := range a {
			if !bytes.Equal(a[i].Key, b[i].Key) || !bytes.Equal(a[i].Value, b[i].Value) ||
				a[i].Version != b[i].Version || a[i].Tombstone != b[i].Tombstone {
				t.Fatalf("record %d diverges: %+v vs %+v", i, a[i], b[i])
			}
		}
	}
}

// TestReplayerLiveWithTombstones: a key whose newest fact is a deletion is
// folded away by Live but emitted as a tombstone record by
// LiveWithTombstones — the fence an install needs when the receiving
// master still holds older copies (§3.4 ownership reversion).
func TestReplayerLiveWithTombstones(t *testing.T) {
	segs := buildSegments(t, func(l *storage.Log) {
		ref, v, _ := l.AppendObject(1, []byte("gone"), []byte("x"))
		_, _ = l.Append(0, storage.EntryTombstone, 1, v+10, ref.Seg.ID, []byte("gone"), nil)
		ref2, v2, _ := l.AppendObject(1, []byte("back"), []byte("y"))
		_, _ = l.Append(0, storage.EntryTombstone, 1, v2+1, ref2.Seg.ID, []byte("back"), nil)
		_, _ = l.Append(0, storage.EntryObject, 1, v2+2, 0, []byte("back"), []byte("rewritten"))
	})
	r := NewReplayer(nil)
	r.AddBackupSegments(segs)

	plain, _ := r.Live()
	if len(plain) != 1 || string(plain[0].Key) != "back" {
		t.Fatalf("Live = %+v, want only the rewritten key", plain)
	}

	withTombs, _ := r.LiveWithTombstones()
	if len(withTombs) != 2 {
		t.Fatalf("LiveWithTombstones = %+v, want rewrite + tombstone", withTombs)
	}
	byKey := map[string]wire.Record{}
	for _, rec := range withTombs {
		byKey[string(rec.Key)] = rec
	}
	if !byKey["gone"].Tombstone || byKey["gone"].Version == 0 {
		t.Fatalf("deletion not emitted as versioned tombstone: %+v", byKey["gone"])
	}
	if byKey["back"].Tombstone || string(byKey["back"].Value) != "rewritten" {
		t.Fatalf("delete-then-rewrite must surface the rewrite: %+v", byKey["back"])
	}
}

func TestReplayerOrderIndependenceQuick(t *testing.T) {
	// Property: replay result is independent of segment arrival order
	// because versions define the outcome.
	f := func(perm []byte) bool {
		segs := buildSegmentsQuick()
		// Derive a permutation of segments from the fuzz input.
		order := make([]int, len(segs))
		for i := range order {
			order[i] = i
		}
		for i, b := range perm {
			j := int(b) % len(order)
			k := i % len(order)
			order[j], order[k] = order[k], order[j]
		}
		r := NewReplayer(nil)
		for _, idx := range order {
			r.AddSegment(segs[idx].Data)
		}
		live, _ := r.Live()
		if len(live) != 1 {
			return false
		}
		return bytes.Equal(live[0].Value, []byte("final")) && live[0].Version == 9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func buildSegmentsQuick() []wire.BackupSegment {
	l := storage.NewShardedLog(128, 1, nil) // tiny segments: one entry each
	_, _ = l.Append(0, storage.EntryObject, 1, 3, 0, []byte("k"), []byte("a"))
	_, _ = l.Append(0, storage.EntryObject, 1, 9, 0, []byte("k"), []byte("final"))
	_, _ = l.Append(0, storage.EntryObject, 1, 5, 0, []byte("k"), []byte("b"))
	var segs []wire.BackupSegment
	for _, s := range l.Segments() {
		segs = append(segs, wire.BackupSegment{SegmentID: s.ID, Data: s.Data(0, s.Len())})
	}
	return segs
}
