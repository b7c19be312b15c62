package storage

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"rocksteady/internal/wire"
)

func TestLogAppendAndRead(t *testing.T) {
	l := NewShardedLog(4096, 1, nil)
	ref, v, err := l.AppendObject(1, []byte("k1"), []byte("v1"))
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 {
		t.Errorf("first version = %d, want 1", v)
	}
	h, key, value, err := ref.Entry()
	if err != nil {
		t.Fatal(err)
	}
	if h.Table != 1 || string(key) != "k1" || string(value) != "v1" {
		t.Errorf("read back %v %q %q", h, key, value)
	}
	rec, err := ref.Record()
	if err != nil || rec.Version != 1 || string(rec.Key) != "k1" {
		t.Errorf("Record() = %+v, %v", rec, err)
	}
}

func TestLogVersionsMonotonic(t *testing.T) {
	l := NewShardedLog(4096, 1, nil)
	var last uint64
	for i := 0; i < 100; i++ {
		_, v, err := l.AppendObject(1, []byte{byte(i)}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if v <= last {
			t.Fatalf("version %d not above %d", v, last)
		}
		last = v
	}
	l.BumpVersionTo(10_000)
	if _, v, _ := l.AppendObject(1, []byte("x"), nil); v != 10_001 {
		t.Errorf("version after bump = %d, want 10001", v)
	}
	l.BumpVersionTo(5) // must not regress
	if l.CurrentVersion() != 10_001 {
		t.Errorf("BumpVersionTo regressed to %d", l.CurrentVersion())
	}
}

func TestLogRollsSegments(t *testing.T) {
	l := NewShardedLog(256, 1, nil)
	for i := 0; i < 50; i++ {
		if _, _, err := l.AppendObject(1, []byte(fmt.Sprintf("key-%03d", i)), bytes.Repeat([]byte("x"), 32)); err != nil {
			t.Fatal(err)
		}
	}
	if n := l.SegmentCount(); n < 10 {
		t.Errorf("expected many segments, got %d", n)
	}
	// All but the head (the newest segment) must be sealed.
	segs := l.Segments()
	head := segs[len(segs)-1]
	for _, s := range l.Segments() {
		if s != head && !s.Sealed() {
			t.Errorf("segment %d not sealed", s.ID)
		}
	}
}

func TestLogRejectsOversizeEntry(t *testing.T) {
	l := NewShardedLog(128, 1, nil)
	if _, _, err := l.AppendObject(1, []byte("k"), make([]byte, 256)); err == nil {
		t.Error("oversize append succeeded")
	}
}

func TestLogCloseStopsAppends(t *testing.T) {
	l := NewShardedLog(4096, 1, nil)
	l.Close()
	if _, _, err := l.AppendObject(1, []byte("k"), nil); err != ErrLogClosed {
		t.Errorf("err = %v, want ErrLogClosed", err)
	}
}

func TestLogForEachEntrySeesEverything(t *testing.T) {
	l := NewShardedLog(512, 1, nil)
	want := map[string]bool{}
	for i := 0; i < 40; i++ {
		k := fmt.Sprintf("key-%d", i)
		want[k] = true
		if _, _, err := l.AppendObject(1, []byte(k), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	got := map[string]bool{}
	err := l.ForEachEntry(func(ref Ref, h EntryHeader) bool {
		_, key, _, err := ref.Entry()
		if err != nil {
			t.Fatal(err)
		}
		got[string(key)] = true
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("iterated %d entries, want %d", len(got), len(want))
	}
}

func TestLogAppendEvents(t *testing.T) {
	var mu sync.Mutex
	var events []AppendEvent
	l := NewShardedLog(256, 1, func(ev AppendEvent) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	})
	for i := 0; i < 20; i++ {
		if _, _, err := l.AppendObject(1, []byte(fmt.Sprintf("key-%02d", i)), bytes.Repeat([]byte("y"), 32)); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	var appendBytes int
	var seals int
	for _, ev := range events {
		if ev.Sealed {
			seals++
			continue
		}
		appendBytes += len(ev.Data)
	}
	_, _, appended, _ := l.Stats()
	if int64(appendBytes) != appended {
		t.Errorf("event bytes %d != appended %d", appendBytes, appended)
	}
	if seals == 0 {
		t.Error("no seal events despite segment rollover")
	}
}

func TestSideLogCommit(t *testing.T) {
	main := NewShardedLog(512, 1, nil)
	if _, _, err := main.AppendObject(1, []byte("main-key"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	sl := main.NewSideLog(7)
	for i := 0; i < 30; i++ {
		v := main.NextVersion()
		if _, err := sl.Append(1, v, []byte(fmt.Sprintf("side-%d", i)), []byte("sv")); err != nil {
			t.Fatal(err)
		}
	}
	sideSegs := len(sl.Segments())
	if sideSegs < 2 {
		t.Fatalf("side log should have multiple segments, got %d", sideSegs)
	}
	mainBefore := main.SegmentCount()
	if err := sl.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := main.SegmentCount(); got < mainBefore+sideSegs {
		t.Errorf("segments after commit %d, want >= %d", got, mainBefore+sideSegs)
	}
	// Every side-log segment now belongs to the main log.
	for _, s := range sl.Segments() {
		if s.LogID != MainLogID {
			t.Errorf("segment %d still has log ID %d", s.ID, s.LogID)
		}
		if _, ok := main.Segment(s.ID); !ok {
			t.Errorf("segment %d not in main log", s.ID)
		}
	}
	// A commit record must exist.
	foundCommit := false
	_ = main.ForEachEntry(func(ref Ref, h EntryHeader) bool {
		if h.Type == EntrySideLogCommit && h.Aux == 7 {
			foundCommit = true
			return false
		}
		return true
	})
	if !foundCommit {
		t.Error("no side-log commit record in main log")
	}
	// Double commit is a no-op; post-commit appends fail.
	if err := sl.Commit(); err != nil {
		t.Errorf("second commit errored: %v", err)
	}
	if _, err := sl.Append(1, main.NextVersion(), []byte("late"), nil); err == nil {
		t.Error("append after commit succeeded")
	}
}

func TestSideLogSegmentIDsUnique(t *testing.T) {
	main := NewShardedLog(512, 1, nil)
	a := main.NewSideLog(100)
	b := main.NewSideLog(101)
	for i := 0; i < 20; i++ {
		v := main.NextVersion()
		if _, err := a.Append(1, v, []byte(fmt.Sprintf("a%d", i)), bytes.Repeat([]byte("p"), 40)); err != nil {
			t.Fatal(err)
		}
		v = main.NextVersion()
		if _, err := b.Append(1, v, []byte(fmt.Sprintf("b%d", i)), bytes.Repeat([]byte("q"), 40)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := main.AppendObject(1, []byte(fmt.Sprintf("m%d", i)), nil); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[uint64]bool{}
	for _, set := range [][]*Segment{main.Segments(), a.Segments(), b.Segments()} {
		for _, s := range set {
			if seen[s.ID] {
				t.Fatalf("duplicate segment ID %d", s.ID)
			}
			seen[s.ID] = true
		}
	}
}

func TestConcurrentSideLogAppends(t *testing.T) {
	main := NewShardedLog(4096, 1, nil)
	const workers = 8
	const perWorker = 200
	var wg sync.WaitGroup
	sls := make([]*SideLog, workers)
	for w := 0; w < workers; w++ {
		sls[w] = main.NewSideLog(uint64(10 + w))
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				v := main.NextVersion()
				if _, err := sls[w].Append(1, v, []byte(fmt.Sprintf("w%d-%d", w, i)), []byte("v")); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	total := 0
	for _, sl := range sls {
		if err := sl.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	_ = main.ForEachEntry(func(ref Ref, h EntryHeader) bool {
		if h.Type == EntryObject {
			total++
		}
		return true
	})
	if total != workers*perWorker {
		t.Errorf("found %d objects, want %d", total, workers*perWorker)
	}
}

func TestAppendedBytesTracksLineageOffset(t *testing.T) {
	l := NewShardedLog(4096, 1, nil)
	if l.AppendedBytes() != 0 {
		t.Error("fresh log has nonzero offset")
	}
	ref, _, _ := l.AppendObject(1, []byte("k"), []byte("vvvv"))
	want := uint64(ref.Size())
	if l.AppendedBytes() != want {
		t.Errorf("AppendedBytes = %d, want %d", l.AppendedBytes(), want)
	}
}

func TestSegmentDataImmutablePrefix(t *testing.T) {
	l := NewShardedLog(1024, 1, nil)
	ref, _, _ := l.AppendObject(1, []byte("k"), []byte("v"))
	data := ref.Seg.Data(0, ref.Seg.Len())
	cp := make([]byte, len(data))
	copy(cp, data)
	// Later appends must not disturb the published prefix.
	for i := 0; i < 5; i++ {
		_, _, _ = l.AppendObject(1, []byte{byte(i)}, []byte("zzz"))
	}
	if !bytes.Equal(cp, ref.Seg.Data(0, len(cp))) {
		t.Error("published prefix changed under later appends")
	}
}

func TestRefRecordTombstone(t *testing.T) {
	l := NewShardedLog(1024, 1, nil)
	ref, err := l.Append(0, EntryTombstone, 3, 9, 1, []byte("gone"), nil)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := ref.Record()
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Tombstone || rec.Version != 9 || rec.Table != 3 || string(rec.Key) != "gone" {
		t.Errorf("tombstone record %+v", rec)
	}
}

func TestSideLogIDZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for MainLogID side log")
		}
	}()
	NewShardedLog(1024, 1, nil).NewSideLog(MainLogID)
}

func TestHashRangeSplitMatchesBuckets(t *testing.T) {
	// The property Pull partitioning relies on: splitting the full hash
	// range into k parts yields parts whose bucket ranges are disjoint.
	ht := NewHashTable(1 << 12)
	parts := wire.FullRange().Split(8)
	lastEnd := int64(-1)
	for _, p := range parts {
		first := int64(ht.BucketOf(p.Start))
		last := int64(ht.BucketOf(p.End))
		if first <= lastEnd {
			t.Fatalf("partition %v bucket range [%d,%d] overlaps previous end %d", p, first, last, lastEnd)
		}
		lastEnd = last
	}
}
