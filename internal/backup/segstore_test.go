package backup

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"rocksteady/internal/wire"
)

// eachBackend runs a subtest against every SegmentStore implementation,
// pinning the append contract to identical behavior across backends.
func eachBackend(t *testing.T, fn func(t *testing.T, seg SegmentStore)) {
	t.Helper()
	t.Run("mem", func(t *testing.T) {
		fn(t, NewMemStore())
	})
	t.Run("file", func(t *testing.T) {
		fs, err := OpenFileStore(t.TempDir(), FileStoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { fs.Close() })
		fn(t, fs)
	})
}

func mustRead(t *testing.T, seg SegmentStore, master wire.ServerID, logID, segID uint64) ([]byte, bool) {
	t.Helper()
	data, sealed, ok := seg.Read(master, logID, segID)
	if !ok {
		t.Fatalf("replica (%d,%d,%d) missing", master, logID, segID)
	}
	return data, sealed
}

// TestAppendContractDuplicate: a resent span (replication retry) is
// applied idempotently — same bytes, same length, status OK.
func TestAppendContractDuplicate(t *testing.T) {
	eachBackend(t, func(t *testing.T, seg SegmentStore) {
		if st := seg.Append(5, 0, 1, 0, []byte("hello"), false); st != wire.StatusOK {
			t.Fatal(st)
		}
		if st := seg.Append(5, 0, 1, 0, []byte("hello"), false); st != wire.StatusOK {
			t.Fatalf("duplicate append rejected: %v", st)
		}
		data, _ := mustRead(t, seg, 5, 0, 1)
		if !bytes.Equal(data, []byte("hello")) {
			t.Fatalf("data = %q", data)
		}
	})
}

// TestAppendContractOverlappingRewrite: a span that rewrites an existing
// prefix and runs past the old end both rewrites and extends.
func TestAppendContractOverlappingRewrite(t *testing.T) {
	eachBackend(t, func(t *testing.T, seg SegmentStore) {
		seg.Append(5, 0, 1, 0, []byte("abcdef"), false)
		if st := seg.Append(5, 0, 1, 4, []byte("EFGH"), false); st != wire.StatusOK {
			t.Fatalf("overlapping rewrite rejected: %v", st)
		}
		data, _ := mustRead(t, seg, 5, 0, 1)
		if !bytes.Equal(data, []byte("abcdEFGH")) {
			t.Fatalf("data = %q, want abcdEFGH", data)
		}
		// A pure interior rewrite must not shrink the replica.
		if st := seg.Append(5, 0, 1, 0, []byte("AB"), false); st != wire.StatusOK {
			t.Fatal(st)
		}
		data, _ = mustRead(t, seg, 5, 0, 1)
		if !bytes.Equal(data, []byte("ABcdEFGH")) {
			t.Fatalf("data = %q, want ABcdEFGH", data)
		}
	})
}

// TestAppendContractGapRejected: an offset past the current end is a gap
// the backend must refuse (the master resends from the ack point).
func TestAppendContractGapRejected(t *testing.T) {
	eachBackend(t, func(t *testing.T, seg SegmentStore) {
		seg.Append(5, 0, 1, 0, []byte("abc"), false)
		if st := seg.Append(5, 0, 1, 10, []byte("x"), false); st == wire.StatusOK {
			t.Fatal("gap accepted")
		}
		data, _ := mustRead(t, seg, 5, 0, 1)
		if !bytes.Equal(data, []byte("abc")) {
			t.Fatalf("gap mutated replica: %q", data)
		}
		// A gap on a brand-new replica is also rejected.
		if st := seg.Append(5, 0, 2, 1, []byte("x"), false); st == wire.StatusOK {
			t.Fatal("gap on empty replica accepted")
		}
	})
}

// TestAppendContractSeal: data after seal is rejected, a bare re-seal is
// allowed (seal acks can be retried too).
func TestAppendContractSeal(t *testing.T) {
	eachBackend(t, func(t *testing.T, seg SegmentStore) {
		seg.Append(5, 0, 1, 0, []byte("abc"), false)
		if st := seg.Append(5, 0, 1, 3, nil, true); st != wire.StatusOK {
			t.Fatalf("seal rejected: %v", st)
		}
		if st := seg.Append(5, 0, 1, 3, []byte("zz"), false); st == wire.StatusOK {
			t.Fatal("append after seal accepted")
		}
		if st := seg.Append(5, 0, 1, 3, nil, true); st != wire.StatusOK {
			t.Fatalf("bare re-seal rejected: %v", st)
		}
		if _, sealed := mustRead(t, seg, 5, 0, 1); !sealed {
			t.Fatal("not sealed")
		}
	})
}

// TestSegmentStoreListSorted: List is (logID, segID)-sorted so a paging
// cursor indexes a stable order.
func TestSegmentStoreListSorted(t *testing.T) {
	eachBackend(t, func(t *testing.T, seg SegmentStore) {
		seg.Append(5, 1, 2, 0, []byte("c"), false)
		seg.Append(5, 0, 9, 0, []byte("b"), false)
		seg.Append(5, 0, 1, 0, []byte("a"), true)
		seg.Append(6, 0, 0, 0, []byte("other master"), false)
		infos := seg.List(5)
		if len(infos) != 3 {
			t.Fatalf("len = %d", len(infos))
		}
		want := []SegmentInfo{
			{LogID: 0, SegmentID: 1, Len: 1, Sealed: true},
			{LogID: 0, SegmentID: 9, Len: 1},
			{LogID: 1, SegmentID: 2, Len: 1},
		}
		for i, w := range want {
			if infos[i] != w {
				t.Fatalf("infos[%d] = %+v, want %+v", i, infos[i], w)
			}
		}
	})
}

// TestSegmentStoreStats pins the counters both the BackupStatus RPC and
// the CLI report.
func TestSegmentStoreStats(t *testing.T) {
	eachBackend(t, func(t *testing.T, seg SegmentStore) {
		seg.Append(5, 0, 1, 0, []byte("hello"), true)
		seg.Append(5, 0, 2, 0, []byte("wo"), false)
		if err := seg.Sync(); err != nil {
			t.Fatal(err)
		}
		st := seg.Stats()
		if st.Segments != 2 || st.SealedSegments != 1 || st.Bytes != 7 || st.BytesWritten != 7 {
			t.Fatalf("stats = %+v", st)
		}
		if st.SyncLag != 0 {
			t.Fatalf("SyncLag = %d after Sync", st.SyncLag)
		}
		_, isFile := seg.(*FileStore)
		if st.Persistent != isFile {
			t.Fatalf("Persistent = %v for %T", st.Persistent, seg)
		}
	})
}

// --- FileStore crash-atomicity -------------------------------------------

func openFileStore(t *testing.T, dir string) *FileStore {
	t.Helper()
	fs, err := OpenFileStore(dir, FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// TestFileStoreReopenRoundTrip: sealed and unsealed replicas, lengths,
// and per-master separation all survive Close + OpenFileStore.
func TestFileStoreReopenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	fs := openFileStore(t, dir)
	fs.Append(5, 0, 1, 0, []byte("sealed bytes"), true)
	fs.Append(5, 1, 2, 0, []byte("open tail"), false)
	fs.Append(6, 0, 1, 0, []byte("other master"), true)
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	fs.Close()

	fs2 := openFileStore(t, dir)
	defer fs2.Close()
	if fs2.ReopenedSegments() != 3 || fs2.TornSegments() != 0 {
		t.Fatalf("reopened=%d torn=%d", fs2.ReopenedSegments(), fs2.TornSegments())
	}
	data, sealed := mustRead(t, fs2, 5, 0, 1)
	if !sealed || !bytes.Equal(data, []byte("sealed bytes")) {
		t.Fatalf("sealed replica: sealed=%v data=%q", sealed, data)
	}
	data, sealed = mustRead(t, fs2, 5, 1, 2)
	if sealed || !bytes.Equal(data, []byte("open tail")) {
		t.Fatalf("open replica: sealed=%v data=%q", sealed, data)
	}
	if infos := fs2.List(6); len(infos) != 1 || !infos[0].Sealed {
		t.Fatalf("master 6: %+v", infos)
	}
	// The reopened store keeps accepting appends on the open replica.
	if st := fs2.Append(5, 1, 2, 9, []byte("!"), true); st != wire.StatusOK {
		t.Fatalf("append after reopen: %v", st)
	}
}

// TestFileStoreTruncatedTailDetected: a seal record whose data fsync
// never completed (file shorter than the sealed length) must surface as
// an unsealed torn tail, never as a complete segment.
func TestFileStoreTruncatedTailDetected(t *testing.T) {
	dir := t.TempDir()
	fs := openFileStore(t, dir)
	fs.Append(5, 0, 1, 0, []byte("twelve bytes"), true)
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	fs.Close()

	// Simulate the crash: the manifest seal record survived but the tail
	// of the data file did not.
	seg := filepath.Join(dir, "m5", "s0-1.seg")
	if err := os.Truncate(seg, 6); err != nil {
		t.Fatal(err)
	}

	fs2 := openFileStore(t, dir)
	defer fs2.Close()
	if fs2.TornSegments() != 1 {
		t.Fatalf("TornSegments = %d", fs2.TornSegments())
	}
	data, sealed := mustRead(t, fs2, 5, 0, 1)
	if sealed {
		t.Fatal("truncated segment reported sealed")
	}
	if !bytes.Equal(data, []byte("twelve")) {
		t.Fatalf("data = %q", data)
	}
	// Re-replication completes and re-seals it; the newer (longer) seal
	// record governs the next reopen even though the stale one remains.
	if st := fs2.Append(5, 0, 1, 6, []byte(" bytes"), true); st != wire.StatusOK {
		t.Fatalf("re-replicate: %v", st)
	}
	if err := fs2.Sync(); err != nil {
		t.Fatal(err)
	}
	fs2.Close()

	fs3 := openFileStore(t, dir)
	defer fs3.Close()
	if fs3.TornSegments() != 0 {
		t.Fatalf("TornSegments = %d after repair", fs3.TornSegments())
	}
	data, sealed = mustRead(t, fs3, 5, 0, 1)
	if !sealed || !bytes.Equal(data, []byte("twelve bytes")) {
		t.Fatalf("repaired replica: sealed=%v data=%q", sealed, data)
	}
}

// TestFileStoreTornManifestRecord: a manifest whose last record is torn
// (crash mid-write) loses only that seal — the segment data is still
// there, surfaced unsealed, and earlier records still apply.
func TestFileStoreTornManifestRecord(t *testing.T) {
	dir := t.TempDir()
	fs := openFileStore(t, dir)
	fs.Append(5, 0, 1, 0, []byte("first"), true)
	fs.Append(5, 0, 2, 0, []byte("second"), true)
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	fs.Close()

	manifest := filepath.Join(dir, "m5", "MANIFEST")
	st, err := os.Stat(manifest)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != 2*sealRecordSize {
		t.Fatalf("manifest size = %d", st.Size())
	}
	// Tear the second record in half.
	if err := os.Truncate(manifest, sealRecordSize+sealRecordSize/2); err != nil {
		t.Fatal(err)
	}

	fs2 := openFileStore(t, dir)
	defer fs2.Close()
	if _, sealed := mustRead(t, fs2, 5, 0, 1); !sealed {
		t.Fatal("first seal lost")
	}
	data, sealed := mustRead(t, fs2, 5, 0, 2)
	if sealed {
		t.Fatal("torn seal record applied")
	}
	if !bytes.Equal(data, []byte("second")) {
		t.Fatalf("data = %q", data)
	}
}

// TestFileStoreCorruptManifestRecord: a bit-flipped record fails its CRC
// and nothing past it is trusted.
func TestFileStoreCorruptManifestRecord(t *testing.T) {
	dir := t.TempDir()
	fs := openFileStore(t, dir)
	fs.Append(5, 0, 1, 0, []byte("first"), true)
	fs.Append(5, 0, 2, 0, []byte("second"), true)
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	fs.Close()

	manifest := filepath.Join(dir, "m5", "MANIFEST")
	f, err := os.OpenFile(manifest, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the first record's payload: its CRC fails, so
	// BOTH seals are discarded (trust stops at the first bad record).
	if _, err := f.WriteAt([]byte{0xff}, 8); err != nil {
		t.Fatal(err)
	}
	f.Close()

	fs2 := openFileStore(t, dir)
	defer fs2.Close()
	for _, segID := range []uint64{1, 2} {
		if _, sealed := mustRead(t, fs2, 5, 0, segID); sealed {
			t.Fatalf("seg %d sealed from corrupt manifest", segID)
		}
	}
}

// TestFileStoreDropRemovesFiles: Drop must erase the master's directory
// so a reopen cannot resurrect recovered-and-discarded replicas.
func TestFileStoreDropRemovesFiles(t *testing.T) {
	dir := t.TempDir()
	fs := openFileStore(t, dir)
	defer fs.Close()
	fs.Append(5, 0, 1, 0, []byte("bytes"), true)
	fs.Append(6, 0, 1, 0, []byte("keep"), false)
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	fs.Drop(5)
	if _, err := os.Stat(filepath.Join(dir, "m5")); !os.IsNotExist(err) {
		t.Fatalf("m5 still on disk: %v", err)
	}
	if _, _, ok := fs.Read(5, 0, 1); ok {
		t.Fatal("dropped replica still readable")
	}
	if _, _, ok := fs.Read(6, 0, 1); !ok {
		t.Fatal("drop removed wrong master")
	}
}

// TestFileStoreGroupFsync: concurrent appenders calling Sync share
// flushes and every caller returns only once its appends are durable.
func TestFileStoreGroupFsync(t *testing.T) {
	fs := openFileStore(t, t.TempDir())
	defer fs.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				off := uint32(i)
				if st := fs.Append(5, uint64(g), 1, off, []byte{byte(i)}, false); st != wire.StatusOK {
					t.Errorf("append: %v", st)
					return
				}
				if err := fs.Sync(); err != nil {
					t.Errorf("sync: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if st := fs.Stats(); st.SyncLag != 0 {
		t.Fatalf("SyncLag = %d after all Syncs returned", st.SyncLag)
	}
	for g := 0; g < 8; g++ {
		data, _ := mustRead(t, fs, 5, uint64(g), 1)
		if len(data) != 20 {
			t.Fatalf("goroutine %d replica len = %d", g, len(data))
		}
	}
}

// TestFileStoreSyncEveryAppend: the unbatched baseline is durable after
// every Append with no explicit Sync.
func TestFileStoreSyncEveryAppend(t *testing.T) {
	dir := t.TempDir()
	fs, err := OpenFileStore(dir, FileStoreOptions{SyncEveryAppend: true})
	if err != nil {
		t.Fatal(err)
	}
	fs.Append(5, 0, 1, 0, []byte("inline"), true)
	if st := fs.Stats(); st.SyncLag != 0 {
		t.Fatalf("SyncLag = %d with SyncEveryAppend", st.SyncLag)
	}
	fs.Close()
	fs2 := openFileStore(t, dir)
	defer fs2.Close()
	data, sealed := mustRead(t, fs2, 5, 0, 1)
	if !sealed || !bytes.Equal(data, []byte("inline")) {
		t.Fatalf("sealed=%v data=%q", sealed, data)
	}
}

// --- Paged GetBackupSegments ---------------------------------------------

// TestHandleGetSegmentsPaging: the cursor walks the sorted replica list
// in MaxBytes-capped pages, always moving at least one segment.
func TestHandleGetSegmentsPaging(t *testing.T) {
	s := NewStore()
	// Five 100-byte segments plus one oversized 1000-byte segment.
	for i := 0; i < 5; i++ {
		replicate(s, 5, wire.ReplicateChunk{
			LogID: 0, SegmentID: uint64(i), Data: bytes.Repeat([]byte{byte(i)}, 100), Close: true,
		})
	}
	replicate(s, 5, wire.ReplicateChunk{LogID: 1, SegmentID: 0, Data: bytes.Repeat([]byte{9}, 1000)})

	var got []wire.BackupSegment
	var pages int
	cursor := uint64(0)
	for {
		resp := s.HandleGetSegments(&wire.GetBackupSegmentsRequest{
			Master: 5, Cursor: cursor, MaxBytes: 250,
		})
		if resp.Status != wire.StatusOK {
			t.Fatal(resp.Status)
		}
		if len(resp.Segments) == 0 {
			t.Fatal("empty page")
		}
		pages++
		got = append(got, resp.Segments...)
		if !resp.More {
			break
		}
		cursor = resp.NextCursor
	}
	if len(got) != 6 {
		t.Fatalf("retrieved %d segments", len(got))
	}
	// 100-byte segments pack two per 250-byte page; the 1000-byte segment
	// exceeds the cap alone and still moves, on its own page.
	if pages != 4 {
		t.Fatalf("pages = %d, want 4", pages)
	}
	if last := got[5]; last.LogID != 1 || len(last.Data) != 1000 || last.Sealed {
		t.Fatalf("oversized segment: %+v", last)
	}
	for i := 0; i < 5; i++ {
		if got[i].SegmentID != uint64(i) || !got[i].Sealed || len(got[i].Data) != 100 {
			t.Fatalf("segment %d: %+v", i, got[i])
		}
	}
	// A cursor past the end yields an empty terminal page, not a fault.
	resp := s.HandleGetSegments(&wire.GetBackupSegmentsRequest{Master: 5, Cursor: 99})
	if len(resp.Segments) != 0 || resp.More {
		t.Fatalf("past-end page: %+v", resp)
	}
}

// TestHandleStatus pins the RPC the CLI's `backup status` verb reads.
func TestHandleStatus(t *testing.T) {
	s := NewStore()
	replicate(s, 5, wire.ReplicateChunk{SegmentID: 1, Data: []byte("abc"), Close: true})
	resp := s.HandleStatus(&wire.BackupStatusRequest{})
	if resp.Status != wire.StatusOK || resp.Persistent {
		t.Fatalf("mem status: %+v", resp)
	}
	if resp.Segments != 1 || resp.SealedSegments != 1 || resp.Bytes != 3 || resp.BytesWritten != 3 {
		t.Fatalf("mem counters: %+v", resp)
	}

	fs := openFileStore(t, t.TempDir())
	sf := NewStoreWith(fs)
	defer sf.Close()
	replicate(sf, 5, wire.ReplicateChunk{SegmentID: 1, Data: []byte("abc")})
	if resp := sf.HandleStatus(&wire.BackupStatusRequest{}); !resp.Persistent || resp.SyncLag != 0 {
		t.Fatalf("file status: %+v", resp)
	}
}
