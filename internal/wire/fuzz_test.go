package wire

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// seedMessages returns one representative message per interesting body
// shape: every RPC family, empty and non-empty slices, responses with
// records, and the zero-byte bodies. Both fuzz targets seed from these, and
// TestRegenerateFuzzCorpus writes them to the checked-in corpus.
func seedMessages() []*Message {
	rec := Record{Table: 3, Version: 9, Key: []byte("k1"), Value: []byte("v1")}
	tomb := Record{Table: 3, Version: 10, Key: []byte("k2"), Tombstone: true}
	return []*Message{
		{ID: 1, From: 7, To: 8, Op: OpRead, Priority: PriorityForeground,
			Body: &ReadRequest{Table: 3, Key: []byte("alpha")}},
		{ID: 1, From: 8, To: 7, Op: OpRead, IsResponse: true,
			Body: &ReadResponse{Status: StatusOK, Version: 42, Value: []byte("beta")}},
		{ID: 2, From: 7, To: 8, Op: OpRead, IsResponse: true,
			Body: &ReadResponse{Status: StatusRetry, RetryAfterMicros: 150}},
		{ID: 3, From: 7, To: 8, Op: OpWrite,
			Body: &WriteRequest{Table: 3, Key: []byte("k"), Value: bytes.Repeat([]byte{0xab}, 64)}},
		{ID: 3, From: 8, To: 7, Op: OpWrite, IsResponse: true,
			Body: &WriteResponse{Status: StatusOK, Version: 43}},
		{ID: 4, From: 7, To: 8, Op: OpDelete, Body: &DeleteRequest{Table: 3, Key: []byte("k")}},
		{ID: 5, From: 7, To: 8, Op: OpMultiGet,
			Body: &MultiGetRequest{Table: 3, Keys: [][]byte{[]byte("a"), nil, []byte("ccc")}}},
		{ID: 5, From: 8, To: 7, Op: OpMultiGet, IsResponse: true,
			Body: &MultiGetResponse{Status: StatusOK, Statuses: []Status{StatusOK, StatusNoSuchKey},
				Versions: []uint64{1, 0}, Values: [][]byte{[]byte("x"), nil}}},
		{ID: 6, From: 7, To: 8, Op: OpMultiPut,
			Body: &MultiPutRequest{Table: 3, Keys: [][]byte{[]byte("a")}, Values: [][]byte{[]byte("b")}}},
		{ID: 7, From: 7, To: 8, Op: OpMultiGetByHash,
			Body: &MultiGetByHashRequest{Table: 3, Hashes: []uint64{1, ^uint64(0)}}},
		{ID: 7, From: 8, To: 7, Op: OpMultiGetByHash, IsResponse: true,
			Body: &MultiGetByHashResponse{Status: StatusOK, Records: []Record{rec, tomb}}},
		{ID: 8, From: 7, To: 8, Op: OpIndexLookup,
			Body: &IndexLookupRequest{Index: 2, Begin: []byte("a"), End: []byte("z"), Limit: 100}},
		{ID: 8, From: 8, To: 7, Op: OpIndexLookup, IsResponse: true,
			Body: &IndexLookupResponse{Status: StatusOK, Hashes: []uint64{5, 6, 7}}},
		{ID: 9, From: 7, To: 8, Op: OpIndexInsert,
			Body: &IndexInsertRequest{Index: 2, SecondaryKey: []byte("sk"), KeyHash: 11}},
		{ID: 10, From: 7, To: 8, Op: OpIndexRemove,
			Body: &IndexRemoveRequest{Index: 2, SecondaryKey: []byte("sk"), KeyHash: 11}},
		{ID: 11, From: 9, To: 8, Op: OpMigrateTablet, Priority: PriorityForeground,
			Body: &MigrateTabletRequest{Table: 3, Range: HashRange{Start: 0, End: 1 << 63}, Source: 7}},
		{ID: 12, From: 8, To: 7, Op: OpPrepareMigration,
			Body: &PrepareMigrationRequest{Table: 3, Range: FullRange(), Target: 8, KeepServing: true}},
		{ID: 12, From: 7, To: 8, Op: OpPrepareMigration, IsResponse: true,
			Body: &PrepareMigrationResponse{Status: StatusOK, VersionCeiling: 100, NumBuckets: 1 << 10, TailWatermark: 4}},
		{ID: 13, From: 8, To: 7, Op: OpPull, Priority: PriorityBackground,
			Body: &PullRequest{Table: 3, Range: FullRange(), ResumeToken: 17, ByteBudget: 20 << 10}},
		{ID: 13, From: 7, To: 8, Op: OpPull, IsResponse: true,
			Body: &PullResponse{Status: StatusOK, Records: []Record{rec}, ResumeToken: 18, Done: true}},
		{ID: 14, From: 8, To: 7, Op: OpPriorityPull, Priority: PriorityPriorityPull,
			Body: &PriorityPullRequest{Table: 3, Hashes: []uint64{21, 22}}},
		{ID: 14, From: 7, To: 8, Op: OpPriorityPull, IsResponse: true,
			Body: &PriorityPullResponse{Status: StatusOK, Records: []Record{rec}, Missing: []uint64{22}}},
		{ID: 15, From: 8, To: 7, Op: OpDropTablet,
			Body: &DropTabletRequest{Table: 3, Range: FullRange()}},
		{ID: 16, From: 7, To: 8, Op: OpReplayRecords, Priority: PriorityBackground,
			Body: &ReplayRecordsRequest{Table: 3, Records: []Record{rec, tomb}, Replicate: true}},
		{ID: 17, From: 8, To: 7, Op: OpPullTail,
			Body: &PullTailRequest{Table: 3, Range: FullRange(), AfterEpoch: 2}},
		{ID: 17, From: 7, To: 8, Op: OpPullTail, IsResponse: true,
			Body: &PullTailResponse{Status: StatusOK, Records: []Record{tomb}}},
		{ID: 31, From: 7, To: 10, Op: OpReplicateBatch, Priority: PriorityReplication,
			Body: &ReplicateBatchRequest{Master: 7, Chunks: []ReplicateChunk{
				{LogID: 0, SegmentID: 6, Offset: 512, Data: []byte("shard0 bytes"), Close: true},
				{LogID: 0, SegmentID: 9, Offset: 0, Data: []byte("shard1 bytes")},
			}}},
		{ID: 31, From: 10, To: 7, Op: OpReplicateBatch, IsResponse: true,
			Body: &ReplicateBatchResponse{Status: StatusOK, ChunkStatuses: []Status{StatusOK, StatusOK}}},
		// The one-chunk batch that side-log re-replication and failover send
		// per (segment, replica), and a reply that rejects its chunk.
		{ID: 18, From: 7, To: 10, Op: OpReplicateBatch, Priority: PriorityReplication,
			Body: &ReplicateBatchRequest{Master: 7, Chunks: []ReplicateChunk{
				{LogID: 1, SegmentID: 6, Offset: 0, Data: []byte("whole segment"), Close: true},
			}}},
		{ID: 18, From: 10, To: 7, Op: OpReplicateBatch, IsResponse: true,
			Body: &ReplicateBatchResponse{Status: StatusOK, ChunkStatuses: []Status{StatusInternalError}}},
		{ID: 19, From: 2, To: 10, Op: OpGetBackupSegments,
			Body: &GetBackupSegmentsRequest{Master: 7, MinLogOffset: 99, Cursor: 3, MaxBytes: 1 << 20}},
		{ID: 19, From: 10, To: 2, Op: OpGetBackupSegments, IsResponse: true,
			Body: &GetBackupSegmentsResponse{Status: StatusOK,
				Segments:   []BackupSegment{{LogID: 1, SegmentID: 6, Sealed: true, Data: []byte("seg")}},
				NextCursor: 4, More: true}},
		{ID: 35, From: 2, To: 10, Op: OpBackupStatus, Body: &BackupStatusRequest{}},
		{ID: 35, From: 10, To: 2, Op: OpBackupStatus, IsResponse: true,
			Body: &BackupStatusResponse{Status: StatusOK, Persistent: true,
				Segments: 12, SealedSegments: 9, Bytes: 3 << 20, BytesWritten: 5 << 20, SyncLag: 2}},
		{ID: 36, From: 9, To: CoordinatorID, Op: OpRecoverMaster,
			Body: &RecoverMasterRequest{Master: 7}},
		{ID: 36, From: CoordinatorID, To: 9, Op: OpRecoverMaster, IsResponse: true,
			Body: &RecoverMasterResponse{Status: StatusOK, Segments: 4, Records: 1234}},
		{ID: 20, From: 2, To: 9, Op: OpTakeTablets,
			Body: &TakeTabletsRequest{Table: 3, Range: FullRange(), Records: []Record{rec}, VersionCeiling: 101}},
		{ID: 21, From: 9, To: CoordinatorID, Op: OpGetTabletMap, Body: &GetTabletMapRequest{}},
		{ID: 21, From: CoordinatorID, To: 9, Op: OpGetTabletMap, IsResponse: true,
			Body: &GetTabletMapResponse{Status: StatusOK, Version: 7,
				Tablets:   []Tablet{{Table: 3, Range: FullRange(), Master: 7}},
				Indexlets: []Indexlet{{Index: 2, Table: 3, Begin: []byte("a"), End: nil, Master: 8}}}},
		{ID: 22, From: 9, To: CoordinatorID, Op: OpCreateTable,
			Body: &CreateTableRequest{Name: "usertable", Servers: []ServerID{7, 8}}},
		{ID: 23, From: 9, To: CoordinatorID, Op: OpCreateIndex,
			Body: &CreateIndexRequest{Table: 3, Servers: []ServerID{7, 8}, SplitKeys: [][]byte{[]byte("m")}}},
		{ID: 24, From: 8, To: CoordinatorID, Op: OpMigrateStart,
			Body: &MigrateStartRequest{Table: 3, Range: FullRange(), Source: 7, Target: 8, TargetLogWatermark: 33}},
		{ID: 25, From: 8, To: CoordinatorID, Op: OpMigrateDone,
			Body: &MigrateDoneRequest{Table: 3, Range: FullRange(), Source: 7, Target: 8}},
		{ID: 26, From: 9, To: CoordinatorID, Op: OpSplitTablet,
			Body: &SplitTabletRequest{Table: 3, SplitAt: 1 << 62}},
		{ID: 27, From: 7, To: CoordinatorID, Op: OpEnlistServer, Body: &EnlistServerRequest{Server: 7}},
		{ID: 28, From: 9, To: CoordinatorID, Op: OpReportCrash, Body: &ReportCrashRequest{Server: 7}},
		{ID: 32, From: 9, To: CoordinatorID, Op: OpMergeTablets,
			Body: &MergeTabletsRequest{Table: 3, MergeAt: 1 << 62}},
		{ID: 32, From: CoordinatorID, To: 9, Op: OpMergeTablets, IsResponse: true,
			Body: &MergeTabletsResponse{Status: StatusOK, MapVersion: 8}},
		{ID: 33, From: CoordinatorID, To: 7, Op: OpGetHeat, Body: &GetHeatRequest{}},
		{ID: 33, From: 7, To: CoordinatorID, Op: OpGetHeat, IsResponse: true,
			Body: &GetHeatResponse{Status: StatusOK,
				Tablets:            []TabletHeat{{Table: 3, Range: FullRange(), Heat: 12345}},
				QueueWaitP99Micros: []uint64{10, 55, 200, 900}}},
		{ID: 34, From: 9, To: CoordinatorID, Op: OpRebalanceControl,
			Body: &RebalanceControlRequest{Enable: true}},
		{ID: 34, From: CoordinatorID, To: 9, Op: OpRebalanceControl, IsResponse: true,
			Body: &RebalanceControlResponse{Status: StatusOK, Enabled: true, BackingOff: false,
				Splits: 2, Merges: 1, Migrations: 3, Backoffs: 4}},
		{ID: 29, From: 9, To: 7, Op: OpPing, Body: &PingRequest{}},
		{ID: 29, From: 7, To: 9, Op: OpPing, IsResponse: true, Body: &PingResponse{Status: StatusOK}},
		// Deadline/trace-bearing envelopes: a traced pull with an absolute
		// deadline, and a response echoing the trace id.
		{ID: 30, From: 8, To: 7, Op: OpPull, Priority: PriorityBackground,
			TraceID: 0xdeadbeefcafe, DeadlineNanos: 1_700_000_000_123_456_789,
			Body: &PullRequest{Table: 3, Range: FullRange(), ResumeToken: 5, ByteBudget: 20 << 10}},
		{ID: 30, From: 7, To: 8, Op: OpPull, IsResponse: true, TraceID: 0xdeadbeefcafe,
			Body: &PullResponse{Status: StatusOK, Records: []Record{rec}, ResumeToken: 6}},
		// The remaining (op, direction) pairs, so every registered body
		// has a seed (TestFuzzSeedsCoverEveryOp).
		{ID: 37, From: 8, To: 7, Op: OpAbortMigration,
			Body: &AbortMigrationRequest{Table: 3, Range: FullRange(), Target: 8}},
		{ID: 37, From: 7, To: 8, Op: OpAbortMigration, IsResponse: true,
			Body: &AbortMigrationResponse{Status: StatusOK}},
		{ID: 4, From: 8, To: 7, Op: OpDelete, IsResponse: true,
			Body: &DeleteResponse{Status: StatusNoSuchKey, Version: 44}},
		{ID: 6, From: 8, To: 7, Op: OpMultiPut, IsResponse: true,
			Body: &MultiPutResponse{Status: StatusOK, Statuses: []Status{StatusOK}, Versions: []uint64{45}}},
		{ID: 9, From: 8, To: 7, Op: OpIndexInsert, IsResponse: true,
			Body: &IndexInsertResponse{Status: StatusOK}},
		{ID: 10, From: 8, To: 7, Op: OpIndexRemove, IsResponse: true,
			Body: &IndexRemoveResponse{Status: StatusNoSuchIndex}},
		{ID: 11, From: 8, To: 9, Op: OpMigrateTablet, IsResponse: true,
			Body: &MigrateTabletResponse{Status: StatusMigrationInProgress}},
		{ID: 15, From: 7, To: 8, Op: OpDropTablet, IsResponse: true,
			Body: &DropTabletResponse{Status: StatusOK}},
		{ID: 16, From: 8, To: 7, Op: OpReplayRecords, IsResponse: true,
			Body: &ReplayRecordsResponse{Status: StatusOK}},
		{ID: 20, From: 9, To: 2, Op: OpTakeTablets, IsResponse: true,
			Body: &TakeTabletsResponse{Status: StatusOK}},
		{ID: 22, From: CoordinatorID, To: 9, Op: OpCreateTable, IsResponse: true,
			Body: &CreateTableResponse{Status: StatusOK, Table: 3}},
		{ID: 23, From: CoordinatorID, To: 9, Op: OpCreateIndex, IsResponse: true,
			Body: &CreateIndexResponse{Status: StatusOK, Index: 2}},
		{ID: 24, From: CoordinatorID, To: 8, Op: OpMigrateStart, IsResponse: true,
			Body: &MigrateStartResponse{Status: StatusOK, MapVersion: 9}},
		{ID: 25, From: CoordinatorID, To: 8, Op: OpMigrateDone, IsResponse: true,
			Body: &MigrateDoneResponse{Status: StatusOK}},
		{ID: 26, From: CoordinatorID, To: 9, Op: OpSplitTablet, IsResponse: true,
			Body: &SplitTabletResponse{Status: StatusOK, MapVersion: 10}},
		{ID: 27, From: CoordinatorID, To: 7, Op: OpEnlistServer, IsResponse: true,
			Body: &EnlistServerResponse{Status: StatusOK}},
		{ID: 28, From: CoordinatorID, To: 9, Op: OpReportCrash, IsResponse: true,
			Body: &ReportCrashResponse{Status: StatusOK}},
	}
}

// TestFuzzSeedsCoverEveryOp fails when a registered (op, direction) has no
// seed message, so a new message cannot land without fuzz coverage.
func TestFuzzSeedsCoverEveryOp(t *testing.T) {
	type key struct {
		op   Op
		resp bool
	}
	seeded := make(map[key]bool)
	for _, m := range seedMessages() {
		if m.Body.Op() != m.Op || isResponsePayload(m.Body) != m.IsResponse {
			t.Errorf("seed %v (resp=%v) carries a %T", m.Op, m.IsResponse, m.Body)
		}
		seeded[key{m.Op, m.IsResponse}] = true
	}
	for _, m := range registeredMessages() {
		if !seeded[key{m.Op, m.IsResponse}] {
			t.Errorf("no fuzz seed for %v (resp=%v)", m.Op, m.IsResponse)
		}
	}
}

// TestEnvelopeDeadlineTraceRoundtrip pins the new envelope fields: a trace
// id and an absolute deadline must survive a marshal/unmarshal cycle with
// their exact values (byte-stability fuzzing alone would not catch a
// swapped field pair).
func TestEnvelopeDeadlineTraceRoundtrip(t *testing.T) {
	in := &Message{ID: 77, From: 1, To: 2, Op: OpRead, Priority: PriorityForeground,
		TraceID: 0x0123456789abcdef, DeadlineNanos: 987654321012345678,
		Body: &ReadRequest{Table: 1, Key: []byte("k")}}
	out, err := UnmarshalMessage(AppendMessage(nil, in))
	if err != nil {
		t.Fatal(err)
	}
	if out.TraceID != in.TraceID {
		t.Fatalf("TraceID = %#x, want %#x", out.TraceID, in.TraceID)
	}
	if out.DeadlineNanos != in.DeadlineNanos {
		t.Fatalf("DeadlineNanos = %d, want %d", out.DeadlineNanos, in.DeadlineNanos)
	}
}

// FuzzDecodeMessage feeds arbitrary bytes to the decoder. The decoder must
// never panic or over-allocate, and anything it accepts must re-encode into
// exactly WireSize bytes and decode again.
func FuzzDecodeMessage(f *testing.F) {
	for _, m := range seedMessages() {
		f.Add(AppendMessage(nil, m))
	}
	// Truncations and corruptions of a valid frame exercise the error paths.
	full := AppendMessage(nil, seedMessages()[0])
	f.Add(full[:len(full)/2])
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, _, err := UnmarshalMessageShared(data)
		if err != nil {
			return
		}
		out := AppendMessage(nil, m)
		if len(out) != m.WireSize() {
			t.Fatalf("encoded %d bytes but WireSize reports %d (op=%v): an under-report makes the zero-alloc encode path reallocate, an over-report skews the fabric bandwidth model",
				len(out), m.WireSize(), m.Op)
		}
		if _, _, err := UnmarshalMessageShared(out); err != nil {
			t.Fatalf("re-encoded message fails to decode (op=%v): %v", m.Op, err)
		}
	})
}

// FuzzMarshalRoundtrip checks that unmarshal∘marshal is the identity on
// encoded frames: once a frame has passed through the decoder and been
// re-encoded, further decode/encode cycles must reproduce it byte for byte.
func FuzzMarshalRoundtrip(f *testing.F) {
	for _, m := range seedMessages() {
		f.Add(AppendMessage(nil, m))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m1, _, err := UnmarshalMessageShared(data)
		if err != nil {
			return
		}
		b1 := AppendMessage(nil, m1)
		m2, _, err := UnmarshalMessageShared(b1)
		if err != nil {
			t.Fatalf("decode of re-encoded frame failed (op=%v): %v", m1.Op, err)
		}
		b2 := AppendMessage(nil, m2)
		if !bytes.Equal(b1, b2) {
			t.Fatalf("marshal/unmarshal roundtrip not stable (op=%v):\n first: %x\nsecond: %x", m1.Op, b1, b2)
		}
	})
}

// TestSeedMessagesRoundtrip keeps the seed set itself honest in ordinary
// test runs (fuzz seeds are only executed during go test's seed pass).
func TestSeedMessagesRoundtrip(t *testing.T) {
	for _, m := range seedMessages() {
		b1 := AppendMessage(nil, m)
		got, _, err := UnmarshalMessageShared(b1)
		if err != nil {
			t.Fatalf("op=%v: %v", m.Op, err)
		}
		b2 := AppendMessage(nil, got)
		if !bytes.Equal(b1, b2) {
			t.Fatalf("op=%v: roundtrip mismatch", m.Op)
		}
	}
}

// TestRegenerateFuzzCorpus rewrites the checked-in seed corpus under
// testdata/fuzz/ from seedMessages. Run with WIRE_REGEN_CORPUS=1 after
// changing the wire format or the seed set.
//
// A new seed file is named seed-<Op>-<req|resp>-<k>, k counted per op and
// direction, so adding a seed never renames another. A file whose bytes a
// seed still produces keeps its name; a file no seed produces is deleted.
// Regenerating after a change that keeps the format therefore only adds
// files.
func TestRegenerateFuzzCorpus(t *testing.T) {
	if os.Getenv("WIRE_REGEN_CORPUS") == "" {
		t.Skip("set WIRE_REGEN_CORPUS=1 to rewrite testdata/fuzz")
	}
	want := make(map[string]string) // file contents -> name for a new file
	count := make(map[string]int)
	for _, m := range seedMessages() {
		key := m.Op.String() + "-req"
		if m.IsResponse {
			key = m.Op.String() + "-resp"
		}
		body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(AppendMessage(nil, m))) + ")\n"
		want[body] = "seed-" + key + "-" + strconv.Itoa(count[key])
		count[key]++
	}
	for _, target := range []string{"FuzzDecodeMessage", "FuzzMarshalRoundtrip"} {
		dir := filepath.Join("testdata", "fuzz", target)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		kept := make(map[string]bool)
		for _, e := range entries {
			path := filepath.Join(dir, e.Name())
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := want[string(b)]; ok && !kept[string(b)] {
				kept[string(b)] = true
				continue
			}
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
		}
		for body, name := range want {
			if kept[body] {
				continue
			}
			if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
}
