package server

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"rocksteady/internal/storage"
	"rocksteady/internal/transport"
	"rocksteady/internal/wire"
)

// rig is a single server plus a raw RPC client on a private fabric.
type rig struct {
	fabric *transport.Fabric
	srv    *Server
	cli    *transport.Node
}

func newRig(t *testing.T, cfg Config) *rig {
	t.Helper()
	f := transport.NewFabric(transport.FabricConfig{})
	if cfg.ID == 0 {
		cfg.ID = 10
	}
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	srv := New(cfg, f.Attach(cfg.ID))
	cli := transport.NewNode(f.Attach(999))
	cli.Start()
	t.Cleanup(func() {
		cli.Close()
		srv.Close()
	})
	return &rig{fabric: f, srv: srv, cli: cli}
}

func (r *rig) call(t *testing.T, body wire.Payload) wire.Payload {
	t.Helper()
	reply, err := r.cli.Call(context.Background(), r.srv.ID(), wire.PriorityForeground, body)
	if err != nil {
		t.Fatalf("%T: %v", body, err)
	}
	return reply
}

func TestServerReadWriteDelete(t *testing.T) {
	r := newRig(t, Config{})
	r.srv.RegisterTablet(1, wire.FullRange(), TabletNormal)

	w := r.call(t, &wire.WriteRequest{Table: 1, Key: []byte("k"), Value: []byte("v1")}).(*wire.WriteResponse)
	if w.Status != wire.StatusOK || w.Version == 0 {
		t.Fatalf("write: %+v", w)
	}
	rd := r.call(t, &wire.ReadRequest{Table: 1, Key: []byte("k")}).(*wire.ReadResponse)
	if rd.Status != wire.StatusOK || string(rd.Value) != "v1" || rd.Version != w.Version {
		t.Fatalf("read: %+v", rd)
	}
	w2 := r.call(t, &wire.WriteRequest{Table: 1, Key: []byte("k"), Value: []byte("v2")}).(*wire.WriteResponse)
	if w2.Version <= w.Version {
		t.Fatalf("version did not advance: %d -> %d", w.Version, w2.Version)
	}
	d := r.call(t, &wire.DeleteRequest{Table: 1, Key: []byte("k")}).(*wire.DeleteResponse)
	if d.Status != wire.StatusOK {
		t.Fatalf("delete: %+v", d)
	}
	rd = r.call(t, &wire.ReadRequest{Table: 1, Key: []byte("k")}).(*wire.ReadResponse)
	if rd.Status != wire.StatusNoSuchKey {
		t.Fatalf("read after delete: %+v", rd)
	}
	d = r.call(t, &wire.DeleteRequest{Table: 1, Key: []byte("k")}).(*wire.DeleteResponse)
	if d.Status != wire.StatusNoSuchKey {
		t.Fatalf("double delete: %+v", d)
	}
}

func TestServerUnownedTablet(t *testing.T) {
	r := newRig(t, Config{})
	rd := r.call(t, &wire.ReadRequest{Table: 1, Key: []byte("k")}).(*wire.ReadResponse)
	if rd.Status != wire.StatusWrongServer {
		t.Fatalf("read unowned: %+v", rd)
	}
	w := r.call(t, &wire.WriteRequest{Table: 1, Key: []byte("k"), Value: []byte("v")}).(*wire.WriteResponse)
	if w.Status != wire.StatusWrongServer {
		t.Fatalf("write unowned: %+v", w)
	}
	if r.srv.Stats().WrongServer.Load() != 2 {
		t.Errorf("WrongServer counter = %d", r.srv.Stats().WrongServer.Load())
	}
}

func TestServerMigratingOutRejectsClientOps(t *testing.T) {
	r := newRig(t, Config{})
	r.srv.RegisterTablet(1, wire.FullRange(), TabletNormal)
	r.call(t, &wire.WriteRequest{Table: 1, Key: []byte("k"), Value: []byte("v")})

	prep := r.call(t, &wire.PrepareMigrationRequest{Table: 1, Range: wire.FullRange(), Target: 11}).(*wire.PrepareMigrationResponse)
	if prep.Status != wire.StatusOK || prep.VersionCeiling == 0 {
		t.Fatalf("prepare: %+v", prep)
	}
	rd := r.call(t, &wire.ReadRequest{Table: 1, Key: []byte("k")}).(*wire.ReadResponse)
	if rd.Status != wire.StatusWrongServer {
		t.Fatalf("read of migrating-out tablet: %+v", rd)
	}
	// Pulls still work.
	pull := r.call(t, &wire.PullRequest{Table: 1, Range: wire.FullRange(), ByteBudget: 1 << 20}).(*wire.PullResponse)
	if pull.Status != wire.StatusOK || len(pull.Records) != 1 || !pull.Done {
		t.Fatalf("pull: %+v", pull)
	}
}

// TestServerMigrateBackKeepsMigratingOut replays a range migrating back
// before the migration that brought it here has finished: this server is
// the target of migration A (MigratingIn) and already the source of
// migration B (prepared, MigratingOut) when A's epilogue flips its own
// MigratingIn entries to Normal. B's state must stand — a server that
// resumed serving the range would acknowledge writes that B's DropTablet
// later throws away.
func TestServerMigrateBackKeepsMigratingOut(t *testing.T) {
	r := newRig(t, Config{})
	r.srv.RegisterTablet(1, wire.FullRange(), TabletMigratingIn)
	prep := r.call(t, &wire.PrepareMigrationRequest{Table: 1, Range: wire.FullRange(), Target: 11}).(*wire.PrepareMigrationResponse)
	if prep.Status != wire.StatusOK {
		t.Fatalf("prepare: %+v", prep)
	}
	if r.srv.SetTabletState(1, wire.FullRange(), TabletMigratingIn, TabletNormal) {
		t.Fatal("A's epilogue changed an entry that was no longer migrating in")
	}
	w := r.call(t, &wire.WriteRequest{Table: 1, Key: []byte("k"), Value: []byte("v")}).(*wire.WriteResponse)
	if w.Status != wire.StatusWrongServer {
		t.Fatalf("write to a range prepared for migration: %+v", w)
	}
}

func TestServerPrepareKeepServing(t *testing.T) {
	r := newRig(t, Config{})
	r.srv.RegisterTablet(1, wire.FullRange(), TabletNormal)
	r.call(t, &wire.WriteRequest{Table: 1, Key: []byte("k"), Value: []byte("v")})
	prep := r.call(t, &wire.PrepareMigrationRequest{Table: 1, Range: wire.FullRange(), Target: 11, KeepServing: true}).(*wire.PrepareMigrationResponse)
	if prep.Status != wire.StatusOK {
		t.Fatalf("prepare: %+v", prep)
	}
	rd := r.call(t, &wire.ReadRequest{Table: 1, Key: []byte("k")}).(*wire.ReadResponse)
	if rd.Status != wire.StatusOK {
		t.Fatalf("keep-serving read: %+v", rd)
	}
}

// TestServerPrepareRequiresWholeRange asks a source that holds [0,99] to
// prepare [0,199]: it must refuse, whether or not it would keep serving,
// and leave its tablets as they were. Once [100,199] is registered too,
// the two adjacent tablets cover the range and the prepare succeeds.
func TestServerPrepareRequiresWholeRange(t *testing.T) {
	r := newRig(t, Config{})
	r.srv.RegisterTablet(1, wire.HashRange{Start: 0, End: 99}, TabletNormal)
	want := wire.HashRange{Start: 0, End: 199}
	before := append([]tabletEntry(nil), r.srv.tabletSnapshot().entries...)
	for _, keep := range []bool{false, true} {
		prep := r.call(t, &wire.PrepareMigrationRequest{Table: 1, Range: want, Target: 11, KeepServing: keep}).(*wire.PrepareMigrationResponse)
		if prep.Status != wire.StatusWrongServer {
			t.Fatalf("prepare of a partly held range (KeepServing=%v): %+v", keep, prep)
		}
		if after := r.srv.tabletSnapshot().entries; !reflect.DeepEqual(after, before) {
			t.Fatalf("refused prepare changed the tablets: %+v, want %+v", after, before)
		}
	}

	r.srv.RegisterTablet(1, wire.HashRange{Start: 100, End: 199}, TabletNormal)
	prep := r.call(t, &wire.PrepareMigrationRequest{Table: 1, Range: want, Target: 11}).(*wire.PrepareMigrationResponse)
	if prep.Status != wire.StatusOK {
		t.Fatalf("prepare over two adjacent tablets: %+v", prep)
	}
	for _, h := range []uint64{0, 99, 100, 199} {
		if state, owned := r.srv.tabletFor(1, h); !owned || state != TabletMigratingOut {
			t.Errorf("hash %d after prepare: state %v owned %v, want migrating out", h, state, owned)
		}
	}
	if _, owned := r.srv.tabletFor(1, 200); owned {
		t.Error("prepare registered hashes beyond the range")
	}
}

func TestServerPrepareCarvesSubRange(t *testing.T) {
	r := newRig(t, Config{})
	r.srv.RegisterTablet(1, wire.FullRange(), TabletNormal)
	// Two keys on opposite halves.
	var loKey, hiKey []byte
	half := wire.FullRange().Split(2)
	for i := 0; loKey == nil || hiKey == nil; i++ {
		k := []byte(fmt.Sprintf("key-%d", i))
		if half[0].Contains(wire.HashKey(k)) {
			if loKey == nil {
				loKey = k
			}
		} else if hiKey == nil {
			hiKey = k
		}
	}
	r.call(t, &wire.WriteRequest{Table: 1, Key: loKey, Value: []byte("lo")})
	r.call(t, &wire.WriteRequest{Table: 1, Key: hiKey, Value: []byte("hi")})

	// Migrate out only the upper half.
	prep := r.call(t, &wire.PrepareMigrationRequest{Table: 1, Range: half[1], Target: 11}).(*wire.PrepareMigrationResponse)
	if prep.Status != wire.StatusOK {
		t.Fatal(prep)
	}
	if rd := r.call(t, &wire.ReadRequest{Table: 1, Key: loKey}).(*wire.ReadResponse); rd.Status != wire.StatusOK {
		t.Fatalf("lower half must keep serving: %+v", rd)
	}
	if rd := r.call(t, &wire.ReadRequest{Table: 1, Key: hiKey}).(*wire.ReadResponse); rd.Status != wire.StatusWrongServer {
		t.Fatalf("upper half must redirect: %+v", rd)
	}
}

func TestServerPullResumeAndBudget(t *testing.T) {
	r := newRig(t, Config{})
	r.srv.RegisterTablet(1, wire.FullRange(), TabletNormal)
	for i := 0; i < 200; i++ {
		r.call(t, &wire.WriteRequest{Table: 1, Key: []byte(fmt.Sprintf("k%03d", i)), Value: bytes.Repeat([]byte("x"), 100)})
	}
	seen := map[string]bool{}
	token := uint64(0)
	pulls := 0
	for {
		pull := r.call(t, &wire.PullRequest{Table: 1, Range: wire.FullRange(), ResumeToken: token, ByteBudget: 2048}).(*wire.PullResponse)
		if pull.Status != wire.StatusOK {
			t.Fatal(pull)
		}
		pulls++
		for _, rec := range pull.Records {
			if seen[string(rec.Key)] {
				t.Fatalf("duplicate record %q", rec.Key)
			}
			seen[string(rec.Key)] = true
		}
		token = pull.ResumeToken
		if pull.Done {
			break
		}
		if pulls > 1000 {
			t.Fatal("pull never completed")
		}
	}
	if len(seen) != 200 {
		t.Fatalf("pulled %d records, want 200", len(seen))
	}
	if pulls < 5 {
		t.Fatalf("budget ignored: only %d pulls", pulls)
	}
}

func TestServerPriorityPull(t *testing.T) {
	r := newRig(t, Config{})
	r.srv.RegisterTablet(1, wire.FullRange(), TabletNormal)
	r.call(t, &wire.WriteRequest{Table: 1, Key: []byte("present"), Value: []byte("v")})
	h1 := wire.HashKey([]byte("present"))
	h2 := wire.HashKey([]byte("absent"))
	pp := r.call(t, &wire.PriorityPullRequest{Table: 1, Hashes: []uint64{h1, h2}}).(*wire.PriorityPullResponse)
	if pp.Status != wire.StatusOK || len(pp.Records) != 1 || len(pp.Missing) != 1 {
		t.Fatalf("prio pull: %+v", pp)
	}
	if pp.Missing[0] != h2 || string(pp.Records[0].Key) != "present" {
		t.Fatalf("prio pull contents: %+v", pp)
	}
}

func TestServerTakeTabletsReplaysWithVersions(t *testing.T) {
	r := newRig(t, Config{})
	recs := []wire.Record{
		{Table: 1, Version: 50, Key: []byte("a"), Value: []byte("v50")},
		{Table: 1, Version: 40, Key: []byte("b"), Value: []byte("v40")},
	}
	resp := r.call(t, &wire.TakeTabletsRequest{Table: 1, Range: wire.FullRange(), Records: recs, VersionCeiling: 60}).(*wire.TakeTabletsResponse)
	if resp.Status != wire.StatusOK {
		t.Fatal(resp)
	}
	rd := r.call(t, &wire.ReadRequest{Table: 1, Key: []byte("a")}).(*wire.ReadResponse)
	if rd.Status != wire.StatusOK || rd.Version != 50 {
		t.Fatalf("read recovered: %+v", rd)
	}
	// New writes must version above the ceiling.
	w := r.call(t, &wire.WriteRequest{Table: 1, Key: []byte("c"), Value: []byte("v")}).(*wire.WriteResponse)
	if w.Version <= 60 {
		t.Fatalf("write version %d not above ceiling", w.Version)
	}
	// Replaying an older duplicate must not clobber.
	dup := []wire.Record{{Table: 1, Version: 45, Key: []byte("a"), Value: []byte("stale")}}
	r.call(t, &wire.TakeTabletsRequest{Table: 1, Range: wire.FullRange(), Records: dup})
	rd = r.call(t, &wire.ReadRequest{Table: 1, Key: []byte("a")}).(*wire.ReadResponse)
	if string(rd.Value) != "v50" {
		t.Fatalf("stale replay clobbered: %q", rd.Value)
	}
}

// A recovery master must not serve a range before its records are in
// place: a replay that fails part-way leaves the range unserved, where an
// early registration answered reads of the replayed half and NoSuchKey for
// the rest.
func TestServerTakeTabletsRegistersAfterReplay(t *testing.T) {
	r := newRig(t, Config{SegmentSize: 4 << 10})
	recs := []wire.Record{
		{Table: 1, Version: 5, Key: []byte("a"), Value: []byte("v")},
		// Larger than a segment: the append fails and the replay stops.
		{Table: 1, Version: 6, Key: []byte("b"), Value: make([]byte, 8<<10)},
	}
	resp := r.call(t, &wire.TakeTabletsRequest{Table: 1, Range: wire.FullRange(), Records: recs}).(*wire.TakeTabletsResponse)
	if resp.Status != wire.StatusInternalError {
		t.Fatalf("take tablets: %+v", resp)
	}
	for _, key := range []string{"a", "b"} {
		rd := r.call(t, &wire.ReadRequest{Table: 1, Key: []byte(key)}).(*wire.ReadResponse)
		if rd.Status != wire.StatusWrongServer {
			t.Fatalf("read %s after a failed replay: %v, want WrongServer", key, rd.Status)
		}
	}
}

func TestServerReplayRecordsBaseline(t *testing.T) {
	r := newRig(t, Config{})
	r.srv.RegisterTablet(1, wire.FullRange(), TabletNormal)
	recs := []wire.Record{{Table: 1, Version: 5, Key: []byte("k"), Value: []byte("v")}}
	resp := r.call(t, &wire.ReplayRecordsRequest{Table: 1, Records: recs}).(*wire.ReplayRecordsResponse)
	if resp.Status != wire.StatusOK {
		t.Fatal(resp)
	}
	rd := r.call(t, &wire.ReadRequest{Table: 1, Key: []byte("k")}).(*wire.ReadResponse)
	if rd.Status != wire.StatusOK || rd.Version != 5 {
		t.Fatalf("read after replay: %+v", rd)
	}
	// SkipReplay drops the batch.
	skip := []wire.Record{{Table: 1, Version: 9, Key: []byte("dropped"), Value: []byte("v")}}
	r.call(t, &wire.ReplayRecordsRequest{Table: 1, Records: skip, SkipReplay: true})
	rd = r.call(t, &wire.ReadRequest{Table: 1, Key: []byte("dropped")}).(*wire.ReadResponse)
	if rd.Status != wire.StatusNoSuchKey {
		t.Fatalf("SkipReplay stored data: %+v", rd)
	}
}

func TestServerPullTail(t *testing.T) {
	r := newRig(t, Config{SegmentSize: 512})
	r.srv.RegisterTablet(1, wire.FullRange(), TabletNormal)
	for i := 0; i < 20; i++ {
		r.call(t, &wire.WriteRequest{Table: 1, Key: []byte(fmt.Sprintf("old-%02d", i)), Value: bytes.Repeat([]byte("o"), 64)})
	}
	// Seal the shard heads so the watermark is exact: open heads are
	// legitimate re-read slop (replay dedups them by version), but this
	// test asserts the filter's precision.
	r.srv.Log().Seal()
	mark := r.srv.Log().TailWatermark()
	for i := 0; i < 5; i++ {
		r.call(t, &wire.WriteRequest{Table: 1, Key: []byte(fmt.Sprintf("new-%d", i)), Value: bytes.Repeat([]byte("n"), 64)})
	}
	tail := r.call(t, &wire.PullTailRequest{Table: 1, Range: wire.FullRange(), AfterEpoch: mark}).(*wire.PullTailResponse)
	if tail.Status != wire.StatusOK {
		t.Fatal(tail)
	}
	for _, rec := range tail.Records {
		if len(rec.Key) >= 3 && string(rec.Key[:3]) == "old" {
			// Old records may appear only if they were appended after the
			// watermark was taken; every old-% write happened before.
			t.Fatalf("tail contains old record %q", rec.Key)
		}
	}
	if len(tail.Records) < 5 {
		t.Fatalf("tail missing new records: %d", len(tail.Records))
	}
}

func TestServerMultiGetMixedStatuses(t *testing.T) {
	r := newRig(t, Config{})
	half := wire.FullRange().Split(2)
	r.srv.RegisterTablet(1, half[0], TabletNormal)
	var owned, unowned []byte
	for i := 0; owned == nil || unowned == nil; i++ {
		k := []byte(fmt.Sprintf("key-%d", i))
		if half[0].Contains(wire.HashKey(k)) {
			if owned == nil {
				owned = k
			}
		} else if unowned == nil {
			unowned = k
		}
	}
	r.call(t, &wire.WriteRequest{Table: 1, Key: owned, Value: []byte("v")})
	mg := r.call(t, &wire.MultiGetRequest{Table: 1, Keys: [][]byte{owned, unowned}}).(*wire.MultiGetResponse)
	if mg.Statuses[0] != wire.StatusOK || mg.Statuses[1] != wire.StatusWrongServer {
		t.Fatalf("multiget statuses: %+v", mg.Statuses)
	}
	if mg.Status != wire.StatusWrongServer {
		t.Fatalf("aggregate status: %v", mg.Status)
	}
}

func TestServerDropTabletDiscardsData(t *testing.T) {
	r := newRig(t, Config{})
	r.srv.RegisterTablet(1, wire.FullRange(), TabletNormal)
	for i := 0; i < 50; i++ {
		r.call(t, &wire.WriteRequest{Table: 1, Key: []byte(fmt.Sprintf("k%d", i)), Value: []byte("v")})
	}
	_, liveBefore, _, _ := r.srv.Log().Stats()
	resp := r.call(t, &wire.DropTabletRequest{Table: 1, Range: wire.FullRange()}).(*wire.DropTabletResponse)
	if resp.Status != wire.StatusOK {
		t.Fatal(resp)
	}
	// The reply means the range is unserved; its records leave in the
	// background, and a join finishes whatever is left of that.
	if read := r.call(t, &wire.ReadRequest{Table: 1, Key: []byte("k0")}).(*wire.ReadResponse); read.Status != wire.StatusWrongServer {
		t.Fatalf("read after drop: %v", read.Status)
	}
	r.srv.finishSweeps(1, wire.FullRange())
	if r.srv.HashTable().Len() != 0 {
		t.Fatalf("hash table still has %d entries", r.srv.HashTable().Len())
	}
	_, liveAfter, _, _ := r.srv.Log().Stats()
	if liveAfter >= liveBefore {
		t.Fatalf("live bytes did not drop: %d -> %d", liveBefore, liveAfter)
	}
}

func TestServerIndexOps(t *testing.T) {
	r := newRig(t, Config{})
	r.call(t, &wire.IndexInsertRequest{Index: 3, SecondaryKey: []byte("bob"), KeyHash: 42})
	r.call(t, &wire.IndexInsertRequest{Index: 3, SecondaryKey: []byte("alice"), KeyHash: 41})
	look := r.call(t, &wire.IndexLookupRequest{Index: 3, Begin: []byte("a"), End: []byte("z"), Limit: 10}).(*wire.IndexLookupResponse)
	if len(look.Hashes) != 2 || look.Hashes[0] != 41 {
		t.Fatalf("lookup: %+v", look)
	}
	r.call(t, &wire.IndexRemoveRequest{Index: 3, SecondaryKey: []byte("bob"), KeyHash: 42})
	look = r.call(t, &wire.IndexLookupRequest{Index: 3, Begin: []byte("a"), End: []byte("z"), Limit: 10}).(*wire.IndexLookupResponse)
	if len(look.Hashes) != 1 {
		t.Fatalf("lookup after remove: %+v", look)
	}
}

func TestServerStatsCounters(t *testing.T) {
	r := newRig(t, Config{})
	r.srv.RegisterTablet(1, wire.FullRange(), TabletNormal)
	r.call(t, &wire.WriteRequest{Table: 1, Key: []byte("k"), Value: []byte("v")})
	r.call(t, &wire.ReadRequest{Table: 1, Key: []byte("k")})
	s := r.srv.Stats()
	if s.Writes.Load() != 1 || s.Reads.Load() != 1 || s.ObjectsRead.Load() != 1 || s.ObjectsWritten.Load() != 1 {
		t.Fatalf("stats: %+v", s)
	}
	// Dispatch pump accounted the traffic.
	if r.srv.Node().DispatchedMessages() < 2 {
		t.Error("dispatch pump counted nothing")
	}
	if r.srv.Scheduler().BusyNanos() <= 0 {
		t.Error("worker busy time not recorded")
	}
}

func TestServerCleanerReclaimsOverwrites(t *testing.T) {
	r := newRig(t, Config{SegmentSize: 2048, CleanerInterval: 5 * time.Millisecond})
	r.srv.RegisterTablet(1, wire.FullRange(), TabletNormal)
	// Write then heavily overwrite: most log bytes become dead.
	for round := 0; round < 6; round++ {
		for i := 0; i < 100; i++ {
			r.call(t, &wire.WriteRequest{Table: 1,
				Key:   []byte(fmt.Sprintf("k%03d", i)),
				Value: bytes.Repeat([]byte{byte(round)}, 64)})
		}
	}
	before := r.srv.Log().SegmentCount()
	deadline := time.Now().Add(3 * time.Second)
	for r.srv.Log().SegmentCount() >= before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := r.srv.Log().SegmentCount(); got >= before {
		t.Fatalf("cleaner never reclaimed segments: %d -> %d", before, got)
	}
	// Data integrity after cleaning.
	for i := 0; i < 100; i++ {
		rd := r.call(t, &wire.ReadRequest{Table: 1, Key: []byte(fmt.Sprintf("k%03d", i))}).(*wire.ReadResponse)
		if rd.Status != wire.StatusOK || len(rd.Value) != 64 || rd.Value[0] != 5 {
			t.Fatalf("key k%03d after cleaning: %+v", i, rd)
		}
	}
}

// lateArrival is a migration handler whose migration finishes while a miss
// is being handled: it replays the missing record and, the migration now
// complete, reports that no migration covers the key.
type lateArrival struct {
	srv *Server
	rec wire.Record
}

func (h *lateArrival) HandleMigrateTablet(context.Context, wire.TableID, wire.HashRange, wire.ServerID) wire.Status {
	return wire.StatusOK
}

func (h *lateArrival) HandleMissingKey(table wire.TableID, hash uint64) (uint32, bool) {
	if _, ok := h.srv.ht.Get(table, h.rec.Key, hash); !ok {
		ref, err := h.srv.log.Append(0, storage.EntryObject, table, h.rec.Version, 0, h.rec.Key, h.rec.Value)
		if err != nil {
			panic(err)
		}
		h.srv.ht.Put(table, h.rec.Key, hash, ref)
	}
	return 0, true
}

func (h *lateArrival) CancelIncoming(wire.TableID, wire.HashRange) {}

// TestServerMissRacingMigrationCompletion: a client op that misses in a
// migrating-in tablet while the migration replays the key and completes
// must not answer that the key is absent.
func TestServerMissRacingMigrationCompletion(t *testing.T) {
	rec := wire.Record{Table: 1, Version: 7, Key: []byte("k"), Value: []byte("v")}
	setup := func() *rig {
		r := newRig(t, Config{})
		r.srv.RegisterTablet(1, wire.FullRange(), TabletMigratingIn)
		r.srv.SetMigrationHandler(&lateArrival{srv: r.srv, rec: rec})
		return r
	}
	if rd := setup().call(t, &wire.ReadRequest{Table: 1, Key: rec.Key}).(*wire.ReadResponse); rd.Status != wire.StatusOK || string(rd.Value) != "v" {
		t.Errorf("read: %v %q, want the replayed record", rd.Status, rd.Value)
	}
	mg := setup().call(t, &wire.MultiGetByHashRequest{Table: 1, Hashes: []uint64{wire.HashKey(rec.Key)}}).(*wire.MultiGetByHashResponse)
	if mg.Status != wire.StatusOK || len(mg.Records) != 1 {
		t.Errorf("multiget by hash: %v with %d records, want the replayed record", mg.Status, len(mg.Records))
	}
	if d := setup().call(t, &wire.DeleteRequest{Table: 1, Key: rec.Key}).(*wire.DeleteResponse); d.Status != wire.StatusRetry {
		t.Errorf("delete: %v, want Retry", d.Status)
	}
}
