package backup

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"rocksteady/internal/storage"
	"rocksteady/internal/transport"
	"rocksteady/internal/wire"
)

// replicate writes one chunk through the batch handler, the only replica
// write, and returns the batch status.
func replicate(s *Store, master wire.ServerID, c wire.ReplicateChunk) wire.Status {
	return s.HandleReplicateBatch(&wire.ReplicateBatchRequest{Master: master, Chunks: []wire.ReplicateChunk{c}}).Status
}

func TestStoreReplicateAndFetch(t *testing.T) {
	s := NewStore()
	if st := replicate(s, 5, wire.ReplicateChunk{LogID: 0, SegmentID: 1, Offset: 0, Data: []byte("hello")}); st != wire.StatusOK {
		t.Fatalf("status %v", st)
	}
	// Incremental append.
	if st := replicate(s, 5, wire.ReplicateChunk{LogID: 0, SegmentID: 1, Offset: 5, Data: []byte(" world"), Close: true}); st != wire.StatusOK {
		t.Fatalf("status %v", st)
	}
	resp := s.HandleGetSegments(&wire.GetBackupSegmentsRequest{Master: 5})
	if len(resp.Segments) != 1 || !bytes.Equal(resp.Segments[0].Data, []byte("hello world")) {
		t.Fatalf("segments %+v", resp.Segments)
	}
	if s.BytesWritten() != 11 {
		t.Errorf("BytesWritten = %d", s.BytesWritten())
	}
	// Another master's data is invisible.
	if resp := s.HandleGetSegments(&wire.GetBackupSegmentsRequest{Master: 6}); len(resp.Segments) != 0 {
		t.Error("cross-master leak")
	}
}

func TestStoreRejectsGapsAndClosedWrites(t *testing.T) {
	s := NewStore()
	if st := replicate(s, 1, wire.ReplicateChunk{SegmentID: 1, Offset: 0, Data: []byte("abc")}); st != wire.StatusOK {
		t.Fatal(st)
	}
	// Gap: offset beyond current length.
	if st := replicate(s, 1, wire.ReplicateChunk{SegmentID: 1, Offset: 10, Data: []byte("x")}); st == wire.StatusOK {
		t.Error("gap accepted")
	}
	// Idempotent prefix rewrite is fine.
	if st := replicate(s, 1, wire.ReplicateChunk{SegmentID: 1, Offset: 0, Data: []byte("abcde")}); st != wire.StatusOK {
		t.Error("prefix rewrite rejected")
	}
	// Close, then further data is rejected.
	if st := replicate(s, 1, wire.ReplicateChunk{SegmentID: 1, Offset: 5, Close: true}); st != wire.StatusOK {
		t.Error("close rejected")
	}
	if st := replicate(s, 1, wire.ReplicateChunk{SegmentID: 1, Offset: 5, Data: []byte("zz")}); st == wire.StatusOK {
		t.Error("write after close accepted")
	}
}

func TestStoreDrop(t *testing.T) {
	s := NewStore()
	replicate(s, 1, wire.ReplicateChunk{SegmentID: 1, Data: []byte("a")})
	replicate(s, 2, wire.ReplicateChunk{SegmentID: 1, Data: []byte("b")})
	s.Drop(1)
	if resp := s.HandleGetSegments(&wire.GetBackupSegmentsRequest{Master: 1}); len(resp.Segments) != 0 {
		t.Error("drop incomplete")
	}
	if resp := s.HandleGetSegments(&wire.GetBackupSegmentsRequest{Master: 2}); len(resp.Segments) != 1 {
		t.Error("drop removed wrong master")
	}
}

func TestStoreThrottle(t *testing.T) {
	s := NewStore()
	s.WriteBandwidth = 1 << 20 // 1 MB/s
	start := time.Now()
	for i := 0; i < 4; i++ {
		replicate(s, 1, wire.ReplicateChunk{SegmentID: uint64(i), Data: make([]byte, 256<<10)})
	}
	// 1 MB at 1 MB/s should take close to a second.
	if el := time.Since(start); el < 500*time.Millisecond {
		t.Errorf("throttle too weak: %v", el)
	}
}

// backupRig wires a replicator to real backup services over a fabric.
type backupRig struct {
	fabric  *transport.Fabric
	master  *transport.Node
	ids     []wire.ServerID
	backups []*Store
	repl    *Replicator

	mu   sync.Mutex
	rpcs []rigRPC // every replication request the backups received
}

// rigRPC is one replication request as a backup received it.
type rigRPC struct {
	backup wire.ServerID
	chunks []rigChunk
}

type rigChunk struct {
	segID  uint64
	offset uint32
	n      int
}

func newBackupRig(t *testing.T, nBackups, factor int) *backupRig {
	t.Helper()
	f := transport.NewFabric(transport.FabricConfig{})
	rig := &backupRig{fabric: f}
	for i := 0; i < nBackups; i++ {
		id := wire.ServerID(100 + i)
		rig.ids = append(rig.ids, id)
		store := NewStore()
		rig.backups = append(rig.backups, store)
		node := transport.NewNode(f.Attach(id))
		node.SetHandler(func(m *wire.Message) {
			req, ok := m.Body.(*wire.ReplicateBatchRequest)
			if !ok {
				return
			}
			rpc := rigRPC{backup: id}
			for _, c := range req.Chunks {
				rpc.chunks = append(rpc.chunks, rigChunk{c.SegmentID, c.Offset, len(c.Data)})
			}
			rig.mu.Lock()
			rig.rpcs = append(rig.rpcs, rpc)
			rig.mu.Unlock()
			node.Reply(m, store.HandleReplicateBatch(req))
		})
		node.Start()
		t.Cleanup(node.Close)
	}
	rig.master = transport.NewNode(f.Attach(1))
	rig.master.Start()
	t.Cleanup(rig.master.Close)
	rig.repl = NewReplicator(rig.master, 1, rig.ids, factor)
	return rig
}

// received returns a snapshot of the requests the backups received.
func (rig *backupRig) received() []rigRPC {
	rig.mu.Lock()
	defer rig.mu.Unlock()
	return append([]rigRPC(nil), rig.rpcs...)
}

// store returns the backup store behind a backup ID.
func (rig *backupRig) store(id wire.ServerID) *Store { return rig.backups[id-100] }

// holds reports whether backup id holds seg's full contents, byte for byte
// from offset 0.
func (rig *backupRig) holds(id wire.ServerID, seg *storage.Segment) bool {
	data, _, ok := rig.store(id).Backend().Read(1, seg.LogID, seg.ID)
	return ok && bytes.Equal(data, seg.Data(0, seg.Len()))
}

func TestReplicatorSyncDurability(t *testing.T) {
	rig := newBackupRig(t, 3, 2)
	log := storage.NewShardedLog(4096, 1, rig.repl.OnAppend)
	for i := 0; i < 50; i++ {
		if _, _, err := log.AppendObject(1, []byte(fmt.Sprintf("k%02d", i)), []byte("value")); err != nil {
			t.Fatal(err)
		}
	}
	if err := rig.repl.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	// With factor 2 of 3 backups, total replica bytes = 2 x appended.
	_, _, appended, _ := log.Stats()
	var total int64
	for _, b := range rig.backups {
		total += b.BytesWritten()
	}
	if total != 2*appended {
		t.Errorf("replica bytes %d, want %d", total, 2*appended)
	}
	if rig.repl.BytesSent() != 2*appended {
		t.Errorf("BytesSent %d, want %d", rig.repl.BytesSent(), 2*appended)
	}
}

func TestReplicatorGroupCommit(t *testing.T) {
	rig := newBackupRig(t, 1, 1)
	log := storage.NewShardedLog(1<<20, 1, rig.repl.OnAppend)
	done := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func(w int) {
			for i := 0; i < 20; i++ {
				if _, _, err := log.AppendObject(1, []byte(fmt.Sprintf("w%d-%d", w, i)), []byte("v")); err != nil {
					done <- err
					return
				}
				if err := rig.repl.Sync(context.Background()); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(w)
	}
	for w := 0; w < 8; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	_, _, appended, _ := log.Stats()
	if rig.backups[0].BytesWritten() != appended {
		t.Errorf("backup has %d bytes, want %d", rig.backups[0].BytesWritten(), appended)
	}
}

func TestReplicatorSurvivesBackupFailure(t *testing.T) {
	rig := newBackupRig(t, 3, 2)
	log := storage.NewShardedLog(4096, 1, rig.repl.OnAppend)
	rig.repl.SetSegmentResolver(func(logID, segID uint64) *storage.Segment {
		seg, _ := log.Segment(segID)
		return seg
	})
	if _, _, err := log.AppendObject(1, []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := rig.repl.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Kill one backup; replication must keep succeeding on survivors.
	rig.fabric.Kill(100)
	for i := 0; i < 20; i++ {
		if _, _, err := log.AppendObject(1, []byte(fmt.Sprintf("post-%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if err := rig.repl.Sync(context.Background()); err != nil {
			t.Fatalf("sync after backup death: %v", err)
		}
	}
}

func TestReplicatorDisabled(t *testing.T) {
	r := NewReplicator(nil, 1, nil, 3)
	if r.Enabled() {
		t.Fatal("nil replicator enabled")
	}
	if err := r.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	r.OnAppend(storage.AppendEvent{}) // must not panic
	if err := r.ReplicateSegments(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
}

func TestReplicateSegmentsWhole(t *testing.T) {
	rig := newBackupRig(t, 2, 1)
	log := storage.NewShardedLog(4096, 1, nil) // side-log style: no streaming
	sl := log.NewSideLog(7)
	for i := 0; i < 30; i++ {
		v := log.NextVersion()
		if _, err := sl.Append(1, v, []byte(fmt.Sprintf("s%02d", i)), []byte("vv")); err != nil {
			t.Fatal(err)
		}
	}
	segs := sl.Segments()
	if err := rig.repl.ReplicateSegments(context.Background(), segs); err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, b := range rig.backups {
		total += b.BytesWritten()
	}
	var want int64
	for _, s := range segs {
		want += int64(s.Len())
		if !rig.holds(rig.repl.backupsFor(s.ID)[0], s) {
			t.Errorf("segment %d not replicated whole", s.ID)
		}
	}
	if total != want {
		t.Errorf("replicated %d bytes, want %d", total, want)
	}
}

// sideLogSegments fills a side log of a 1 KB-segment log until it spans at
// least n segments and returns them.
func sideLogSegments(t *testing.T, n int) []*storage.Segment {
	t.Helper()
	log := storage.NewShardedLog(1024, 1, nil) // side-log style: no streaming
	sl := log.NewSideLog(7)
	for i := 0; len(sl.Segments()) < n; i++ {
		if _, err := sl.Append(1, log.NextVersion(), []byte(fmt.Sprintf("s%03d", i)), []byte("vv")); err != nil {
			t.Fatal(err)
		}
	}
	return sl.Segments()
}

// TestReplicatorFailoverResendsOpenSegment: with one replica, losing the
// backup that holds the open segment re-sends the segment whole, so the
// survivor holds it from offset 0.
func TestReplicatorFailoverResendsOpenSegment(t *testing.T) {
	rig := newBackupRig(t, 2, 1)
	log := storage.NewShardedLog(4096, 1, rig.repl.OnAppend)
	rig.repl.SetSegmentResolver(func(logID, segID uint64) *storage.Segment {
		seg, _ := log.Segment(segID)
		return seg
	})
	ref, _, err := log.AppendObject(1, []byte("first"), []byte("v"))
	if err != nil {
		t.Fatal(err)
	}
	if err := rig.repl.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	seg := ref.Seg
	holder, survivor := rig.ids[0], rig.ids[1]
	if !rig.holds(holder, seg) {
		holder, survivor = survivor, holder
	}
	rig.fabric.Kill(holder)
	for i := 0; i < 5; i++ {
		if _, _, err := log.AppendObject(1, []byte(fmt.Sprintf("post-%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := rig.repl.Sync(context.Background()); err != nil {
		t.Fatalf("sync after losing the open segment's backup: %v", err)
	}
	if log.SegmentCount() != 1 || !rig.holds(survivor, seg) {
		t.Fatal("survivor does not hold the open segment from offset 0")
	}
}

// TestReplicateSegmentsFailover: a side-log segment whose only replica's
// backup is dead lands whole on the survivor.
func TestReplicateSegmentsFailover(t *testing.T) {
	rig := newBackupRig(t, 2, 1)
	segs := sideLogSegments(t, 3)
	rig.fabric.Kill(rig.ids[0])
	if err := rig.repl.ReplicateSegments(context.Background(), segs); err != nil {
		t.Fatal(err)
	}
	for _, seg := range segs {
		if !rig.holds(rig.ids[1], seg) {
			t.Errorf("survivor lacks side-log segment %d", seg.ID)
		}
	}
}

// TestFlushResendsSegmentWholeOnce: interleaved appends on two shards
// split one segment into two chunks of one flush. When that segment's
// only backup dies, failover re-sends the segment whole once, not once
// per failed chunk.
func TestFlushResendsSegmentWholeOnce(t *testing.T) {
	rig := newBackupRig(t, 2, 1)
	log := storage.NewShardedLog(1<<20, 2, rig.repl.OnAppend)
	rig.repl.SetSegmentResolver(func(logID, segID uint64) *storage.Segment {
		seg, _ := log.Segment(segID)
		return seg
	})
	var refs []storage.Ref
	for i, w := range []int{0, 1, 0} {
		ref, err := log.Append(w, storage.EntryObject, 1, log.NextVersion(), 0, []byte(fmt.Sprintf("k%d", i)), []byte("v"))
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, ref)
	}
	seg := refs[0].Seg
	if refs[2].Seg != seg || refs[1].Seg == seg {
		t.Fatal("appends did not interleave two shards' segments")
	}
	dead := rig.repl.backupsFor(seg.ID)[0]
	survivor := rig.ids[0]
	if survivor == dead {
		survivor = rig.ids[1]
	}
	rig.fabric.Kill(dead)
	if err := rig.repl.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := rig.repl.FlushStats(); st.Flushes != 1 || st.Chunks != 3 {
		t.Fatalf("flush stats %+v, want 1 flush of 3 chunks", st)
	}
	resent := 0
	for _, rpc := range rig.received() {
		for _, c := range rpc.chunks {
			if c.segID != seg.ID {
				continue
			}
			resent++
			if rpc.backup != survivor || c.offset != 0 || c.n != seg.Len() {
				t.Errorf("segment %d re-sent as %+v to %v, want whole to %v", seg.ID, c, rpc.backup, survivor)
			}
		}
	}
	if resent != 1 {
		t.Fatalf("segment %d re-sent %d times, want once", seg.ID, resent)
	}
	if !rig.holds(survivor, seg) {
		t.Fatal("survivor does not hold the segment byte for byte")
	}
}

// TestReplicateSegmentsOneRPCPerSegmentReplica pins the shape of lazy
// re-replication: one one-chunk request per (segment, replica), each the
// whole segment — never one large batch per backup, which would hold a
// backup worker for the whole transfer.
func TestReplicateSegmentsOneRPCPerSegmentReplica(t *testing.T) {
	rig := newBackupRig(t, 3, 2)
	segs := sideLogSegments(t, 4)
	if err := rig.repl.ReplicateSegments(context.Background(), segs); err != nil {
		t.Fatal(err)
	}
	rpcs := rig.received()
	if len(rpcs) != 2*len(segs) {
		t.Fatalf("%d RPCs for %d segments at factor 2, want %d", len(rpcs), len(segs), 2*len(segs))
	}
	replicas := make(map[uint64]int)
	for _, rpc := range rpcs {
		if len(rpc.chunks) != 1 || rpc.chunks[0].offset != 0 {
			t.Fatalf("request to %v carries %+v, want one whole segment", rpc.backup, rpc.chunks)
		}
		replicas[rpc.chunks[0].segID]++
	}
	for _, seg := range segs {
		if replicas[seg.ID] != 2 {
			t.Errorf("segment %d sent to %d replicas, want 2", seg.ID, replicas[seg.ID])
		}
		for _, id := range rig.repl.backupsFor(seg.ID) {
			if !rig.holds(id, seg) {
				t.Errorf("backup %v lacks segment %d", id, seg.ID)
			}
		}
	}
	if st := rig.repl.FlushStats(); st.Flushes != 0 || st.RPCs != 0 {
		t.Errorf("ReplicateSegments counted as group commit: %+v", st)
	}
}

// TestReplicateSegmentsCancelledMarksNoBackupDead: RPCs that fail because
// the caller's own context ended say nothing about the backups, so none
// is excluded from later placement.
func TestReplicateSegmentsCancelledMarksNoBackupDead(t *testing.T) {
	rig := newBackupRig(t, 2, 1)
	segs := sideLogSegments(t, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := rig.repl.ReplicateSegments(ctx, segs); err == nil {
		t.Fatal("replication under a cancelled context succeeded")
	}
	for _, seg := range segs {
		if got := rig.repl.backupsFor(seg.ID); len(got) != 1 {
			t.Fatalf("segment %d has %d live backups after a cancelled call, want 1", seg.ID, len(got))
		}
	}
	if err := rig.repl.ReplicateSegments(context.Background(), segs); err != nil {
		t.Fatal(err)
	}
}
