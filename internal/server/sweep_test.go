package server

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"rocksteady/internal/transport"
	"rocksteady/internal/wire"
)

// sweepKeys is enough records that a range sweep spans many steps.
const sweepKeys = 2000

// blockWorkers occupies every worker of s until release is called, so
// that background sweep steps stay queued.
func blockWorkers(s *Server) (release func()) {
	var started sync.WaitGroup
	gate := make(chan struct{})
	for i := 0; i < s.sched.Workers(); i++ {
		started.Add(1)
		s.sched.Enqueue(wire.PriorityForeground, func() {
			started.Done()
			<-gate
		})
	}
	started.Wait()
	return func() { close(gate) }
}

func pendingSweeps(s *Server) int {
	s.sweepMu.Lock()
	defer s.sweepMu.Unlock()
	return len(s.sweeps)
}

// writeKeys writes sweepKeys records prefix0..prefixN straight into s.
func writeKeys(t *testing.T, s *Server, prefix, value string) {
	t.Helper()
	st := s.stats.shard(-1)
	for i := 0; i < sweepKeys; i++ {
		key := []byte(fmt.Sprintf("%s%d", prefix, i))
		if _, status := s.applyWrite(st, 1, key, wire.HashKey(key), []byte(value)); status != wire.StatusOK {
			t.Fatalf("write %s: %v", key, status)
		}
	}
}

// readKeys checks every prefix0..prefixN reads back as value.
func readKeys(t *testing.T, r *rig, prefix, value string) {
	t.Helper()
	for i := 0; i < sweepKeys; i++ {
		key := fmt.Sprintf("%s%d", prefix, i)
		resp := r.call(t, &wire.ReadRequest{Table: 1, Key: []byte(key)}).(*wire.ReadResponse)
		if resp.Status != wire.StatusOK || string(resp.Value) != value {
			t.Fatalf("read %s: %v %q, want %q", key, resp.Status, resp.Value, value)
		}
	}
}

// A range dropped and registered again at once: the drop's sweep is still
// pending when the registration comes, and must not reach the records
// written after it.
func TestDropThenReregisterKeepsNewWrites(t *testing.T) {
	r := newRig(t, Config{HashTableCapacity: 1 << 16})
	s := r.srv
	s.RegisterTablet(1, wire.FullRange(), TabletNormal)
	writeKeys(t, s, "old", "v")

	release := blockWorkers(s)
	s.handleDropTablet(&wire.DropTabletRequest{Table: 1, Range: wire.FullRange()})
	if n := pendingSweeps(s); n != 1 {
		t.Fatalf("%d sweeps pending after the drop, want 1", n)
	}
	s.RegisterTablet(1, wire.FullRange(), TabletNormal)
	writeKeys(t, s, "new", "v2")
	release()
	// Whatever is left of the drop's sweep is finished here at the
	// latest; a sweep that was not joined in time sweeps the new records.
	s.finishSweeps(1, wire.FullRange())

	readKeys(t, r, "new", "v2")
	resp := r.call(t, &wire.ReadRequest{Table: 1, Key: []byte("old0")}).(*wire.ReadResponse)
	if resp.Status != wire.StatusNoSuchKey {
		t.Fatalf("dropped record reads %v", resp.Status)
	}
}

// Recovery replays a range into this server while the sweep of its
// earlier drop is still pending: every recovered record must read back.
func TestTakeTabletsJoinsPendingSweep(t *testing.T) {
	r := newRig(t, Config{HashTableCapacity: 1 << 16})
	s := r.srv
	s.RegisterTablet(1, wire.FullRange(), TabletNormal)
	writeKeys(t, s, "k", "v")

	release := blockWorkers(s)
	s.handleDropTablet(&wire.DropTabletRequest{Table: 1, Range: wire.FullRange()})
	recs := make([]wire.Record, sweepKeys)
	for i := range recs {
		recs[i] = wire.Record{Table: 1, Key: []byte(fmt.Sprintf("k%d", i)), Value: []byte("recovered"), Version: uint64(1_000_000 + i)}
	}
	resp := s.handleTakeTablets(context.Background(), s.stats.shard(-1), &wire.TakeTabletsRequest{
		Table: 1, Range: wire.FullRange(), Records: recs,
	})
	if resp.Status != wire.StatusOK {
		t.Fatalf("take tablets: %v", resp.Status)
	}
	release()
	// Whatever is left of the drop's sweep is finished here at the
	// latest; a sweep that was not joined in time sweeps the new records.
	s.finishSweeps(1, wire.FullRange())
	readKeys(t, r, "k", "recovered")
}

// Close discards the queued steps of a pending sweep and returns at once;
// a join afterwards does the whole sweep itself instead of waiting for
// steps that will never run.
func TestCloseWithPendingSweep(t *testing.T) {
	f := transport.NewFabric(transport.FabricConfig{})
	s := New(Config{ID: 10, Workers: 2, HashTableCapacity: 1 << 16}, f.Attach(10))
	s.RegisterTablet(1, wire.FullRange(), TabletNormal)
	writeKeys(t, s, "k", "v")

	release := blockWorkers(s)
	s.handleDropTablet(&wire.DropTabletRequest{Table: 1, Range: wire.FullRange()})
	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	// Let the workers go only once Close has discarded the queued step.
	for deadline := time.Now().Add(5 * time.Second); s.sched.QueuedTasks() > 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			release()
			t.Fatal("Close did not discard the queued sweep step")
		}
	}
	release()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return with a sweep pending")
	}
	if s.HashTable().Len() == 0 {
		t.Fatal("the sweep ran after Close discarded it")
	}

	joined := make(chan struct{})
	go func() {
		s.finishSweeps(1, wire.FullRange())
		close(joined)
	}()
	select {
	case <-joined:
	case <-time.After(5 * time.Second):
		t.Fatal("a join after Close waited on the discarded steps")
	}
	if n := s.HashTable().Len(); n != 0 {
		t.Fatalf("%d entries left after the join", n)
	}
	if n := pendingSweeps(s); n != 0 {
		t.Fatalf("%d sweeps pending after the join", n)
	}
}

// Records pushed by a source-driven migration land in a range whose sweep
// is still pending; once the range is registered, every one reads back.
func TestReplayRecordsJoinsPendingSweep(t *testing.T) {
	r := newRig(t, Config{HashTableCapacity: 1 << 16})
	s := r.srv
	s.RegisterTablet(1, wire.FullRange(), TabletNormal)
	writeKeys(t, s, "k", "v")

	release := blockWorkers(s)
	s.handleDropTablet(&wire.DropTabletRequest{Table: 1, Range: wire.FullRange()})
	recs := make([]wire.Record, sweepKeys)
	for i := range recs {
		recs[i] = wire.Record{Table: 1, Key: []byte(fmt.Sprintf("k%d", i)), Value: []byte("pushed"), Version: uint64(1_000_000 + i)}
	}
	resp := s.handleReplayRecords(context.Background(), s.stats.shard(-1), &wire.ReplayRecordsRequest{Table: 1, Records: recs})
	if resp.Status != wire.StatusOK {
		t.Fatalf("replay records: %v", resp.Status)
	}
	s.RegisterTablet(1, wire.FullRange(), TabletNormal)
	release()
	// Whatever is left of the drop's sweep is finished here at the
	// latest; a sweep that was not joined in time sweeps the new records.
	s.finishSweeps(1, wire.FullRange())
	readKeys(t, r, "k", "pushed")
}

// DropTablet called in process finishes its sweep before it returns, even
// when no worker is free to run a background step.
func TestDropTabletSweepsBeforeReturning(t *testing.T) {
	r := newRig(t, Config{HashTableCapacity: 1 << 16})
	s := r.srv
	s.RegisterTablet(1, wire.FullRange(), TabletNormal)
	writeKeys(t, s, "k", "v")

	release := blockWorkers(s)
	defer release()
	s.DropTablet(1, wire.FullRange())
	if n := s.HashTable().Len(); n != 0 {
		t.Fatalf("%d entries left after DropTablet", n)
	}
	if n := pendingSweeps(s); n != 0 {
		t.Fatalf("%d sweeps pending after DropTablet", n)
	}
}

// Background steps and several joiners share one sweep's cursor: together
// they sweep every record once and leave nothing pending.
func TestConcurrentJoinersShareSweep(t *testing.T) {
	r := newRig(t, Config{HashTableCapacity: 1 << 16})
	s := r.srv
	s.RegisterTablet(1, wire.FullRange(), TabletNormal)
	writeKeys(t, s, "k", "v")

	s.handleDropTablet(&wire.DropTabletRequest{Table: 1, Range: wire.FullRange()})
	var joiners sync.WaitGroup
	for i := 0; i < 4; i++ {
		joiners.Add(1)
		go func() {
			defer joiners.Done()
			s.finishSweeps(1, wire.FullRange())
		}()
	}
	joiners.Wait()
	if n := s.HashTable().Len(); n != 0 {
		t.Fatalf("%d entries left after the joins", n)
	}
	if n := pendingSweeps(s); n != 0 {
		t.Fatalf("%d sweeps pending after the joins", n)
	}
	_, live, _, _ := s.Log().Stats()
	if live != 0 {
		t.Fatalf("%d live log bytes after the sweep", live)
	}
}
