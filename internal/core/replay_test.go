package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"rocksteady/internal/server"
	"rocksteady/internal/storage"
	"rocksteady/internal/transport"
	"rocksteady/internal/wire"
)

// oracleReplayRecords is replayRecords as it was before batch replay — one
// append and one PutIfNewer per record — kept as the specification the
// batch path must match.
func oracleReplayRecords(g *Migration, records []wire.Record) {
	srv := g.mgr.srv
	var sl *storage.SideLog
	useSideLogs := !g.opts.DisableSideLogs && !g.opts.SyncRereplication
	if useSideLogs {
		sl = g.takeSideLog()
		defer g.returnSideLog(sl)
	}
	var n, bytes int64
	for i := range records {
		rec := &records[i]
		if rec.Tombstone {
			var tref storage.Ref
			var err error
			srv.ParkTombstones(1)
			if useSideLogs {
				tref, err = sl.AppendTombstone(rec.Table, rec.Version, rec.Key)
			} else {
				tref, err = srv.Log().Append(0, storage.EntryTombstone, rec.Table, rec.Version, 0, rec.Key, nil)
			}
			if err != nil {
				g.fail(err)
				return
			}
			hash := wire.HashKey(rec.Key)
			if prev, stored := srv.HashTable().PutIfNewer(rec.Table, rec.Key, hash, tref, rec.Version); stored {
				storage.MarkDeadRef(prev)
			} else {
				storage.MarkDeadRef(tref)
			}
			continue
		}
		var ref storage.Ref
		var err error
		if useSideLogs {
			ref, err = sl.Append(rec.Table, rec.Version, rec.Key, rec.Value)
		} else {
			ref, err = srv.Log().Append(0, storage.EntryObject, rec.Table, rec.Version, 0, rec.Key, rec.Value)
		}
		if err != nil {
			g.fail(err)
			return
		}
		hash := wire.HashKey(rec.Key)
		if prev, stored := srv.HashTable().PutIfNewer(rec.Table, rec.Key, hash, ref, rec.Version); stored {
			storage.MarkDeadRef(prev)
			n++
			bytes += int64(rec.WireSize())
		} else {
			storage.MarkDeadRef(ref)
		}
	}
	if g.opts.SyncRereplication {
		if err := srv.Replicator().Sync(g.ctx); err != nil {
			g.fail(err)
			return
		}
	}
	g.recordsPulled.Add(n)
	g.bytesPulled.Add(bytes)
}

// replayRig is one target server with a migration that is never started:
// replayRecords is driven directly.
func replayRig(t *testing.T, opts Options) (*server.Server, *Migration) {
	t.Helper()
	f := transport.NewFabric(transport.FabricConfig{})
	// 64 KB segments, so the batches roll side-log segments midway.
	srv := server.New(server.Config{ID: 10, Workers: 2, SegmentSize: 64 << 10, HashTableCapacity: 8192}, f.Attach(10))
	t.Cleanup(srv.Close)
	return srv, newMigration(context.Background(), NewManager(srv, opts), 1, wire.FullRange(), 99)
}

// stripeStraddlingKeys returns keys in the buckets on both sides of a few
// hash-table stripe boundaries (a table has at most 256 stripes).
func stripeStraddlingKeys(ht *storage.HashTable) [][]byte {
	perStripe := ht.NumBuckets() / 256
	want := map[uint64]int{}
	for s := uint64(1); s <= 10; s++ {
		want[s*perStripe-1], want[s*perStripe] = 0, 0
	}
	var keys [][]byte
	for i := 0; len(keys) < 4*len(want); i++ {
		k := []byte(fmt.Sprintf("user%026d", i))
		if n, ok := want[ht.BucketOf(wire.HashKey(k))]; ok && n < 4 {
			want[ht.BucketOf(wire.HashKey(k))]++
			keys = append(keys, k)
		}
	}
	return keys
}

// allSegments returns the server's main-log segments and the migration's
// side-log segments.
func allSegments(srv *server.Server, g *Migration) []*storage.Segment {
	segs := srv.Log().Segments()
	for _, sl := range g.sideLogs {
		segs = append(segs, sl.Segments()...)
	}
	return segs
}

// TestReplayRecordsMatchesPerRecordOracle drives replayRecords and the
// per-record oracle with the same random batches — overwrites and equal
// versions, tombstones, keys on both sides of stripe boundaries, batches
// that roll segments, client writes above the ceiling — and requires the
// same winners, live bytes, parked tombstones and pull counters, with
// epochs rising within every segment.
func TestReplayRecordsMatchesPerRecordOracle(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"side-logs", Options{}},
		{"main-log", Options{DisableSideLogs: true}},
		{"sync-rereplication", Options{SyncRereplication: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 10; seed++ {
				gotSrv, got := replayRig(t, tc.opts)
				wantSrv, want := replayRig(t, tc.opts)
				keys := stripeStraddlingKeys(gotSrv.HashTable())
				for _, k := range keys[:5] {
					for _, srv := range []*server.Server{gotSrv, wantSrv} {
						ref, err := srv.Log().Append(0, storage.EntryObject, 1, 1<<40, 0, k, []byte("client write"))
						if err != nil {
							t.Fatal(err)
						}
						srv.HashTable().Put(1, k, wire.HashKey(k), ref)
					}
				}
				rng := rand.New(rand.NewSource(seed))
				for b := 0; b < 12; b++ {
					recs := make([]wire.Record, 1+rng.Intn(150))
					for i := range recs {
						recs[i] = wire.Record{Table: 1, Version: uint64(50 + rng.Intn(10)), Key: keys[rng.Intn(len(keys))]}
						if rng.Intn(7) == 0 {
							recs[i].Tombstone = true
						} else {
							recs[i].Value = bytes.Repeat([]byte{byte(b)}, rng.Intn(1200))
						}
					}
					if rng.Intn(2) == 0 {
						ht := gotSrv.HashTable()
						sort.SliceStable(recs, func(i, j int) bool {
							return ht.BucketOf(wire.HashKey(recs[i].Key)) < ht.BucketOf(wire.HashKey(recs[j].Key))
						})
					}
					got.replayRecords(recs)
					oracleReplayRecords(want, recs)
				}
				if got.Result().Err != nil || want.Result().Err != nil {
					t.Fatalf("seed %d: replay failed: %v / %v", seed, got.Result().Err, want.Result().Err)
				}
				if g, w := got.Result(), want.Result(); g.RecordsPulled != w.RecordsPulled || g.BytesPulled != w.BytesPulled {
					t.Fatalf("seed %d: pulled %d records %d bytes, oracle %d records %d bytes", seed, g.RecordsPulled, g.BytesPulled, w.RecordsPulled, w.BytesPulled)
				}
				if g, w := gotSrv.ParkedTombstones(), wantSrv.ParkedTombstones(); g != w {
					t.Fatalf("seed %d: parked %d tombstones, oracle %d", seed, g, w)
				}
				for _, k := range keys {
					gr, gok := gotSrv.HashTable().Get(1, k, wire.HashKey(k))
					wr, wok := wantSrv.HashTable().Get(1, k, wire.HashKey(k))
					if gok != wok {
						t.Fatalf("seed %d key %s: present %v, oracle %v", seed, k, gok, wok)
					}
					if !gok {
						continue
					}
					gh, _, gv, gerr := gr.Entry()
					wh, _, wv, werr := wr.Entry()
					if gerr != nil || werr != nil || gh.Type != wh.Type || gh.Version != wh.Version || !bytes.Equal(gv, wv) {
						t.Fatalf("seed %d key %s: winner %v (%v), oracle %v (%v)", seed, k, gh, gerr, wh, werr)
					}
				}
				_, gl, _, _ := gotSrv.Log().Stats()
				_, wl, _, _ := wantSrv.Log().Stats()
				if gl != wl {
					t.Fatalf("seed %d: main log live bytes %d, oracle %d", seed, gl, wl)
				}
				var gLive, wLive int
				gotSegs := allSegments(gotSrv, got)
				for _, s := range gotSegs {
					gLive += s.LiveBytes()
				}
				for _, s := range allSegments(wantSrv, want) {
					wLive += s.LiveBytes()
				}
				if gLive != wLive {
					t.Fatalf("seed %d: segments hold %d live bytes, oracle %d", seed, gLive, wLive)
				}
				for _, seg := range gotSegs {
					last := uint64(0)
					if err := storage.IterateSegmentEntries(seg, func(ref storage.Ref) bool {
						h, err := ref.Header()
						if err != nil || h.Epoch <= last {
							t.Fatalf("seed %d segment %d: epoch %d after %d (%v)", seed, seg.ID, h.Epoch, last, err)
						}
						last = h.Epoch
						return true
					}); err != nil {
						t.Fatal(err)
					}
				}
			}
		})
	}
}
