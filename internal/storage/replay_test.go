package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"rocksteady/internal/wire"
)

// oracleReplay is the per-record replay that Log.Replay replaced, kept as
// the specification Replay must match: one Append and one PutIfNewer per
// record, in batch order.
func oracleReplay(l *Log, w int, ht *HashTable, recs []wire.Record, opt ReplayOptions) (ReplayResult, error) {
	var res ReplayResult
	markDead := MarkDeadRef
	if opt.LogDead {
		markDead = l.MarkDead
	}
	for i := range recs {
		rec := &recs[i]
		typ, value := EntryObject, rec.Value
		if rec.Tombstone {
			if opt.SkipTombstones {
				continue
			}
			typ, value = EntryTombstone, nil
			res.Tombstones++
		}
		ref, err := l.Append(w, typ, rec.Table, rec.Version, 0, rec.Key, value)
		if err != nil {
			return res, err
		}
		prev, stored := ht.PutIfNewer(rec.Table, rec.Key, wire.HashKey(rec.Key), ref, rec.Version)
		if !stored {
			markDead(ref)
			continue
		}
		markDead(prev)
		if !rec.Tombstone {
			res.Stored++
			res.StoredBytes += int64(rec.WireSize())
		}
	}
	return res, nil
}

// replayWorld is one master's log, side log and hash table.
type replayWorld struct {
	log  *Log
	side *SideLog
	ht   *HashTable
}

// newReplayWorld uses 4 KB segments, so batches roll segments midway, and
// a table of 1024 buckets in 256 stripes, so a stripe spans 4 buckets.
func newReplayWorld() *replayWorld {
	l := NewShardedLog(4<<10, 2, nil)
	return &replayWorld{log: l, side: l.NewSideLog(7), ht: NewHashTable(4096)}
}

// replayKeys returns keys that straddle stripe boundaries: for each of a
// few stripe boundaries, keys in the last bucket before it and the first
// bucket after it.
func replayKeys(ht *HashTable) [][]byte {
	perStripe := uint64(1) << ht.stripeShift
	var keys [][]byte
	want := map[uint64]int{}
	for s := uint64(1); s <= 12; s++ {
		want[s*perStripe-1], want[s*perStripe] = 0, 0
	}
	for i := 0; len(keys) < 4*len(want); i++ {
		k := []byte(fmt.Sprintf("replay-key-%d", i))
		b := ht.BucketOf(wire.HashKey(k))
		if n, ok := want[b]; ok && n < 4 {
			want[b]++
			keys = append(keys, k)
		}
	}
	return keys
}

// randomBatch draws n records over keys: overwrites within the batch,
// versions from a narrow band (so equal versions occur), about one
// tombstone in six, values from empty to a few hundred bytes. Half the
// batches are sorted into bucket order, as Pull batches arrive.
func randomBatch(rng *rand.Rand, ht *HashTable, keys [][]byte, n int) []wire.Record {
	recs := make([]wire.Record, n)
	for i := range recs {
		k := keys[rng.Intn(len(keys))]
		recs[i] = wire.Record{Table: 1, Version: uint64(100 + rng.Intn(20)), Key: k}
		if rng.Intn(6) == 0 {
			recs[i].Tombstone = true
		} else {
			recs[i].Value = bytes.Repeat([]byte{byte('a' + rng.Intn(26))}, rng.Intn(300))
		}
	}
	if rng.Intn(2) == 0 {
		sort.SliceStable(recs, func(i, j int) bool {
			return ht.BucketOf(wire.HashKey(recs[i].Key)) < ht.BucketOf(wire.HashKey(recs[j].Key))
		})
	}
	return recs
}

// checkEpochsRise fails unless epochs rise strictly within every segment.
func checkEpochsRise(t *testing.T, segs []*Segment) {
	t.Helper()
	for _, seg := range segs {
		last := uint64(0)
		if err := iterateSegment(seg, seg.Len(), func(_ uint32, h EntryHeader) bool {
			if h.Epoch <= last {
				t.Fatalf("segment %d: epoch %d after %d", seg.ID, h.Epoch, last)
			}
			last = h.Epoch
			return true
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// segmentsLive sums the live-byte counts of segs.
func segmentsLive(segs []*Segment) int64 {
	var n int64
	for _, s := range segs {
		n += int64(s.LiveBytes())
	}
	return n
}

// TestReplayMatchesPerRecordOracle feeds Replay and the per-record oracle
// the same random batches, into a side log and into the main log, and
// requires the same winners, live bytes, counts and statistics, with
// epochs rising in every segment.
func TestReplayMatchesPerRecordOracle(t *testing.T) {
	for _, tc := range []struct {
		name string
		side bool
		opt  ReplayOptions
	}{
		{"side-log", true, ReplayOptions{}},
		{"main-log", false, ReplayOptions{}},
		{"main-log-dead", false, ReplayOptions{LogDead: true}},
		{"skip-tombstones", false, ReplayOptions{SkipTombstones: true, LogDead: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 20; seed++ {
				rng := rand.New(rand.NewSource(seed))
				got, want := newReplayWorld(), newReplayWorld()
				keys := replayKeys(got.ht)
				// Client writes above the ceiling: newer than any replayed
				// version, so the replayed copies must lose.
				for _, k := range keys[:4] {
					for _, w := range []*replayWorld{got, want} {
						ref, err := w.log.Append(1, EntryObject, 1, 1000, 0, k, []byte("client"))
						if err != nil {
							t.Fatal(err)
						}
						w.ht.Put(1, k, wire.HashKey(k), ref)
					}
				}
				var gotRes, wantRes ReplayResult
				for b := 0; b < 8; b++ {
					recs := randomBatch(rng, got.ht, keys, 1+rng.Intn(60))
					var g, o ReplayResult
					var gerr, oerr error
					if tc.side {
						g, gerr = got.side.Replay(got.ht, recs, tc.opt)
						o, oerr = oracleReplay(want.side.log, 0, want.ht, recs, tc.opt)
					} else {
						g, gerr = got.log.Replay(b, got.ht, recs, tc.opt)
						o, oerr = oracleReplay(want.log, b, want.ht, recs, tc.opt)
					}
					if gerr != nil || oerr != nil {
						t.Fatalf("seed %d batch %d: %v / %v", seed, b, gerr, oerr)
					}
					gotRes.Stored += g.Stored
					gotRes.StoredBytes += g.StoredBytes
					gotRes.Tombstones += g.Tombstones
					wantRes.Stored += o.Stored
					wantRes.StoredBytes += o.StoredBytes
					wantRes.Tombstones += o.Tombstones
				}
				if gotRes != wantRes {
					t.Fatalf("seed %d: result %+v, oracle %+v", seed, gotRes, wantRes)
				}
				for _, k := range keys {
					gr, gok := got.ht.Get(1, k, wire.HashKey(k))
					wr, wok := want.ht.Get(1, k, wire.HashKey(k))
					if gok != wok {
						t.Fatalf("seed %d key %s: present %v, oracle %v", seed, k, gok, wok)
					}
					if !gok {
						continue
					}
					gh, _, gv, gerr := gr.Entry()
					wh, _, wv, werr := wr.Entry()
					if gerr != nil || werr != nil || gh.Type != wh.Type || gh.Version != wh.Version || !bytes.Equal(gv, wv) {
						t.Fatalf("seed %d key %s: winner %v %q (%v), oracle %v %q (%v)", seed, k, gh, gv, gerr, wh, wv, werr)
					}
				}
				for _, pair := range [][2]*Log{{got.log, want.log}, {got.side.log, want.side.log}} {
					ge, gl, ga, _ := pair[0].Stats()
					we, wl, wa, _ := pair[1].Stats()
					if ge != we || gl != wl || ga != wa {
						t.Fatalf("seed %d log %d: stats %d/%d/%d, oracle %d/%d/%d", seed, pair[0].ID, ge, gl, ga, we, wl, wa)
					}
					if g, w := segmentsLive(pair[0].Segments()), segmentsLive(pair[1].Segments()); g != w {
						t.Fatalf("seed %d log %d: segments hold %d live bytes, oracle %d", seed, pair[0].ID, g, w)
					}
					checkEpochsRise(t, pair[0].Segments())
				}
			}
		})
	}
}

// TestReplayRollsSegmentMidBatch: a batch larger than what is left of the
// head segment spills into new segments, every entry stays readable, and
// the rolled segments carry their live bytes.
func TestReplayRollsSegmentMidBatch(t *testing.T) {
	w := newReplayWorld()
	var recs []wire.Record
	for i := 0; i < 100; i++ {
		recs = append(recs, wire.Record{Table: 1, Version: 5, Key: []byte(fmt.Sprintf("k%03d", i)), Value: bytes.Repeat([]byte("v"), 100)})
	}
	res, err := w.side.Replay(w.ht, recs, ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stored != 100 {
		t.Fatalf("stored %d of 100", res.Stored)
	}
	segs := w.side.Segments()
	if len(segs) < 3 {
		t.Fatalf("a %d-byte batch in 4 KB segments used %d segments", 100*EntrySize(4, 100), len(segs))
	}
	if got, want := segmentsLive(segs), int64(100*EntrySize(4, 100)); got != want {
		t.Fatalf("segments hold %d live bytes, want %d", got, want)
	}
	for _, rec := range recs {
		ref, ok := w.ht.Get(1, rec.Key, wire.HashKey(rec.Key))
		if !ok {
			t.Fatalf("%s not linked", rec.Key)
		}
		if _, _, v, err := ref.Entry(); err != nil || !bytes.Equal(v, rec.Value) {
			t.Fatalf("%s: %q, %v", rec.Key, v, err)
		}
	}
	checkEpochsRise(t, segs)
}

// TestReplayFailsWhole: a batch holding a record too large for a segment,
// or replayed into a closed log or a committed side log, appends nothing.
func TestReplayFailsWhole(t *testing.T) {
	w := newReplayWorld()
	recs := []wire.Record{
		{Table: 1, Version: 1, Key: []byte("small"), Value: []byte("v")},
		{Table: 1, Version: 1, Key: []byte("huge"), Value: make([]byte, 8<<10)},
	}
	if _, err := w.log.Replay(0, w.ht, recs, ReplayOptions{}); err == nil {
		t.Fatal("oversized record replayed")
	}
	w.log.Close()
	if _, err := w.log.Replay(0, w.ht, recs[:1], ReplayOptions{}); err != ErrLogClosed {
		t.Fatalf("replay into a closed log: %v", err)
	}
	if e, _, _, _ := w.log.Stats(); e != 0 || w.ht.Len() != 0 {
		t.Fatalf("a failed batch left %d entries, %d links", e, w.ht.Len())
	}
	w = newReplayWorld()
	if err := w.side.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.side.Replay(w.ht, recs[:1], ReplayOptions{}); err == nil || w.ht.Len() != 0 {
		t.Fatalf("replay into a committed side log: %v, %d links", err, w.ht.Len())
	}
}

// oracleScanRange is ScanRange as it was before the touch pass: the
// specification the touched scan must match ref for ref.
func oracleScanRange(t *HashTable, table wire.TableID, rng wire.HashRange, startBucket uint64, visit func(ref Ref) bool) (next uint64, done bool) {
	first := t.BucketOf(rng.Start)
	last := t.BucketOf(rng.End)
	bi := first
	if startBucket > bi {
		bi = startBucket
	}
	for ; bi <= last; bi++ {
		st := t.stripeOf(bi)
		st.mu.RLock()
		keepGoing := true
		for b := &t.buckets[bi]; b != nil; b = b.overflow.Load() {
			for i := range b.slots {
				s := &b.slots[i]
				if s.empty() || !rng.Contains(s.hash.Load()) {
					continue
				}
				ref := s.loadRef()
				if h, err := ref.Header(); err != nil || h.Table != table {
					continue
				}
				if !visit(ref) {
					keepGoing = false
				}
			}
		}
		st.mu.RUnlock()
		if !keepGoing {
			return bi + 1, bi == last
		}
	}
	return last + 1, true
}

// scanFixture fills one log into two identical tables: two tables' worth
// of entries, overflow chains included (the table is sized for a tenth of
// what it holds).
func scanFixture(t *testing.T) (*HashTable, *HashTable) {
	l := NewShardedLog(1<<20, 1, nil)
	a, b := NewHashTable(256), NewHashTable(256)
	for i := 0; i < 2500; i++ {
		table := wire.TableID(1 + i%2)
		k := fmt.Sprintf("scan-%05d", i)
		ref, _, err := l.AppendObject(table, []byte(k), bytes.Repeat([]byte("x"), i%200))
		if err != nil {
			t.Fatal(err)
		}
		a.Put(table, []byte(k), wire.HashKey([]byte(k)), ref)
		b.Put(table, []byte(k), wire.HashKey([]byte(k)), ref)
	}
	return a, b
}

// TestScanRangeMatchesOracle: over random ranges and byte budgets, the
// scan visits the same refs with the same resume tokens as before the
// touch pass, and hands each visit the entry's own header.
func TestScanRangeMatchesOracle(t *testing.T) {
	ht, _ := scanFixture(t)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		lo, hi := rng.Uint64(), rng.Uint64()
		if lo > hi {
			lo, hi = hi, lo
		}
		r := wire.HashRange{Start: lo, End: hi}
		budget := 1 + rng.Intn(40)
		for token, done := uint64(0), false; !done; {
			var got, want []Ref
			n := 0
			next, fin := ht.ScanRange(1, r, token, func(ref Ref, h EntryHeader) bool {
				if rh, err := ref.Header(); err != nil || rh != h {
					t.Fatalf("visit header %v, entry header %v (%v)", h, rh, err)
				}
				got = append(got, ref)
				n++
				return n < budget
			})
			n = 0
			wnext, wfin := oracleScanRange(ht, 1, r, token, func(ref Ref) bool {
				want = append(want, ref)
				n++
				return n < budget
			})
			if next != wnext || fin != wfin || len(got) != len(want) {
				t.Fatalf("trial %d token %d: (%d, %v, %d refs), oracle (%d, %v, %d refs)", trial, token, next, fin, len(got), wnext, wfin, len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trial %d token %d: ref %d differs", trial, token, i)
				}
			}
			token, done = next, fin
		}
	}
}

// TestRemoveRangeMatchesOracle: over random ranges, RemoveRange removes
// the same refs in the same order as the untouched sweep (the oracle walks
// the same buckets and slots under the write lock) and leaves the same
// entries behind.
func TestRemoveRangeMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		got, want := scanFixture(t)
		lo, hi := rng.Uint64(), rng.Uint64()
		if lo > hi {
			lo, hi = hi, lo
		}
		r := wire.HashRange{Start: lo, End: hi}
		var gotRefs, wantRefs []Ref
		n := got.RemoveRange(1, r, func(ref Ref) { gotRefs = append(gotRefs, ref) })
		// The oracle: every in-range entry of table 1, in bucket and slot
		// order, as the sweep visited them before the touch pass.
		oracleScanRange(want, 1, r, 0, func(ref Ref) bool {
			wantRefs = append(wantRefs, ref)
			return true
		})
		if n != len(wantRefs) || len(gotRefs) != len(wantRefs) {
			t.Fatalf("trial %d: removed %d (%d visits), oracle %d", trial, n, len(gotRefs), len(wantRefs))
		}
		for i := range gotRefs {
			if gotRefs[i] != wantRefs[i] {
				t.Fatalf("trial %d: removal %d differs", trial, i)
			}
		}
		if c, _ := got.CountRange(1, r); c != 0 {
			t.Fatalf("trial %d: %d entries left in range", trial, c)
		}
		if got.Len() != want.Len()-n {
			t.Fatalf("trial %d: %d entries left, want %d", trial, got.Len(), want.Len()-n)
		}
	}
}
