package recovery

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"rocksteady/internal/storage"
	"rocksteady/internal/wire"
)

// oracleReplayer is the per-tablet filtered replay that one-pass recovery
// replaced: a map from (table, key) to the newest fact, with fresh copies
// of every key and value, filtered on each entry's key hash. Recovery ran
// one of these per tablet; the tests below hold one pass plus Tablet to
// the same per-tablet output.
type oracleReplayer struct {
	filter  func(table wire.TableID, keyHash uint64) bool
	state   map[string]*oracleState
	entries int
}

type oracleState struct {
	version, epoch uint64
	record         wire.Record
}

func newOracle(filter func(wire.TableID, uint64) bool) *oracleReplayer {
	return &oracleReplayer{filter: filter, state: make(map[string]*oracleState)}
}

func (o *oracleReplayer) addSegment(data []byte) {
	for off := 0; off < len(data); {
		h, key, value, err := storage.ParseEntryAt(data[off:])
		if err != nil {
			return
		}
		o.entries++
		off += h.Size()
		if h.Type != storage.EntryObject && h.Type != storage.EntryTombstone {
			continue
		}
		if o.filter != nil && !o.filter(h.Table, hashKey(key)) {
			continue
		}
		sk := fmt.Sprintf("%d/%s", h.Table, key)
		st := o.state[sk]
		if st == nil {
			st = &oracleState{}
			o.state[sk] = st
		}
		if h.Version < st.version || (h.Version == st.version && h.Epoch < st.epoch) {
			continue
		}
		st.version, st.epoch = h.Version, h.Epoch
		rec := wire.Record{Table: h.Table, Version: h.Version, Key: bytes.Clone(key), Tombstone: h.Type == storage.EntryTombstone}
		if !rec.Tombstone {
			rec.Value = append([]byte{}, value...)
		}
		st.record = rec
	}
}

func (o *oracleReplayer) addBackupSegments(segs []wire.BackupSegment) {
	type segKey struct{ logID, segID uint64 }
	seen := make(map[segKey][]byte)
	var keys []segKey
	for _, s := range segs {
		k := segKey{s.LogID, s.SegmentID}
		if prev, ok := seen[k]; !ok || len(s.Data) > len(prev) {
			if !ok {
				keys = append(keys, k)
			}
			seen[k] = s.Data
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].logID != keys[j].logID {
			return keys[i].logID < keys[j].logID
		}
		return keys[i].segID < keys[j].segID
	})
	for _, k := range keys {
		o.addSegment(seen[k])
	}
}

func (o *oracleReplayer) live(tombstones bool) (records []wire.Record, ceiling uint64) {
	for _, st := range o.state {
		ceiling = max(ceiling, st.version)
		if st.record.Tombstone && !tombstones {
			continue
		}
		records = append(records, st.record)
	}
	// The parent sorted by key hash alone, which leaves keys sharing a
	// hash in map order; order them by key as one-pass replay does.
	slices.SortFunc(records, func(a, b wire.Record) int {
		if c := cmp.Compare(hashKey(a.Key), hashKey(b.Key)); c != 0 {
			return c
		}
		return bytes.Compare(a.Key, b.Key)
	})
	return records, ceiling
}

// collideKeys makes hashKey file "twin-a" and "twin-b" under one hash
// for the rest of the test.
func collideKeys(t *testing.T) {
	t.Cleanup(func() { hashKey = wire.HashKey })
	hashKey = func(key []byte) uint64 {
		if string(key) == "twin-b" {
			key = []byte("twin-a")
		}
		return wire.HashKey(key)
	}
}

// randomReplicas writes a random history into a sharded log and returns
// its segments as backups would hand them over: every segment on one to
// three backups, some replicas short of the tail (at an entry boundary or
// torn mid-entry), in shuffled order. It also returns the number of
// entries in the longest replica of each segment.
func randomReplicas(rng *rand.Rand, tables int) ([]wire.BackupSegment, int) {
	l := storage.NewShardedLog(512+rng.Intn(1024), 1+rng.Intn(3), nil)
	keys := []string{"twin-a", "twin-b"}
	for i := 0; i < 30; i++ {
		keys = append(keys, fmt.Sprintf("key-%d", i))
	}
	last := make(map[string]uint64) // newest version written per table/key
	var version uint64
	for op := 0; op < 400; op++ {
		table := wire.TableID(1 + rng.Intn(tables))
		key := keys[rng.Intn(len(keys))]
		lk := fmt.Sprintf("%d/%s", table, key)
		version++
		v := version
		if prev, ok := last[lk]; ok && rng.Intn(8) == 0 {
			v = prev // the same version again, told apart by its epoch
		}
		last[lk] = v
		typ, value := storage.EntryObject, []byte(fmt.Sprintf("v%d-%s", op, bytes.Repeat([]byte{'x'}, rng.Intn(40))))
		if rng.Intn(5) == 0 {
			typ, value = storage.EntryTombstone, nil
		}
		if _, err := l.Append(rng.Intn(3), typ, table, v, 0, []byte(key), value); err != nil {
			panic(err)
		}
	}
	var segs []wire.BackupSegment
	entries := 0
	for _, s := range l.Segments() {
		data := bytes.Clone(s.Data(0, s.Len()))
		var ends []int
		for off := 0; off < len(data); {
			h, _, _, err := storage.ParseEntryAt(data[off:])
			if err != nil {
				panic(err)
			}
			off += h.Size()
			ends = append(ends, off)
		}
		longest := 0
		for copies := 1 + rng.Intn(3); copies > 0; copies-- {
			n := len(data)
			switch rng.Intn(4) {
			case 0: // short of the tail at an entry boundary
				n = ends[rng.Intn(len(ends))]
			case 1: // torn inside an entry
				n = rng.Intn(len(data) + 1)
			}
			longest = max(longest, n)
			segs = append(segs, wire.BackupSegment{LogID: storage.MainLogID, SegmentID: s.ID, Data: data[:n:n]})
		}
		for _, end := range ends {
			if end <= longest {
				entries++
			}
		}
	}
	rng.Shuffle(len(segs), func(i, j int) { segs[i], segs[j] = segs[j], segs[i] })
	return segs, entries
}

// splitAtKeys cuts the hash space at the hashes of n random keys of
// randomReplicas' pool, so that some keys sit on a tablet's last hash and
// others on a tablet's first.
func splitAtKeys(rng *rand.Rand, n int) []wire.HashRange {
	var cuts []uint64 // the last hash of each tablet but the last
	for i := 0; i < n; i++ {
		h := hashKey([]byte(fmt.Sprintf("key-%d", rng.Intn(30))))
		if rng.Intn(2) == 0 {
			h-- // the key starts the next tablet
		}
		if h != ^uint64(0) {
			cuts = append(cuts, h)
		}
	}
	slices.Sort(cuts)
	cuts = slices.Compact(cuts)
	var out []wire.HashRange
	start := uint64(0)
	for _, c := range cuts {
		out = append(out, wire.HashRange{Start: start, End: c})
		start = c + 1
	}
	return append(out, wire.HashRange{Start: start, End: ^uint64(0)})
}

func sameRecords(a, b []wire.Record) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d records, want %d", len(a), len(b))
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Table != y.Table || x.Version != y.Version || x.Tombstone != y.Tombstone ||
			!bytes.Equal(x.Key, y.Key) || !bytes.Equal(x.Value, y.Value) {
			return fmt.Errorf("record %d = %+v, want %+v", i, x, y)
		}
	}
	return nil
}

// TestOnePassMatchesPerTabletReplay: one replay of a master's replicas,
// cut into tablets by Tablet, gives every tablet the records, tombstones
// and ceiling that a replay filtered to that tablet gives, over random
// histories with overwrites, deletes, version ties, short and torn
// replicas, and two keys that share a (table, hash). The ceiling is the
// master-wide one: at least every tablet's. Each deduplicated entry is
// scanned once, whatever the number of tablets.
func TestOnePassMatchesPerTabletReplay(t *testing.T) {
	collideKeys(t)
	if hashKey([]byte("twin-a")) != hashKey([]byte("twin-b")) {
		t.Fatal("the twin keys do not share a hash")
	}
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tables := 1 + rng.Intn(3)
		segs, entries := randomReplicas(rng, tables)

		var tablets []wire.Tablet
		for table := 1; table <= tables; table++ {
			for _, r := range splitAtKeys(rng, rng.Intn(5)) {
				tablets = append(tablets, wire.Tablet{Table: wire.TableID(table), Range: r})
			}
		}

		rep := NewReplayer(nil)
		rep.AddBackupSegments(segs)
		if rep.Entries != entries {
			t.Fatalf("seed %d: scanned %d entries, want the %d of the deduplicated replicas", seed, rep.Entries, entries)
		}
		whole := newOracle(nil)
		whole.addBackupSegments(segs)
		_, wholeCeiling := whole.live(true)

		for _, tombstones := range []bool{false, true} {
			sorted := rep.Sorted(tombstones)
			if sorted.Ceiling != wholeCeiling {
				t.Fatalf("seed %d: ceiling %d, want the master-wide %d", seed, sorted.Ceiling, wholeCeiling)
			}
			covered := 0
			for _, tb := range tablets {
				oracle := newOracle(func(table wire.TableID, h uint64) bool {
					return table == tb.Table && tb.Range.Contains(h)
				})
				oracle.addBackupSegments(segs)
				want, ceiling := oracle.live(tombstones)
				got := sorted.Tablet(tb.Table, tb.Range)
				if err := sameRecords(got, want); err != nil {
					t.Fatalf("seed %d, tablet %v %v, tombstones %v: %v", seed, tb.Table, tb.Range, tombstones, err)
				}
				if cap(got) != len(got) {
					t.Fatalf("seed %d: tablet slice has capacity %d beyond its %d records", seed, cap(got), len(got))
				}
				if ceiling > sorted.Ceiling {
					t.Fatalf("seed %d: tablet ceiling %d above the master-wide %d", seed, ceiling, sorted.Ceiling)
				}
				if oracle.entries != rep.Entries {
					t.Fatalf("seed %d: the filtered replay scanned %d entries, one pass %d", seed, oracle.entries, rep.Entries)
				}
				covered += len(got)
			}
			if covered != len(sorted.Records) {
				t.Fatalf("seed %d: tablets hold %d of %d records", seed, covered, len(sorted.Records))
			}
			plain, ceiling := rep.live(tombstones)
			if err := sameRecords(plain, sorted.Records); err != nil || ceiling != sorted.Ceiling {
				t.Fatalf("seed %d: live(%v) differs from Sorted: %v", seed, tombstones, err)
			}
		}
	}
}

// TestSortedTwinKeysKeptApart: two keys of one table that share a hash
// stay two records, each with its own newest value, and land in the same
// tablet.
func TestSortedTwinKeysKeptApart(t *testing.T) {
	collideKeys(t)
	segs := buildSegments(t, func(l *storage.Log) {
		_, _ = l.Append(0, storage.EntryObject, 1, 1, 0, []byte("twin-a"), []byte("a1"))
		_, _ = l.Append(0, storage.EntryObject, 1, 2, 0, []byte("twin-b"), []byte("b1"))
		_, _ = l.Append(0, storage.EntryObject, 1, 3, 0, []byte("twin-a"), []byte("a2"))
		_, _ = l.Append(0, storage.EntryTombstone, 1, 4, 0, []byte("twin-b"), nil)
	})
	r := NewReplayer(nil)
	r.AddBackupSegments(segs)
	h := hashKey([]byte("twin-a"))
	got := r.Sorted(true).Tablet(1, wire.HashRange{Start: h, End: h})
	want := []wire.Record{
		{Table: 1, Version: 3, Key: []byte("twin-a"), Value: []byte("a2")},
		{Table: 1, Version: 4, Key: []byte("twin-b"), Tombstone: true},
	}
	if err := sameRecords(got, want); err != nil {
		t.Fatal(err)
	}
}
