// Package recovery implements crash recovery replay: reconstructing a
// crashed master's live records from its backup segment replicas, and the
// multi-log variant (§3.4) where a lineage dependency forces the records
// of a migration peer's recovery-log tail to be replayed along with the
// crashed server's own log.
//
// The replay itself is pure: segments in, newest-wins records out. The
// cluster coordinator drives it (internal/coordinator).
package recovery

import (
	"bytes"
	"cmp"
	"slices"
	"sort"

	"rocksteady/internal/storage"
	"rocksteady/internal/wire"
)

// hashKey is the key hash replay files each key under. Tests replace it to
// force distinct keys onto one (table, hash).
var hashKey = wire.HashKey

// expectedEntryBytes sizes the replay state from the replica bytes: one
// key per entry of the paper's record shape (§4.1: 30 B keys, 100 B
// values). Overwrites and deletes leave the state larger than needed;
// smaller entries make it grow by doubling.
const expectedEntryBytes = storage.EntryHeaderSize + 30 + 100

// keyState tracks the newest fact known about one key during replay. Its
// key and value alias the replica bytes they were parsed from.
type keyState struct {
	table   wire.TableID
	hash    uint64
	version uint64
	epoch   uint64
	entry   []byte // key followed by value, clipped to their length
	keyLen  uint16
	deleted bool
}

func (st *keyState) key() []byte { return st.entry[:st.keyLen:st.keyLen] }

// Replayer folds log segments into the newest version of every record.
// Feed it segments from any number of logs (a crashed master's main log,
// its side logs, and — under a lineage dependency — a peer's log tail);
// versions order updates globally because a migration target always issues
// versions above the source's ceiling.
//
// The records a Replayer returns alias the replica bytes it was fed; the
// caller keeps those bytes unchanged while it uses the records.
type Replayer struct {
	// Filter restricts replay to matching records; nil accepts all.
	Filter func(table wire.TableID, keyHash uint64) bool

	// epochFloor, while non-zero, drops entries whose append epoch is at
	// or below it (set transiently by AddBackupSegmentsAbove).
	epochFloor uint64

	// states holds one entry per distinct key, in first-seen order. slots
	// indexes it by (table, key hash) with open addressing: a slot holds
	// the top 32 bits of the key's hash above 1 + a states index, 0 when
	// free, so a probe reads a state only when the hash bits match. Keys
	// that share a (table, hash) take successive probe positions and are
	// told apart by their bytes.
	states  []keyState
	slots   []uint64
	ceiling uint64

	// Malformed counts entries that failed checksum or structural checks
	// (torn tail writes are expected and skipped).
	Malformed int
	// Entries counts entries scanned.
	Entries int
	// Bytes counts replica bytes scanned.
	Bytes int
}

// NewReplayer creates an empty replayer.
func NewReplayer(filter func(table wire.TableID, keyHash uint64) bool) *Replayer {
	return &Replayer{Filter: filter}
}

// reserve sizes the state for about bytes more replica bytes, so that the
// scan appends to it without allocating per entry.
func (r *Replayer) reserve(bytes int) {
	n := len(r.states) + bytes/expectedEntryBytes + 1
	r.states = slices.Grow(r.states, n-len(r.states))
	r.growSlots(n)
}

// growSlots makes the index at least twice n slots and re-files every
// state if it had to grow.
func (r *Replayer) growSlots(n int) {
	size := 16
	for size < 2*n {
		size <<= 1
	}
	if size <= len(r.slots) {
		return
	}
	r.slots = make([]uint64, size)
	mask := uint64(size - 1)
	for i := range r.states {
		st := &r.states[i]
		j := slotOf(st.table, st.hash, mask)
		for r.slots[j] != 0 {
			j = (j + 1) & mask
		}
		r.slots[j] = slotValue(st.hash, i)
	}
}

func slotOf(table wire.TableID, hash, mask uint64) uint64 {
	return (hash ^ uint64(table)*0x9e3779b97f4a7c15) & mask
}

func slotValue(hash uint64, i int) uint64 { return hash&^0xffffffff | uint64(i+1) }

// lookup returns the slot of key: the one holding its state, or the free
// slot where it belongs.
func (r *Replayer) lookup(table wire.TableID, hash uint64, key []byte) uint64 {
	mask := uint64(len(r.slots) - 1)
	j := slotOf(table, hash, mask)
	for {
		s := r.slots[j]
		if s == 0 {
			return j
		}
		if (s^hash)>>32 == 0 {
			st := &r.states[uint32(s)-1]
			if st.hash == hash && st.table == table && bytes.Equal(st.key(), key) {
				return j
			}
		}
		j = (j + 1) & mask
	}
}

// AddSegment scans one backup segment replica. Torn entries at the tail
// (partial final write) stop the scan of that segment, matching log
// semantics: everything before the tear was durable.
func (r *Replayer) AddSegment(data []byte) {
	r.Bytes += len(data)
	off := 0
	for off < len(data) {
		h, key, value, err := storage.ParseEntryAt(data[off:])
		if err != nil {
			r.Malformed++
			return
		}
		r.Entries++
		r.apply(h, key, value)
		off += h.Size()
	}
}

func (r *Replayer) apply(h storage.EntryHeader, key, value []byte) {
	switch h.Type {
	case storage.EntryObject, storage.EntryTombstone:
	default:
		return // side-log commit markers carry no data
	}
	if r.epochFloor != 0 && h.Epoch <= r.epochFloor {
		return
	}
	hash := hashKey(key)
	if r.Filter != nil && !r.Filter(h.Table, hash) {
		return
	}
	r.ceiling = max(r.ceiling, h.Version)
	if 2*(len(r.states)+1) > len(r.slots) {
		r.growSlots(len(r.states) + 1)
	}
	j := r.lookup(h.Table, hash, key)
	var st *keyState
	if s := r.slots[j]; s != 0 {
		st = &r.states[uint32(s)-1]
		// Newest version wins; equal versions (a cleaner-relocated copy,
		// or the same record observed through two logs) are ordered by
		// append epoch, so the outcome is independent of the order
		// segments are fed in — sharded log heads interleave appends
		// across segments arbitrarily.
		if h.Version < st.version || (h.Version == st.version && h.Epoch < st.epoch) {
			return
		}
	} else {
		if len(r.states) == cap(r.states) {
			r.states = slices.Grow(r.states, len(r.states)+1)
		}
		r.slots[j] = slotValue(hash, len(r.states))
		r.states = append(r.states, keyState{table: h.Table, hash: hash})
		st = &r.states[len(r.states)-1]
	}
	n := len(key) + len(value) // value follows key in the entry
	st.version = h.Version
	st.epoch = h.Epoch
	st.entry = key[:n:n]
	st.keyLen = uint16(len(key))
	st.deleted = h.Type == storage.EntryTombstone
}

// AddBackupSegments scans a set of replicas, deduplicating by
// (logID, segmentID): multiple backups hold copies of the same segment.
func (r *Replayer) AddBackupSegments(segs []wire.BackupSegment) {
	type segKey struct{ logID, segID uint64 }
	seen := make(map[segKey][]byte, len(segs))
	keys := make([]segKey, 0, len(segs))
	for _, s := range segs {
		k := segKey{s.LogID, s.SegmentID}
		if prev, ok := seen[k]; !ok || len(s.Data) > len(prev) {
			if !ok {
				keys = append(keys, k)
			}
			seen[k] = s.Data
		}
	}
	// Replay in segment-ID order for determinism (versions make order
	// immaterial for correctness).
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].logID != keys[j].logID {
			return keys[i].logID < keys[j].logID
		}
		return keys[i].segID < keys[j].segID
	})
	total := 0
	for _, data := range seen {
		total += len(data)
	}
	r.reserve(total)
	for _, k := range keys {
		r.AddSegment(seen[k])
	}
}

// AddBackupSegmentsAbove is AddBackupSegments restricted to entries whose
// append epoch exceeds floor. This is the §3.4 lineage replay of a
// migration target's log *tail*: the dependency's watermark scopes replay
// to what the target logged after taking ownership, so stale records from
// an earlier ownership of the same range (a rebalancer migrating a tablet
// back to a former master) can never resurrect. A floor of zero replays
// everything — the watermark of a target whose log was empty at transfer.
func (r *Replayer) AddBackupSegmentsAbove(segs []wire.BackupSegment, floor uint64) {
	r.epochFloor = floor
	r.AddBackupSegments(segs)
	r.epochFloor = 0
}

// Live returns every surviving record (deletions folded away), sorted by
// (table, key hash) for deterministic output, plus the highest version
// observed (the recovered master's version ceiling).
func (r *Replayer) Live() (records []wire.Record, versionCeiling uint64) {
	return r.live(false)
}

// LiveWithTombstones additionally emits a tombstone record for every key
// whose newest fact is a deletion. Recovery paths that install onto a
// master which may still hold *older* copies of the keys — the migration
// source re-assuming a tablet after its target died (§3.4) — need them:
// folding deletions away would resurrect the source's pre-migration copy
// of any record the target deleted.
func (r *Replayer) LiveWithTombstones() (records []wire.Record, versionCeiling uint64) {
	return r.live(true)
}

func (r *Replayer) live(tombstones bool) ([]wire.Record, uint64) {
	s := r.Sorted(tombstones)
	return s.Records, s.Ceiling
}

// Sorted is a replay's output in (table, key hash) order, so that the
// records of any one tablet are a contiguous run.
type Sorted struct {
	Records []wire.Record
	// Ceiling is the highest version replayed across all tables and
	// ranges: at least the ceiling of any one tablet.
	Ceiling uint64
	hashes  []uint64 // hashes[i] is the key hash of Records[i]
}

// Sorted returns the surviving records (with a tombstone record for every
// key whose newest fact is a deletion if tombstones is set) sorted by
// (table, key hash, key), and the version ceiling.
func (r *Replayer) Sorted(tombstones bool) *Sorted {
	type ref struct {
		table wire.TableID
		hash  uint64
		i     int
	}
	order := make([]ref, 0, len(r.states))
	for i := range r.states {
		if st := &r.states[i]; tombstones || !st.deleted {
			order = append(order, ref{st.table, st.hash, i})
		}
	}
	slices.SortFunc(order, func(a, b ref) int {
		if a.table != b.table {
			return cmp.Compare(a.table, b.table)
		}
		if a.hash != b.hash {
			return cmp.Compare(a.hash, b.hash)
		}
		return bytes.Compare(r.states[a.i].key(), r.states[b.i].key())
	})
	s := &Sorted{Ceiling: r.ceiling}
	if len(order) == 0 {
		return s
	}
	s.Records = make([]wire.Record, len(order))
	s.hashes = make([]uint64, len(order))
	for i, o := range order {
		st := &r.states[o.i]
		rec := wire.Record{Table: st.table, Version: st.version, Key: st.key(), Tombstone: st.deleted}
		if !st.deleted {
			rec.Value = st.entry[st.keyLen:]
		}
		s.Records[i] = rec
		s.hashes[i] = st.hash
	}
	return s
}

// Tablet returns the records of one tablet. The slice is clipped to its
// length, so appending to it copies instead of writing into the records
// of the next tablet.
func (s *Sorted) Tablet(table wire.TableID, rng wire.HashRange) []wire.Record {
	before := func(i int, t wire.TableID, h uint64) bool {
		return s.Records[i].Table < t || (s.Records[i].Table == t && s.hashes[i] < h)
	}
	lo := sort.Search(len(s.Records), func(i int) bool { return !before(i, table, rng.Start) })
	hi := lo + sort.Search(len(s.Records)-lo, func(i int) bool {
		i += lo
		return s.Records[i].Table > table || s.hashes[i] > rng.End
	})
	return s.Records[lo:hi:hi]
}
