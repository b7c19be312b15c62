package storage

import (
	"errors"
	"sync"

	"rocksteady/internal/wire"
)

// errTooLarge reports an entry that cannot fit in any segment.
var errTooLarge = errors.New("storage: entry exceeds segment size")

// ReplayOptions selects how Replay treats a batch.
type ReplayOptions struct {
	// SkipTombstones drops tombstone records instead of parking them in
	// the hash table.
	SkipTombstones bool
	// LogDead also takes the bytes of entries the batch makes dead off the
	// log's live-byte count. Without it only their segments' counts drop
	// (as MarkDeadRef does), which migration replay wants: the entry a
	// record replaces may sit in another worker's side log.
	LogDead bool
}

// ReplayResult counts what one Replay did.
type ReplayResult struct {
	// Stored counts the object records that took effect and StoredBytes
	// their wire sizes; a record that lost the version race to a newer or
	// equal copy counts for neither.
	Stored      int64
	StoredBytes int64
	// Tombstones counts the tombstones parked in the hash table.
	Tombstones int64
}

// replayScratch carries one batch's per-record key hashes, entry sizes and
// refs between Replay's phases. It is pooled, so a replay that rolls no
// segment allocates nothing.
type replayScratch struct {
	hashes []uint64
	sizes  []int32 // 0: the record is skipped
	refs   []Ref
}

var replayScratchPool = sync.Pool{New: func() any { return new(replayScratch) }}

func getReplayScratch(n int) *replayScratch {
	sc := replayScratchPool.Get().(*replayScratch)
	if cap(sc.refs) < n {
		sc.hashes = make([]uint64, n)
		sc.sizes = make([]int32, n)
		sc.refs = make([]Ref, n)
	}
	sc.hashes, sc.sizes, sc.refs = sc.hashes[:n], sc.sizes[:n], sc.refs[:n]
	return sc
}

// putReplayScratch returns sc to the pool, dropping its segment pointers
// so a pooled scratch keeps no cleaned segment alive.
func putReplayScratch(sc *replayScratch) {
	clear(sc.refs)
	replayScratchPool.Put(sc)
}

// Replay appends a batch of records to the log through shard w (wrapped
// like Append's) and links each into ht with PutIfNewer's rule, in batch
// order. A tombstone record is appended as a tombstone and parked in ht,
// so an older copy that arrives later loses the version race; with
// opt.SkipTombstones it is dropped instead.
//
// The batch costs what one record did, once: one shard-lock hold, one
// block of epochs (so epochs rise within every segment, as with Append),
// and one statistics update. AppendEvents still go out one per entry, in
// order, under the lock. Each key is hashed once, and the hash table is
// written one stripe write section per run of same-stripe keys
// (HashTable.linkBatch). Before any of that, the batch's key and value
// bytes are touched (touchRecords): a Pull batch aliases the source's log,
// and its lines are misses that are cheaper taken together than one by
// one during the copy.
//
// A batch holding a record too large for a segment, or replayed into a
// closed log, fails before anything is appended.
func (l *Log) Replay(w int, ht *HashTable, recs []wire.Record, opt ReplayOptions) (ReplayResult, error) {
	var res ReplayResult
	sc := getReplayScratch(len(recs))
	defer putReplayScratch(sc)
	_ = touchRecords(recs)
	entries, total := 0, 0
	for i := range recs {
		rec := &recs[i]
		sc.sizes[i] = 0
		if rec.Tombstone && opt.SkipTombstones {
			continue
		}
		size := EntrySize(len(rec.Key), len(rec.Value))
		if rec.Tombstone {
			size = EntrySize(len(rec.Key), 0)
		}
		if size > l.segSize {
			return res, errTooLarge
		}
		sc.sizes[i] = int32(size)
		sc.hashes[i] = wire.HashKey(rec.Key)
		entries++
		total += size
	}
	if entries == 0 {
		return res, nil
	}
	if w < 0 {
		w = 0
	}
	sh := &l.shards[w%len(l.shards)]
	sh.mu.Lock()
	if l.closed.Load() {
		sh.mu.Unlock()
		return res, ErrLogClosed
	}
	epoch := l.epochCounter.Add(uint64(entries)) - uint64(entries)
	var seg *Segment
	segLive := 0
	for i := range recs {
		size := int(sc.sizes[i])
		if size == 0 {
			continue
		}
		if head := l.headLocked(sh, size); head != seg {
			if seg != nil {
				seg.addLive(segLive)
			}
			seg, segLive = head, 0
		}
		rec := &recs[i]
		epoch++
		h := EntryHeader{Type: EntryObject, Table: rec.Table, Version: rec.Version, Epoch: epoch}
		value := rec.Value
		if rec.Tombstone {
			h.Type, value = EntryTombstone, nil
			res.Tombstones++
		}
		sc.refs[i] = Ref{Seg: seg, Off: l.appendLocked(seg, &h, rec.Key, value, size)}
		segLive += size
	}
	seg.addLive(segLive)
	l.countAppended(entries, total)
	sh.mu.Unlock()

	if dead := ht.linkBatch(recs, sc.hashes, sc.refs, sc.sizes, &res); opt.LogDead {
		l.adjustLive(-dead)
	}
	return res, nil
}

// Replay is Log.Replay into the side log.
func (s *SideLog) Replay(ht *HashTable, recs []wire.Record, opt ReplayOptions) (ReplayResult, error) {
	if s.committed {
		return ReplayResult{}, errSideLogCommitted
	}
	return s.log.Replay(0, ht, recs, opt)
}

// touchRecords loads one byte of every cache line of the batch's keys and
// values. The loads do not depend on one another, so their misses overlap;
// the copy that follows then finds the lines cached. The returned byte
// folds the loaded bytes so the loads cannot be compiled away; callers
// drop it.
//
//go:noinline
func touchRecords(recs []wire.Record) byte {
	var acc byte
	for i := range recs {
		acc ^= touchLines(recs[i].Key) ^ touchLines(recs[i].Value)
	}
	return acc
}

// touchLines loads one byte every 64 and the last byte of b, which reaches
// every cache line b spans.
func touchLines(b []byte) byte {
	if len(b) == 0 {
		return 0
	}
	acc := b[len(b)-1]
	for i := 0; i < len(b); i += 64 {
		acc ^= b[i]
	}
	return acc
}
