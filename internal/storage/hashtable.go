package storage

import (
	"bytes"
	"math/bits"
	"sync"
	"sync/atomic"

	"rocksteady/internal/wire"
)

// slotsPerBucket is the number of entries per hash-table bucket, sized in
// the spirit of RAMCloud's cache-line buckets.
const slotsPerBucket = 8

// maxStripes bounds the number of region locks. Stripes cover contiguous
// bucket ranges, and buckets are indexed by the *top* bits of the key
// hash, so disjoint hash-range partitions (Pull partitions, §3.1.1) touch
// disjoint stripes and never contend.
const maxStripes = 256

// seqlockRetries is how many optimistic read attempts Get/GetByHash make
// before falling back to the stripe read lock. A writer's critical section
// is a handful of atomic stores, so one retry almost always suffices; the
// lock fallback exists to bound reader work when a stripe is under
// sustained mutation (e.g. RemoveRange sweeping it).
const seqlockRetries = 4

// slot holds one (hash, ref) pair. All fields are atomics so that seqlock
// readers may load them with no lock held: a reader racing a writer can
// observe a torn (seg, off) pair, but never a partially-written word, and
// the stripe sequence re-check discards every torn read before it escapes.
//
//lint:seqguard
type slot struct {
	hash atomic.Uint64
	seg  atomic.Pointer[Segment]
	off  atomic.Uint32
}

// loadRef assembles the slot's ref from its atomic halves. Only consistent
// under the stripe lock or a validated seqlock read section.
func (s *slot) loadRef() Ref { return Ref{Seg: s.seg.Load(), Off: s.off.Load()} }

// empty reports whether the slot holds no entry.
func (s *slot) empty() bool { return s.seg.Load() == nil }

// store publishes (hash, ref) into the slot. Callers must be inside a
// stripe write section (seq odd).
func (s *slot) store(hash uint64, ref Ref) {
	s.hash.Store(hash)
	s.off.Store(ref.Off)
	s.seg.Store(ref.Seg)
}

// clear empties the slot. Callers must be inside a stripe write section.
func (s *slot) clear() {
	s.seg.Store(nil)
	s.off.Store(0)
	s.hash.Store(0)
}

// bucket is one chain link of slots. Like slot state, its links may only
// change inside the owning stripe's write section — readers walk the
// overflow chain with no lock held.
//
//lint:seqguard
type bucket struct {
	slots    [slotsPerBucket]slot
	overflow atomic.Pointer[bucket]
}

// stripe is one lock region of the table: a writer mutex plus a seqlock
// sequence. Writers hold mu and keep seq odd for the duration of the
// mutation; readers never touch mu on the fast path — they snapshot seq,
// read slots, and re-check seq. Padded so neighbouring stripes' write
// traffic does not bounce a shared cache line under readers.
type stripe struct {
	mu  sync.RWMutex
	seq atomic.Uint64
	_   [32]byte // RWMutex(24) + seq(8) = 32; pad to a 64-byte line
}

// beginWrite enters the stripe's write section: mu serializes writers, the
// odd seq tells lock-free readers to retry.
func (st *stripe) beginWrite() {
	st.mu.Lock()
	st.seq.Add(1)
}

// endWrite leaves the write section, making seq even again.
func (st *stripe) endWrite() {
	st.seq.Add(1)
	st.mu.Unlock()
}

// HashTable is a master's primary-key index: it maps (table, key hash) to
// a log Ref. Buckets are indexed by the top bits of the key hash, making
// every contiguous hash range a contiguous bucket range; per-stripe
// seqlocks give readers lock-free access while parallel Pulls and parallel
// replay get contention-free *writes* to disjoint partitions.
//
// Read path (Get/GetByHash): no lock, no shared-line store on the
// uncontended path. Readers snapshot the stripe sequence, walk the bucket
// via atomic slot loads, and re-check the sequence; any concurrent write
// forces a retry, and after seqlockRetries attempts the reader falls back
// to the stripe read lock. This is safe because log entries are immutable
// once published and Ref is a value: a torn (seg, off) pair can at worst
// point outside the segment's published prefix, which refMatches rejects
// by bounds check, and the sequence re-check discards the attempt anyway.
//
// The table does not grow; size it for the expected object count
// (RAMCloud pre-sizes its hash table the same way). Overflow chains absorb
// skew beyond slotsPerBucket.
type HashTable struct {
	bits        uint
	buckets     []bucket
	stripes     []stripe
	stripeShift uint
	count       atomic.Int64

	// seqRetries/seqFallbacks count contended read attempts; the
	// uncontended fast path increments nothing, which is what the
	// deterministic seqlock test keys on.
	seqRetries   atomic.Int64
	seqFallbacks atomic.Int64
}

// NewHashTable creates a table sized for about capacityHint objects.
func NewHashTable(capacityHint int) *HashTable {
	if capacityHint < 1 {
		capacityHint = 1
	}
	nb := nextPow2(capacityHint / slotsPerBucket * 2) // ~50% slot occupancy
	if nb < 16 {
		nb = 16
	}
	b := uint(bits.TrailingZeros(uint(nb)))
	ns := nb
	if ns > maxStripes {
		ns = maxStripes
	}
	t := &HashTable{
		bits:        b,
		buckets:     make([]bucket, nb),
		stripes:     make([]stripe, ns),
		stripeShift: b - uint(bits.TrailingZeros(uint(ns))),
	}
	return t
}

func nextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << (64 - bits.LeadingZeros64(uint64(n-1)))
}

// NumBuckets returns the bucket count; Pull resume tokens index buckets.
func (t *HashTable) NumBuckets() uint64 { return uint64(len(t.buckets)) }

// Len returns the number of stored entries.
func (t *HashTable) Len() int { return int(t.count.Load()) }

// BucketOf returns the bucket index for a key hash.
func (t *HashTable) BucketOf(hash uint64) uint64 { return hash >> (64 - t.bits) }

func (t *HashTable) stripeOf(bucketIdx uint64) *stripe {
	return &t.stripes[bucketIdx>>t.stripeShift]
}

// SeqlockStats returns the cumulative optimistic-read retry and lock
// fallback counts. Both stay zero on uncontended read paths — the
// deterministic seqlock unit test uses that as the proof that Get acquires
// no mutex when no writer is active.
func (t *HashTable) SeqlockStats() (retries, fallbacks int64) {
	return t.seqRetries.Load(), t.seqFallbacks.Load()
}

// refMatches reports whether ref's entry is for (table, key). Parses the
// entry header and key in place; no checksum work on the hot path.
//
// Callers may pass a torn ref (seg from one entry, off from another) from
// a seqlock read section, so the bounds check against the segment's
// published length is load-bearing: it guarantees we never slice past the
// buffer. A torn ref that happens to land on a parseable entry is
// harmless — the caller's sequence re-check discards the result.
//
//lint:hotpath
func refMatches(ref Ref, table wire.TableID, key []byte) bool {
	end := int(ref.Off) + EntryHeaderSize + len(key)
	if end > ref.Seg.Len() {
		return false
	}
	h, err := ref.Header()
	if err != nil || h.Table != table || int(h.KeyLen) != len(key) {
		return false
	}
	ek := ref.Seg.buf[int(ref.Off)+EntryHeaderSize : end]
	return bytes.Equal(ek, key)
}

// refHeader decodes ref's header, tolerating torn refs from seqlock read
// sections by bounds-checking before slicing segment memory.
//
//lint:hotpath
func refHeader(ref Ref) (EntryHeader, bool) {
	if int(ref.Off)+EntryHeaderSize > ref.Seg.Len() {
		return EntryHeader{}, false
	}
	h, err := ref.Header()
	return h, err == nil
}

// lookup walks bucket bi for (table, key, hash) via atomic slot loads. It
// is consistent only under the stripe lock or a validated seqlock section.
//
//lint:hotpath
func (t *HashTable) lookup(bi uint64, table wire.TableID, key []byte, hash uint64) (Ref, bool) {
	for b := &t.buckets[bi]; b != nil; b = b.overflow.Load() {
		for i := range b.slots {
			s := &b.slots[i]
			seg := s.seg.Load()
			if seg == nil || s.hash.Load() != hash {
				continue
			}
			ref := Ref{Seg: seg, Off: s.off.Load()}
			if refMatches(ref, table, key) {
				return ref, true
			}
		}
	}
	return Ref{}, false
}

// Get returns the ref stored for (table, key), if any. Lock-free on the
// uncontended path: one sequence load before and after the bucket walk.
//
//lint:hotpath
func (t *HashTable) Get(table wire.TableID, key []byte, hash uint64) (Ref, bool) {
	bi := t.BucketOf(hash)
	st := t.stripeOf(bi)
	for attempt := 0; attempt < seqlockRetries; attempt++ {
		seq := st.seq.Load()
		if seq&1 != 0 {
			t.seqRetries.Add(1)
			continue
		}
		ref, ok := t.lookup(bi, table, key, hash)
		if st.seq.Load() == seq {
			return ref, ok
		}
		t.seqRetries.Add(1)
	}
	t.seqFallbacks.Add(1)
	st.mu.RLock()
	defer st.mu.RUnlock()
	return t.lookup(bi, table, key, hash)
}

// collectByHash appends to out every ref in bucket bi for table whose key
// hashes to hash. Same consistency contract as lookup.
//
//lint:hotpath
func (t *HashTable) collectByHash(out []Ref, bi uint64, table wire.TableID, hash uint64) []Ref {
	for b := &t.buckets[bi]; b != nil; b = b.overflow.Load() {
		for i := range b.slots {
			s := &b.slots[i]
			seg := s.seg.Load()
			if seg == nil || s.hash.Load() != hash {
				continue
			}
			ref := Ref{Seg: seg, Off: s.off.Load()}
			if h, ok := refHeader(ref); ok && h.Table == table {
				out = append(out, ref)
			}
		}
	}
	return out
}

// GetByHash returns every ref for the table whose key hashes to hash.
// Index lookups and PriorityPulls address records by hash (Figure 2).
// Lock-free on the uncontended path, like Get.
//
//lint:hotpath
func (t *HashTable) GetByHash(table wire.TableID, hash uint64) []Ref {
	bi := t.BucketOf(hash)
	st := t.stripeOf(bi)
	var out []Ref
	for attempt := 0; attempt < seqlockRetries; attempt++ {
		seq := st.seq.Load()
		if seq&1 != 0 {
			t.seqRetries.Add(1)
			continue
		}
		out = t.collectByHash(out[:0], bi, table, hash)
		if st.seq.Load() == seq {
			return out
		}
		t.seqRetries.Add(1)
	}
	t.seqFallbacks.Add(1)
	st.mu.RLock()
	defer st.mu.RUnlock()
	return t.collectByHash(out[:0], bi, table, hash)
}

// Put stores ref for (table, key), replacing any existing entry. It
// returns the previous ref if one existed.
func (t *HashTable) Put(table wire.TableID, key []byte, hash uint64, ref Ref) (Ref, bool) {
	bi := t.BucketOf(hash)
	st := t.stripeOf(bi)
	st.beginWrite()
	defer st.endWrite()
	return t.putLocked(bi, table, key, hash, ref)
}

func (t *HashTable) putLocked(bi uint64, table wire.TableID, key []byte, hash uint64, ref Ref) (Ref, bool) {
	var empty *slot
	for b := &t.buckets[bi]; ; {
		for i := range b.slots {
			s := &b.slots[i]
			if s.empty() {
				if empty == nil {
					empty = s
				}
				continue
			}
			if s.hash.Load() == hash && refMatches(s.loadRef(), table, key) {
				prev := s.loadRef()
				s.store(hash, ref)
				return prev, true
			}
		}
		next := b.overflow.Load()
		if next == nil {
			if empty == nil {
				next = &bucket{}
				b.overflow.Store(next)
				empty = &next.slots[0]
			}
			empty.store(hash, ref)
			t.count.Add(1)
			return Ref{}, false
		}
		b = next
	}
}

// PutIfNewer stores ref only if (table, key) is absent or its current
// version is strictly older than version. This is the replay rule that
// makes immediate ownership transfer safe: a write accepted by the target
// after migration start always has a version above the source's ceiling,
// so a later-arriving bulk-Pull copy of the old record never clobbers it.
// It returns the replaced ref (if any) and whether ref was stored.
func (t *HashTable) PutIfNewer(table wire.TableID, key []byte, hash uint64, ref Ref, version uint64) (Ref, bool) {
	bi := t.BucketOf(hash)
	st := t.stripeOf(bi)
	st.beginWrite()
	defer st.endWrite()
	return t.putIfNewerLocked(bi, table, key, hash, ref, version)
}

// putIfNewerLocked is PutIfNewer's body; the caller holds bucket bi's
// stripe write section.
func (t *HashTable) putIfNewerLocked(bi uint64, table wire.TableID, key []byte, hash uint64, ref Ref, version uint64) (Ref, bool) {
	for b := &t.buckets[bi]; b != nil; b = b.overflow.Load() {
		for i := range b.slots {
			s := &b.slots[i]
			if !s.empty() && s.hash.Load() == hash && refMatches(s.loadRef(), table, key) {
				prev := s.loadRef()
				h, err := prev.Header()
				if err == nil && h.Version >= version {
					return Ref{}, false
				}
				s.store(hash, ref)
				return prev, true
			}
		}
	}
	_, _ = t.putLocked(bi, table, key, hash, ref)
	return Ref{}, true
}

// maxLinkRun caps how many records linkBatch links in one stripe write
// section. A section delays every reader of its stripe (they retry, then
// wait on the read lock), so the cap bounds that delay at maxLinkRun
// links whatever the batch holds: 16 links that each replace an entry
// took about 2.4 µs on a 2-core box, while the section's lock and two
// sequence bumps, shared by the run, cost tens of nanoseconds.
const maxLinkRun = 16

// linkBatch links a replayed batch into the table with PutIfNewer's rule,
// in batch order: refs[i] is recs[i]'s new log entry (zero for a record
// the replay skipped) and hashes[i] its key hash. Runs of consecutive
// records whose keys share a stripe are linked in one write section each
// (Pull batches arrive in bucket order, so their runs are long). An entry
// the batch makes dead — the replaced one, or the new one when it lost
// the version race — leaves its segment's live count; the bytes are
// summed into dead. Stored and StoredBytes count the object records that
// took effect.
func (t *HashTable) linkBatch(recs []wire.Record, hashes []uint64, refs []Ref, sizes []int32, res *ReplayResult) (dead int64) {
	for i := 0; i < len(recs); {
		if refs[i].IsZero() {
			i++
			continue
		}
		st := t.stripeOf(t.BucketOf(hashes[i]))
		end := i + 1
		for end < len(recs) && end-i < maxLinkRun &&
			(refs[end].IsZero() || t.stripeOf(t.BucketOf(hashes[end])) == st) {
			end++
		}
		st.beginWrite()
		for j := i; j < end; j++ {
			if refs[j].IsZero() {
				continue
			}
			rec := &recs[j]
			prev, stored := t.putIfNewerLocked(t.BucketOf(hashes[j]), rec.Table, rec.Key, hashes[j], refs[j], rec.Version)
			if !stored {
				refs[j].Seg.addLive(-int(sizes[j]))
				dead += int64(sizes[j])
				continue
			}
			if !prev.IsZero() {
				if n := prev.Size(); n > 0 {
					prev.Seg.addLive(-n)
					dead += int64(n)
				}
			}
			if !rec.Tombstone {
				res.Stored++
				res.StoredBytes += int64(wire.RecordSize(len(rec.Key), len(rec.Value)))
			}
		}
		st.endWrite()
		i = end
	}
	return dead
}

// Remove deletes the entry for (table, key) and returns its ref.
func (t *HashTable) Remove(table wire.TableID, key []byte, hash uint64) (Ref, bool) {
	bi := t.BucketOf(hash)
	st := t.stripeOf(bi)
	st.beginWrite()
	defer st.endWrite()
	for b := &t.buckets[bi]; b != nil; b = b.overflow.Load() {
		for i := range b.slots {
			s := &b.slots[i]
			if !s.empty() && s.hash.Load() == hash && refMatches(s.loadRef(), table, key) {
				prev := s.loadRef()
				s.clear()
				t.count.Add(-1)
				return prev, true
			}
		}
	}
	return Ref{}, false
}

// ReplaceRef swaps old for new for (table, key) only if old is still the
// stored ref; the cleaner uses this so a concurrent write wins over
// relocation.
func (t *HashTable) ReplaceRef(table wire.TableID, key []byte, hash uint64, old, new Ref) bool {
	bi := t.BucketOf(hash)
	st := t.stripeOf(bi)
	st.beginWrite()
	defer st.endWrite()
	for b := &t.buckets[bi]; b != nil; b = b.overflow.Load() {
		for i := range b.slots {
			s := &b.slots[i]
			if s.loadRef() == old && s.hash.Load() == hash {
				s.store(hash, new)
				return true
			}
		}
	}
	return false
}

// RefersTo reports whether ref is the current entry for (table, key).
// Advisory (the cleaner re-checks under ReplaceRef's write section), so
// the read lock is fine here — it is not a client-facing hot path.
func (t *HashTable) RefersTo(table wire.TableID, key []byte, hash uint64, ref Ref) bool {
	bi := t.BucketOf(hash)
	st := t.stripeOf(bi)
	st.mu.RLock()
	defer st.mu.RUnlock()
	for b := &t.buckets[bi]; b != nil; b = b.overflow.Load() {
		for i := range b.slots {
			if b.slots[i].loadRef() == ref {
				return true
			}
		}
	}
	return false
}

// touchAhead is how many buckets a range walk touches (touchRange) before
// it visits them. A bucket-order walk finds each entry at an unrelated
// place in the log, so visiting entries one by one waits out one cache
// miss after another; touching a window's entries first puts their misses
// in flight together. A table holds 1–4 entries per bucket (NewHashTable
// sizes it for ~50 % slot occupancy at its capacity hint), so 16 buckets
// are some 16–64 entries: more independent loads than a core keeps in
// flight, few enough that their lines are still cached when the visit
// reaches them. Migrations of 1.2 M records moved about as
// fast at 16 as at 32, and more slowly at 8, on a 2-core box.
const touchAhead = 16

// RemoveRange keeps one bit per bucket of a window in a uint64.
const _ uint = 64 - touchAhead

// touchRange loads, for the entries of buckets [from, to] whose key hash
// lies in rng, each entry's header line and, when whole is set and the
// entry is table's, every further line the entry spans. The loads carry no
// dependency on one another, so their misses overlap.
//
// It is only a hint. Slots are read inside a stripe read section, and a
// bucket a writer overlapped contributes no refs. Every ref is also
// bounds-checked against its segment's published length, so even a torn
// one reads published, immutable bytes or nothing. No result depends on
// what it loads, and it stores nothing: the returned byte folds the loaded
// bytes so the loads cannot be compiled away, and callers drop it.
//
//go:noinline
func (t *HashTable) touchRange(table wire.TableID, rng wire.HashRange, from, to uint64, whole bool) byte {
	// Collect first and load after, so the loading loops are short enough
	// for the core to run many of their loads ahead of the first miss.
	var refs [touchAhead * slotsPerBucket]Ref
	n := 0
	for bi := from; bi <= to && n < len(refs); bi++ {
		st := t.stripeOf(bi)
		seq := st.seq.Load()
		if seq&1 != 0 {
			continue
		}
		bucketStart := n
		for b := &t.buckets[bi]; b != nil; b = b.overflow.Load() {
			for i := range b.slots {
				s := &b.slots[i]
				seg := s.seg.Load()
				if seg == nil || !rng.Contains(s.hash.Load()) || n == len(refs) {
					continue
				}
				if off := s.off.Load(); int(off)+EntryHeaderSize <= seg.Len() {
					refs[n] = Ref{Seg: seg, Off: off}
					n++
				}
			}
		}
		if st.seq.Load() != seq {
			n = bucketStart // a writer overlapped: drop the bucket's refs
		}
	}
	var acc byte
	for _, r := range refs[:n] {
		acc ^= r.Seg.buf[r.Off] ^ r.Seg.buf[int(r.Off)+EntryHeaderSize-1]
	}
	if !whole {
		return acc
	}
	for _, r := range refs[:n] {
		buf := r.Seg.buf[:r.Seg.Len()]
		entryTable, size := peekHeader(buf[r.Off:])
		end := int(r.Off) + size
		if entryTable != table || end > len(buf) {
			continue
		}
		for line := int(r.Off)&^63 + 64; line < end; line += 64 {
			acc ^= buf[line]
		}
	}
	return acc
}

// ScanRange iterates entries of table whose key hash lies in rng, starting
// from bucket index startBucket (0 resumes from the range's first bucket).
// visit gets each entry's ref and its parsed header; it is called under
// the bucket's stripe read lock; if it returns false the scan stops *at
// the end of the current bucket* so resume tokens always sit on bucket
// boundaries and no record is delivered twice. Returns the resume token
// and whether the range is exhausted. Each window of touchAhead buckets is
// touched (touchRange, key and value included) before it is visited.
//
// This is the source-side engine of Rocksteady Pulls: stateless at the
// source (the token is the only cursor) and contention-free across
// disjoint partitions (§3.1.1).
func (t *HashTable) ScanRange(table wire.TableID, rng wire.HashRange, startBucket uint64, visit func(ref Ref, h EntryHeader) bool) (next uint64, done bool) {
	first := t.BucketOf(rng.Start)
	last := t.BucketOf(rng.End)
	bi := first
	if startBucket > bi {
		bi = startBucket
	}
	touched := bi
	for ; bi <= last; bi++ {
		if bi == touched {
			touched = min(bi+touchAhead, last+1)
			_ = t.touchRange(table, rng, bi, touched-1, true)
		}
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
				h, err := ref.Header()
				if err != nil || h.Table != table {
					continue
				}
				if !visit(ref, h) {
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

// RemoveRange deletes every entry of table whose key hash lies in rng,
// invoking onRemove for each (to mark log bytes dead). Used when a server
// drops a tablet. A bucket that a validated seqlock read finds without an
// entry in rng is skipped without entering its write section, so sweeping
// an empty range costs reads only. The sweep decides that for a window of
// touchAhead buckets at a time, and when the window holds entries it
// touches their header lines (touchRange) before removing them: the sweep
// reads nothing else of an entry. No entry can enter the window between
// the check and the removal: a range is swept only once retired, and every
// path that puts records into a retired range first finishes its sweep.
func (t *HashTable) RemoveRange(table wire.TableID, rng wire.HashRange, onRemove func(ref Ref)) int {
	first := t.BucketOf(rng.Start)
	last := t.BucketOf(rng.End)
	removed := 0
	var window, holds uint64 // first bucket of the window; bit i: bucket window+i holds entries in rng
	for bi := first; ; bi++ {
		if bi == first || bi-window == touchAhead {
			window, holds = bi, 0
			for i := uint64(0); i < touchAhead && bi+i <= last; i++ {
				if t.mayHoldInRange(bi+i, rng) {
					holds |= 1 << i
				}
			}
			if holds != 0 {
				_ = t.touchRange(table, rng, bi, min(bi+touchAhead-1, last), false)
			}
		}
		if holds&(1<<(bi-window)) != 0 {
			st := t.stripeOf(bi)
			st.beginWrite()
			for b := &t.buckets[bi]; b != nil; b = b.overflow.Load() {
				for i := range b.slots {
					s := &b.slots[i]
					if s.empty() || !rng.Contains(s.hash.Load()) {
						continue
					}
					ref := s.loadRef()
					h, err := ref.Header()
					if err != nil || h.Table != table {
						continue
					}
					if onRemove != nil {
						onRemove(ref)
					}
					s.clear()
					t.count.Add(-1)
					removed++
				}
			}
			st.endWrite()
		}
		if bi == last { // avoid wrap when last == max uint64 bucket
			return removed
		}
	}
}

// mayHoldInRange reports whether bucket bi may hold an entry whose key
// hash lies in rng: false only when a validated seqlock read finds none.
func (t *HashTable) mayHoldInRange(bi uint64, rng wire.HashRange) bool {
	st := t.stripeOf(bi)
	seq := st.seq.Load()
	return seq&1 != 0 || t.holdsInRange(bi, rng) || st.seq.Load() != seq
}

// holdsInRange reports whether bucket bi has an entry whose key hash lies
// in rng. Same consistency contract as lookup.
func (t *HashTable) holdsInRange(bi uint64, rng wire.HashRange) bool {
	for b := &t.buckets[bi]; b != nil; b = b.overflow.Load() {
		for i := range b.slots {
			s := &b.slots[i]
			if !s.empty() && rng.Contains(s.hash.Load()) {
				return true
			}
		}
	}
	return false
}

// RemoveTombstoneRefs deletes entries of table within rng whose log entry
// is a tombstone. During migration the target parks deletions *in* the
// hash table (so version checks beat late-arriving stale copies); this
// sweep tidies them once no more replay can race.
func (t *HashTable) RemoveTombstoneRefs(table wire.TableID, rng wire.HashRange) int {
	first := t.BucketOf(rng.Start)
	last := t.BucketOf(rng.End)
	removed := 0
	for bi := first; bi <= last; bi++ {
		st := t.stripeOf(bi)
		st.beginWrite()
		for b := &t.buckets[bi]; b != nil; b = b.overflow.Load() {
			for i := range b.slots {
				s := &b.slots[i]
				if s.empty() || !rng.Contains(s.hash.Load()) {
					continue
				}
				ref := s.loadRef()
				h, err := ref.Header()
				if err != nil || h.Table != table || h.Type != EntryTombstone {
					continue
				}
				MarkDeadRef(ref)
				s.clear()
				t.count.Add(-1)
				removed++
			}
		}
		st.endWrite()
		if bi == last {
			break
		}
	}
	return removed
}

// CountRange counts entries and bytes of table within rng (tests and
// debugging; it scans the whole range).
func (t *HashTable) CountRange(table wire.TableID, rng wire.HashRange) (count, byteSize uint64) {
	t.ScanRange(table, rng, 0, func(_ Ref, h EntryHeader) bool {
		count++
		byteSize += uint64(h.Size())
		return true
	})
	return count, byteSize
}

// ForEach visits every entry in the table (any table ID), for tests and
// debugging.
func (t *HashTable) ForEach(visit func(hash uint64, ref Ref) bool) {
	for bi := range t.buckets {
		st := t.stripeOf(uint64(bi))
		st.mu.RLock()
		for b := &t.buckets[bi]; b != nil; b = b.overflow.Load() {
			for i := range b.slots {
				s := &b.slots[i]
				if !s.empty() {
					if !visit(s.hash.Load(), s.loadRef()) {
						st.mu.RUnlock()
						return
					}
				}
			}
		}
		st.mu.RUnlock()
	}
}
