package storage

import (
	"errors"
	"sort"
	"sync"
	"sync/atomic"

	"rocksteady/internal/wire"
)

// MainLogID is the log ID of every master's main log. Side logs receive
// IDs above it.
const MainLogID uint64 = 0

// ErrLogClosed reports an append to a closed (crashed) log.
var ErrLogClosed = errors.New("storage: log closed")

// errSideLogCommitted reports an append to a side log already committed.
var errSideLogCommitted = errors.New("storage: append to committed side log")

// AppendEvent notifies the replication manager of new log bytes. Data
// aliases segment memory (immutable once published). Events for one
// segment are delivered in append order (they are emitted under the
// owning shard's lock), which is what lets the replicator coalesce
// contiguous spans and the backup store reject gaps.
type AppendEvent struct {
	LogID     uint64
	SegmentID uint64
	Offset    int
	Data      []byte
	Sealed    bool
}

// AppendFunc observes log growth; used to drive backup replication. It is
// called with the appending shard's lock held, so it must not block or
// call back into the log.
type AppendFunc func(ev AppendEvent)

// logShard is one independently locked head of a sharded log. Appends on
// different shards proceed in parallel; the only cross-shard state is the
// shared atomic counters (segment IDs, versions, epochs, byte totals).
// Padded so adjacent shards' locks never share a cache line.
type logShard struct {
	mu   sync.Mutex
	head *Segment
	_    [104]byte
}

// Log is an append-only segmented in-memory log with one or more shard
// heads. Each shard serializes its own appends; any number of readers may
// access published entries concurrently. Appends are totally ordered
// across shards by the epoch stamped into every entry.
type Log struct {
	// ID distinguishes the main log (MainLogID) from side logs.
	ID uint64

	segSize   int
	nextSegID *atomic.Uint64 // shared across a master's logs
	onAppend  AppendFunc     // may be nil (side logs replicate lazily)

	shards []logShard
	closed atomic.Bool

	// segMu guards the segments map only. Lock order: shard.mu before
	// segMu (a rolling append inserts the new head while holding its
	// shard lock); readers take segMu alone.
	segMu    sync.Mutex
	segments map[uint64]*Segment

	// appended counts total bytes ever appended; the "offset into the log"
	// used by lineage dependencies (§3.4).
	appended atomic.Uint64
	// versionCounter assigns object versions; shared by a master across
	// its logs so versions are monotonic per master.
	versionCounter *atomic.Uint64
	// epochCounter assigns the per-append sequence stamped into every
	// entry; shared by a master across its logs (all shards and side
	// logs), so epochs totally order the master's appends.
	epochCounter *atomic.Uint64

	stats LogStats
}

// LogStats aggregates counters the cleaner uses. Side logs accumulate
// their own stats and merge them on commit, avoiding contention on the
// main log's counters during parallel replay (§3.1.3).
type LogStats struct {
	EntryCount    atomic.Int64
	LiveBytes     atomic.Int64
	AppendedBytes atomic.Int64
	CleanedBytes  atomic.Int64
}

// snapshot returns a copy of the counters.
func (s *LogStats) snapshot() (entries, live, appended, cleaned int64) {
	return s.EntryCount.Load(), s.LiveBytes.Load(), s.AppendedBytes.Load(), s.CleanedBytes.Load()
}

// NewShardedLog creates a main log with the given number of shard heads
// (one per dispatch worker on a server; 1 for a plain single-head log).
// Appends on distinct shards never contend; every append still gets a
// globally ordered epoch. segSize <= 0 selects DefaultSegmentSize.
func NewShardedLog(segSize, shards int, onAppend AppendFunc) *Log {
	if segSize <= 0 {
		segSize = DefaultSegmentSize
	}
	if shards < 1 {
		shards = 1
	}
	l := &Log{
		ID:             MainLogID,
		segSize:        segSize,
		nextSegID:      &atomic.Uint64{},
		versionCounter: &atomic.Uint64{},
		epochCounter:   &atomic.Uint64{},
		onAppend:       onAppend,
		shards:         make([]logShard, shards),
		segments:       make(map[uint64]*Segment),
	}
	return l
}

// NewSideLog creates a side log hanging off the main log: it shares the
// segment-ID, version, and epoch counters but has its own head segment,
// so a replay worker appends without touching the main log's locks or
// stats.
func (l *Log) NewSideLog(id uint64) *SideLog {
	if id == MainLogID {
		panic("storage: side log cannot use MainLogID")
	}
	return &SideLog{
		parent: l,
		log: &Log{
			ID:             id,
			segSize:        l.segSize,
			nextSegID:      l.nextSegID,
			versionCounter: l.versionCounter,
			epochCounter:   l.epochCounter,
			shards:         make([]logShard, 1),
			segments:       make(map[uint64]*Segment),
		},
	}
}

// NextVersion returns a fresh, master-monotonic object version.
func (l *Log) NextVersion() uint64 { return l.versionCounter.Add(1) }

// BumpVersionTo raises the version counter to at least v. Used when a
// migration target adopts a source's version ceiling.
func (l *Log) BumpVersionTo(v uint64) {
	for {
		cur := l.versionCounter.Load()
		if cur >= v || l.versionCounter.CompareAndSwap(cur, v) {
			return
		}
	}
}

// CurrentVersion returns the last assigned version.
func (l *Log) CurrentVersion() uint64 { return l.versionCounter.Load() }

// CurrentEpoch returns the last assigned append epoch.
func (l *Log) CurrentEpoch() uint64 { return l.epochCounter.Load() }

// AppendedBytes returns the total bytes ever appended: the log "offset"
// that lineage dependencies reference.
func (l *Log) AppendedBytes() uint64 { return l.appended.Load() }

// Close marks the log closed; subsequent appends fail. Models a crash.
// Taking every shard lock once drains in-flight appends, so when Close
// returns no append can still be writing.
func (l *Log) Close() {
	l.closed.Store(true)
	for i := range l.shards {
		l.shards[i].mu.Lock()
		l.shards[i].mu.Unlock() //nolint:staticcheck // barrier, not critical section
	}
}

// Append writes an entry through the shard picked by worker index w
// (wrapped modulo the shard count) and returns its ref. Version must
// already be assigned (NextVersion) so that callers control version
// ordering; aux is a tombstone's killed segment. Appends on distinct
// shards do not contend; each gets a globally ordered epoch.
func (l *Log) Append(w int, typ EntryType, table wire.TableID, version, aux uint64, key, value []byte) (Ref, error) {
	size := EntrySize(len(key), len(value))
	if size > l.segSize {
		return Ref{}, errTooLarge
	}
	h := EntryHeader{Type: typ, Table: table, Version: version, Aux: aux}
	if w < 0 {
		w = 0
	}
	sh := &l.shards[w%len(l.shards)]
	sh.mu.Lock()
	if l.closed.Load() {
		sh.mu.Unlock()
		return Ref{}, ErrLogClosed
	}
	seg := l.headLocked(sh, size)
	h.Epoch = l.epochCounter.Add(1)
	off := l.appendLocked(seg, &h, key, value, size)
	seg.addLive(size)
	l.countAppended(1, size)
	sh.mu.Unlock()
	return Ref{Seg: seg, Off: off}, nil
}

// headLocked returns sh's head segment with room for an entry of size
// bytes, sealing a full head and opening a new one. The caller holds
// sh.mu.
func (l *Log) headLocked(sh *logShard, size int) *Segment {
	if sh.head != nil && sh.head.hasRoom(size) {
		return sh.head
	}
	if sh.head != nil {
		sh.head.seal()
		if l.onAppend != nil {
			l.onAppend(AppendEvent{LogID: l.ID, SegmentID: sh.head.ID, Offset: sh.head.Len(), Sealed: true})
		}
	}
	seg := newSegment(l.nextSegID.Add(1), l.ID, l.segSize)
	l.segMu.Lock()
	l.segments[seg.ID] = seg
	l.segMu.Unlock()
	sh.head = seg
	return seg
}

// appendLocked encodes one entry into seg, which headLocked returned for
// its size, and reports it to onAppend. The caller holds the shard lock.
func (l *Log) appendLocked(seg *Segment, h *EntryHeader, key, value []byte, size int) uint32 {
	off := seg.appendEntry(h, key, value)
	if l.onAppend != nil {
		// Emitted under the shard lock so a segment's events arrive in
		// append order — the contiguity the replicator's coalescing and
		// the backup store's gap check both rely on.
		l.onAppend(AppendEvent{
			LogID:     l.ID,
			SegmentID: seg.ID,
			Offset:    int(off),
			Data:      seg.Data(int(off), int(off)+size),
		})
	}
	return off
}

// countAppended adds entries entries of bytes bytes in total to the log's
// statistics.
func (l *Log) countAppended(entries, bytes int) {
	l.appended.Add(uint64(bytes))
	l.stats.EntryCount.Add(int64(entries))
	l.stats.LiveBytes.Add(int64(bytes))
	l.stats.AppendedBytes.Add(int64(bytes))
}

// AppendObject writes an object entry through shard 0 with a freshly
// assigned version.
func (l *Log) AppendObject(table wire.TableID, key, value []byte) (Ref, uint64, error) {
	v := l.NextVersion()
	ref, err := l.Append(0, EntryObject, table, v, 0, key, value)
	return ref, v, err
}

// Segment returns the segment with the given ID, if it is part of this log.
func (l *Log) Segment(id uint64) (*Segment, bool) {
	l.segMu.Lock()
	defer l.segMu.Unlock()
	s, ok := l.segments[id]
	return s, ok
}

// Segments returns a snapshot of the log's segments sorted by ID.
func (l *Log) Segments() []*Segment {
	l.segMu.Lock()
	out := make([]*Segment, 0, len(l.segments))
	for _, s := range l.segments {
		out = append(out, s)
	}
	l.segMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// SegmentCount returns the number of live segments.
func (l *Log) SegmentCount() int {
	l.segMu.Lock()
	defer l.segMu.Unlock()
	return len(l.segments)
}

// TailWatermark returns an epoch W such that every entry a client write
// could still race into the log carries an epoch > W, while every entry
// already published to the hash table before the call has epoch <= W or
// sits in a currently open head (whose entries are all > W too, because W
// is capped below every open head's first epoch). Migration's tail
// catch-up (PullTail with AfterEpoch = W) therefore re-reads at most the
// open heads — the same slop the single-head design had when it rescanned
// the whole head segment — and never misses a racing write.
func (l *Log) TailWatermark() uint64 {
	w := uint64(0)
	for i := range l.shards {
		sh := &l.shards[i]
		sh.mu.Lock() // serialize with in-flight appends on this shard
		var cand uint64
		if sh.head != nil && sh.head.FirstEpoch() != 0 {
			cand = sh.head.FirstEpoch() - 1
		} else {
			cand = l.epochCounter.Load()
		}
		sh.mu.Unlock()
		if i == 0 || cand < w {
			w = cand
		}
	}
	return w
}

// removeSegment detaches a cleaned segment.
func (l *Log) removeSegment(id uint64) {
	l.segMu.Lock()
	defer l.segMu.Unlock()
	delete(l.segments, id)
}

// hasSegment reports whether a segment is still part of the log; used by
// tombstone liveness.
func (l *Log) hasSegment(id uint64) bool {
	l.segMu.Lock()
	defer l.segMu.Unlock()
	_, ok := l.segments[id]
	return ok
}

// ForEachEntry iterates every entry in every segment (published prefix
// only), in segment-ID order. The pre-existing RAMCloud migration (§2.3)
// and crash recovery replay use this.
func (l *Log) ForEachEntry(fn func(ref Ref, h EntryHeader) bool) error {
	for _, seg := range l.Segments() {
		stop := false
		err := iterateSegment(seg, seg.Len(), func(off uint32, h EntryHeader) bool {
			if !fn(Ref{Seg: seg, Off: off}, h) {
				stop = true
				return false
			}
			return true
		})
		if err != nil {
			return err
		}
		if stop {
			return nil
		}
	}
	return nil
}

// Seal closes every shard's head segment (e.g. before lazy side-log
// replication or at migration completion) so their full contents can be
// replicated.
func (l *Log) Seal() {
	for i := range l.shards {
		sh := &l.shards[i]
		sh.mu.Lock()
		if sh.head != nil {
			sh.head.seal()
		}
		sh.head = nil
		sh.mu.Unlock()
	}
}

// Stats returns current log statistics.
func (l *Log) Stats() (entries, liveBytes, appendedBytes, cleanedBytes int64) {
	return l.stats.snapshot()
}

// adjustLive records that bytes became dead (delta < 0) or live again.
func (l *Log) adjustLive(delta int64) { l.stats.LiveBytes.Add(delta) }

// SideLog is an independent chain of segments a single replay worker
// appends to without contending with the main log; at migration end it is
// committed into the main log with a metadata record (§3.1.3). The paper's
// key observation: per-core side logs make parallel replay scale.
type SideLog struct {
	parent    *Log
	log       *Log
	committed bool
}

// Append writes an object entry with a caller-chosen version into the side
// log.
func (s *SideLog) Append(table wire.TableID, version uint64, key, value []byte) (Ref, error) {
	if s.committed {
		return Ref{}, errSideLogCommitted
	}
	return s.log.Append(0, EntryObject, table, version, 0, key, value)
}

// AppendTombstone writes a tombstone into the side log (replay of deletes).
func (s *SideLog) AppendTombstone(table wire.TableID, version uint64, key []byte) (Ref, error) {
	if s.committed {
		return Ref{}, errSideLogCommitted
	}
	return s.log.Append(0, EntryTombstone, table, version, 0, key, nil)
}

// ID returns the side log's log ID.
func (s *SideLog) ID() uint64 { return s.log.ID }

// Segments returns the side log's segments (for lazy replication).
func (s *SideLog) Segments() []*Segment { return s.log.Segments() }

// AppendedBytes returns bytes appended to this side log.
func (s *SideLog) AppendedBytes() uint64 { return s.log.AppendedBytes() }

// Commit seals the side log, moves its segments into the main log, merges
// its statistics into the main log's counters (one update instead of one
// per entry), and appends a commit record to the main log.
func (s *SideLog) Commit() error {
	if s.committed {
		return nil
	}
	s.committed = true
	s.log.Seal()

	segs := s.log.Segments()
	s.parent.segMu.Lock()
	for _, seg := range segs {
		seg.LogID = s.parent.ID
		s.parent.segments[seg.ID] = seg
	}
	s.parent.segMu.Unlock()

	entries, live, appended, cleaned := s.log.stats.snapshot()
	s.parent.stats.EntryCount.Add(entries)
	s.parent.stats.LiveBytes.Add(live)
	s.parent.stats.AppendedBytes.Add(appended)
	s.parent.stats.CleanedBytes.Add(cleaned)
	s.parent.appended.Add(s.log.appended.Load())

	_, err := s.parent.Append(0, EntrySideLogCommit, 0, s.parent.NextVersion(), s.log.ID, nil, nil)
	return err
}
