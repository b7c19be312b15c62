package storage

import (
	"sync/atomic"

	"rocksteady/internal/wire"
)

// DefaultSegmentSize is the default capacity of a log segment. RAMCloud
// uses 8 MB segments; 1 MB keeps test clusters small while preserving the
// many-segments structure cleaning depends on.
const DefaultSegmentSize = 1 << 20

// Segment is one fixed-capacity chunk of a master's in-memory log. Bytes
// below the append offset are immutable, so readers never synchronize with
// the single appender beyond the atomic offset load.
type Segment struct {
	// ID is unique across every log (main and side) of one master.
	ID uint64
	// LogID identifies the log (main or a side log) this segment currently
	// belongs to. Side-log commit moves segments to the main log.
	LogID uint64

	// buf is allocated at full capacity up front; the slice header never
	// changes, so readers may slice it concurrently with appends. Only
	// bytes below off are published.
	buf    []byte
	off    atomic.Uint32
	sealed atomic.Bool

	// liveBytes tracks bytes belonging to entries the hash table (or
	// tombstone rules) still reference; maintained by HashTable and
	// Cleaner. The cleaner selects low-live segments.
	liveBytes atomic.Int64

	// firstEpoch and lastEpoch bound the append epochs stored in this
	// segment. With sharded log heads segment IDs no longer order appends,
	// so the tail catch-up of migration (PullTail) skips segments by epoch
	// range instead of ID. Zero firstEpoch means "no entries yet".
	firstEpoch atomic.Uint64
	lastEpoch  atomic.Uint64
}

// newSegment allocates a segment of the given capacity.
func newSegment(id, logID uint64, capacity int) *Segment {
	return &Segment{ID: id, LogID: logID, buf: make([]byte, capacity)}
}

// Capacity returns the fixed byte capacity.
func (s *Segment) Capacity() int { return len(s.buf) }

// Len returns the current append offset.
func (s *Segment) Len() int { return int(s.off.Load()) }

// Sealed reports whether the segment is closed for appends.
func (s *Segment) Sealed() bool { return s.sealed.Load() }

// LiveBytes returns the tracked live byte count.
func (s *Segment) LiveBytes() int { return int(s.liveBytes.Load()) }

// addLive adjusts the live byte count (positive or negative).
func (s *Segment) addLive(delta int) { s.liveBytes.Add(int64(delta)) }

// hasRoom reports whether an entry of n bytes fits.
func (s *Segment) hasRoom(n int) bool { return s.Len()+n <= len(s.buf) }

// appendEntry encodes an entry into the segment in place and returns its
// offset. Callers must hold the owning log's append lock and have checked
// hasRoom. The write lands above the published offset; the atomic store of
// the new offset publishes it to readers.
//
//lint:hotpath
func (s *Segment) appendEntry(h *EntryHeader, key, value []byte) uint32 {
	off := s.off.Load()
	written := encodeEntry(s.buf[off:off], h, key, value)
	if off == 0 {
		s.firstEpoch.Store(h.Epoch)
	}
	s.lastEpoch.Store(h.Epoch)
	s.off.Store(off + uint32(len(written)))
	return off
}

// FirstEpoch returns the epoch of the segment's first entry (0 if empty).
func (s *Segment) FirstEpoch() uint64 { return s.firstEpoch.Load() }

// LastEpoch returns the epoch of the segment's newest entry (0 if empty).
func (s *Segment) LastEpoch() uint64 { return s.lastEpoch.Load() }

// seal closes the segment to further appends.
func (s *Segment) seal() { s.sealed.Store(true) }

// Data returns the immutable prefix [from, to) of the segment's bytes.
func (s *Segment) Data(from, to int) []byte {
	n := s.Len()
	if to > n {
		to = n
	}
	if from > to {
		from = to
	}
	return s.buf[from:to:to]
}

// Ref identifies one entry in a master's log: a segment plus byte offset.
// The zero Ref is "no entry".
type Ref struct {
	Seg *Segment
	Off uint32
}

// IsZero reports whether the ref points at nothing.
func (r Ref) IsZero() bool { return r.Seg == nil }

// bytes returns the entry's encoding starting at the ref.
func (r Ref) bytes() []byte {
	return r.Seg.buf[r.Off:r.Seg.Len()]
}

// Header decodes the entry's header.
func (r Ref) Header() (EntryHeader, error) { return parseHeader(r.bytes()) }

// Entry decodes and validates the full entry. Key and value alias segment
// memory; they are immutable.
func (r Ref) Entry() (EntryHeader, []byte, []byte, error) { return parseEntry(r.bytes()) }

// Size returns the entry's total encoded size, or 0 if unparseable.
func (r Ref) Size() int {
	h, err := r.Header()
	if err != nil {
		return 0
	}
	return h.Size()
}

// Record converts the referenced object entry to a wire.Record without
// copying key or value (the zero-copy "gather" of §3.2: transports copy at
// the serialization boundary only).
func (r Ref) Record() (wire.Record, error) {
	h, err := r.Header()
	if err != nil {
		return wire.Record{}, err
	}
	return r.RecordWith(h)
}

// RecordWith is Record for a caller that already holds the entry's parsed
// header h (ScanRange hands it over): it verifies the checksum without
// parsing the header again.
func (r Ref) RecordWith(h EntryHeader) (wire.Record, error) {
	key, value, err := entryBody(r.bytes(), h)
	if err != nil {
		return wire.Record{}, err
	}
	return wire.Record{
		Table:     h.Table,
		Version:   h.Version,
		Key:       key,
		Value:     value,
		Tombstone: h.Type == EntryTombstone,
	}, nil
}

// IterateSegmentEntries walks the published entries of one segment,
// calling fn with each entry's ref; fn returning false stops the walk.
func IterateSegmentEntries(s *Segment, fn func(ref Ref) bool) error {
	return iterateSegment(s, s.Len(), func(off uint32, h EntryHeader) bool {
		return fn(Ref{Seg: s, Off: off})
	})
}

// iterateSegment walks the entries of a segment prefix [0, limit) and
// calls fn with each entry's offset and header. Iteration stops early if
// fn returns false or an entry fails to parse.
func iterateSegment(s *Segment, limit int, fn func(off uint32, h EntryHeader) bool) error {
	off := 0
	for off < limit {
		h, err := parseHeader(s.buf[off:limit])
		if err != nil {
			return err
		}
		if !fn(uint32(off), h) {
			return nil
		}
		off += h.Size()
	}
	return nil
}

// MarkDeadRef subtracts the entry's size from its segment's live count
// without touching any log-level statistic; replay workers use it for
// refs that may live in another worker's side log.
func MarkDeadRef(ref Ref) {
	if ref.IsZero() {
		return
	}
	if n := ref.Size(); n > 0 {
		ref.Seg.addLive(-n)
	}
}
