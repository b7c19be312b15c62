package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// The binary format is little-endian with length-prefixed byte slices and
// count-prefixed lists. The in-process fabric never marshals (it hands
// payload pointers across a channel, modelling zero-copy DMA); marshalling
// exists for the TCP transport and for durability tooling.
//
// Each body's fields are listed once, in fields. A codec walks that list in
// one of three modes — sizing (WireSize), encoding (AppendMessage) and
// decoding (UnmarshalMessageShared) — so size, encoder and decoder cannot
// disagree.

// ErrTruncated reports a message that ended before its payload did.
var ErrTruncated = errors.New("wire: truncated message")

type mode uint8

const (
	sizing mode = iota // the zero codec sizes
	encoding
	decoding
)

// codec runs field lists in one mode. Decode errors are sticky: after the
// first failure every primitive leaves its field untouched.
type codec struct {
	mode mode
	n    int    // sizing: bytes counted
	buf  []byte // encoding: the output; decoding: the input
	off  int    // decoding: read cursor into buf
	err  error  // decoding: the first failure
	// aliased reports that a decoded blob references buf (blobs decode
	// zero-copy), so buf must not be recycled while the message is live.
	aliased bool
}

// need reports whether n more input bytes remain, failing the decode if not.
//
//lint:hotpath
func (c *codec) need(n int) bool {
	if c.err == nil && n > len(c.buf)-c.off {
		c.err = ErrTruncated
	}
	return c.err == nil
}

// u8 codes one byte.
//
//lint:hotpath
func u8[T ~uint8](c *codec, v *T) {
	switch c.mode {
	case sizing:
		c.n++
	case encoding:
		c.buf = append(c.buf, uint8(*v))
	default:
		if c.need(1) {
			*v = T(c.buf[c.off])
			c.off++
		}
	}
}

// u32 codes a little-endian uint32.
//
//lint:hotpath
func u32[T ~uint32](c *codec, v *T) {
	switch c.mode {
	case sizing:
		c.n += 4
	case encoding:
		c.buf = binary.LittleEndian.AppendUint32(c.buf, uint32(*v))
	default:
		if c.need(4) {
			*v = T(binary.LittleEndian.Uint32(c.buf[c.off:]))
			c.off += 4
		}
	}
}

// u64 codes a little-endian 64-bit integer.
//
//lint:hotpath
func u64[T ~uint64 | ~int64](c *codec, v *T) {
	switch c.mode {
	case sizing:
		c.n += 8
	case encoding:
		c.buf = binary.LittleEndian.AppendUint64(c.buf, uint64(*v))
	default:
		if c.need(8) {
			*v = T(binary.LittleEndian.Uint64(c.buf[c.off:]))
			c.off += 8
		}
	}
}

// boolean codes a bool as one byte. It repeats u8's three cases instead of
// calling u8 so that it stays small enough to inline into record, which
// runs for every record a migration moves.
//
//lint:hotpath
func boolean(c *codec, v *bool) {
	switch c.mode {
	case sizing:
		c.n++
	case encoding:
		var b uint8
		if *v {
			b = 1
		}
		c.buf = append(c.buf, b)
	default:
		if c.need(1) {
			*v = c.buf[c.off] != 0
			c.off++
		}
	}
}

// blob codes a length-prefixed byte string: a u32 length, then the bytes.
// Sizing is done here and the rest in blobBody, so that blob inlines into
// record and sizing a record, once per pulled record on the server, the
// fabric and the replay path, makes no call.
//
//lint:hotpath
func blob[T ~[]byte | ~string](c *codec, v *T) {
	if c.mode == sizing {
		c.n += 4 + len(*v)
		return
	}
	blobBody(c, v)
}

// blobBody encodes or decodes a blob. A decoded []byte aliases the input;
// callers that retain it must copy.
//
//lint:hotpath
func blobBody[T ~[]byte | ~string](c *codec, v *T) {
	n := uint32(len(*v))
	u32(c, &n)
	if c.mode == encoding {
		c.buf = append(c.buf, *v...)
	} else if c.need(int(n)) {
		end := c.off + int(n)
		*v = T(c.buf[c.off:end:end])
		c.off = end
		c.aliased = true
	}
}

// hashRange codes a HashRange.
//
//lint:hotpath
func hashRange(c *codec, r *HashRange) {
	u64(c, &r.Start)
	u64(c, &r.End)
}

// record codes one Record.
//
//lint:hotpath
func record(c *codec, r *Record) {
	u64(c, &r.Table)
	u64(c, &r.Version)
	boolean(c, &r.Tombstone)
	blob(c, &r.Key)
	blob(c, &r.Value)
}

// seq codes a count-prefixed list, each element by elem. Decoding first
// checks the count against the bytes left at the size of a zero element,
// so a corrupt count fails instead of over-allocating. Record lists, the
// bulk of migration traffic, decode into pooled slices and skip elem's
// type switch.
func seq[T any](c *codec, s *[]T) {
	n := uint32(len(*s))
	u32(c, &n)
	rs, isRecords := any(s).(*[]Record)
	if c.mode == decoding {
		var zero T
		var probe codec
		elem(&probe, &zero)
		if !c.need(int(n) * probe.n) {
			return
		}
		if isRecords && n > 0 {
			*rs = recordList(int(n))
		} else {
			*s = make([]T, n)
		}
	}
	if isRecords {
		for i := range *rs {
			record(c, &(*rs)[i])
		}
		return
	}
	for i := range *s {
		elem(c, &(*s)[i])
	}
}

// recordList returns n zeroed records, reusing a pooled slice when one is
// large enough.
func recordList(n int) []Record {
	rs := GetRecordSlice()
	if cap(rs) < n {
		ReleaseRecordSlice(rs)
		rs = make([]Record, 0, n)
	}
	rs = rs[:n]
	return rs
}

// elem codes one list element.
func elem(c *codec, v any) {
	switch e := v.(type) {
	case *uint64:
		u64(c, e)
	case *ServerID:
		u64(c, e)
	case *Status:
		u8(c, e)
	case *[]byte:
		blob(c, e)
	case *Record:
		record(c, e)
	case *ReplicateChunk:
		u64(c, &e.LogID)
		u64(c, &e.SegmentID)
		u32(c, &e.Offset)
		boolean(c, &e.Close)
		blob(c, &e.Data)
	case *BackupSegment:
		u64(c, &e.LogID)
		u64(c, &e.SegmentID)
		boolean(c, &e.Sealed)
		blob(c, &e.Data)
	case *Tablet:
		u64(c, &e.Table)
		hashRange(c, &e.Range)
		u64(c, &e.Master)
	case *Indexlet:
		u64(c, &e.Index)
		u64(c, &e.Table)
		u64(c, &e.Master)
		blob(c, &e.Begin)
		blob(c, &e.End)
	case *TabletHeat:
		u64(c, &e.Table)
		hashRange(c, &e.Range)
		u64(c, &e.Heat)
	default:
		// A static message: formatting v would make it escape, and with it
		// the zero element seq sizes on the stack.
		panic("wire: no list encoding for this element type")
	}
}

// message codes the envelope, then the body. Decoding builds the empty
// body from the op registry before filling it in.
func message(c *codec, m *Message) {
	u64(c, &m.ID)
	u64(c, &m.From)
	u64(c, &m.To)
	u8(c, &m.Op)
	boolean(c, &m.IsResponse)
	u8(c, &m.Priority)
	u64(c, &m.TraceID)
	u64(c, &m.DeadlineNanos)
	if c.mode == decoding && c.err == nil {
		if m.Body = newBody(m.Op, m.IsResponse); m.Body == nil {
			c.err = fmt.Errorf("wire: cannot unmarshal op=%v response=%v", m.Op, m.IsResponse)
		}
	}
	fields(c, m.Body)
}

// AppendMessage appends m's full wire encoding (envelope and body) to buf
// and returns the extended slice. It grows buf at most once, to WireSize,
// so marshalling into a warm pooled buffer performs zero allocations.
func AppendMessage(buf []byte, m *Message) []byte {
	if need := m.WireSize(); cap(buf)-len(buf) < need {
		grown := make([]byte, len(buf), len(buf)+need)
		copy(grown, buf)
		buf = grown
	}
	c := codec{mode: encoding, buf: buf}
	message(&c, m)
	return c.buf
}

// MarshalMessagePooled encodes the full envelope and body into a pooled
// buffer. The caller owns the buffer until it calls ReleaseBuffer.
func MarshalMessagePooled(m *Message) *Buffer {
	b := GetBuffer()
	b.B = AppendMessage(b.B, m)
	return b
}

// UnmarshalMessage decodes a full envelope and body.
func UnmarshalMessage(buf []byte) (*Message, error) {
	m, _, err := UnmarshalMessageShared(buf)
	return m, err
}

// UnmarshalMessageShared decodes a full envelope and body from buf, which
// the caller may intend to recycle: the second result reports whether the
// decoded message retains references into buf (blob-bearing bodies decode
// zero-copy). Only when it is false may the caller reuse buf while the
// message is live.
func UnmarshalMessageShared(buf []byte) (*Message, bool, error) {
	c := codec{mode: decoding, buf: buf}
	m := new(Message)
	message(&c, m)
	if c.err != nil {
		return nil, c.aliased, c.err
	}
	return m, c.aliased, nil
}

// fields lists each body's fields in wire order: the one description of
// the body that sizing, encoding and decoding all run.
func fields(c *codec, p Payload) {
	switch b := p.(type) {
	case nil:
	case *ReadRequest:
		u64(c, &b.Table)
		blob(c, &b.Key)
	case *ReadResponse:
		u8(c, &b.Status)
		u64(c, &b.Version)
		u32(c, &b.RetryAfterMicros)
		blob(c, &b.Value)
	case *WriteRequest:
		u64(c, &b.Table)
		blob(c, &b.Key)
		blob(c, &b.Value)
	case *WriteResponse:
		u8(c, &b.Status)
		u64(c, &b.Version)
	case *DeleteRequest:
		u64(c, &b.Table)
		blob(c, &b.Key)
	case *DeleteResponse:
		u8(c, &b.Status)
		u64(c, &b.Version)
	case *MultiGetRequest:
		u64(c, &b.Table)
		seq(c, &b.Keys)
	case *MultiGetResponse:
		u8(c, &b.Status)
		u32(c, &b.RetryAfterMicros)
		seq(c, &b.Statuses)
		seq(c, &b.Versions)
		seq(c, &b.Values)
	case *MultiPutRequest:
		u64(c, &b.Table)
		seq(c, &b.Keys)
		seq(c, &b.Values)
	case *MultiPutResponse:
		u8(c, &b.Status)
		seq(c, &b.Statuses)
		seq(c, &b.Versions)
	case *MultiGetByHashRequest:
		u64(c, &b.Table)
		seq(c, &b.Hashes)
	case *MultiGetByHashResponse:
		u8(c, &b.Status)
		u32(c, &b.RetryAfterMicros)
		seq(c, &b.Records)
	case *IndexLookupRequest:
		u64(c, &b.Index)
		u32(c, &b.Limit)
		blob(c, &b.Begin)
		blob(c, &b.End)
	case *IndexLookupResponse:
		u8(c, &b.Status)
		seq(c, &b.Hashes)
	case *IndexInsertRequest:
		u64(c, &b.Index)
		u64(c, &b.KeyHash)
		blob(c, &b.SecondaryKey)
	case *IndexInsertResponse:
		u8(c, &b.Status)
	case *IndexRemoveRequest:
		u64(c, &b.Index)
		u64(c, &b.KeyHash)
		blob(c, &b.SecondaryKey)
	case *IndexRemoveResponse:
		u8(c, &b.Status)
	case *MigrateTabletRequest:
		u64(c, &b.Table)
		hashRange(c, &b.Range)
		u64(c, &b.Source)
	case *MigrateTabletResponse:
		u8(c, &b.Status)
	case *PrepareMigrationRequest:
		u64(c, &b.Table)
		hashRange(c, &b.Range)
		u64(c, &b.Target)
		boolean(c, &b.KeepServing)
	case *PrepareMigrationResponse:
		u8(c, &b.Status)
		u64(c, &b.VersionCeiling)
		u64(c, &b.NumBuckets)
		u64(c, &b.TailWatermark)
	case *AbortMigrationRequest:
		u64(c, &b.Table)
		hashRange(c, &b.Range)
		u64(c, &b.Target)
	case *AbortMigrationResponse:
		u8(c, &b.Status)
	case *PullRequest:
		u64(c, &b.Table)
		hashRange(c, &b.Range)
		u64(c, &b.ResumeToken)
		u32(c, &b.ByteBudget)
	case *PullResponse:
		u8(c, &b.Status)
		u64(c, &b.ResumeToken)
		boolean(c, &b.Done)
		seq(c, &b.Records)
	case *PriorityPullRequest:
		u64(c, &b.Table)
		seq(c, &b.Hashes)
	case *PriorityPullResponse:
		u8(c, &b.Status)
		seq(c, &b.Records)
		seq(c, &b.Missing)
	case *DropTabletRequest:
		u64(c, &b.Table)
		hashRange(c, &b.Range)
	case *DropTabletResponse:
		u8(c, &b.Status)
	case *ReplayRecordsRequest:
		u64(c, &b.Table)
		boolean(c, &b.Replicate)
		boolean(c, &b.SkipReplay)
		seq(c, &b.Records)
	case *ReplayRecordsResponse:
		u8(c, &b.Status)
	case *PullTailRequest:
		u64(c, &b.Table)
		hashRange(c, &b.Range)
		u64(c, &b.AfterEpoch)
	case *PullTailResponse:
		u8(c, &b.Status)
		seq(c, &b.Records)
	case *ReplicateBatchRequest:
		u64(c, &b.Master)
		seq(c, &b.Chunks)
	case *ReplicateBatchResponse:
		u8(c, &b.Status)
		seq(c, &b.ChunkStatuses)
	case *GetBackupSegmentsRequest:
		u64(c, &b.Master)
		u64(c, &b.MinLogOffset)
		u64(c, &b.Cursor)
		u32(c, &b.MaxBytes)
	case *GetBackupSegmentsResponse:
		u8(c, &b.Status)
		u64(c, &b.NextCursor)
		boolean(c, &b.More)
		seq(c, &b.Segments)
	case *TakeTabletsRequest:
		u64(c, &b.Table)
		hashRange(c, &b.Range)
		u64(c, &b.VersionCeiling)
		seq(c, &b.Records)
	case *TakeTabletsResponse:
		u8(c, &b.Status)
	case *GetTabletMapRequest:
	case *GetTabletMapResponse:
		u8(c, &b.Status)
		u64(c, &b.Version)
		seq(c, &b.Tablets)
		seq(c, &b.Indexlets)
	case *CreateTableRequest:
		blob(c, &b.Name)
		seq(c, &b.Servers)
	case *CreateTableResponse:
		u8(c, &b.Status)
		u64(c, &b.Table)
	case *CreateIndexRequest:
		u64(c, &b.Table)
		seq(c, &b.Servers)
		seq(c, &b.SplitKeys)
	case *CreateIndexResponse:
		u8(c, &b.Status)
		u64(c, &b.Index)
	case *MigrateStartRequest:
		u64(c, &b.Table)
		hashRange(c, &b.Range)
		u64(c, &b.Source)
		u64(c, &b.Target)
		u64(c, &b.TargetLogWatermark)
	case *MigrateStartResponse:
		u8(c, &b.Status)
		u64(c, &b.MapVersion)
	case *MigrateDoneRequest:
		u64(c, &b.Table)
		hashRange(c, &b.Range)
		u64(c, &b.Source)
		u64(c, &b.Target)
	case *MigrateDoneResponse:
		u8(c, &b.Status)
	case *SplitTabletRequest:
		u64(c, &b.Table)
		u64(c, &b.SplitAt)
	case *SplitTabletResponse:
		u8(c, &b.Status)
		u64(c, &b.MapVersion)
	case *EnlistServerRequest:
		u64(c, &b.Server)
	case *EnlistServerResponse:
		u8(c, &b.Status)
	case *ReportCrashRequest:
		u64(c, &b.Server)
	case *ReportCrashResponse:
		u8(c, &b.Status)
	case *MergeTabletsRequest:
		u64(c, &b.Table)
		u64(c, &b.MergeAt)
	case *MergeTabletsResponse:
		u8(c, &b.Status)
		u64(c, &b.MapVersion)
	case *GetHeatRequest:
	case *GetHeatResponse:
		u8(c, &b.Status)
		seq(c, &b.Tablets)
		seq(c, &b.QueueWaitP99Micros)
	case *RebalanceControlRequest:
		boolean(c, &b.Enable)
		boolean(c, &b.Disable)
	case *RebalanceControlResponse:
		u8(c, &b.Status)
		boolean(c, &b.Enabled)
		boolean(c, &b.BackingOff)
		u64(c, &b.Splits)
		u64(c, &b.Merges)
		u64(c, &b.Migrations)
		u64(c, &b.Backoffs)
	case *BackupStatusRequest:
	case *BackupStatusResponse:
		u8(c, &b.Status)
		boolean(c, &b.Persistent)
		u64(c, &b.Segments)
		u64(c, &b.SealedSegments)
		u64(c, &b.Bytes)
		u64(c, &b.BytesWritten)
		u64(c, &b.SyncLag)
	case *RecoverMasterRequest:
		u64(c, &b.Master)
	case *RecoverMasterResponse:
		u8(c, &b.Status)
		u64(c, &b.Segments)
		u64(c, &b.Records)
	case *PingRequest:
	case *PingResponse:
		u8(c, &b.Status)
	default:
		panic(fmt.Sprintf("wire: cannot code %T", p))
	}
}
