package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// The binary format is little-endian with length-prefixed byte slices. The
// in-process fabric never marshals (it hands payload pointers across a
// channel, modelling zero-copy DMA); marshalling exists for the TCP
// transport and for durability tooling, and doubles as a precise
// specification of WireSize.

// ErrTruncated reports a message that ended before its payload did.
var ErrTruncated = errors.New("wire: truncated message")

// Encoder appends primitive values to a byte buffer.
type Encoder struct{ buf []byte }

// NewEncoder returns an encoder writing into buf (may be nil).
func NewEncoder(buf []byte) *Encoder { return &Encoder{buf: buf} }

// Bytes returns the accumulated encoding.
func (e *Encoder) Bytes() []byte { return e.buf }

// U8 appends one byte.
//lint:hotpath
func (e *Encoder) U8(v uint8) { e.buf = append(e.buf, v) }

// Bool appends a boolean as one byte.
//lint:hotpath
func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// U32 appends a little-endian uint32.
//lint:hotpath
func (e *Encoder) U32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }

// U64 appends a little-endian uint64.
//lint:hotpath
func (e *Encoder) U64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

// Blob appends a length-prefixed byte slice.
//lint:hotpath
func (e *Encoder) Blob(b []byte) {
	e.U32(uint32(len(b)))
	e.buf = append(e.buf, b...)
}

// Blobs appends a count-prefixed sequence of blobs.
func (e *Encoder) Blobs(bs [][]byte) {
	e.U32(uint32(len(bs)))
	for _, b := range bs {
		e.Blob(b)
	}
}

// U64s appends a count-prefixed sequence of uint64s.
func (e *Encoder) U64s(vs []uint64) {
	e.U32(uint32(len(vs)))
	for _, v := range vs {
		e.U64(v)
	}
}

// Statuses appends a count-prefixed sequence of status bytes.
func (e *Encoder) Statuses(ss []Status) {
	e.U32(uint32(len(ss)))
	for _, s := range ss {
		e.U8(uint8(s))
	}
}

// Record appends one record.
//lint:hotpath
func (e *Encoder) Record(r *Record) {
	e.U64(uint64(r.Table))
	e.U64(r.Version)
	e.Bool(r.Tombstone)
	e.Blob(r.Key)
	e.Blob(r.Value)
}

// Records appends a count-prefixed sequence of records.
func (e *Encoder) Records(rs []Record) {
	e.U32(uint32(len(rs)))
	for i := range rs {
		e.Record(&rs[i])
	}
}

// Range appends a HashRange.
//lint:hotpath
func (e *Encoder) Range(r HashRange) {
	e.U64(r.Start)
	e.U64(r.End)
}

// Decoder consumes primitive values from a byte buffer. Decode errors are
// sticky: after the first failure every read returns zero values and Err
// reports the failure.
type Decoder struct {
	buf     []byte
	off     int
	err     error
	aliased bool
}

// NewDecoder returns a decoder reading from buf.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// Err returns the first decode error, if any.
func (d *Decoder) Err() error { return d.err }

// Aliased reports whether any decoded value references the input buffer
// (Blob and everything built on it are zero-copy). A caller that wants to
// recycle the buffer may only do so when Aliased is false.
func (d *Decoder) Aliased() bool { return d.aliased }

func (d *Decoder) remaining() int { return len(d.buf) - d.off }

//lint:hotpath
func (d *Decoder) need(n int) bool {
	if d.err != nil {
		return false
	}
	if d.off+n > len(d.buf) {
		d.err = ErrTruncated
		return false
	}
	return true
}

// U8 reads one byte.
//lint:hotpath
func (d *Decoder) U8() uint8 {
	if !d.need(1) {
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}

// Bool reads a boolean byte.
//lint:hotpath
func (d *Decoder) Bool() bool { return d.U8() != 0 }

// U32 reads a little-endian uint32.
//lint:hotpath
func (d *Decoder) U32() uint32 {
	if !d.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v
}

// U64 reads a little-endian uint64.
//lint:hotpath
func (d *Decoder) U64() uint64 {
	if !d.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

// Blob reads a length-prefixed byte slice. The result aliases the input
// buffer; callers that retain it must copy.
//lint:hotpath
func (d *Decoder) Blob() []byte {
	n := int(d.U32())
	if !d.need(n) {
		return nil
	}
	v := d.buf[d.off : d.off+n : d.off+n]
	d.off += n
	d.aliased = true
	return v
}

// Blobs reads a count-prefixed sequence of blobs. The count is validated
// against the minimum encoded size per element (a 4-byte length prefix) so
// a corrupt count can never over-allocate.
func (d *Decoder) Blobs() [][]byte {
	n := int(d.U32())
	if d.err != nil || n < 0 || n*4 > d.remaining() {
		if d.err == nil {
			d.err = ErrTruncated
		}
		return nil
	}
	out := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, d.Blob())
	}
	return out
}

// U64s reads a count-prefixed sequence of uint64s.
func (d *Decoder) U64s() []uint64 {
	n := int(d.U32())
	if d.err != nil || n < 0 || n*8 > d.remaining() {
		if d.err == nil {
			d.err = ErrTruncated
		}
		return nil
	}
	out := make([]uint64, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, d.U64())
	}
	return out
}

// Statuses reads a count-prefixed sequence of status bytes.
func (d *Decoder) Statuses() []Status {
	n := int(d.U32())
	if d.err != nil || n < 0 || n > d.remaining() {
		if d.err == nil {
			d.err = ErrTruncated
		}
		return nil
	}
	out := make([]Status, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, Status(d.U8()))
	}
	return out
}

// Record reads one record.
//lint:hotpath
func (d *Decoder) Record() Record {
	return Record{
		Table:     TableID(d.U64()),
		Version:   d.U64(),
		Tombstone: d.Bool(),
		Key:       d.Blob(),
		Value:     d.Blob(),
	}
}

// minRecordWire is the smallest possible encoded record: table(8) +
// version(8) + tombstone(1) + two empty length-prefixed blobs (4+4).
const minRecordWire = 25

// Records reads a count-prefixed sequence of records into a pooled slice
// (exact-capacity allocation when the batch outgrows the pool's cap). The
// count is validated against the minimum encoded record size, so capacity
// is sized right in one step and a corrupt count cannot over-allocate.
func (d *Decoder) Records() []Record {
	n := int(d.U32())
	if d.err != nil || n < 0 || n*minRecordWire > d.remaining() {
		if d.err == nil {
			d.err = ErrTruncated
		}
		return nil
	}
	if n == 0 {
		return []Record{}
	}
	out := GetRecordSlice()
	if cap(out) < n {
		ReleaseRecordSlice(out)
		out = make([]Record, 0, n)
	}
	for i := 0; i < n; i++ {
		out = append(out, d.Record())
	}
	return out
}

// Range reads a HashRange.
//lint:hotpath
func (d *Decoder) Range() HashRange { return HashRange{Start: d.U64(), End: d.U64()} }

// AppendMessage appends m's full wire encoding (envelope and body) to buf
// and returns the extended slice. It grows buf at most once, to WireSize,
// so marshalling into a warm pooled buffer performs zero allocations.
func AppendMessage(buf []byte, m *Message) []byte {
	if need := m.WireSize(); cap(buf)-len(buf) < need {
		grown := make([]byte, len(buf), len(buf)+need)
		copy(grown, buf)
		buf = grown
	}
	e := Encoder{buf: buf}
	e.U64(m.ID)
	e.U64(uint64(m.From))
	e.U64(uint64(m.To))
	e.U8(uint8(m.Op))
	e.Bool(m.IsResponse)
	e.U8(uint8(m.Priority))
	e.U64(m.TraceID)
	e.U64(uint64(m.DeadlineNanos))
	marshalBody(&e, m.Body)
	return e.buf
}

// MarshalMessage encodes the full envelope and body into a fresh buffer
// owned by the caller.
func MarshalMessage(m *Message) []byte {
	return AppendMessage(make([]byte, 0, m.WireSize()), m)
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
	d := NewDecoder(buf)
	m := &Message{
		ID:         d.U64(),
		From:       ServerID(d.U64()),
		To:         ServerID(d.U64()),
		Op:         Op(d.U8()),
		IsResponse: d.Bool(),
		Priority:   Priority(d.U8()),
	}
	m.TraceID = d.U64()
	m.DeadlineNanos = int64(d.U64())
	if d.err != nil {
		return nil, d.aliased, d.err
	}
	body, err := unmarshalBody(d, m.Op, m.IsResponse)
	if err != nil {
		return nil, d.aliased, err
	}
	m.Body = body
	if d.err != nil {
		return nil, d.aliased, d.err
	}
	return m, d.aliased, nil
}

func marshalBody(e *Encoder, p Payload) {
	switch b := p.(type) {
	case nil:
	case *ReadRequest:
		e.U64(uint64(b.Table))
		e.Blob(b.Key)
	case *ReadResponse:
		e.U8(uint8(b.Status))
		e.U64(b.Version)
		e.U32(b.RetryAfterMicros)
		e.Blob(b.Value)
	case *WriteRequest:
		e.U64(uint64(b.Table))
		e.Blob(b.Key)
		e.Blob(b.Value)
	case *WriteResponse:
		e.U8(uint8(b.Status))
		e.U64(b.Version)
	case *DeleteRequest:
		e.U64(uint64(b.Table))
		e.Blob(b.Key)
	case *DeleteResponse:
		e.U8(uint8(b.Status))
		e.U64(b.Version)
	case *MultiGetRequest:
		e.U64(uint64(b.Table))
		e.Blobs(b.Keys)
	case *MultiGetResponse:
		e.U8(uint8(b.Status))
		e.U32(b.RetryAfterMicros)
		e.Statuses(b.Statuses)
		e.U64s(b.Versions)
		e.Blobs(b.Values)
	case *MultiPutRequest:
		e.U64(uint64(b.Table))
		e.Blobs(b.Keys)
		e.Blobs(b.Values)
	case *MultiPutResponse:
		e.U8(uint8(b.Status))
		e.Statuses(b.Statuses)
		e.U64s(b.Versions)
	case *MultiGetByHashRequest:
		e.U64(uint64(b.Table))
		e.U64s(b.Hashes)
	case *MultiGetByHashResponse:
		e.U8(uint8(b.Status))
		e.U32(b.RetryAfterMicros)
		e.Records(b.Records)
	case *IndexLookupRequest:
		e.U64(uint64(b.Index))
		e.U32(b.Limit)
		e.Blob(b.Begin)
		e.Blob(b.End)
	case *IndexLookupResponse:
		e.U8(uint8(b.Status))
		e.U64s(b.Hashes)
	case *IndexInsertRequest:
		e.U64(uint64(b.Index))
		e.U64(b.KeyHash)
		e.Blob(b.SecondaryKey)
	case *IndexInsertResponse:
		e.U8(uint8(b.Status))
	case *IndexRemoveRequest:
		e.U64(uint64(b.Index))
		e.U64(b.KeyHash)
		e.Blob(b.SecondaryKey)
	case *IndexRemoveResponse:
		e.U8(uint8(b.Status))
	case *MigrateTabletRequest:
		e.U64(uint64(b.Table))
		e.Range(b.Range)
		e.U64(uint64(b.Source))
	case *MigrateTabletResponse:
		e.U8(uint8(b.Status))
	case *PrepareMigrationRequest:
		e.U64(uint64(b.Table))
		e.Range(b.Range)
		e.U64(uint64(b.Target))
		e.Bool(b.KeepServing)
	case *PrepareMigrationResponse:
		e.U8(uint8(b.Status))
		e.U64(b.VersionCeiling)
		e.U64(b.NumBuckets)
		e.U64(b.TailWatermark)
	case *AbortMigrationRequest:
		e.U64(uint64(b.Table))
		e.Range(b.Range)
		e.U64(uint64(b.Target))
	case *AbortMigrationResponse:
		e.U8(uint8(b.Status))
	case *PullRequest:
		e.U64(uint64(b.Table))
		e.Range(b.Range)
		e.U64(b.ResumeToken)
		e.U32(b.ByteBudget)
	case *PullResponse:
		e.U8(uint8(b.Status))
		e.U64(b.ResumeToken)
		e.Bool(b.Done)
		e.Records(b.Records)
	case *PriorityPullRequest:
		e.U64(uint64(b.Table))
		e.U64s(b.Hashes)
	case *PriorityPullResponse:
		e.U8(uint8(b.Status))
		e.Records(b.Records)
		e.U64s(b.Missing)
	case *DropTabletRequest:
		e.U64(uint64(b.Table))
		e.Range(b.Range)
	case *DropTabletResponse:
		e.U8(uint8(b.Status))
	case *ReplayRecordsRequest:
		e.U64(uint64(b.Table))
		e.Bool(b.Replicate)
		e.Bool(b.SkipReplay)
		e.Records(b.Records)
	case *ReplayRecordsResponse:
		e.U8(uint8(b.Status))
	case *PullTailRequest:
		e.U64(uint64(b.Table))
		e.Range(b.Range)
		e.U64(b.AfterEpoch)
	case *PullTailResponse:
		e.U8(uint8(b.Status))
		e.Records(b.Records)
	case *ReplicateSegmentRequest:
		e.U64(uint64(b.Master))
		e.U64(b.LogID)
		e.U64(b.SegmentID)
		e.U32(b.Offset)
		e.Bool(b.Close)
		e.Blob(b.Data)
	case *ReplicateSegmentResponse:
		e.U8(uint8(b.Status))
	case *ReplicateBatchRequest:
		e.U64(uint64(b.Master))
		e.U32(uint32(len(b.Chunks)))
		for i := range b.Chunks {
			c := &b.Chunks[i]
			e.U64(c.LogID)
			e.U64(c.SegmentID)
			e.U32(c.Offset)
			e.Bool(c.Close)
			e.Blob(c.Data)
		}
	case *ReplicateBatchResponse:
		e.U8(uint8(b.Status))
		e.Statuses(b.ChunkStatuses)
	case *GetBackupSegmentsRequest:
		e.U64(uint64(b.Master))
		e.U64(b.MinLogOffset)
		e.U64(b.Cursor)
		e.U32(b.MaxBytes)
	case *GetBackupSegmentsResponse:
		e.U8(uint8(b.Status))
		e.U64(b.NextCursor)
		e.Bool(b.More)
		e.U32(uint32(len(b.Segments)))
		for i := range b.Segments {
			e.U64(b.Segments[i].LogID)
			e.U64(b.Segments[i].SegmentID)
			e.Bool(b.Segments[i].Sealed)
			e.Blob(b.Segments[i].Data)
		}
	case *TakeTabletsRequest:
		e.U64(uint64(b.Table))
		e.Range(b.Range)
		e.U64(b.VersionCeiling)
		e.Records(b.Records)
	case *TakeTabletsResponse:
		e.U8(uint8(b.Status))
	case *GetTabletMapRequest:
	case *GetTabletMapResponse:
		e.U8(uint8(b.Status))
		e.U64(b.Version)
		e.U32(uint32(len(b.Tablets)))
		for i := range b.Tablets {
			e.U64(uint64(b.Tablets[i].Table))
			e.Range(b.Tablets[i].Range)
			e.U64(uint64(b.Tablets[i].Master))
		}
		e.U32(uint32(len(b.Indexlets)))
		for i := range b.Indexlets {
			e.U64(uint64(b.Indexlets[i].Index))
			e.U64(uint64(b.Indexlets[i].Table))
			e.U64(uint64(b.Indexlets[i].Master))
			e.Blob(b.Indexlets[i].Begin)
			e.Blob(b.Indexlets[i].End)
		}
	case *CreateTableRequest:
		e.Blob([]byte(b.Name))
		e.U64s(serverIDsToU64(b.Servers))
	case *CreateTableResponse:
		e.U8(uint8(b.Status))
		e.U64(uint64(b.Table))
	case *CreateIndexRequest:
		e.U64(uint64(b.Table))
		e.U64s(serverIDsToU64(b.Servers))
		e.Blobs(b.SplitKeys)
	case *CreateIndexResponse:
		e.U8(uint8(b.Status))
		e.U64(uint64(b.Index))
	case *MigrateStartRequest:
		e.U64(uint64(b.Table))
		e.Range(b.Range)
		e.U64(uint64(b.Source))
		e.U64(uint64(b.Target))
		e.U64(b.TargetLogWatermark)
	case *MigrateStartResponse:
		e.U8(uint8(b.Status))
		e.U64(b.MapVersion)
	case *MigrateDoneRequest:
		e.U64(uint64(b.Table))
		e.Range(b.Range)
		e.U64(uint64(b.Source))
		e.U64(uint64(b.Target))
	case *MigrateDoneResponse:
		e.U8(uint8(b.Status))
	case *SplitTabletRequest:
		e.U64(uint64(b.Table))
		e.U64(b.SplitAt)
	case *SplitTabletResponse:
		e.U8(uint8(b.Status))
		e.U64(b.MapVersion)
	case *EnlistServerRequest:
		e.U64(uint64(b.Server))
	case *EnlistServerResponse:
		e.U8(uint8(b.Status))
	case *ReportCrashRequest:
		e.U64(uint64(b.Server))
	case *ReportCrashResponse:
		e.U8(uint8(b.Status))
	case *MergeTabletsRequest:
		e.U64(uint64(b.Table))
		e.U64(b.MergeAt)
	case *MergeTabletsResponse:
		e.U8(uint8(b.Status))
		e.U64(b.MapVersion)
	case *GetHeatRequest:
	case *GetHeatResponse:
		e.U8(uint8(b.Status))
		e.U32(uint32(len(b.Tablets)))
		for i := range b.Tablets {
			e.U64(uint64(b.Tablets[i].Table))
			e.Range(b.Tablets[i].Range)
			e.U64(b.Tablets[i].Heat)
		}
		e.U64s(b.QueueWaitP99Micros)
	case *RebalanceControlRequest:
		e.Bool(b.Enable)
		e.Bool(b.Disable)
	case *RebalanceControlResponse:
		e.U8(uint8(b.Status))
		e.Bool(b.Enabled)
		e.Bool(b.BackingOff)
		e.U64(b.Splits)
		e.U64(b.Merges)
		e.U64(b.Migrations)
		e.U64(b.Backoffs)
	case *BackupStatusRequest:
	case *BackupStatusResponse:
		e.U8(uint8(b.Status))
		e.Bool(b.Persistent)
		e.U64(b.Segments)
		e.U64(b.SealedSegments)
		e.U64(b.Bytes)
		e.U64(b.BytesWritten)
		e.U64(b.SyncLag)
	case *RecoverMasterRequest:
		e.U64(uint64(b.Master))
	case *RecoverMasterResponse:
		e.U8(uint8(b.Status))
		e.U64(b.Segments)
		e.U64(b.Records)
	case *PingRequest:
	case *PingResponse:
		e.U8(uint8(b.Status))
	default:
		panic(fmt.Sprintf("wire: cannot marshal %T", p))
	}
}

func unmarshalBody(d *Decoder, op Op, isResponse bool) (Payload, error) {
	switch {
	case op == OpRead && !isResponse:
		return &ReadRequest{Table: TableID(d.U64()), Key: d.Blob()}, d.err
	case op == OpRead:
		return &ReadResponse{Status: Status(d.U8()), Version: d.U64(), RetryAfterMicros: d.U32(), Value: d.Blob()}, d.err
	case op == OpWrite && !isResponse:
		return &WriteRequest{Table: TableID(d.U64()), Key: d.Blob(), Value: d.Blob()}, d.err
	case op == OpWrite:
		return &WriteResponse{Status: Status(d.U8()), Version: d.U64()}, d.err
	case op == OpDelete && !isResponse:
		return &DeleteRequest{Table: TableID(d.U64()), Key: d.Blob()}, d.err
	case op == OpDelete:
		return &DeleteResponse{Status: Status(d.U8()), Version: d.U64()}, d.err
	case op == OpMultiGet && !isResponse:
		return &MultiGetRequest{Table: TableID(d.U64()), Keys: d.Blobs()}, d.err
	case op == OpMultiGet:
		return &MultiGetResponse{Status: Status(d.U8()), RetryAfterMicros: d.U32(), Statuses: d.Statuses(), Versions: d.U64s(), Values: d.Blobs()}, d.err
	case op == OpMultiPut && !isResponse:
		return &MultiPutRequest{Table: TableID(d.U64()), Keys: d.Blobs(), Values: d.Blobs()}, d.err
	case op == OpMultiPut:
		return &MultiPutResponse{Status: Status(d.U8()), Statuses: d.Statuses(), Versions: d.U64s()}, d.err
	case op == OpMultiGetByHash && !isResponse:
		return &MultiGetByHashRequest{Table: TableID(d.U64()), Hashes: d.U64s()}, d.err
	case op == OpMultiGetByHash:
		return &MultiGetByHashResponse{Status: Status(d.U8()), RetryAfterMicros: d.U32(), Records: d.Records()}, d.err
	case op == OpIndexLookup && !isResponse:
		return &IndexLookupRequest{Index: IndexID(d.U64()), Limit: d.U32(), Begin: d.Blob(), End: d.Blob()}, d.err
	case op == OpIndexLookup:
		return &IndexLookupResponse{Status: Status(d.U8()), Hashes: d.U64s()}, d.err
	case op == OpIndexInsert && !isResponse:
		return &IndexInsertRequest{Index: IndexID(d.U64()), KeyHash: d.U64(), SecondaryKey: d.Blob()}, d.err
	case op == OpIndexInsert:
		return &IndexInsertResponse{Status: Status(d.U8())}, d.err
	case op == OpIndexRemove && !isResponse:
		return &IndexRemoveRequest{Index: IndexID(d.U64()), KeyHash: d.U64(), SecondaryKey: d.Blob()}, d.err
	case op == OpIndexRemove:
		return &IndexRemoveResponse{Status: Status(d.U8())}, d.err
	case op == OpMigrateTablet && !isResponse:
		return &MigrateTabletRequest{Table: TableID(d.U64()), Range: d.Range(), Source: ServerID(d.U64())}, d.err
	case op == OpMigrateTablet:
		return &MigrateTabletResponse{Status: Status(d.U8())}, d.err
	case op == OpPrepareMigration && !isResponse:
		return &PrepareMigrationRequest{Table: TableID(d.U64()), Range: d.Range(), Target: ServerID(d.U64()), KeepServing: d.Bool()}, d.err
	case op == OpPrepareMigration:
		return &PrepareMigrationResponse{Status: Status(d.U8()), VersionCeiling: d.U64(), NumBuckets: d.U64(), TailWatermark: d.U64()}, d.err
	case op == OpAbortMigration && !isResponse:
		return &AbortMigrationRequest{Table: TableID(d.U64()), Range: d.Range(), Target: ServerID(d.U64())}, d.err
	case op == OpAbortMigration:
		return &AbortMigrationResponse{Status: Status(d.U8())}, d.err
	case op == OpPull && !isResponse:
		return &PullRequest{Table: TableID(d.U64()), Range: d.Range(), ResumeToken: d.U64(), ByteBudget: d.U32()}, d.err
	case op == OpPull:
		return &PullResponse{Status: Status(d.U8()), ResumeToken: d.U64(), Done: d.Bool(), Records: d.Records()}, d.err
	case op == OpPriorityPull && !isResponse:
		return &PriorityPullRequest{Table: TableID(d.U64()), Hashes: d.U64s()}, d.err
	case op == OpPriorityPull:
		return &PriorityPullResponse{Status: Status(d.U8()), Records: d.Records(), Missing: d.U64s()}, d.err
	case op == OpDropTablet && !isResponse:
		return &DropTabletRequest{Table: TableID(d.U64()), Range: d.Range()}, d.err
	case op == OpDropTablet:
		return &DropTabletResponse{Status: Status(d.U8())}, d.err
	case op == OpReplayRecords && !isResponse:
		return &ReplayRecordsRequest{Table: TableID(d.U64()), Replicate: d.Bool(), SkipReplay: d.Bool(), Records: d.Records()}, d.err
	case op == OpReplayRecords:
		return &ReplayRecordsResponse{Status: Status(d.U8())}, d.err
	case op == OpPullTail && !isResponse:
		return &PullTailRequest{Table: TableID(d.U64()), Range: d.Range(), AfterEpoch: d.U64()}, d.err
	case op == OpPullTail:
		return &PullTailResponse{Status: Status(d.U8()), Records: d.Records()}, d.err
	case op == OpReplicateSegment && !isResponse:
		return &ReplicateSegmentRequest{Master: ServerID(d.U64()), LogID: d.U64(), SegmentID: d.U64(), Offset: d.U32(), Close: d.Bool(), Data: d.Blob()}, d.err
	case op == OpReplicateSegment:
		return &ReplicateSegmentResponse{Status: Status(d.U8())}, d.err
	case op == OpReplicateBatch && !isResponse:
		req := &ReplicateBatchRequest{Master: ServerID(d.U64())}
		n := int(d.U32())
		// Minimum per chunk: logID(8) + segmentID(8) + offset(4) +
		// close(1) + empty blob(4); the bound keeps a corrupt count from
		// over-allocating.
		if d.err == nil && n >= 0 && n*25 <= d.remaining() {
			req.Chunks = make([]ReplicateChunk, 0, n)
			for i := 0; i < n && d.err == nil; i++ {
				req.Chunks = append(req.Chunks, ReplicateChunk{
					LogID: d.U64(), SegmentID: d.U64(), Offset: d.U32(),
					Close: d.Bool(), Data: d.Blob(),
				})
			}
		} else if d.err == nil && n != 0 {
			d.err = ErrTruncated
		}
		return req, d.err
	case op == OpReplicateBatch:
		return &ReplicateBatchResponse{Status: Status(d.U8()), ChunkStatuses: d.Statuses()}, d.err
	case op == OpGetBackupSegments && !isResponse:
		return &GetBackupSegmentsRequest{Master: ServerID(d.U64()), MinLogOffset: d.U64(), Cursor: d.U64(), MaxBytes: d.U32()}, d.err
	case op == OpGetBackupSegments:
		resp := &GetBackupSegmentsResponse{Status: Status(d.U8()), NextCursor: d.U64(), More: d.Bool()}
		n := int(d.U32())
		// Minimum per segment: logID(8) + segmentID(8) + sealed(1) +
		// empty blob(4).
		if d.err == nil && n >= 0 && n*21 <= d.remaining() {
			resp.Segments = make([]BackupSegment, 0, n)
			for i := 0; i < n; i++ {
				resp.Segments = append(resp.Segments, BackupSegment{LogID: d.U64(), SegmentID: d.U64(), Sealed: d.Bool(), Data: d.Blob()})
			}
		} else if d.err == nil {
			d.err = ErrTruncated
		}
		return resp, d.err
	case op == OpTakeTablets && !isResponse:
		return &TakeTabletsRequest{Table: TableID(d.U64()), Range: d.Range(), VersionCeiling: d.U64(), Records: d.Records()}, d.err
	case op == OpTakeTablets:
		return &TakeTabletsResponse{Status: Status(d.U8())}, d.err
	case op == OpGetTabletMap && !isResponse:
		return &GetTabletMapRequest{}, d.err
	case op == OpGetTabletMap:
		resp := &GetTabletMapResponse{Status: Status(d.U8()), Version: d.U64()}
		nt := int(d.U32())
		// Minimum per tablet: table(8) + range(16) + master(8).
		if d.err != nil || nt < 0 || nt*32 > d.remaining() {
			if d.err == nil {
				d.err = ErrTruncated
			}
			return resp, d.err
		}
		resp.Tablets = make([]Tablet, 0, nt)
		for i := 0; i < nt; i++ {
			resp.Tablets = append(resp.Tablets, Tablet{Table: TableID(d.U64()), Range: d.Range(), Master: ServerID(d.U64())})
		}
		ni := int(d.U32())
		// Minimum per indexlet: ids(24) + two empty blobs(8).
		if d.err != nil || ni < 0 || ni*32 > d.remaining() {
			if d.err == nil {
				d.err = ErrTruncated
			}
			return resp, d.err
		}
		resp.Indexlets = make([]Indexlet, 0, ni)
		for i := 0; i < ni; i++ {
			resp.Indexlets = append(resp.Indexlets, Indexlet{Index: IndexID(d.U64()), Table: TableID(d.U64()), Master: ServerID(d.U64()), Begin: d.Blob(), End: d.Blob()})
		}
		return resp, d.err
	case op == OpCreateTable && !isResponse:
		return &CreateTableRequest{Name: string(d.Blob()), Servers: u64ToServerIDs(d.U64s())}, d.err
	case op == OpCreateTable:
		return &CreateTableResponse{Status: Status(d.U8()), Table: TableID(d.U64())}, d.err
	case op == OpCreateIndex && !isResponse:
		return &CreateIndexRequest{Table: TableID(d.U64()), Servers: u64ToServerIDs(d.U64s()), SplitKeys: d.Blobs()}, d.err
	case op == OpCreateIndex:
		return &CreateIndexResponse{Status: Status(d.U8()), Index: IndexID(d.U64())}, d.err
	case op == OpMigrateStart && !isResponse:
		return &MigrateStartRequest{Table: TableID(d.U64()), Range: d.Range(), Source: ServerID(d.U64()), Target: ServerID(d.U64()), TargetLogWatermark: d.U64()}, d.err
	case op == OpMigrateStart:
		return &MigrateStartResponse{Status: Status(d.U8()), MapVersion: d.U64()}, d.err
	case op == OpMigrateDone && !isResponse:
		return &MigrateDoneRequest{Table: TableID(d.U64()), Range: d.Range(), Source: ServerID(d.U64()), Target: ServerID(d.U64())}, d.err
	case op == OpMigrateDone:
		return &MigrateDoneResponse{Status: Status(d.U8())}, d.err
	case op == OpSplitTablet && !isResponse:
		return &SplitTabletRequest{Table: TableID(d.U64()), SplitAt: d.U64()}, d.err
	case op == OpSplitTablet:
		return &SplitTabletResponse{Status: Status(d.U8()), MapVersion: d.U64()}, d.err
	case op == OpEnlistServer && !isResponse:
		return &EnlistServerRequest{Server: ServerID(d.U64())}, d.err
	case op == OpEnlistServer:
		return &EnlistServerResponse{Status: Status(d.U8())}, d.err
	case op == OpReportCrash && !isResponse:
		return &ReportCrashRequest{Server: ServerID(d.U64())}, d.err
	case op == OpReportCrash:
		return &ReportCrashResponse{Status: Status(d.U8())}, d.err
	case op == OpMergeTablets && !isResponse:
		return &MergeTabletsRequest{Table: TableID(d.U64()), MergeAt: d.U64()}, d.err
	case op == OpMergeTablets:
		return &MergeTabletsResponse{Status: Status(d.U8()), MapVersion: d.U64()}, d.err
	case op == OpGetHeat && !isResponse:
		return &GetHeatRequest{}, d.err
	case op == OpGetHeat:
		resp := &GetHeatResponse{Status: Status(d.U8())}
		n := int(d.U32())
		// Minimum per entry: table(8) + range(16) + heat(8).
		if d.err != nil || n < 0 || n*tabletHeatSize > d.remaining() {
			if d.err == nil {
				d.err = ErrTruncated
			}
			return resp, d.err
		}
		resp.Tablets = make([]TabletHeat, 0, n)
		for i := 0; i < n; i++ {
			resp.Tablets = append(resp.Tablets, TabletHeat{Table: TableID(d.U64()), Range: d.Range(), Heat: d.U64()})
		}
		resp.QueueWaitP99Micros = d.U64s()
		return resp, d.err
	case op == OpRebalanceControl && !isResponse:
		return &RebalanceControlRequest{Enable: d.Bool(), Disable: d.Bool()}, d.err
	case op == OpRebalanceControl:
		return &RebalanceControlResponse{
			Status: Status(d.U8()), Enabled: d.Bool(), BackingOff: d.Bool(),
			Splits: d.U64(), Merges: d.U64(), Migrations: d.U64(), Backoffs: d.U64(),
		}, d.err
	case op == OpBackupStatus && !isResponse:
		return &BackupStatusRequest{}, d.err
	case op == OpBackupStatus:
		return &BackupStatusResponse{
			Status: Status(d.U8()), Persistent: d.Bool(),
			Segments: d.U64(), SealedSegments: d.U64(),
			Bytes: d.U64(), BytesWritten: d.U64(), SyncLag: d.U64(),
		}, d.err
	case op == OpRecoverMaster && !isResponse:
		return &RecoverMasterRequest{Master: ServerID(d.U64())}, d.err
	case op == OpRecoverMaster:
		return &RecoverMasterResponse{Status: Status(d.U8()), Segments: d.U64(), Records: d.U64()}, d.err
	case op == OpPing && !isResponse:
		return &PingRequest{}, d.err
	case op == OpPing:
		return &PingResponse{Status: Status(d.U8())}, d.err
	}
	return nil, fmt.Errorf("wire: cannot unmarshal op=%v response=%v", op, isResponse)
}

func serverIDsToU64(ids []ServerID) []uint64 {
	out := make([]uint64, len(ids))
	for i, id := range ids {
		out[i] = uint64(id)
	}
	return out
}

func u64ToServerIDs(vs []uint64) []ServerID {
	out := make([]ServerID, len(vs))
	for i, v := range vs {
		out[i] = ServerID(v)
	}
	return out
}
