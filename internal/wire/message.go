package wire

// Payload is the interface implemented by every request and response body.
// WireSize reports the encoded byte size, which drives the in-process
// fabric's bandwidth/serialization model and Pull byte budgets.
type Payload interface {
	WireSize() int
	Op() Op
}

// Message is the RPC envelope carried by transports.
type Message struct {
	// ID matches a response to its request; unique per sender.
	ID uint64
	// From and To address cluster members.
	From, To ServerID
	// Op names the operation; set on both request and response.
	Op Op
	// IsResponse distinguishes the two directions.
	IsResponse bool
	// Priority tells the receiving dispatch loop how to schedule the
	// request. Ignored on responses (responses complete pending futures).
	Priority Priority
	// TraceID correlates every hop of one logical request chain: a client
	// call, the server's dispatch span, and any downstream RPCs it makes
	// all carry the same id. Zero means untraced. Responses echo the
	// request's id.
	TraceID uint64
	// DeadlineNanos is the request's absolute deadline in Unix nanoseconds;
	// zero means no deadline. Receivers shed the request instead of running
	// it once the deadline passes, and downstream hops inherit it.
	// Ignored on responses.
	DeadlineNanos int64
	// Body holds the typed payload.
	Body Payload
}

// WireSize returns the total encoded message size: a fixed envelope header
// plus the body.
func (m *Message) WireSize() int {
	// id(8) + from(8) + to(8) + op(1) + flags(1) + priority(1) +
	// trace(8) + deadline(8)
	const envelope = 43
	if m.Body == nil {
		return envelope
	}
	return envelope + m.Body.WireSize()
}

func byteSliceSize(b []byte) int { return 4 + len(b) }
func byteSlicesSize(bs [][]byte) int {
	n := 4
	for _, b := range bs {
		n += byteSliceSize(b)
	}
	return n
}
func recordsSize(rs []Record) int {
	n := 4
	for i := range rs {
		n += rs[i].WireSize()
	}
	return n
}

// ---------------------------------------------------------------------------
// Data path
// ---------------------------------------------------------------------------

// ReadRequest fetches one object by primary key.
type ReadRequest struct {
	Table TableID
	Key   []byte
}

func (r *ReadRequest) WireSize() int { return 8 + byteSliceSize(r.Key) }
func (r *ReadRequest) Op() Op        { return OpRead }

// ReadResponse returns the object, or a status explaining its absence.
type ReadResponse struct {
	Status  Status
	Version uint64
	Value   []byte
	// RetryAfterMicros accompanies StatusRetry: the target's estimate of
	// when the record will have arrived via PriorityPull.
	RetryAfterMicros uint32
}

func (r *ReadResponse) WireSize() int { return 13 + byteSliceSize(r.Value) }
func (r *ReadResponse) Op() Op        { return OpRead }

// WriteRequest stores one object.
type WriteRequest struct {
	Table TableID
	Key   []byte
	Value []byte
}

func (r *WriteRequest) WireSize() int { return 8 + byteSliceSize(r.Key) + byteSliceSize(r.Value) }
func (r *WriteRequest) Op() Op        { return OpWrite }

// WriteResponse acknowledges a durable write.
type WriteResponse struct {
	Status  Status
	Version uint64
}

func (r *WriteResponse) WireSize() int { return 9 }
func (r *WriteResponse) Op() Op        { return OpWrite }

// DeleteRequest removes one object.
type DeleteRequest struct {
	Table TableID
	Key   []byte
}

func (r *DeleteRequest) WireSize() int { return 8 + byteSliceSize(r.Key) }
func (r *DeleteRequest) Op() Op        { return OpDelete }

// DeleteResponse acknowledges a durable delete.
type DeleteResponse struct {
	Status  Status
	Version uint64
}

func (r *DeleteResponse) WireSize() int { return 9 }
func (r *DeleteResponse) Op() Op        { return OpDelete }

// MultiGetRequest fetches several objects of one table from one server
// with a single RPC (the locality optimization Figure 3 measures).
type MultiGetRequest struct {
	Table TableID
	Keys  [][]byte
}

func (r *MultiGetRequest) WireSize() int { return 8 + byteSlicesSize(r.Keys) }
func (r *MultiGetRequest) Op() Op        { return OpMultiGet }

// MultiGetResponse returns per-key results aligned with the request keys.
type MultiGetResponse struct {
	Status   Status
	Statuses []Status
	Versions []uint64
	Values   [][]byte
	// RetryAfterMicros accompanies StatusRetry entries during migration.
	RetryAfterMicros uint32
}

func (r *MultiGetResponse) WireSize() int {
	// status(1) + retry(4) + statuses(4+n) + versions(4+8n) + values
	return 13 + len(r.Statuses) + 8*len(r.Versions) + byteSlicesSize(r.Values)
}
func (r *MultiGetResponse) Op() Op { return OpMultiGet }

// MultiPutRequest writes several objects of one table on one server.
type MultiPutRequest struct {
	Table  TableID
	Keys   [][]byte
	Values [][]byte
}

func (r *MultiPutRequest) WireSize() int {
	return 8 + byteSlicesSize(r.Keys) + byteSlicesSize(r.Values)
}
func (r *MultiPutRequest) Op() Op { return OpMultiPut }

// MultiPutResponse returns per-key statuses aligned with the request keys.
type MultiPutResponse struct {
	Status   Status
	Statuses []Status
	Versions []uint64
}

// WireSize is status(1) + statuses(4+n) + versions(4+8n).
func (r *MultiPutResponse) WireSize() int { return 9 + len(r.Statuses) + 8*len(r.Versions) }
func (r *MultiPutResponse) Op() Op        { return OpMultiPut }

// MultiGetByHashRequest fetches objects by primary key hash; used by index
// scans, which learn hashes (not keys) from indexlets (Figure 2).
type MultiGetByHashRequest struct {
	Table  TableID
	Hashes []uint64
}

func (r *MultiGetByHashRequest) WireSize() int { return 12 + 8*len(r.Hashes) }
func (r *MultiGetByHashRequest) Op() Op        { return OpMultiGetByHash }

// MultiGetByHashResponse returns the records found for the hashes. Records
// whose hash is absent are omitted.
type MultiGetByHashResponse struct {
	Status           Status
	Records          []Record
	RetryAfterMicros uint32
}

// WireSize is status(1) + retry(4) + records (recordsSize includes the count).
func (r *MultiGetByHashResponse) WireSize() int { return 5 + recordsSize(r.Records) }
func (r *MultiGetByHashResponse) Op() Op        { return OpMultiGetByHash }

// ---------------------------------------------------------------------------
// Index path
// ---------------------------------------------------------------------------

// IndexLookupRequest asks an indexlet for the primary-key hashes of records
// whose secondary key falls in [Begin, End), at most Limit of them.
type IndexLookupRequest struct {
	Index IndexID
	Begin []byte
	End   []byte
	Limit uint32
}

func (r *IndexLookupRequest) WireSize() int {
	return 12 + byteSliceSize(r.Begin) + byteSliceSize(r.End)
}
func (r *IndexLookupRequest) Op() Op { return OpIndexLookup }

// IndexLookupResponse returns matching primary-key hashes in secondary-key
// order.
type IndexLookupResponse struct {
	Status Status
	Hashes []uint64
}

func (r *IndexLookupResponse) WireSize() int { return 5 + 8*len(r.Hashes) }
func (r *IndexLookupResponse) Op() Op        { return OpIndexLookup }

// IndexInsertRequest adds (SecondaryKey -> KeyHash) to an indexlet; issued
// by masters applying writes to indexed tables.
type IndexInsertRequest struct {
	Index        IndexID
	SecondaryKey []byte
	KeyHash      uint64
}

func (r *IndexInsertRequest) WireSize() int { return 16 + byteSliceSize(r.SecondaryKey) }
func (r *IndexInsertRequest) Op() Op        { return OpIndexInsert }

// IndexInsertResponse acknowledges the insert.
type IndexInsertResponse struct{ Status Status }

func (r *IndexInsertResponse) WireSize() int { return 1 }
func (r *IndexInsertResponse) Op() Op        { return OpIndexInsert }

// IndexRemoveRequest removes (SecondaryKey -> KeyHash) from an indexlet.
type IndexRemoveRequest struct {
	Index        IndexID
	SecondaryKey []byte
	KeyHash      uint64
}

func (r *IndexRemoveRequest) WireSize() int { return 16 + byteSliceSize(r.SecondaryKey) }
func (r *IndexRemoveRequest) Op() Op        { return OpIndexRemove }

// IndexRemoveResponse acknowledges the removal.
type IndexRemoveResponse struct{ Status Status }

func (r *IndexRemoveResponse) WireSize() int { return 1 }
func (r *IndexRemoveResponse) Op() Op        { return OpIndexRemove }

// ---------------------------------------------------------------------------
// Migration path
// ---------------------------------------------------------------------------

// MigrateTabletRequest starts a live migration. It is sent by a client to
// the *target*, which drives the entire migration (§3).
type MigrateTabletRequest struct {
	Table  TableID
	Range  HashRange
	Source ServerID
}

func (r *MigrateTabletRequest) WireSize() int { return 32 }
func (r *MigrateTabletRequest) Op() Op        { return OpMigrateTablet }

// MigrateTabletResponse acknowledges that migration started (not that it
// finished): ownership has already moved to the target.
type MigrateTabletResponse struct{ Status Status }

func (r *MigrateTabletResponse) WireSize() int { return 1 }
func (r *MigrateTabletResponse) Op() Op        { return OpMigrateTablet }

// PrepareMigrationRequest is sent target -> source before ownership moves.
// The source marks the tablet immutable-and-migrating and returns what the
// target needs to partition the source's hash space.
type PrepareMigrationRequest struct {
	Table TableID
	Range HashRange
	// Target tells the source where its records are going so it can
	// redirect (it otherwise keeps no migration state).
	Target ServerID
	// KeepServing leaves the source serving client operations for the
	// range (the source-retains-ownership baseline of §4.2); the normal
	// protocol marks the range immutable-and-migrating instead.
	KeepServing bool
}

func (r *PrepareMigrationRequest) WireSize() int { return 33 }
func (r *PrepareMigrationRequest) Op() Op        { return OpPrepareMigration }

// PrepareMigrationResponse carries the source-side facts a migration
// manager needs.
type PrepareMigrationResponse struct {
	Status Status
	// VersionCeiling is one above the highest object version the source
	// ever assigned in the tablet; the target issues new versions above it
	// so replay can always resolve newest-wins without coordination.
	VersionCeiling uint64
	// NumBuckets is the source hash table's bucket count; Pull resume
	// tokens index into it.
	NumBuckets uint64
	// TailWatermark is the source's append-epoch watermark at preparation
	// time: every write the source accepts afterwards carries a larger
	// epoch. The retain-ownership catch-up pulls only entries above it.
	TailWatermark uint64
}

func (r *PrepareMigrationResponse) WireSize() int { return 25 }
func (r *PrepareMigrationResponse) Op() Op        { return OpPrepareMigration }

// AbortMigrationRequest is sent target -> source when the migration
// prologue fails after PrepareMigration may have landed: ownership never
// moved, so the source must flip the range back to normal service.
// Idempotent — aborting a range that was never prepared is a no-op, so the
// target can send it whenever the prologue outcome is in doubt.
type AbortMigrationRequest struct {
	Table TableID
	Range HashRange
	// Target identifies the aborting migration for diagnostics; the source
	// keeps no per-migration state, so it is not validated.
	Target ServerID
}

func (r *AbortMigrationRequest) WireSize() int { return 32 }
func (r *AbortMigrationRequest) Op() Op        { return OpAbortMigration }

// AbortMigrationResponse acknowledges that the source serves the range
// again (or never stopped).
type AbortMigrationResponse struct{ Status Status }

func (r *AbortMigrationResponse) WireSize() int { return 1 }
func (r *AbortMigrationResponse) Op() Op        { return OpAbortMigration }

// PullRequest fetches the next batch of records from one partition of the
// source's key-hash space. The source is stateless: ResumeToken encodes the
// next hash-table bucket to scan, so concurrent Pulls over disjoint
// partitions proceed without shared state (§3.1.1).
type PullRequest struct {
	Table TableID
	Range HashRange
	// ResumeToken is the bucket index to resume from within Range; zero
	// means the first bucket of the partition.
	ResumeToken uint64
	// ByteBudget bounds the response size (paper default 20 KB) so source
	// workers are never occupied for long.
	ByteBudget uint32
}

func (r *PullRequest) WireSize() int { return 36 }
func (r *PullRequest) Op() Op        { return OpPull }

// PullResponse returns a batch of records and the token to continue from.
type PullResponse struct {
	Status      Status
	Records     []Record
	ResumeToken uint64
	// Done reports that the partition is exhausted.
	Done bool
}

func (r *PullResponse) WireSize() int { return 10 + recordsSize(r.Records) }
func (r *PullResponse) Op() Op        { return OpPull }

// PriorityPullRequest fetches specific records by key hash, on demand, at
// the highest priority (§3.3). Requests are batched and de-duplicated by
// the target's migration manager.
type PriorityPullRequest struct {
	Table  TableID
	Hashes []uint64
}

func (r *PriorityPullRequest) WireSize() int { return 12 + 8*len(r.Hashes) }
func (r *PriorityPullRequest) Op() Op        { return OpPriorityPull }

// PriorityPullResponse returns the requested records. Hashes with no
// record on the source are reported in Missing so the target can answer
// StatusNoSuchKey instead of retrying forever.
type PriorityPullResponse struct {
	Status  Status
	Records []Record
	Missing []uint64
}

func (r *PriorityPullResponse) WireSize() int { return 5 + recordsSize(r.Records) + 8*len(r.Missing) }
func (r *PriorityPullResponse) Op() Op        { return OpPriorityPull }

// DropTabletRequest tells the source migration finished: it may free the
// tablet's records (the log cleaner reclaims the space).
type DropTabletRequest struct {
	Table TableID
	Range HashRange
}

func (r *DropTabletRequest) WireSize() int { return 24 }
func (r *DropTabletRequest) Op() Op        { return OpDropTablet }

// DropTabletResponse acknowledges the drop.
type DropTabletResponse struct{ Status Status }

func (r *DropTabletResponse) WireSize() int { return 1 }
func (r *DropTabletResponse) Op() Op        { return OpDropTablet }

// ReplayRecordsRequest pushes a batch of records source -> target: the
// data path of the *pre-existing* RAMCloud migration Figure 5 dissects.
// The flags select which phases the target performs, reproducing the
// figure's Skip-* series.
type ReplayRecordsRequest struct {
	Table   TableID
	Records []Record
	// Replicate re-replicates the replayed records synchronously.
	Replicate bool
	// SkipReplay makes the target drop the batch after receipt (measures
	// source-side work plus transmission only).
	SkipReplay bool
}

func (r *ReplayRecordsRequest) WireSize() int { return 10 + recordsSize(r.Records) }
func (r *ReplayRecordsRequest) Op() Op        { return OpReplayRecords }

// ReplayRecordsResponse acknowledges a pushed batch.
type ReplayRecordsResponse struct{ Status Status }

func (r *ReplayRecordsResponse) WireSize() int { return 1 }
func (r *ReplayRecordsResponse) Op() Op        { return OpReplayRecords }

// PullTailRequest fetches records of a range appended after the epoch
// watermark AfterEpoch: the delta catch-up used when ownership stays at
// the source during migration (§4.2's "Source Retains Ownership" variant).
// Epoch filtering (not segment-ID filtering) is what keeps the catch-up
// exact when the source's log has sharded heads appending concurrently.
type PullTailRequest struct {
	Table TableID
	Range HashRange
	// AfterEpoch restricts the scan to entries with larger append epochs.
	AfterEpoch uint64
}

func (r *PullTailRequest) WireSize() int { return 32 }
func (r *PullTailRequest) Op() Op        { return OpPullTail }

// PullTailResponse returns the live tail records of the range.
type PullTailResponse struct {
	Status  Status
	Records []Record
}

// WireSize is status(1) + records (recordsSize includes the count).
func (r *PullTailResponse) WireSize() int { return 1 + recordsSize(r.Records) }
func (r *PullTailResponse) Op() Op        { return OpPullTail }

// ---------------------------------------------------------------------------
// Replication path
// ---------------------------------------------------------------------------

// ReplicateSegmentRequest appends log data to a backup's replica of a
// segment. Offset allows incremental tail replication.
type ReplicateSegmentRequest struct {
	Master    ServerID
	LogID     uint64 // distinguishes main log and side logs
	SegmentID uint64
	Offset    uint32
	Data      []byte
	// Close seals the segment replica.
	Close bool
}

func (r *ReplicateSegmentRequest) WireSize() int { return 29 + byteSliceSize(r.Data) }
func (r *ReplicateSegmentRequest) Op() Op        { return OpReplicateSegment }

// ReplicateSegmentResponse acknowledges durable receipt.
type ReplicateSegmentResponse struct{ Status Status }

func (r *ReplicateSegmentResponse) WireSize() int { return 1 }
func (r *ReplicateSegmentResponse) Op() Op        { return OpReplicateSegment }

// ReplicateChunk is one contiguous span of one segment's bytes inside a
// batched replication request.
type ReplicateChunk struct {
	LogID     uint64
	SegmentID uint64
	Offset    uint32
	Data      []byte
	// Close seals the segment replica.
	Close bool
}

// wireSize is logID(8) + segmentID(8) + offset(4) + close(1) + data blob.
func (c *ReplicateChunk) wireSize() int { return 21 + byteSliceSize(c.Data) }

// ReplicateBatchRequest is the group-commit unit: one RPC carrying every
// shard's pending log growth destined for one backup. The backup applies
// chunks in order under a single lock acquisition and acknowledges each
// chunk individually, so a master can fall back to whole-segment
// re-replication for exactly the chunks that failed.
type ReplicateBatchRequest struct {
	Master ServerID
	Chunks []ReplicateChunk
}

func (r *ReplicateBatchRequest) WireSize() int {
	n := 12 // master(8) + count(4)
	for i := range r.Chunks {
		n += r.Chunks[i].wireSize()
	}
	return n
}
func (r *ReplicateBatchRequest) Op() Op { return OpReplicateBatch }

// ReplicateBatchResponse acknowledges a batch: Status is OK only if every
// chunk landed; ChunkStatuses reports each chunk's outcome.
type ReplicateBatchResponse struct {
	Status        Status
	ChunkStatuses []Status
}

func (r *ReplicateBatchResponse) WireSize() int { return 5 + len(r.ChunkStatuses) }
func (r *ReplicateBatchResponse) Op() Op        { return OpReplicateBatch }

// GetBackupSegmentsRequest asks a backup for one page of the segment
// replicas it holds for a crashed master; used by recovery. Responses
// are paged so recovering a large master streams segment by segment
// instead of materializing every replica in one unbounded message.
type GetBackupSegmentsRequest struct {
	Master ServerID
	// MinLogOffset restricts the reply to log data at or after the offset
	// (used to replay only a lineage dependency's log tail).
	MinLogOffset uint64
	// Cursor resumes paging where the previous response's NextCursor left
	// off; zero starts from the beginning.
	Cursor uint64
	// MaxBytes caps the segment data in one response (0 = the backup's
	// default page size). At least one segment is always returned.
	MaxBytes uint32
}

func (r *GetBackupSegmentsRequest) WireSize() int { return 28 }
func (r *GetBackupSegmentsRequest) Op() Op        { return OpGetBackupSegments }

// BackupSegment is one replicated segment returned for recovery.
type BackupSegment struct {
	LogID     uint64
	SegmentID uint64
	// Sealed reports the replica was closed by its master; an unsealed
	// replica (or one whose file lost its tail in a backup crash) is a
	// torn log tail, valid only up to its last parseable entry.
	Sealed bool
	Data   []byte
}

// GetBackupSegmentsResponse returns one page of replicas.
type GetBackupSegmentsResponse struct {
	Status   Status
	Segments []BackupSegment
	// NextCursor is where the next page starts; meaningful when More.
	NextCursor uint64
	// More reports that further pages remain.
	More bool
}

func (r *GetBackupSegmentsResponse) WireSize() int {
	n := 14 // status(1) + nextCursor(8) + more(1) + count(4)
	for i := range r.Segments {
		n += 17 + byteSliceSize(r.Segments[i].Data)
	}
	return n
}
func (r *GetBackupSegmentsResponse) Op() Op { return OpGetBackupSegments }

// TakeTabletsRequest instructs a recovery master to assume ownership of
// tablets recovered from a crashed server and to replay the supplied
// records into its log.
type TakeTabletsRequest struct {
	Table   TableID
	Range   HashRange
	Records []Record
	// VersionCeiling carries the crashed master's version high-water mark.
	VersionCeiling uint64
}

func (r *TakeTabletsRequest) WireSize() int { return 32 + recordsSize(r.Records) }
func (r *TakeTabletsRequest) Op() Op        { return OpTakeTablets }

// TakeTabletsResponse acknowledges recovery replay.
type TakeTabletsResponse struct{ Status Status }

func (r *TakeTabletsResponse) WireSize() int { return 1 }
func (r *TakeTabletsResponse) Op() Op        { return OpTakeTablets }

// ---------------------------------------------------------------------------
// Coordinator control path
// ---------------------------------------------------------------------------

// Tablet is one entry of the coordinator's tablet map.
type Tablet struct {
	Table  TableID
	Range  HashRange
	Master ServerID
}

// Indexlet is one range-partition of a secondary index.
type Indexlet struct {
	Index IndexID
	Table TableID
	// Begin (inclusive) and End (exclusive) bound the secondary keys this
	// indexlet covers; an empty End means +infinity.
	Begin  []byte
	End    []byte
	Master ServerID
}

// GetTabletMapRequest fetches the current tablet and indexlet maps.
type GetTabletMapRequest struct{}

func (r *GetTabletMapRequest) WireSize() int { return 0 }
func (r *GetTabletMapRequest) Op() Op        { return OpGetTabletMap }

// GetTabletMapResponse returns the maps and their version.
type GetTabletMapResponse struct {
	Status    Status
	Version   uint64
	Tablets   []Tablet
	Indexlets []Indexlet
}

func (r *GetTabletMapResponse) WireSize() int {
	// status(1) + version(8) + tablet count(4) + indexlet count(4) + entries
	n := 17 + 32*len(r.Tablets)
	for i := range r.Indexlets {
		n += 24 + byteSliceSize(r.Indexlets[i].Begin) + byteSliceSize(r.Indexlets[i].End)
	}
	return n
}
func (r *GetTabletMapResponse) Op() Op { return OpGetTabletMap }

// CreateTableRequest creates a table spread over the given servers (one
// tablet per server, hash space split evenly).
type CreateTableRequest struct {
	Name    string
	Servers []ServerID
}

func (r *CreateTableRequest) WireSize() int { return 4 + len(r.Name) + 4 + 8*len(r.Servers) }
func (r *CreateTableRequest) Op() Op        { return OpCreateTable }

// CreateTableResponse returns the new table's ID.
type CreateTableResponse struct {
	Status Status
	Table  TableID
}

func (r *CreateTableResponse) WireSize() int { return 9 }
func (r *CreateTableResponse) Op() Op        { return OpCreateTable }

// CreateIndexRequest creates a secondary index over a table, range
// partitioned into one indexlet per entry of Splits+1 servers.
type CreateIndexRequest struct {
	Table   TableID
	Servers []ServerID
	// SplitKeys are the secondary-key boundaries between indexlets; must
	// have len(Servers)-1 entries.
	SplitKeys [][]byte
}

func (r *CreateIndexRequest) WireSize() int {
	return 12 + 8*len(r.Servers) + byteSlicesSize(r.SplitKeys)
}
func (r *CreateIndexRequest) Op() Op { return OpCreateIndex }

// CreateIndexResponse returns the new index's ID.
type CreateIndexResponse struct {
	Status Status
	Index  IndexID
}

func (r *CreateIndexResponse) WireSize() int { return 9 }
func (r *CreateIndexResponse) Op() Op        { return OpCreateIndex }

// MigrateStartRequest is sent target -> coordinator at migration start: it
// atomically transfers tablet ownership to the target and registers the
// lineage dependency of the source on the target's recovery-log tail
// (§3.4).
type MigrateStartRequest struct {
	Table  TableID
	Range  HashRange
	Source ServerID
	Target ServerID
	// TargetLogWatermark is the target's log append-epoch at ownership
	// transfer: the lineage dependency covers only entries above it. The
	// watermark is what keeps a re-migration to a former owner safe — the
	// target's log may still hold records from its earlier ownership of
	// the range, and a lineage replay must not resurrect them.
	TargetLogWatermark uint64
}

func (r *MigrateStartRequest) WireSize() int { return 48 }
func (r *MigrateStartRequest) Op() Op        { return OpMigrateStart }

// MigrateStartResponse acknowledges the ownership transfer.
type MigrateStartResponse struct {
	Status     Status
	MapVersion uint64
}

func (r *MigrateStartResponse) WireSize() int { return 9 }
func (r *MigrateStartResponse) Op() Op        { return OpMigrateStart }

// MigrateDoneRequest drops the lineage dependency once side logs are
// replicated and committed.
type MigrateDoneRequest struct {
	Table  TableID
	Range  HashRange
	Source ServerID
	Target ServerID
}

func (r *MigrateDoneRequest) WireSize() int { return 40 }
func (r *MigrateDoneRequest) Op() Op        { return OpMigrateDone }

// MigrateDoneResponse acknowledges dependency removal.
type MigrateDoneResponse struct{ Status Status }

func (r *MigrateDoneResponse) WireSize() int { return 1 }
func (r *MigrateDoneResponse) Op() Op        { return OpMigrateDone }

// SplitTabletRequest splits the tablet containing SplitAt into two tablets
// at the boundary; both halves stay on the current master. Splitting is
// the cheap, in-place precursor to migration (§3: "first splitting a
// tablet, then issuing a MigrateTablet").
type SplitTabletRequest struct {
	Table   TableID
	SplitAt uint64 // first hash of the upper tablet
}

func (r *SplitTabletRequest) WireSize() int { return 16 }
func (r *SplitTabletRequest) Op() Op        { return OpSplitTablet }

// SplitTabletResponse acknowledges the split.
type SplitTabletResponse struct {
	Status     Status
	MapVersion uint64
}

func (r *SplitTabletResponse) WireSize() int { return 9 }
func (r *SplitTabletResponse) Op() Op        { return OpSplitTablet }

// EnlistServerRequest registers a server with the coordinator.
type EnlistServerRequest struct {
	Server ServerID
}

func (r *EnlistServerRequest) WireSize() int { return 8 }
func (r *EnlistServerRequest) Op() Op        { return OpEnlistServer }

// EnlistServerResponse acknowledges enlistment.
type EnlistServerResponse struct{ Status Status }

func (r *EnlistServerResponse) WireSize() int { return 1 }
func (r *EnlistServerResponse) Op() Op        { return OpEnlistServer }

// ReportCrashRequest notifies the coordinator of a suspected server crash,
// triggering recovery.
type ReportCrashRequest struct {
	Server ServerID
}

func (r *ReportCrashRequest) WireSize() int { return 8 }
func (r *ReportCrashRequest) Op() Op        { return OpReportCrash }

// ReportCrashResponse acknowledges that recovery was initiated (or that
// the server was already recovered).
type ReportCrashResponse struct{ Status Status }

func (r *ReportCrashResponse) WireSize() int { return 1 }
func (r *ReportCrashResponse) Op() Op        { return OpReportCrash }

// MergeTabletsRequest coalesces the two adjacent tablets of one table that
// meet at boundary MergeAt (the first hash of the upper tablet) back into a
// single tablet. Both tablets must live on the same master and have no
// active lineage dependency; merging is pure map surgery, no data moves.
type MergeTabletsRequest struct {
	Table TableID
	// MergeAt is the boundary to erase: the Start of the upper tablet,
	// i.e. the value a prior SplitTabletRequest passed as SplitAt.
	MergeAt uint64
}

func (r *MergeTabletsRequest) WireSize() int { return 16 }
func (r *MergeTabletsRequest) Op() Op        { return OpMergeTablets }

// MergeTabletsResponse acknowledges the merge.
type MergeTabletsResponse struct {
	Status     Status
	MapVersion uint64
}

func (r *MergeTabletsResponse) WireSize() int { return 9 }
func (r *MergeTabletsResponse) Op() Op        { return OpMergeTablets }

// TabletHeat is one tablet's decayed access-rate estimate in a heat
// snapshot: accesses per decay interval, exponentially weighted toward the
// most recent interval.
type TabletHeat struct {
	Table TableID
	Range HashRange
	// Heat is the decayed access count (reads + writes, scaled up by the
	// sampling rate so it estimates true accesses, not samples).
	Heat uint64
}

// tabletHeatSize is table(8) + range(16) + heat(8).
const tabletHeatSize = 32

// GetHeatRequest polls one server for its heat snapshot and SLO signals.
type GetHeatRequest struct{}

func (r *GetHeatRequest) WireSize() int { return 0 }
func (r *GetHeatRequest) Op() Op        { return OpGetHeat }

// GetHeatResponse carries the per-tablet heat snapshot plus the dispatch
// queue-wait p99 per priority level in microseconds — the signal the
// rebalancer's SLO guard watches (index = Priority value).
type GetHeatResponse struct {
	Status  Status
	Tablets []TabletHeat
	// QueueWaitP99Micros has NumPriorities entries; entry i is the p99
	// dispatch queue wait of Priority(i) in microseconds.
	QueueWaitP99Micros []uint64
}

func (r *GetHeatResponse) WireSize() int {
	// status(1) + tablet count(4) + entries + p99 count(4) + entries
	return 9 + tabletHeatSize*len(r.Tablets) + 8*len(r.QueueWaitP99Micros)
}
func (r *GetHeatResponse) Op() Op { return OpGetHeat }

// RebalanceControlRequest drives the coordinator's rebalancer loop from
// operator tooling: enable or disable scheduling, or just read status.
type RebalanceControlRequest struct {
	// Enable/Disable toggle the loop; both false means status-only.
	Enable  bool
	Disable bool
}

func (r *RebalanceControlRequest) WireSize() int { return 2 }
func (r *RebalanceControlRequest) Op() Op        { return OpRebalanceControl }

// RebalanceControlResponse reports the loop's state and lifetime counters.
type RebalanceControlResponse struct {
	Status  Status
	Enabled bool
	// BackingOff is true while the SLO guard is holding back scheduling.
	BackingOff bool
	// Lifetime action counters.
	Splits     uint64
	Merges     uint64
	Migrations uint64
	Backoffs   uint64
}

// WireSize is status(1) + enabled(1) + backingOff(1) + 4 counters.
func (r *RebalanceControlResponse) WireSize() int { return 35 }
func (r *RebalanceControlResponse) Op() Op        { return OpRebalanceControl }

// ---------------------------------------------------------------------------
// Durable backup storage
// ---------------------------------------------------------------------------

// BackupStatusRequest asks a server's backup service for its segment
// store counters (`rocksteady-cli backup status`).
type BackupStatusRequest struct{}

func (r *BackupStatusRequest) WireSize() int { return 0 }
func (r *BackupStatusRequest) Op() Op        { return OpBackupStatus }

// BackupStatusResponse reports a backup's segment store state.
type BackupStatusResponse struct {
	Status Status
	// Persistent reports a file-backed store (survives restart).
	Persistent bool
	// Segments/SealedSegments count replicas held across all masters.
	Segments       uint64
	SealedSegments uint64
	// Bytes held now; BytesWritten cumulative (rewrites included).
	Bytes        uint64
	BytesWritten uint64
	// SyncLag counts appends accepted but not yet fsynced (0 between
	// batches; durability acks never race ahead of it).
	SyncLag uint64
}

// WireSize is status(1) + persistent(1) + 5 counters.
func (r *BackupStatusResponse) WireSize() int { return 42 }
func (r *BackupStatusResponse) Op() Op        { return OpBackupStatus }

// RecoverMasterRequest asks the coordinator to rebuild a master's data
// from the backup segment replicas live servers hold for it — the
// cold-start recovery path after a full-cluster restart, where no crash
// report fires because every process died together. The caller recreates
// tables first; replayed records route onto the current tablet map.
type RecoverMasterRequest struct {
	Master ServerID
}

func (r *RecoverMasterRequest) WireSize() int { return 8 }
func (r *RecoverMasterRequest) Op() Op        { return OpRecoverMaster }

// RecoverMasterResponse reports what the cold recovery replayed.
type RecoverMasterResponse struct {
	Status Status
	// Segments is the number of backup segment replicas fetched; Records
	// the live records installed onto current masters.
	Segments uint64
	Records  uint64
}

func (r *RecoverMasterResponse) WireSize() int { return 17 }
func (r *RecoverMasterResponse) Op() Op        { return OpRecoverMaster }

// ---------------------------------------------------------------------------
// Health
// ---------------------------------------------------------------------------

// PingRequest checks liveness.
type PingRequest struct{}

func (r *PingRequest) WireSize() int { return 0 }
func (r *PingRequest) Op() Op        { return OpPing }

// PingResponse answers a ping.
type PingResponse struct{ Status Status }

func (r *PingResponse) WireSize() int { return 1 }
func (r *PingResponse) Op() Op        { return OpPing }
