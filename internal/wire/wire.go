// Package wire defines the RPC vocabulary of the store: operation codes,
// status codes, identifier types, priorities, the message envelope, and a
// compact binary encoding used both by the TCP transport and by the
// in-process fabric's bandwidth model.
//
// Every request and response is a typed struct implementing Payload. The
// in-process fabric passes these structs by pointer (modelling zero-copy
// DMA); the TCP transport marshals them with the codec in marshal.go.
package wire

import (
	"fmt"
)

// ServerID uniquely identifies a server (master+backup pair) or the
// coordinator within a cluster.
type ServerID uint64

// CoordinatorID is the well-known address of the cluster coordinator.
const CoordinatorID ServerID = 1

func (s ServerID) String() string {
	if s == CoordinatorID {
		return "coord"
	}
	return fmt.Sprintf("server-%d", uint64(s))
}

// TableID identifies a table. Tables are unordered key-value namespaces
// partitioned into tablets by key hash.
type TableID uint64

// IndexID identifies a secondary index over a table.
type IndexID uint64

// Op enumerates RPC operations.
type Op uint8

// RPC operation codes.
const (
	OpInvalid Op = iota

	// Data path.
	OpRead
	OpWrite
	OpDelete
	OpMultiGet
	OpMultiPut
	OpMultiGetByHash

	// Index path.
	OpIndexLookup
	OpIndexInsert
	OpIndexRemove

	// Migration path (Rocksteady).
	OpMigrateTablet // client -> target: start a migration
	OpPrepareMigration
	OpPull
	OpPriorityPull
	OpDropTablet

	// Op 16 is reserved: it was the single-segment replication op, now
	// retired (OpReplicateBatch carries every replica write). The gap keeps
	// every later op code, and the fuzz corpus that encodes them, stable.
	_

	// Coordinator control path.
	OpGetTabletMap
	OpCreateTable
	OpCreateIndex
	OpMigrateStart // target -> coordinator: transfer ownership, register lineage
	OpMigrateDone  // target -> coordinator: drop lineage dependency
	OpSplitTablet
	OpEnlistServer
	OpReportCrash

	// Baseline migration path (§2.3's pre-existing mechanism and the
	// source-retains-ownership variant of §4.2).
	OpReplayRecords
	OpPullTail

	// Recovery path.
	OpGetBackupSegments
	OpTakeTablets

	// Health.
	OpPing

	// Migration prologue cleanup: target -> source when the ownership
	// transfer never happened, so the source must resume serving.
	// (Appended last to keep existing op codes — and the checked-in fuzz
	// corpus that encodes them — stable.)
	OpAbortMigration

	// Replication: every write of replica bytes, from group commit's
	// per-backup batch to a whole side-log segment. (Appended last; see
	// OpAbortMigration.)
	OpReplicateBatch

	// Rebalancing control path (appended last; see OpAbortMigration).
	// GetHeat polls a server's decayed per-tablet heat snapshot plus its
	// dispatch queue-wait percentiles (the rebalancer's SLO sensor).
	OpGetHeat
	// MergeTablets coalesces two adjacent cold tablets of one master back
	// into one map entry; the inverse of OpSplitTablet.
	OpMergeTablets
	// RebalanceControl enables/disables the coordinator's rebalancer loop
	// and reports its status counters.
	OpRebalanceControl

	// Durable backup storage path (appended last; see OpAbortMigration).
	// BackupStatus reads a backup's segment-store counters (segments
	// held, bytes, sync lag) for operator tooling.
	OpBackupStatus
	// RecoverMaster asks the coordinator to rebuild a master's data from
	// backup segment replicas after a full-cluster restart (cold-start
	// recovery: no crash report ever fired).
	OpRecoverMaster
)

// opInfo registers one operation: its name and the constructors of its
// empty request and response bodies, which decoding fills in.
type opInfo struct {
	name      string
	req, resp func() Payload
}

// ops is the operation registry, indexed by Op.
var ops = [...]opInfo{
	OpInvalid:           {name: "Invalid"},
	OpRead:              {"Read", body[ReadRequest], body[ReadResponse]},
	OpWrite:             {"Write", body[WriteRequest], body[WriteResponse]},
	OpDelete:            {"Delete", body[DeleteRequest], body[DeleteResponse]},
	OpMultiGet:          {"MultiGet", body[MultiGetRequest], body[MultiGetResponse]},
	OpMultiPut:          {"MultiPut", body[MultiPutRequest], body[MultiPutResponse]},
	OpMultiGetByHash:    {"MultiGetByHash", body[MultiGetByHashRequest], body[MultiGetByHashResponse]},
	OpIndexLookup:       {"IndexLookup", body[IndexLookupRequest], body[IndexLookupResponse]},
	OpIndexInsert:       {"IndexInsert", body[IndexInsertRequest], body[IndexInsertResponse]},
	OpIndexRemove:       {"IndexRemove", body[IndexRemoveRequest], body[IndexRemoveResponse]},
	OpMigrateTablet:     {"MigrateTablet", body[MigrateTabletRequest], body[MigrateTabletResponse]},
	OpPrepareMigration:  {"PrepareMigration", body[PrepareMigrationRequest], body[PrepareMigrationResponse]},
	OpPull:              {"Pull", body[PullRequest], body[PullResponse]},
	OpPriorityPull:      {"PriorityPull", body[PriorityPullRequest], body[PriorityPullResponse]},
	OpDropTablet:        {"DropTablet", body[DropTabletRequest], body[DropTabletResponse]},
	OpGetTabletMap:      {"GetTabletMap", body[GetTabletMapRequest], body[GetTabletMapResponse]},
	OpCreateTable:       {"CreateTable", body[CreateTableRequest], body[CreateTableResponse]},
	OpCreateIndex:       {"CreateIndex", body[CreateIndexRequest], body[CreateIndexResponse]},
	OpMigrateStart:      {"MigrateStart", body[MigrateStartRequest], body[MigrateStartResponse]},
	OpMigrateDone:       {"MigrateDone", body[MigrateDoneRequest], body[MigrateDoneResponse]},
	OpSplitTablet:       {"SplitTablet", body[SplitTabletRequest], body[SplitTabletResponse]},
	OpEnlistServer:      {"EnlistServer", body[EnlistServerRequest], body[EnlistServerResponse]},
	OpReportCrash:       {"ReportCrash", body[ReportCrashRequest], body[ReportCrashResponse]},
	OpReplayRecords:     {"ReplayRecords", body[ReplayRecordsRequest], body[ReplayRecordsResponse]},
	OpPullTail:          {"PullTail", body[PullTailRequest], body[PullTailResponse]},
	OpGetBackupSegments: {"GetBackupSegments", body[GetBackupSegmentsRequest], body[GetBackupSegmentsResponse]},
	OpTakeTablets:       {"TakeTablets", body[TakeTabletsRequest], body[TakeTabletsResponse]},
	OpPing:              {"Ping", body[PingRequest], body[PingResponse]},
	OpAbortMigration:    {"AbortMigration", body[AbortMigrationRequest], body[AbortMigrationResponse]},
	OpReplicateBatch:    {"ReplicateBatch", body[ReplicateBatchRequest], body[ReplicateBatchResponse]},
	OpGetHeat:           {"GetHeat", body[GetHeatRequest], body[GetHeatResponse]},
	OpMergeTablets:      {"MergeTablets", body[MergeTabletsRequest], body[MergeTabletsResponse]},
	OpRebalanceControl:  {"RebalanceControl", body[RebalanceControlRequest], body[RebalanceControlResponse]},
	OpBackupStatus:      {"BackupStatus", body[BackupStatusRequest], body[BackupStatusResponse]},
	OpRecoverMaster:     {"RecoverMaster", body[RecoverMasterRequest], body[RecoverMasterResponse]},
}

// body constructs an empty *T body.
func body[T any, P interface {
	*T
	Payload
}]() Payload {
	return P(new(T))
}

// newBody returns an empty body for op in the given direction, or nil if
// the op is not registered.
func newBody(op Op, isResponse bool) Payload {
	if int(op) >= len(ops) {
		return nil
	}
	mk := ops[op].req
	if isResponse {
		mk = ops[op].resp
	}
	if mk == nil {
		return nil
	}
	return mk()
}

func (o Op) String() string {
	if int(o) < len(ops) && ops[o].name != "" {
		return ops[o].name
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// Status enumerates RPC outcome codes.
type Status uint8

// RPC status codes.
const (
	StatusOK Status = iota
	// StatusWrongServer means the addressed server does not own the tablet
	// (any more); the client must refresh its tablet map from the
	// coordinator and retry.
	StatusWrongServer
	// StatusRetry asks the client to retry the same server after
	// RetryAfterMicros; returned for reads of not-yet-migrated records.
	StatusRetry
	// StatusNoSuchKey is returned for reads of absent keys.
	StatusNoSuchKey
	StatusNoSuchTable
	StatusNoSuchIndex
	// StatusMigrationInProgress rejects conflicting migration requests.
	StatusMigrationInProgress
	// StatusServerDown marks an RPC that could not be delivered because the
	// destination crashed; synthesized by the transport.
	StatusServerDown
	StatusInternalError
)

var statusNames = map[Status]string{
	StatusOK:                  "OK",
	StatusWrongServer:         "WrongServer",
	StatusRetry:               "Retry",
	StatusNoSuchKey:           "NoSuchKey",
	StatusNoSuchTable:         "NoSuchTable",
	StatusNoSuchIndex:         "NoSuchIndex",
	StatusMigrationInProgress: "MigrationInProgress",
	StatusServerDown:          "ServerDown",
	StatusInternalError:       "InternalError",
}

func (s Status) String() string {
	if n, ok := statusNames[s]; ok {
		return n
	}
	return fmt.Sprintf("Status(%d)", uint8(s))
}

// Error converts a non-OK status into an error; StatusOK yields nil.
func (s Status) Error() error {
	if s == StatusOK {
		return nil
	}
	return StatusError{s}
}

// StatusError wraps a Status as an error.
type StatusError struct{ Status Status }

func (e StatusError) Error() string { return "rpc status: " + e.Status.String() }

// Priority orders task execution at a server. Lower numeric value runs
// first. The assignment follows the paper: PriorityPulls run above client
// traffic because they represent the target servicing a client request of
// its own (§3.1.1); bulk migration Pulls run below everything.
type Priority uint8

// Task priorities, highest first.
const (
	PriorityPriorityPull Priority = iota
	PriorityForeground            // normal client reads/writes
	PriorityReplication
	PriorityBackground // bulk Pulls, replay, cleaning
	NumPriorities
)

func (p Priority) String() string {
	switch p {
	case PriorityPriorityPull:
		return "prioritypull"
	case PriorityForeground:
		return "foreground"
	case PriorityReplication:
		return "replication"
	case PriorityBackground:
		return "background"
	}
	return fmt.Sprintf("Priority(%d)", uint8(p))
}

// HashKey returns the 64-bit hash of a primary key: FNV-1a followed by a
// murmur3-style finalizer. The finalizer matters: hash-table buckets and
// tablet boundaries use the *top* bits, which raw FNV-1a barely perturbs
// for short sequential keys. Key hashes place records in tablets, in
// hash-table buckets, and identify records in secondary indexes and
// PriorityPulls.
func HashKey(key []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	x := uint64(offset64)
	for _, b := range key {
		x ^= uint64(b)
		x *= prime64
	}
	// fmix64 from MurmurHash3: full avalanche into the high bits.
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// HashRange is an inclusive range [Start, End] of key-hash space. A tablet
// owns one HashRange of one table.
type HashRange struct {
	Start uint64
	End   uint64
}

// FullRange spans the entire 64-bit hash space.
func FullRange() HashRange { return HashRange{Start: 0, End: ^uint64(0)} }

// Contains reports whether h falls within the range.
func (r HashRange) Contains(h uint64) bool { return h >= r.Start && h <= r.End }

// ContainsRange reports whether other is fully contained in r.
func (r HashRange) ContainsRange(other HashRange) bool {
	return other.Start >= r.Start && other.End <= r.End
}

// Overlaps reports whether the two ranges intersect.
func (r HashRange) Overlaps(other HashRange) bool {
	return r.Start <= other.End && other.Start <= r.End
}

// Split divides the range into n near-equal contiguous pieces. n must be
// at least 1; fewer pieces are returned when the range has fewer than n
// distinct values.
func (r HashRange) Split(n int) []HashRange {
	if n < 1 {
		panic("wire: HashRange.Split with n < 1")
	}
	span := r.End - r.Start // may be 2^64-1; width per part computed carefully
	if uint64(n) > span && span != ^uint64(0) {
		n = int(span + 1)
	}
	parts := make([]HashRange, 0, n)
	step := span/uint64(n) + 1
	start := r.Start
	for i := 0; i < n; i++ {
		end := start + step - 1
		if end < start || end > r.End || i == n-1 { // overflow or final part
			end = r.End
		}
		parts = append(parts, HashRange{Start: start, End: end})
		if end == r.End {
			break
		}
		start = end + 1
	}
	return parts
}

func (r HashRange) String() string {
	return fmt.Sprintf("[%016x,%016x]", r.Start, r.End)
}

// Record is the unit of data transfer: one object with its table, version,
// primary key, and value. Batches of records flow in Pull and PriorityPull
// responses and in replication traffic.
type Record struct {
	Table   TableID
	Version uint64
	Key     []byte
	Value   []byte
	// Tombstone marks a deletion: the key was removed at Version.
	Tombstone bool
}

// WireSize returns the encoded size of the record, used by the fabric's
// bandwidth model and by Pull byte budgets.
func (r *Record) WireSize() int {
	var c codec
	record(&c, r)
	return c.n
}

// recordOverhead is the encoded size of a record less its key and value
// bytes.
var recordOverhead = (&Record{}).WireSize()

// RecordSize returns the encoded size of a record with keyLen key bytes
// and valueLen value bytes: WireSize by arithmetic, for the migration
// paths that size every record they move.
func RecordSize(keyLen, valueLen int) int { return recordOverhead + keyLen + valueLen }
