// Package server implements a storage server: the master component
// (tablets, log-structured memory, hash table, client operation handlers,
// the source side of migration) and the backup component (segment replica
// store), glued to the dispatch/worker scheduler and the RPC transport.
//
// The target side of migration — Rocksteady's migration manager — lives in
// internal/core and plugs in via the MigrationHandler interface, keeping
// the substrate/contribution boundary explicit.
package server

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"rocksteady/internal/backup"
	"rocksteady/internal/dispatch"
	"rocksteady/internal/index"
	"rocksteady/internal/metrics"
	"rocksteady/internal/storage"
	"rocksteady/internal/transport"
	"rocksteady/internal/wire"
)

// Config parameterizes a server.
type Config struct {
	// ID is the server's cluster address.
	ID wire.ServerID
	// Workers sizes the worker pool (paper: 12).
	Workers int
	// SegmentSize sizes log segments.
	SegmentSize int
	// HashTableCapacity hints the expected object count.
	HashTableCapacity int
	// Backups lists servers whose backup services replicate this master's
	// log; empty disables replication.
	Backups []wire.ServerID
	// ReplicationFactor is the number of replicas per segment (paper: 3).
	ReplicationFactor int
	// BackupWriteBandwidth throttles this server's *backup service* in
	// bytes/sec (0 = unthrottled); models the replication ceiling of §2.3.
	BackupWriteBandwidth float64
	// RetryHintMicros is the hint returned with StatusRetry while a
	// PriorityPull is in flight (paper: a few tens of microseconds).
	RetryHintMicros uint32
	// CleanerInterval runs the log cleaner periodically when > 0; the
	// cleaner relocates live entries out of mostly-dead segments, the
	// normal-case reorganization that motivates Rocksteady's lazy
	// partitioning (§1, §2.3).
	CleanerInterval time.Duration
	// RPCTimeout is the node's default per-attempt RPC timeout (0 =
	// transport.DefaultRPCTimeout). It is a local liveness guard; caller
	// deadlines travel in the request context instead.
	RPCTimeout time.Duration
	// HeatSampleShift controls access-heat sampling: one access in
	// 2^shift is recorded (0 = storage.DefaultHeatSampleShift; negative =
	// sample every access, which deterministic tests use).
	HeatSampleShift int
	// DataDir, when non-empty, backs this server's backup service with a
	// durable FileStore rooted at DataDir/backup: segment replicas are
	// persisted with batched fsync and reloaded on the next start, so a
	// full-cluster restart can recover every master's data from disk.
	// Empty keeps the in-memory MemStore.
	DataDir string
}

func (c *Config) applyDefaults() {
	if c.Workers <= 0 {
		c.Workers = 12
	}
	if c.SegmentSize <= 0 {
		c.SegmentSize = storage.DefaultSegmentSize
	}
	if c.HashTableCapacity <= 0 {
		c.HashTableCapacity = 1 << 20
	}
	if c.ReplicationFactor <= 0 {
		c.ReplicationFactor = 3
	}
	if c.RetryHintMicros == 0 {
		c.RetryHintMicros = 40
	}
	if c.HeatSampleShift == 0 {
		c.HeatSampleShift = storage.DefaultHeatSampleShift
	}
	if c.HeatSampleShift < 0 {
		c.HeatSampleShift = 0
	}
}

// TabletState tracks what a server may do with a tablet it knows about.
type TabletState int

// Tablet states.
const (
	// TabletNormal serves all operations.
	TabletNormal TabletState = iota
	// TabletMigratingOut is immutable: client operations get
	// StatusWrongServer (ownership already moved to the target); only
	// Pull/PriorityPull touch it.
	TabletMigratingOut
	// TabletMigratingIn is owned here but still filling: reads of
	// not-yet-arrived records trigger PriorityPulls.
	TabletMigratingIn
)

type tabletEntry struct {
	table wire.TableID
	rng   wire.HashRange
	state TabletState
}

// MigrationHandler is the target-side migration engine (internal/core).
type MigrationHandler interface {
	// HandleMigrateTablet starts pulling (table, rng) from source;
	// ownership has not yet moved — the handler does that. The context is
	// the request's: its deadline (if any) bounds the whole migration,
	// including the background pulls that outlive this call, and its
	// trace id extends across the pull chain.
	HandleMigrateTablet(ctx context.Context, table wire.TableID, rng wire.HashRange, source wire.ServerID) wire.Status
	// HandleMissingKey is consulted when a read misses in a migrating-in
	// tablet. It schedules a PriorityPull (batched, de-duplicated) and
	// returns the retry hint; knownMissing reports that the source has
	// confirmed the key does not exist.
	HandleMissingKey(table wire.TableID, hash uint64) (retryMicros uint32, knownMissing bool)
	// CancelIncoming aborts an in-progress incoming migration (the
	// coordinator recovered the tablet elsewhere).
	CancelIncoming(table wire.TableID, rng wire.HashRange)
}

// Server is one storage server.
type Server struct {
	cfg Config
	// root anchors request-scoped contexts: requests without a deadline
	// run directly under it (no per-request allocation).
	root  context.Context
	node  *transport.Node
	sched *dispatch.Scheduler
	log   *storage.Log
	ht    *storage.HashTable
	repl  *backup.Replicator
	store *backup.Store
	idx   *index.Manager

	// tablets is the RCU-published routing snapshot (see tablets.go):
	// readers do one atomic load per request; writers copy-on-write under
	// tabletMu and publish a fresh immutable map.
	tablets  atomic.Pointer[tabletMap]
	tabletMu sync.Mutex

	// sweeps are the retired ranges whose records are still being
	// reclaimed (sweep.go).
	sweepMu sync.Mutex
	sweeps  []*rangeSweep

	// parkedTombstones counts deletions parked in the hash table of a
	// migrating-in range (ParkTombstone).
	parkedTombstones atomic.Uint64

	migration atomic.Pointer[MigrationHandler]

	cleaner     *storage.Cleaner
	cleanerStop chan struct{}

	// stats is sharded per worker so hot-path increments never contend
	// across cores; Stats() aggregates (see stats.go).
	stats *shardedStats

	// heat tracks sampled per-tablet access counts for the rebalancer
	// (sharded like stats; see heat.go and storage/heat.go).
	heat    *storage.HeatMap
	heatAgg *heatState
}

// New creates a server on the given endpoint and starts serving. It
// panics if the durable backup store cannot be opened; deployments that
// set Config.DataDir and want the error should use Open.
func New(cfg Config, ep transport.Endpoint) *Server {
	s, err := Open(cfg, ep)
	if err != nil {
		panic(fmt.Sprintf("server: open backup store: %v", err))
	}
	return s
}

// Open creates a server on the given endpoint and starts serving,
// reporting an error if Config.DataDir is set but the file-backed
// segment store cannot be opened (the endpoint is left running; the
// caller owns it).
func Open(cfg Config, ep transport.Endpoint) (*Server, error) {
	cfg.applyDefaults()
	seg := backup.SegmentStore(backup.NewMemStore())
	if cfg.DataDir != "" {
		fst, err := backup.OpenFileStore(filepath.Join(cfg.DataDir, "backup"), backup.FileStoreOptions{})
		if err != nil {
			return nil, err
		}
		seg = fst
	}
	s := &Server{
		cfg: cfg,
		//lint:ignore ctxcheck server root: requests derive their contexts from here
		root:  context.Background(),
		node:  transport.NewNodeWithTimeout(ep, cfg.RPCTimeout),
		sched: dispatch.NewScheduler(cfg.Workers),
		ht:    storage.NewHashTable(cfg.HashTableCapacity),
		store: backup.NewStoreWith(seg),
		idx:   index.NewManager(),
	}
	s.tablets.Store(emptyTabletMap)
	s.stats = newShardedStats(cfg.Workers)
	s.heat = storage.NewHeatMap(cfg.Workers, uint(cfg.HeatSampleShift))
	s.heatAgg = newHeatState()
	s.store.WriteBandwidth = cfg.BackupWriteBandwidth
	s.repl = backup.NewReplicator(s.node, cfg.ID, cfg.Backups, cfg.ReplicationFactor)
	// One log head per dispatch worker: a worker appends under its own
	// shard's lock, so concurrent writers never serialize on a global head.
	s.log = storage.NewShardedLog(cfg.SegmentSize, cfg.Workers, s.repl.OnAppend)
	s.repl.SetSegmentResolver(func(logID, segID uint64) *storage.Segment {
		if logID != storage.MainLogID {
			return nil // side logs replicate whole segments already
		}
		seg, _ := s.log.Segment(segID)
		return seg
	})
	s.cleaner = storage.NewCleaner(s.log, s.ht)
	s.cleanerStop = make(chan struct{})
	if cfg.CleanerInterval > 0 {
		go s.cleanerLoop(cfg.CleanerInterval)
	}
	s.node.SetHandler(s.dispatchRequest)
	s.node.Start()
	return s, nil
}

// cleanerLoop runs cleaning passes as a background task: each pass is
// enqueued at PriorityBackground so client requests always win, exactly
// like migration work (§3.1).
func (s *Server) cleanerLoop(interval time.Duration) {
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-s.cleanerStop:
			return
		case <-ticker.C:
			done := make(chan struct{})
			s.sched.Enqueue(wire.PriorityBackground, func() {
				defer close(done)
				s.cleaner.CleanOnce()
			})
			select {
			case <-done:
			case <-s.cleanerStop:
				return
			}
		}
	}
}

// Cleaner returns the server's log cleaner (manual passes in tests and
// tools).
func (s *Server) Cleaner() *storage.Cleaner { return s.cleaner }

// Close stops the server (models an orderly shutdown; use the fabric's
// Kill for crash semantics).
func (s *Server) Close() {
	select {
	case <-s.cleanerStop:
	default:
		close(s.cleanerStop)
	}
	s.node.Close()
	s.sched.Close()
	// Release the backup store last (file handles for a FileStore). No
	// flush happens here: unsynced replica bytes were never acknowledged,
	// so a close error has nothing further to protect.
	_ = s.store.Close()
}

// Crash severs the server abruptly: the log stops accepting appends and
// the scheduler discards queued work. Combine with Fabric.Kill.
func (s *Server) Crash() {
	s.log.Close()
	s.Close()
}

// ID returns the server's address.
func (s *Server) ID() wire.ServerID { return s.cfg.ID }

// Node returns the RPC node (the migration manager issues Pulls on it).
func (s *Server) Node() *transport.Node { return s.node }

// Scheduler returns the worker pool.
func (s *Server) Scheduler() *dispatch.Scheduler { return s.sched }

// Log returns the master's main log.
func (s *Server) Log() *storage.Log { return s.log }

// HashTable returns the master's primary-key index.
func (s *Server) HashTable() *storage.HashTable { return s.ht }

// Replicator returns the master's log replicator.
func (s *Server) Replicator() *backup.Replicator { return s.repl }

// BackupStore returns this server's backup service store.
func (s *Server) BackupStore() *backup.Store { return s.store }

// Indexes returns the server's indexlet host.
func (s *Server) Indexes() *index.Manager { return s.idx }

// Stats returns a point-in-time aggregate of the server's counters
// (summed across the per-worker shards) plus the decayed per-tablet heat
// snapshot (each call is one heat drain/decay step; see heat.go).
func (s *Server) Stats() *Stats {
	out := s.stats.snapshot()
	out.TabletHeat = s.HeatSnapshot()
	return out
}

// ShedCounts reports deadline-expired requests shed from the dispatch
// queues without running, in total and per priority.
func (s *Server) ShedCounts() (total int64, perPriority [wire.NumPriorities]int64) {
	return s.sched.TasksShed()
}

// TraceSpans snapshots the server's bounded dispatch-span ring (oldest
// first): per-request queue-wait vs service time, keyed by trace id.
func (s *Server) TraceSpans() []metrics.Span { return s.sched.Trace().Snapshot() }

// ParkTombstone counts a deletion about to be parked in the hash table of
// a migrating-in range. Migrations read the count (ParkedTombstones) to
// skip the epilogue's tombstone sweep when none was parked since they
// began.
func (s *Server) ParkTombstone() { s.parkedTombstones.Add(1) }

// ParkedTombstones returns how many deletions were ever parked here.
func (s *Server) ParkedTombstones() uint64 { return s.parkedTombstones.Load() }

// Config returns the server's configuration.
func (s *Server) Config() Config { return s.cfg }

// SetMigrationHandler installs the target-side migration engine.
func (s *Server) SetMigrationHandler(h MigrationHandler) { s.migration.Store(&h) }

func (s *Server) migrationHandler() MigrationHandler {
	if p := s.migration.Load(); p != nil {
		return *p
	}
	return nil
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

// dispatchRequest runs on the dispatch pump: it assigns the request to the
// worker pool at the sender's priority (clamped per-op so a misbehaving
// sender cannot elevate bulk work). The envelope deadline rides along as
// task metadata, making the queues deadline-aware: a request that expires
// while queued is shed by the scheduler and never reaches handle.
func (s *Server) dispatchRequest(m *wire.Message) {
	pri := m.Priority
	switch m.Op {
	case wire.OpPull:
		pri = wire.PriorityBackground
	case wire.OpPriorityPull:
		pri = wire.PriorityPriorityPull
	case wire.OpReplicateBatch:
		if pri > wire.PriorityReplication {
			pri = wire.PriorityReplication
		}
	default:
		if pri < wire.PriorityForeground {
			pri = wire.PriorityForeground
		}
	}
	meta := dispatch.TaskMeta{DeadlineNanos: m.DeadlineNanos, TraceID: m.TraceID, Op: uint8(m.Op)}
	s.sched.EnqueueMetaWorker(pri, meta, func(worker int) {
		ctx, cancel := transport.RequestContext(s.root, m)
		s.handle(ctx, m, s.stats.shard(worker))
		cancel()
	})
}

// handle executes one request on a worker under its request-scoped
// context (envelope deadline, trace id). st is the executing worker's
// stat shard; counting into it keeps the hot path free of cross-core
// cache-line traffic.
func (s *Server) handle(ctx context.Context, m *wire.Message, st *statShard) {
	switch req := m.Body.(type) {
	case *wire.ReadRequest:
		s.node.Reply(m, s.handleRead(st, req))
	case *wire.WriteRequest:
		s.node.Reply(m, s.handleWrite(ctx, st, req))
	case *wire.DeleteRequest:
		s.node.Reply(m, s.handleDelete(ctx, st, req))
	case *wire.MultiGetRequest:
		s.node.Reply(m, s.handleMultiGet(st, req))
	case *wire.MultiPutRequest:
		s.node.Reply(m, s.handleMultiPut(ctx, st, req))
	case *wire.MultiGetByHashRequest:
		s.node.Reply(m, s.handleMultiGetByHash(st, req))
	case *wire.IndexLookupRequest:
		s.node.Reply(m, &wire.IndexLookupResponse{
			Status: wire.StatusOK,
			Hashes: s.idx.Lookup(req.Index, req.Begin, req.End, int(req.Limit)),
		})
	case *wire.IndexInsertRequest:
		s.idx.Insert(req.Index, req.SecondaryKey, req.KeyHash)
		s.node.Reply(m, &wire.IndexInsertResponse{Status: wire.StatusOK})
	case *wire.IndexRemoveRequest:
		s.idx.Remove(req.Index, req.SecondaryKey, req.KeyHash)
		s.node.Reply(m, &wire.IndexRemoveResponse{Status: wire.StatusOK})
	case *wire.PrepareMigrationRequest:
		s.node.Reply(m, s.handlePrepareMigration(req))
	case *wire.AbortMigrationRequest:
		s.node.Reply(m, s.handleAbortMigration(req))
	case *wire.PullRequest:
		resp := s.handlePull(st, req)
		s.node.Reply(m, resp)
		s.recycleRecords(resp.Records)
	case *wire.PriorityPullRequest:
		resp := s.handlePriorityPull(st, req)
		s.node.Reply(m, resp)
		s.recycleRecords(resp.Records)
	case *wire.DropTabletRequest:
		s.node.Reply(m, s.handleDropTablet(req))
	case *wire.ReplayRecordsRequest:
		s.node.Reply(m, s.handleReplayRecords(ctx, st, req))
		s.recycleRecords(req.Records)
	case *wire.PullTailRequest:
		resp := s.handlePullTail(req)
		s.node.Reply(m, resp)
		s.recycleRecords(resp.Records)
	case *wire.MigrateTabletRequest:
		status := wire.Status(wire.StatusInternalError)
		if h := s.migrationHandler(); h != nil {
			status = h.HandleMigrateTablet(transport.EnsureTraceID(ctx, m.TraceID), req.Table, req.Range, req.Source)
		}
		s.node.Reply(m, &wire.MigrateTabletResponse{Status: status})
	case *wire.ReplicateBatchRequest:
		s.node.Reply(m, s.store.HandleReplicateBatch(req))
	case *wire.GetBackupSegmentsRequest:
		s.node.Reply(m, s.store.HandleGetSegments(req))
	case *wire.BackupStatusRequest:
		s.node.Reply(m, s.store.HandleStatus(req))
	case *wire.TakeTabletsRequest:
		s.node.Reply(m, s.handleTakeTablets(ctx, st, req))
		s.recycleRecords(req.Records)
	case *wire.GetHeatRequest:
		s.node.Reply(m, s.handleGetHeat())
	case *wire.PingRequest:
		s.node.Reply(m, &wire.PingResponse{Status: wire.StatusOK})
	default:
		// Unknown ops time out at the caller.
	}
}

// recycleRecords returns a record slice to the wire pool when this node's
// transport copies payloads during Send (TCP). Over the zero-copy fabric the
// receiver owns the slice after the handoff, so the handler must not touch
// it again (see transport.Copying and DESIGN.md, Transport performance
// model).
func (s *Server) recycleRecords(records []wire.Record) {
	if s.node.SendCopies() {
		wire.ReleaseRecordSlice(records)
	}
}

// ---------------------------------------------------------------------------
// Data path
// ---------------------------------------------------------------------------

// respondFromRef turns a hash-table ref into a read response: decode
// failure is an internal error, a parked tombstone is an authoritative
// miss, anything else is the object. Both the normal lookup and the
// MigratingIn re-check go through here so the decode semantics (and the
// objectsRead accounting) live in one place.
func (s *Server) respondFromRef(st *statShard, ref storage.Ref) *wire.ReadResponse {
	h, _, value, err := ref.Entry()
	if err != nil {
		return &wire.ReadResponse{Status: wire.StatusInternalError}
	}
	if h.Type == storage.EntryTombstone {
		// A deletion parked in the hash table during migration: the
		// key is authoritatively gone.
		return &wire.ReadResponse{Status: wire.StatusNoSuchKey}
	}
	st.objectsRead.Add(1)
	return &wire.ReadResponse{Status: wire.StatusOK, Version: h.Version, Value: value}
}

func (s *Server) handleRead(st *statShard, req *wire.ReadRequest) *wire.ReadResponse {
	return s.readOne(s.tabletSnapshot(), st, req.Table, req.Key)
}

// readOne serves one key off an already-taken routing snapshot; multiget
// routes its whole batch through here with a single snapshot.
func (s *Server) readOne(tm *tabletMap, st *statShard, table wire.TableID, key []byte) *wire.ReadResponse {
	st.reads.Add(1)
	hash := wire.HashKey(key)
	state, owned := tm.lookup(table, hash)
	if !owned || state == TabletMigratingOut {
		st.wrongServer.Add(1)
		return &wire.ReadResponse{Status: wire.StatusWrongServer}
	}
	s.heat.Record(st.wk, table, hash)
	if ref, ok := s.ht.Get(table, key, hash); ok {
		return s.respondFromRef(st, ref)
	}
	if state == TabletMigratingIn {
		if h := s.migrationHandler(); h != nil {
			if retry, missing := h.HandleMissingKey(table, hash); !missing && retry != 0 {
				st.retries.Add(1)
				return &wire.ReadResponse{Status: wire.StatusRetry, RetryAfterMicros: retry}
			}
			// The record may have arrived while this worker looked: a
			// synchronous PriorityPull replayed it, or the migration
			// replayed it and completed after the first lookup (so no
			// migration covers the key any more). Look again.
			if ref, ok := s.ht.Get(table, key, hash); ok {
				return s.respondFromRef(st, ref)
			}
		}
	}
	return &wire.ReadResponse{Status: wire.StatusNoSuchKey}
}

func (s *Server) handleWrite(ctx context.Context, st *statShard, req *wire.WriteRequest) *wire.WriteResponse {
	st.writes.Add(1)
	hash := wire.HashKey(req.Key)
	state, owned := s.tabletFor(req.Table, hash)
	if !owned || state == TabletMigratingOut {
		st.wrongServer.Add(1)
		return &wire.WriteResponse{Status: wire.StatusWrongServer}
	}
	version, status := s.applyWrite(st, req.Table, req.Key, hash, req.Value)
	if status != wire.StatusOK {
		return &wire.WriteResponse{Status: status}
	}
	if err := s.repl.Sync(ctx); err != nil {
		return &wire.WriteResponse{Status: wire.StatusInternalError}
	}
	st.objectsWritten.Add(1)
	return &wire.WriteResponse{Status: wire.StatusOK, Version: version}
}

// applyWrite appends and indexes one object; callers replicate. The
// append lands on the executing worker's log shard (st.wk), so parallel
// writers on different workers never contend on one head lock.
func (s *Server) applyWrite(st *statShard, table wire.TableID, key []byte, hash uint64, value []byte) (uint64, wire.Status) {
	s.heat.Record(st.wk, table, hash)
	version := s.log.NextVersion()
	ref, err := s.log.Append(st.wk, storage.EntryObject, table, version, 0, key, value)
	if err != nil {
		return 0, wire.StatusInternalError
	}
	if prev, existed := s.ht.Put(table, key, hash, ref); existed {
		s.log.MarkDead(prev)
	}
	return version, wire.StatusOK
}

func (s *Server) handleDelete(ctx context.Context, st *statShard, req *wire.DeleteRequest) *wire.DeleteResponse {
	hash := wire.HashKey(req.Key)
	state, owned := s.tabletFor(req.Table, hash)
	if !owned || state == TabletMigratingOut {
		st.wrongServer.Add(1)
		return &wire.DeleteResponse{Status: wire.StatusWrongServer}
	}
	if state == TabletMigratingIn {
		return s.deleteDuringMigration(ctx, st, req, hash)
	}
	prev, existed := s.ht.Remove(req.Table, req.Key, hash)
	if !existed {
		return &wire.DeleteResponse{Status: wire.StatusNoSuchKey}
	}
	version := s.log.NextVersion()
	if _, err := s.log.Append(st.wk, storage.EntryTombstone, req.Table, version, prev.Seg.ID, req.Key, nil); err != nil {
		return &wire.DeleteResponse{Status: wire.StatusInternalError}
	}
	s.log.MarkDead(prev)
	if err := s.repl.Sync(ctx); err != nil {
		return &wire.DeleteResponse{Status: wire.StatusInternalError}
	}
	return &wire.DeleteResponse{Status: wire.StatusOK, Version: version}
}

// deleteDuringMigration deletes a key in a migrating-in tablet. Simply
// removing the hash-table entry would let a later-arriving bulk copy of
// the old record resurrect the key, so the deletion is *parked in the
// hash table* as a tombstone ref: its version (above the migration's
// ceiling) makes PutIfNewer reject the stale copy. The migration epilogue
// sweeps parked tombstones out.
func (s *Server) deleteDuringMigration(ctx context.Context, st *statShard, req *wire.DeleteRequest, hash uint64) *wire.DeleteResponse {
	prev, exists := s.ht.Get(req.Table, req.Key, hash)
	if exists {
		if h, err := prev.Header(); err == nil && h.Type == storage.EntryTombstone {
			return &wire.DeleteResponse{Status: wire.StatusNoSuchKey}
		}
	} else {
		// Not arrived yet: pull it over first so the tombstone's killed-
		// segment bookkeeping is exact and "delete of absent key" is
		// answered correctly.
		if h := s.migrationHandler(); h != nil {
			if _, missing := h.HandleMissingKey(req.Table, hash); missing {
				// Unless the migration replayed the key and completed
				// meanwhile (see readOne): then the client must retry.
				if _, arrived := s.ht.Get(req.Table, req.Key, hash); !arrived {
					return &wire.DeleteResponse{Status: wire.StatusNoSuchKey}
				}
			}
			st.retries.Add(1)
			return &wire.DeleteResponse{Status: wire.StatusRetry}
		}
		return &wire.DeleteResponse{Status: wire.StatusNoSuchKey}
	}
	version := s.log.NextVersion()
	ref, err := s.log.Append(st.wk, storage.EntryTombstone, req.Table, version, prev.Seg.ID, req.Key, nil)
	if err != nil {
		return &wire.DeleteResponse{Status: wire.StatusInternalError}
	}
	s.ParkTombstone()
	if old, existed := s.ht.Put(req.Table, req.Key, hash, ref); existed {
		s.log.MarkDead(old)
	}
	if err := s.repl.Sync(ctx); err != nil {
		return &wire.DeleteResponse{Status: wire.StatusInternalError}
	}
	return &wire.DeleteResponse{Status: wire.StatusOK, Version: version}
}

func (s *Server) handleMultiGet(st *statShard, req *wire.MultiGetRequest) *wire.MultiGetResponse {
	st.reads.Add(1)
	resp := &wire.MultiGetResponse{
		Status:   wire.StatusOK,
		Statuses: make([]wire.Status, len(req.Keys)),
		Versions: make([]uint64, len(req.Keys)),
		Values:   make([][]byte, len(req.Keys)),
	}
	// One routing snapshot for the whole batch: N keys cost one atomic
	// load, and a concurrent SetTabletState can never split the batch
	// across two routing views.
	tm := s.tabletSnapshot()
	for i, key := range req.Keys {
		r := s.readOne(tm, st, req.Table, key)
		resp.Statuses[i] = r.Status
		resp.Versions[i] = r.Version
		resp.Values[i] = r.Value
		if r.Status == wire.StatusWrongServer {
			resp.Status = wire.StatusWrongServer
		}
		if r.Status == wire.StatusRetry && r.RetryAfterMicros > resp.RetryAfterMicros {
			resp.RetryAfterMicros = r.RetryAfterMicros
		}
	}
	return resp
}

func (s *Server) handleMultiPut(ctx context.Context, st *statShard, req *wire.MultiPutRequest) *wire.MultiPutResponse {
	resp := &wire.MultiPutResponse{
		Status:   wire.StatusOK,
		Statuses: make([]wire.Status, len(req.Keys)),
		Versions: make([]uint64, len(req.Keys)),
	}
	tm := s.tabletSnapshot() // one routing view for the whole batch
	wrote := false
	for i, key := range req.Keys {
		hash := wire.HashKey(key)
		state, owned := tm.lookup(req.Table, hash)
		if !owned || state == TabletMigratingOut {
			resp.Statuses[i] = wire.StatusWrongServer
			resp.Status = wire.StatusWrongServer
			continue
		}
		v, status := s.applyWrite(st, req.Table, key, hash, req.Values[i])
		resp.Statuses[i] = status
		resp.Versions[i] = v
		wrote = wrote || status == wire.StatusOK
	}
	if wrote {
		if err := s.repl.Sync(ctx); err != nil {
			resp.Status = wire.StatusInternalError
		}
		st.objectsWritten.Add(int64(len(req.Keys)))
	}
	return resp
}

func (s *Server) handleMultiGetByHash(st *statShard, req *wire.MultiGetByHashRequest) *wire.MultiGetByHashResponse {
	st.reads.Add(1)
	resp := &wire.MultiGetByHashResponse{Status: wire.StatusOK}
	tm := s.tabletSnapshot() // one routing view for the whole batch
	for _, hash := range req.Hashes {
		state, owned := tm.lookup(req.Table, hash)
		if !owned || state == TabletMigratingOut {
			st.wrongServer.Add(1)
			return &wire.MultiGetByHashResponse{Status: wire.StatusWrongServer}
		}
		s.heat.Record(st.wk, req.Table, hash)
		refs := s.ht.GetByHash(req.Table, hash)
		if len(refs) == 0 && state == TabletMigratingIn {
			if h := s.migrationHandler(); h != nil {
				retry, missing := h.HandleMissingKey(req.Table, hash)
				if !missing {
					st.retries.Add(1)
					resp.Status = wire.StatusRetry
					if retry > resp.RetryAfterMicros {
						resp.RetryAfterMicros = retry
					}
					continue
				}
				refs = s.ht.GetByHash(req.Table, hash) // see readOne
			}
		}
		for _, ref := range refs {
			rec, err := ref.Record()
			if err == nil && !rec.Tombstone {
				resp.Records = append(resp.Records, rec)
				st.objectsRead.Add(1)
			}
		}
	}
	return resp
}

// ---------------------------------------------------------------------------
// Migration source side
// ---------------------------------------------------------------------------

func (s *Server) handlePrepareMigration(req *wire.PrepareMigrationRequest) *wire.PrepareMigrationResponse {
	// Unless the source keeps serving, mark the range
	// immutable-and-migrating; from here every client op on it answers
	// StatusWrongServer, shedding load instantly (§3). Registering carves
	// the range out of any covering tablet, so the boundary materializes
	// exactly now — never earlier. A range this server holds only part
	// of is refused whole.
	if !s.prepareMigrationOut(req.Table, req.Range, req.KeepServing) {
		return &wire.PrepareMigrationResponse{Status: wire.StatusWrongServer}
	}
	return &wire.PrepareMigrationResponse{
		Status:         wire.StatusOK,
		VersionCeiling: s.log.CurrentVersion(),
		NumBuckets:     s.ht.NumBuckets(),
		// Epoch watermark: every write that could land after this reply
		// carries a larger epoch, on any shard head. The target's PullTail
		// uses it to catch up on exactly the writes that raced migration.
		TailWatermark: s.log.TailWatermark(),
	}
}

// handleAbortMigration undoes a PrepareMigration whose migration never got
// ownership: every tablet inside the range still marked migrating-out flips
// back to normal service. Idempotent by construction — if the prepare was
// itself lost, or a previous abort already landed, nothing is in the
// migrating-out state and the scan changes nothing — so the target retries
// it freely whenever the prologue outcome is in doubt.
func (s *Server) handleAbortMigration(req *wire.AbortMigrationRequest) *wire.AbortMigrationResponse {
	s.SetTabletState(req.Table, req.Range, TabletMigratingOut, TabletNormal)
	return &wire.AbortMigrationResponse{Status: wire.StatusOK}
}

func (s *Server) handlePull(st *statShard, req *wire.PullRequest) *wire.PullResponse {
	st.pullsServed.Add(1)
	// Pooled gather slice: recycled after Reply on copying transports, or by
	// the receiving migration manager after replay on the zero-copy fabric.
	resp := &wire.PullResponse{Status: wire.StatusOK, Records: wire.GetRecordSlice()}
	budget := int(req.ByteBudget)
	used := 0
	next, done := s.ht.ScanRange(req.Table, req.Range, req.ResumeToken, func(ref storage.Ref) bool {
		rec, err := ref.Record()
		if err != nil {
			return true
		}
		// Zero-copy gather: the record's key/value alias log memory; the
		// fabric hands the pointers to the target (§3.2).
		resp.Records = append(resp.Records, rec)
		used += rec.WireSize()
		return used < budget
	})
	resp.ResumeToken = next
	resp.Done = done
	st.pullBytesServed.Add(int64(used))
	return resp
}

func (s *Server) handlePriorityPull(st *statShard, req *wire.PriorityPullRequest) *wire.PriorityPullResponse {
	st.priorityPulls.Add(1)
	resp := &wire.PriorityPullResponse{Status: wire.StatusOK, Records: wire.GetRecordSlice()}
	var bytes int64
	for _, hash := range req.Hashes {
		refs := s.ht.GetByHash(req.Table, hash)
		if len(refs) == 0 {
			resp.Missing = append(resp.Missing, hash)
			continue
		}
		for _, ref := range refs {
			rec, err := ref.Record()
			if err == nil {
				resp.Records = append(resp.Records, rec)
				bytes += int64(rec.WireSize())
			}
		}
	}
	st.priorityPullBytes.Add(bytes)
	return resp
}

// handleDropTablet retires the range and replies: the range is unserved
// from here on, and its records leave in background steps. Whoever puts
// records into the range again first finishes what is left of the sweep
// (finishSweeps), so the records are gone before the range can be
// registered here again.
func (s *Server) handleDropTablet(req *wire.DropTabletRequest) *wire.DropTabletResponse {
	if h := s.migrationHandler(); h != nil {
		h.CancelIncoming(req.Table, req.Range)
	}
	s.tabletMu.Lock()
	sw := s.retireLocked(req.Table, req.Range)
	s.tabletMu.Unlock()
	s.sweepInBackground(sw)
	return &wire.DropTabletResponse{Status: wire.StatusOK}
}

// ---------------------------------------------------------------------------
// Recovery / ownership grants
// ---------------------------------------------------------------------------

func (s *Server) handleTakeTablets(ctx context.Context, st *statShard, req *wire.TakeTabletsRequest) *wire.TakeTabletsResponse {
	if req.VersionCeiling > 0 {
		s.log.BumpVersionTo(req.VersionCeiling)
	}
	// The range is not served here yet: a sweep still pending from an
	// earlier drop of it must not reach the records replayed below.
	s.finishSweeps(req.Table, req.Range)
	tombstones := false
	for i := range req.Records {
		rec := &req.Records[i]
		if rec.Tombstone {
			// A recovered deletion: park the tombstone so an older copy this
			// server may still hold (a migration source re-assuming the
			// tablet after its target died) loses the version race.
			tref, err := s.log.Append(st.wk, storage.EntryTombstone, rec.Table, rec.Version, 0, rec.Key, nil)
			if err != nil {
				return &wire.TakeTabletsResponse{Status: wire.StatusInternalError}
			}
			tombstones = true
			hash := wire.HashKey(rec.Key)
			if prev, stored := s.ht.PutIfNewer(rec.Table, rec.Key, hash, tref, rec.Version); stored {
				if !prev.IsZero() {
					s.log.MarkDead(prev)
				}
			} else {
				s.log.MarkDead(tref)
			}
			continue
		}
		ref, err := s.log.Append(st.wk, storage.EntryObject, rec.Table, rec.Version, 0, rec.Key, rec.Value)
		if err != nil {
			return &wire.TakeTabletsResponse{Status: wire.StatusInternalError}
		}
		hash := wire.HashKey(rec.Key)
		if prev, stored := s.ht.PutIfNewer(rec.Table, rec.Key, hash, ref, rec.Version); stored {
			if !prev.IsZero() {
				s.log.MarkDead(prev)
			}
		} else {
			s.log.MarkDead(ref)
		}
	}
	if tombstones {
		// The parked tombstones have done their job (any stale copies are
		// dead); drop them from the hash table so the keys read as absent
		// without occupying slots.
		s.ht.RemoveTombstoneRefs(req.Table, req.Range)
	}
	// Serve the range only now that its records are in place. This server
	// may already own the range in the coordinator's map (it was the target
	// of a migration whose source crashed), so clients reach it during the
	// replay; registered earlier, it would answer NoSuchKey for records not
	// yet replayed.
	s.RegisterTablet(req.Table, req.Range, TabletNormal)
	if len(req.Records) > 0 {
		if err := s.repl.Sync(ctx); err != nil {
			return &wire.TakeTabletsResponse{Status: wire.StatusInternalError}
		}
	}
	return &wire.TakeTabletsResponse{Status: wire.StatusOK}
}

// ---------------------------------------------------------------------------
// Baseline migration paths (§2.3 pre-existing mechanism, §4.2 variants)
// ---------------------------------------------------------------------------

// handleReplayRecords is the target side of the pre-existing source-driven
// migration: logically replay pushed records into the log and hash table,
// optionally re-replicating synchronously — the phases Figure 5 toggles.
func (s *Server) handleReplayRecords(ctx context.Context, st *statShard, req *wire.ReplayRecordsRequest) *wire.ReplayRecordsResponse {
	if req.SkipReplay {
		return &wire.ReplayRecordsResponse{Status: wire.StatusOK}
	}
	// The pushed records carry no range; any sweep pending on the table
	// is finished before they land.
	s.finishSweeps(req.Table, wire.FullRange())
	for i := range req.Records {
		rec := &req.Records[i]
		if rec.Tombstone {
			continue
		}
		ref, err := s.log.Append(st.wk, storage.EntryObject, rec.Table, rec.Version, 0, rec.Key, rec.Value)
		if err != nil {
			return &wire.ReplayRecordsResponse{Status: wire.StatusInternalError}
		}
		hash := wire.HashKey(rec.Key)
		if prev, stored := s.ht.PutIfNewer(rec.Table, rec.Key, hash, ref, rec.Version); stored {
			if !prev.IsZero() {
				s.log.MarkDead(prev)
			}
		} else {
			s.log.MarkDead(ref)
		}
	}
	if req.Replicate {
		if err := s.repl.Sync(ctx); err != nil {
			return &wire.ReplayRecordsResponse{Status: wire.StatusInternalError}
		}
	}
	return &wire.ReplayRecordsResponse{Status: wire.StatusOK}
}

// handlePullTail scans log entries with epochs above AfterEpoch for live
// records of the range: the delta catch-up that makes the
// source-retains-ownership variant hand over writes accepted during
// migration. Entries within one segment carry monotonically increasing
// epochs (a segment is filled by one shard head), so whole segments whose
// last epoch is at or below the watermark are skipped without scanning.
func (s *Server) handlePullTail(req *wire.PullTailRequest) *wire.PullTailResponse {
	resp := &wire.PullTailResponse{Status: wire.StatusOK, Records: wire.GetRecordSlice()}
	for _, seg := range s.log.Segments() {
		if seg.LastEpoch() <= req.AfterEpoch {
			continue
		}
		_ = storage.IterateSegmentEntries(seg, func(ref storage.Ref) bool {
			if h, err := ref.Header(); err != nil || h.Epoch <= req.AfterEpoch {
				return true
			}
			rec, err := ref.Record()
			if err != nil || rec.Table != req.Table {
				return true
			}
			hash := wire.HashKey(rec.Key)
			if !req.Range.Contains(hash) {
				return true
			}
			// Only current versions matter; stale overwrites are skipped.
			if !rec.Tombstone && !s.ht.RefersTo(rec.Table, rec.Key, hash, ref) {
				return true
			}
			resp.Records = append(resp.Records, rec)
			return true
		})
	}
	return resp
}
