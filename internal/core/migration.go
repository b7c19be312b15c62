package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"rocksteady/internal/server"
	"rocksteady/internal/storage"
	"rocksteady/internal/transport"
	"rocksteady/internal/wire"
)

// Migration is one in-flight (or finished) Rocksteady migration at the
// target. All coordination state lives here; the source is stateless
// beyond its tablet's migrating flag (§3).
type Migration struct {
	Table  wire.TableID
	Range  wire.HashRange
	Source wire.ServerID

	mgr  *Manager
	opts Options

	ceiling    uint64
	numBuckets uint64
	// tailWatermark is the source's epoch watermark at prepare time: every
	// write racing the migration carries a larger epoch, so the epilogue's
	// PullTail(AfterEpoch: tailWatermark) is exactly the catch-up delta.
	tailWatermark uint64
	// parkedAtBegin is the server's parked-tombstone count when the
	// migration began: the epilogue sweeps tombstones only if it moved.
	parkedAtBegin uint64

	sideLogMu   sync.Mutex
	sideLogs    []*storage.SideLog
	sideLogPool chan *storage.SideLog
	nextSideLog uint64

	replayWG sync.WaitGroup

	// ctx governs the whole migration: it inherits the MigrateTablet
	// request's deadline (and trace id) but not its post-reply
	// cancellation, and fail cancels it with the failure as the cause, so
	// every pull, backoff wait, and capacity wait aborts immediately.
	ctx          context.Context
	cancelCause  context.CancelCauseFunc
	releaseTimer context.CancelFunc // releases the inherited-deadline timer

	failure atomic.Pointer[error]
	done    chan struct{}

	// PriorityPull state (§3.3): queued hashes accumulate while one batch
	// is in flight; de-duplication guarantees the source never serves the
	// same key hash twice after migration starts.
	ppMu       sync.Mutex
	ppQueued   map[uint64]struct{}
	ppInflight map[uint64]struct{}
	ppMissing  map[uint64]struct{}
	ppActive   bool
	ppDrained  *sync.Cond
	// ppPulled is set once every background Pull has been replayed: from
	// then on a key absent here is absent at the source too, so no
	// PriorityPull may start and replay into side logs the epilogue is
	// committing.
	ppPulled bool

	started  time.Time
	finished time.Time

	recordsPulled       atomic.Int64
	bytesPulled         atomic.Int64
	pullRPCs            atomic.Int64
	priorityPullRPCs    atomic.Int64
	priorityPullRecords atomic.Int64
	tailRecords         atomic.Int64
}

func newMigration(ctx context.Context, m *Manager, table wire.TableID, rng wire.HashRange, source wire.ServerID) *Migration {
	g := &Migration{
		Table:      table,
		Range:      rng,
		Source:     source,
		mgr:        m,
		opts:       m.opts,
		done:       make(chan struct{}),
		ppQueued:   make(map[uint64]struct{}),
		ppInflight: make(map[uint64]struct{}),
		ppMissing:  make(map[uint64]struct{}),
	}
	// Detach from the request's cancellation (the MigrateTablet reply
	// returns long before the migration finishes) while keeping its values
	// (trace id) and re-applying its deadline, so a client-imposed bound on
	// the migration survives across the asynchronous continuation.
	base := context.WithoutCancel(ctx)
	g.releaseTimer = func() {}
	if dl, ok := ctx.Deadline(); ok {
		base, g.releaseTimer = context.WithDeadline(base, dl)
	}
	g.ctx, g.cancelCause = context.WithCancelCause(base)
	g.ppDrained = sync.NewCond(&g.ppMu)
	// Spontaneous deadline expiry must wake drainPriorityPulls' cond wait
	// just like fail does; channel-based waits see ctx.Done directly.
	context.AfterFunc(g.ctx, func() {
		g.ppMu.Lock()
		g.ppDrained.Broadcast()
		g.ppMu.Unlock()
	})
	workers := m.srv.Scheduler().Workers()
	g.sideLogPool = make(chan *storage.SideLog, workers)
	return g
}

// Done is closed when the migration finishes (successfully or not).
func (g *Migration) Done() <-chan struct{} { return g.done }

// Wait blocks until the migration finishes and returns its result.
func (g *Migration) Wait() Result {
	<-g.done
	return g.Result()
}

// Result snapshots the migration's statistics.
func (g *Migration) Result() Result {
	r := Result{
		Table: g.Table, Range: g.Range, Source: g.Source,
		Started: g.started, Finished: g.finished,
		RecordsPulled:       g.recordsPulled.Load(),
		BytesPulled:         g.bytesPulled.Load(),
		PullRPCs:            g.pullRPCs.Load(),
		PriorityPullRPCs:    g.priorityPullRPCs.Load(),
		PriorityPullRecords: g.priorityPullRecords.Load(),
		TailRecords:         g.tailRecords.Load(),
	}
	if p := g.failure.Load(); p != nil {
		r.Err = *p
	}
	return r
}

func (g *Migration) fail(err error) {
	if err == nil {
		return
	}
	e := err
	g.failure.CompareAndSwap(nil, &e)
	// Cancelling the migration context wakes everything blocked on
	// migration progress: run()'s cancellation wait, in-flight RPCs and
	// their backoff sleeps, waitForWorkerCapacity's select, and (via the
	// AfterFunc registered at construction) drainPriorityPulls' cond.
	g.cancelCause(err)
}

func (g *Migration) cancel(err error) { g.fail(err) }

// begin performs the synchronous prologue: prepare the source, transfer
// ownership at the coordinator, and register the tablet locally. Runs on
// the worker serving the MigrateTablet RPC.
func (g *Migration) begin() wire.Status {
	g.started = time.Now()
	srv := g.mgr.srv
	g.parkedAtBegin = srv.ParkedTombstones()

	// Anything this server holds of a range it does not serve is a stale
	// copy from an earlier ownership whose drop never landed. Replay is
	// newest-wins, so a key deleted since would resurrect: drop the copy.
	// It goes before the source stops serving, so the sweep (and any join
	// with a sweep still pending here) stays out of the window in which
	// clients are refused. A range this server serves is not a stale copy;
	// refuse to migrate it here rather than drop live records.
	if srv.Serves(g.Table, g.Range) {
		g.fail(errors.New("target already serves part of the range"))
		return wire.StatusWrongServer
	}
	srv.DropTablet(g.Table, g.Range)

	// Both prologue RPCs are idempotent (re-preparing an already-prepared
	// range and re-registering an identical transfer both answer OK), so
	// transport faults are retried rather than failing the migration — and,
	// more importantly, rather than leaving the cluster in the half-started
	// states the failure branches below must then clean up.
	reply, err := g.callSource(wire.PriorityForeground, &wire.PrepareMigrationRequest{
		Table: g.Table, Range: g.Range, Target: srv.ID(),
		KeepServing: g.opts.SourceRetainsOwnership,
	})
	if err != nil {
		// The prepare may have landed with only its response lost — the
		// source then refuses the range (migrating-out) while the
		// coordinator still routes every client to it, serving nobody.
		// Abort (idempotent, no-op if the prepare never arrived) so the
		// source resumes serving.
		g.abortSource()
		g.fail(err)
		return wire.StatusServerDown
	}
	prep, ok := reply.(*wire.PrepareMigrationResponse)
	if !ok || prep.Status != wire.StatusOK {
		g.fail(errors.New("prepare migration rejected"))
		return prep.Status
	}
	g.ceiling = prep.VersionCeiling
	g.numBuckets = prep.NumBuckets
	g.tailWatermark = prep.TailWatermark

	// Adopt the source's version ceiling before any write can land, so
	// target-issued versions always beat every pulled record (§3).
	srv.Log().BumpVersionTo(g.ceiling)

	if g.opts.SourceRetainsOwnership {
		// Ownership flips only at the end; the target pulls quietly.
		return wire.StatusOK
	}

	// Own the tablet locally before the coordinator redirects clients.
	srv.RegisterTablet(g.Table, g.Range, server.TabletMigratingIn)

	reply, err = srv.Node().CallWithRetries(g.ctx, wire.CoordinatorID, wire.PriorityForeground, &wire.MigrateStartRequest{
		Table: g.Table, Range: g.Range,
		Source: g.Source, Target: srv.ID(),
		TargetLogWatermark: srv.Log().CurrentEpoch(),
	}, transport.DefaultRetryPolicy())
	if err != nil {
		// Ambiguous: the transfer may have registered with every response
		// lost. Read the coordinator's map to find out — only a confirmed
		// non-transfer may be rolled back (rolling back a transfer that DID
		// register would leave the map pointing at a target that dropped
		// the tablet).
		switch transferred, known := g.ownershipTransferred(); {
		case transferred:
			return wire.StatusOK // it registered; the migration proceeds
		case known:
			srv.DropTablet(g.Table, g.Range)
			g.abortSource()
			g.fail(err)
			return wire.StatusServerDown
		default:
			// Coordinator unreachable: leave the prepared/migrating-in
			// state for the operator remedy (declare the target crashed;
			// recovery reverts via the lineage dependency if one exists).
			g.fail(err)
			return wire.StatusServerDown
		}
	}
	if ms, ok := reply.(*wire.MigrateStartResponse); !ok || ms.Status != wire.StatusOK {
		g.fail(errors.New("coordinator rejected ownership transfer"))
		srv.DropTablet(g.Table, g.Range)
		g.abortSource()
		return ms.Status
	}
	return wire.StatusOK
}

// abortSource tells the source to resume serving after a failed prologue.
// Best-effort, retried, idempotent: without it a lost PrepareMigration
// response leaves the range served by nobody — the source refuses
// (migrating-out) while the coordinator still routes clients to it.
// It runs detached from the migration context (which is typically already
// cancelled when this cleanup fires) but keeps its trace id.
func (g *Migration) abortSource() {
	srv := g.mgr.srv
	_, _ = srv.Node().CallWithRetries(context.WithoutCancel(g.ctx), g.Source, wire.PriorityForeground, &wire.AbortMigrationRequest{
		Table: g.Table, Range: g.Range, Target: srv.ID(),
	}, transport.DefaultRetryPolicy())
}

// ownershipTransferred resolves an ambiguous MigrateStart outcome by
// reading the coordinator's tablet map: transferred reports whether every
// tablet of the range is mastered by this target (the transfer registered
// before its response was lost); known is false when the coordinator could
// not be reached and nothing may be concluded.
func (g *Migration) ownershipTransferred() (transferred, known bool) {
	srv := g.mgr.srv
	// Detached like abortSource: the ambiguity must be resolved even when
	// the failure that caused it also cancelled the migration context.
	reply, err := srv.Node().CallWithRetries(context.WithoutCancel(g.ctx), wire.CoordinatorID, wire.PriorityForeground, &wire.GetTabletMapRequest{}, transport.DefaultRetryPolicy())
	if err != nil {
		return false, false
	}
	tm, ok := reply.(*wire.GetTabletMapResponse)
	if !ok || tm.Status != wire.StatusOK {
		return false, false
	}
	covered := false
	for _, t := range tm.Tablets {
		if t.Table == g.Table && t.Range.Overlaps(g.Range) {
			if t.Master != srv.ID() {
				return false, true
			}
			covered = true
		}
	}
	return covered, true
}

// run drives the migration to completion: the paper's migration manager
// "asynchronous continuation" (§3.1.2), here a goroutine that owns the
// scoreboard of per-partition Pulls.
func (g *Migration) run() {
	defer g.complete()
	if g.opts.DisableBackgroundPulls {
		// PriorityPull-only mode (Figures 13/14): wait until cancelled or
		// externally completed; there is no bulk transfer to finish.
		<-g.ctx.Done()
		return
	}
	parts := g.Range.Split(g.opts.Partitions)
	var wg sync.WaitGroup
	for _, p := range parts {
		wg.Add(1)
		go func(p wire.HashRange) {
			defer wg.Done()
			g.pullPartition(p)
		}(p)
	}
	wg.Wait()
	g.replayWG.Wait()
	g.ppMu.Lock()
	g.ppPulled = g.ctx.Err() == nil
	g.ppMu.Unlock()
	g.drainPriorityPulls()
}

// callSource issues an idempotent RPC to the source under the migration
// context, retrying transport-level failures up to opts.PullRetries extra
// times via the shared transport retry policy. Retries keep a transient
// fault (an injected drop, a momentary partition) from failing the whole
// migration: Pulls resume by token and replay is version-gated, so
// re-execution is safe. The jittered backoff wait is timer-driven and
// ctx-aware — cancellation (e.g. the source declared crashed) aborts it
// immediately.
func (g *Migration) callSource(pri wire.Priority, body wire.Payload) (wire.Payload, error) {
	return g.mgr.srv.Node().CallWithRetries(g.ctx, g.Source, pri, body, transport.RetryPolicy{
		Attempts:   g.opts.PullRetries + 1,
		Backoff:    time.Millisecond,
		MaxBackoff: 4 * time.Millisecond,
	})
}

// pullPartition issues pipelined Pulls over one partition: the next Pull
// goes out as soon as the previous response arrives, while its records
// replay on whatever worker is idle (§3.1.2). Flow control is built in:
// when every target worker is busy, no new Pull is issued.
func (g *Migration) pullPartition(p wire.HashRange) {
	srv := g.mgr.srv
	token := uint64(0)
	for g.ctx.Err() == nil {
		g.waitForWorkerCapacity()
		if g.ctx.Err() != nil {
			return
		}
		reply, err := g.callSource(wire.PriorityBackground, &wire.PullRequest{
			Table: g.Table, Range: p,
			ResumeToken: token, ByteBudget: uint32(g.opts.PullBytes),
		})
		if err != nil {
			g.fail(err)
			return
		}
		resp, ok := reply.(*wire.PullResponse)
		if !ok || resp.Status != wire.StatusOK {
			if ok {
				// The decoder handed us a pooled slice even on a rejected
				// pull; give it back before bailing.
				wire.ReleaseRecordSlice(resp.Records)
			}
			g.fail(errors.New("pull rejected"))
			return
		}
		g.pullRPCs.Add(1)
		if len(resp.Records) > 0 {
			records := resp.Records
			g.replayWG.Add(1)
			srv.Scheduler().Enqueue(wire.PriorityBackground, func() {
				defer g.replayWG.Done()
				g.replayRecords(records)
				// The log copied every key and value during replay; the
				// record slice goes back to the wire pool (consumer-side
				// release — see DESIGN.md, Transport performance model).
				wire.ReleaseRecordSlice(records)
			})
		} else {
			wire.ReleaseRecordSlice(resp.Records)
		}
		token = resp.ResumeToken
		if resp.Done {
			return
		}
	}
}

// waitForWorkerCapacity holds off new Pulls while the target's workers are
// saturated; Pulls resume when workers free up (§3.1.2's built-in flow
// control). Event-driven: blocks on the scheduler's capacity channel (and
// the migration's cancellation channel) instead of spin-polling.
func (g *Migration) waitForWorkerCapacity() {
	sched := g.mgr.srv.Scheduler()
	for g.ctx.Err() == nil && sched.IdleWorkers() == 0 &&
		sched.QueuedAt(wire.PriorityBackground) > sched.Workers() {
		select {
		case <-sched.CapacityChanged():
		case <-g.ctx.Done():
			return
		}
	}
}

// takeSideLog borrows a side log from the pool (creating one per worker at
// most), so concurrent replay tasks never share a log head (§3.1.3).
func (g *Migration) takeSideLog() *storage.SideLog {
	select {
	case sl := <-g.sideLogPool:
		return sl
	default:
	}
	g.sideLogMu.Lock()
	defer g.sideLogMu.Unlock()
	g.nextSideLog++
	sl := g.mgr.srv.Log().NewSideLog(uint64(1_000_000*(uint64(g.mgr.srv.ID())+1) + g.nextSideLog))
	g.sideLogs = append(g.sideLogs, sl)
	return sl
}

func (g *Migration) returnSideLog(sl *storage.SideLog) {
	select {
	case g.sideLogPool <- sl:
	default:
	}
}

// replayRecords incorporates one batch into the target: append to a side
// log (or the main log under the ablation/retain variants) and link into
// the hash table with newest-wins semantics. Runs on any idle worker.
func (g *Migration) replayRecords(records []wire.Record) {
	srv := g.mgr.srv
	var sl *storage.SideLog
	useSideLogs := !g.opts.DisableSideLogs && !g.opts.SyncRereplication
	if useSideLogs {
		sl = g.takeSideLog()
		defer g.returnSideLog(sl)
	}
	var n, bytes int64
	for i := range records {
		rec := &records[i]
		if rec.Tombstone {
			// Deletions (tail catch-up in the retain-ownership variant):
			// park the tombstone in the hash table so any stale copy of
			// the record loses the version race.
			var tref storage.Ref
			var err error
			srv.ParkTombstone()
			if useSideLogs {
				tref, err = sl.AppendTombstone(rec.Table, rec.Version, rec.Key)
			} else {
				tref, err = srv.Log().Append(0, storage.EntryTombstone, rec.Table, rec.Version, 0, rec.Key, nil)
			}
			if err != nil {
				g.fail(err)
				return
			}
			hash := wire.HashKey(rec.Key)
			if prev, stored := srv.HashTable().PutIfNewer(rec.Table, rec.Key, hash, tref, rec.Version); stored {
				storage.MarkDeadRef(prev)
			} else {
				storage.MarkDeadRef(tref)
			}
			continue
		}
		var ref storage.Ref
		var err error
		if useSideLogs {
			ref, err = sl.Append(rec.Table, rec.Version, rec.Key, rec.Value)
		} else {
			// Main-log replay: synchronous re-replication variants need
			// the records on the replicated log; the side-log ablation
			// shows the head contention this causes.
			ref, err = srv.Log().Append(0, storage.EntryObject, rec.Table, rec.Version, 0, rec.Key, rec.Value)
		}
		if err != nil {
			g.fail(err)
			return
		}
		hash := wire.HashKey(rec.Key)
		if prev, stored := srv.HashTable().PutIfNewer(rec.Table, rec.Key, hash, ref, rec.Version); stored {
			storage.MarkDeadRef(prev)
			// Count only records that took effect: a bulk-Pull copy of a
			// record a PriorityPull already delivered (or a version below a
			// client write above the ceiling) loses the race here and must
			// not inflate Records — each version lands at most once, so the
			// total is deterministic however pulls interleave.
			n++
			bytes += int64(rec.WireSize())
		} else {
			// A newer-or-equal version beat us here (a client write above
			// the ceiling, or a PriorityPull'd copy): the replayed bytes are
			// immediately dead.
			storage.MarkDeadRef(ref)
		}
	}
	if g.opts.SyncRereplication {
		if err := srv.Replicator().Sync(g.ctx); err != nil {
			g.fail(err)
			return
		}
	}
	g.recordsPulled.Add(n)
	g.bytesPulled.Add(bytes)
}

// complete runs the migration epilogue: lazy re-replication of side logs,
// side-log commit, ownership finalization, dependency drop, and source
// cleanup (§3.4).
func (g *Migration) complete() {
	srv := g.mgr.srv
	defer func() {
		g.finished = time.Now()
		g.mgr.finish(g)
		close(g.done)
		// Release the context machinery: the inherited-deadline timer and
		// the cancel-cause resources. Nothing consults g.ctx after done.
		g.cancelCause(nil)
		g.releaseTimer()
	}()

	if g.ctx.Err() != nil {
		if p := g.failure.Load(); p == nil {
			// The context died without fail() being called — a deadline the
			// MigrateTablet caller imposed expired mid-transfer. Surface the
			// cause (context.DeadlineExceeded) as the migration's failure.
			err := context.Cause(g.ctx)
			if err == nil {
				err = errors.New("migration cancelled")
			}
			g.failure.CompareAndSwap(nil, &err)
		}
		return
	}

	if g.opts.SourceRetainsOwnership {
		g.completeRetainOwnership()
		return
	}

	// Lazy re-replication: only now do the pulled records reach backups,
	// and only then does the lineage dependency drop (§3.4).
	g.sideLogMu.Lock()
	sideLogs := append([]*storage.SideLog(nil), g.sideLogs...)
	g.sideLogMu.Unlock()
	var segs []*storage.Segment
	for _, sl := range sideLogs {
		segs = append(segs, sl.Segments()...)
	}
	if err := srv.Replicator().ReplicateSegments(g.ctx, segs); err != nil {
		g.fail(err)
		return
	}
	for _, sl := range sideLogs {
		if err := sl.Commit(); err != nil {
			g.fail(err)
			return
		}
	}

	// Dependency removal is idempotent, so transport faults get retried
	// rather than failing a migration whose data is already durably
	// re-replicated.
	if _, err := srv.Node().CallWithRetries(g.ctx, wire.CoordinatorID, wire.PriorityForeground, &wire.MigrateDoneRequest{
		Table: g.Table, Range: g.Range, Source: g.Source, Target: srv.ID(),
	}, transport.DefaultRetryPolicy()); err != nil {
		g.fail(err)
		return
	}
	// The source's copy is garbage from here on. The source replies as
	// soon as the range is unserved there and reclaims the records in the
	// background; whatever puts records into the range there again first
	// finishes that sweep, so a migrate-back cannot lose records to it.
	// The drop is one best-effort attempt, never retried: a retry goes out
	// only after a full RPC timeout, by which time the range may have
	// migrated back to the source, and the drop would discard the new
	// owner's data. A copy left behind is cleared by the next migration
	// that brings the range back there (begin).
	_, _ = srv.Node().Call(g.ctx, g.Source, wire.PriorityForeground, &wire.DropTabletRequest{
		Table: g.Table, Range: g.Range,
	})
	// Replay has quiesced: deletions parked in the hash table during the
	// migration can leave it. Only a moved parked-tombstone count can
	// have put one there; without one the range-sized sweep is skipped.
	if srv.ParkedTombstones() != g.parkedAtBegin {
		srv.HashTable().RemoveTombstoneRefs(g.Table, g.Range)
	}
	// Only entries still migrating in: if a newer migration has already
	// prepared this range to leave again, its MigratingOut must stand.
	srv.SetTabletState(g.Table, g.Range, server.TabletMigratingIn, server.TabletNormal)
}

// completeRetainOwnership is the Figure 9(c) epilogue: freeze the source,
// catch up on writes accepted during migration, then flip ownership.
func (g *Migration) completeRetainOwnership() {
	srv := g.mgr.srv

	// Freeze the source (now it answers WrongServer) and pick up the tail.
	reply, err := srv.Node().Call(g.ctx, g.Source, wire.PriorityForeground, &wire.PrepareMigrationRequest{
		Table: g.Table, Range: g.Range, Target: srv.ID(), KeepServing: false,
	})
	if err != nil {
		g.fail(err)
		return
	}
	if prep, ok := reply.(*wire.PrepareMigrationResponse); !ok || prep.Status != wire.StatusOK {
		g.fail(errors.New("source freeze rejected"))
		return
	}
	reply, err = srv.Node().Call(g.ctx, g.Source, wire.PriorityForeground, &wire.PullTailRequest{
		Table: g.Table, Range: g.Range, AfterEpoch: g.tailWatermark,
	})
	if err != nil {
		g.fail(err)
		return
	}
	tail, ok := reply.(*wire.PullTailResponse)
	if !ok || tail.Status != wire.StatusOK {
		if ok {
			wire.ReleaseRecordSlice(tail.Records)
		}
		g.fail(errors.New("tail pull rejected"))
		return
	}
	inRange := make([]wire.Record, 0, len(tail.Records))
	for _, rec := range tail.Records {
		if g.Range.Contains(wire.HashKey(rec.Key)) {
			inRange = append(inRange, rec)
		}
	}
	// inRange copied the Record structs (key/value bytes are shared and
	// outlive the slice), so the pooled response slice can go back now.
	wire.ReleaseRecordSlice(tail.Records)
	g.tailRecords.Add(int64(len(inRange)))
	if len(inRange) > 0 {
		g.replayRecords(inRange)
	}

	// Now take ownership: register locally, then flip at the coordinator.
	srv.RegisterTablet(g.Table, g.Range, server.TabletNormal)
	if _, err := srv.Node().Call(g.ctx, wire.CoordinatorID, wire.PriorityForeground, &wire.MigrateStartRequest{
		Table: g.Table, Range: g.Range, Source: g.Source, Target: srv.ID(),
		TargetLogWatermark: srv.Log().CurrentEpoch(),
	}); err != nil {
		g.fail(err)
		return
	}
	// Everything is already durably replicated (synchronous
	// re-replication): drop the dependency immediately and clean up.
	if _, err := srv.Node().Call(g.ctx, wire.CoordinatorID, wire.PriorityForeground, &wire.MigrateDoneRequest{
		Table: g.Table, Range: g.Range, Source: g.Source, Target: srv.ID(),
	}); err != nil {
		g.fail(err)
		return
	}
	if _, err := srv.Node().Call(g.ctx, g.Source, wire.PriorityForeground, &wire.DropTabletRequest{
		Table: g.Table, Range: g.Range,
	}); err != nil {
		g.fail(err)
	}
}
