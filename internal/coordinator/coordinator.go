// Package coordinator implements the cluster coordinator: membership, the
// authoritative table/tablet map, secondary-index (indexlet) placement,
// lineage dependencies registered at migration start (§3.4), and crash
// recovery orchestration — including the multi-log recovery that makes
// Rocksteady's deferred re-replication safe.
package coordinator

import (
	"context"
	"fmt"
	"log"
	"sort"
	"sync"
	"time"

	"rocksteady/internal/recovery"
	"rocksteady/internal/transport"
	"rocksteady/internal/wire"
)

// Dependency records that Source's recoverable state depends on Target's
// recovery-log tail for one migrating tablet: two integers (which log,
// what offset) plus the tablet identity, exactly as §3.4 describes.
type Dependency struct {
	Table              wire.TableID
	Range              wire.HashRange
	Source             wire.ServerID
	Target             wire.ServerID
	TargetLogWatermark uint64
}

// Coordinator is the (logically quorum-replicated) cluster manager. One
// instance runs per cluster at wire.CoordinatorID.
type Coordinator struct {
	node *transport.Node
	// root anchors request-scoped contexts: each inbound RPC derives a ctx
	// from it carrying the envelope's deadline and trace id.
	root context.Context

	mu         sync.Mutex
	version    uint64
	tablets    []wire.Tablet
	indexlets  []wire.Indexlet
	tableNames map[string]wire.TableID
	nextTable  uint64
	nextIndex  uint64
	deps       []Dependency
	servers    map[wire.ServerID]bool
	recovered  map[wire.ServerID]bool

	// Logf logs recovery progress; defaults to log.Printf. Tests silence it.
	Logf func(format string, args ...any)

	recoveryWG sync.WaitGroup

	// rebal is the optional heat-driven rebalancing loop (rebalancer.go);
	// nil until SetRebalancer.
	rebal *Rebalancer
}

// New creates a coordinator served from the given RPC node and starts
// handling requests.
func New(node *transport.Node) *Coordinator {
	c := &Coordinator{
		node: node,
		//lint:ignore ctxcheck server root: requests derive their contexts from here
		root:       context.Background(),
		tableNames: make(map[string]wire.TableID),
		servers:    make(map[wire.ServerID]bool),
		recovered:  make(map[wire.ServerID]bool),
		Logf:       log.Printf,
	}
	node.SetHandler(c.handle)
	node.Start()
	return c
}

// WaitForRecoveries blocks until in-flight crash recoveries finish. Taking
// mu orders the wait after the recoveryWG.Add of every crash report
// already processed, also when the report's reply reached the caller over
// a socket, which gives the race detector no happens-before edge.
func (c *Coordinator) WaitForRecoveries() {
	c.mu.Lock()
	c.mu.Unlock()
	c.recoveryWG.Wait()
}

// Close shuts down the coordinator's node.
func (c *Coordinator) Close() { c.node.Close() }

// handle runs on the coordinator's dispatch pump. Handlers that issue
// nested RPCs (table creation, recovery) would deadlock the pump that must
// also receive their responses, so every request is processed on its own
// goroutine; shared state is guarded by c.mu.
func (c *Coordinator) handle(m *wire.Message) {
	go c.process(m)
}

func (c *Coordinator) process(m *wire.Message) {
	// The request-scoped context carries the envelope's deadline and trace
	// id into every nested RPC the handler issues.
	ctx, cancel := transport.RequestContext(c.root, m)
	defer cancel()
	switch req := m.Body.(type) {
	case *wire.EnlistServerRequest:
		c.mu.Lock()
		c.servers[req.Server] = true
		// A re-enlisting server is a fresh process at an old address:
		// clear the recovered guard so a future crash of the restarted
		// server triggers recovery again.
		delete(c.recovered, req.Server)
		c.mu.Unlock()
		c.node.Reply(m, &wire.EnlistServerResponse{Status: wire.StatusOK})
	case *wire.GetTabletMapRequest:
		c.node.Reply(m, c.tabletMapLocked())
	case *wire.CreateTableRequest:
		c.node.Reply(m, c.createTable(transport.EnsureTraceID(ctx, m.TraceID), req))
	case *wire.CreateIndexRequest:
		c.node.Reply(m, c.createIndex(req))
	case *wire.SplitTabletRequest:
		c.node.Reply(m, c.splitTablet(req))
	case *wire.MergeTabletsRequest:
		c.node.Reply(m, c.mergeTablets(req))
	case *wire.RebalanceControlRequest:
		c.node.Reply(m, c.rebalanceControl(req))
	case *wire.MigrateStartRequest:
		c.node.Reply(m, c.migrateStart(req))
	case *wire.MigrateDoneRequest:
		c.node.Reply(m, c.migrateDone(req))
	case *wire.ReportCrashRequest:
		c.reportCrash(transport.EnsureTraceID(ctx, m.TraceID), req.Server)
		c.node.Reply(m, &wire.ReportCrashResponse{Status: wire.StatusOK})
	case *wire.RecoverMasterRequest:
		c.node.Reply(m, c.recoverMasterCold(transport.EnsureTraceID(ctx, m.TraceID), req))
	case *wire.PingRequest:
		c.node.Reply(m, &wire.PingResponse{Status: wire.StatusOK})
	default:
		// Unknown op: reply nothing; the caller times out. Coordinator
		// requests are all typed above.
	}
}

func (c *Coordinator) tabletMapLocked() *wire.GetTabletMapResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	resp := &wire.GetTabletMapResponse{Status: wire.StatusOK, Version: c.version}
	resp.Tablets = append([]wire.Tablet(nil), c.tablets...)
	resp.Indexlets = append([]wire.Indexlet(nil), c.indexlets...)
	return resp
}

// MapVersion returns the current tablet-map version.
func (c *Coordinator) MapVersion() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.version
}

// Dependencies returns the registered lineage dependencies.
func (c *Coordinator) Dependencies() []Dependency {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Dependency(nil), c.deps...)
}

func (c *Coordinator) createTable(ctx context.Context, req *wire.CreateTableRequest) *wire.CreateTableResponse {
	if len(req.Servers) == 0 {
		return &wire.CreateTableResponse{Status: wire.StatusInternalError}
	}
	c.mu.Lock()
	if id, ok := c.tableNames[req.Name]; ok {
		c.mu.Unlock()
		return &wire.CreateTableResponse{Status: wire.StatusOK, Table: id}
	}
	c.nextTable++
	id := wire.TableID(c.nextTable)
	c.tableNames[req.Name] = id
	parts := wire.FullRange().Split(len(req.Servers))
	var created []wire.Tablet
	for i, p := range parts {
		tb := wire.Tablet{Table: id, Range: p, Master: req.Servers[i%len(req.Servers)]}
		c.tablets = append(c.tablets, tb)
		created = append(created, tb)
	}
	c.version++
	c.mu.Unlock()

	// Grant ownership to the hosting masters (empty TakeTablets).
	for _, tb := range created {
		_, err := c.node.Call(ctx, tb.Master, wire.PriorityForeground, &wire.TakeTabletsRequest{
			Table: tb.Table, Range: tb.Range,
		})
		if err != nil {
			return &wire.CreateTableResponse{Status: wire.StatusServerDown}
		}
	}
	return &wire.CreateTableResponse{Status: wire.StatusOK, Table: id}
}

func (c *Coordinator) createIndex(req *wire.CreateIndexRequest) *wire.CreateIndexResponse {
	if len(req.Servers) == 0 || len(req.SplitKeys) != len(req.Servers)-1 {
		return &wire.CreateIndexResponse{Status: wire.StatusInternalError}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextIndex++
	id := wire.IndexID(c.nextIndex)
	begin := []byte(nil)
	for i, srv := range req.Servers {
		var end []byte
		if i < len(req.SplitKeys) {
			end = req.SplitKeys[i]
		}
		c.indexlets = append(c.indexlets, wire.Indexlet{
			Index: id, Table: req.Table, Begin: begin, End: end, Master: srv,
		})
		begin = end
	}
	c.version++
	return &wire.CreateIndexResponse{Status: wire.StatusOK, Index: id}
}

// splitLocked ensures a tablet boundary exists at (table, at); returns
// false if no tablet of the table contains the hash.
func (c *Coordinator) splitLocked(table wire.TableID, at uint64) bool {
	for i := range c.tablets {
		t := &c.tablets[i]
		if t.Table != table || !t.Range.Contains(at) {
			continue
		}
		if t.Range.Start == at {
			return true // boundary already exists
		}
		upper := wire.Tablet{Table: table, Range: wire.HashRange{Start: at, End: t.Range.End}, Master: t.Master}
		t.Range.End = at - 1
		c.tablets = append(c.tablets, upper)
		c.sortTabletsLocked()
		return true
	}
	return false
}

func (c *Coordinator) sortTabletsLocked() {
	sort.Slice(c.tablets, func(i, j int) bool {
		if c.tablets[i].Table != c.tablets[j].Table {
			return c.tablets[i].Table < c.tablets[j].Table
		}
		return c.tablets[i].Range.Start < c.tablets[j].Range.Start
	})
}

func (c *Coordinator) splitTablet(req *wire.SplitTabletRequest) *wire.SplitTabletResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.splitLocked(req.Table, req.SplitAt) {
		return &wire.SplitTabletResponse{Status: wire.StatusNoSuchTable}
	}
	c.version++
	return &wire.SplitTabletResponse{Status: wire.StatusOK, MapVersion: c.version}
}

// mergeTablets erases the tablet boundary at (table, MergeAt): the two
// adjacent tablets meeting there become one map entry. The inverse of
// splitTablet, and like it pure map surgery — no data moves, no server is
// contacted (masters route by hash, so a coarser map entry changes nothing
// for them). Refused unless both halves live on the same master and
// neither overlaps an active lineage dependency (a merged entry would blur
// the recovery boundary §3.4 relies on).
func (c *Coordinator) mergeTablets(req *wire.MergeTabletsRequest) *wire.MergeTabletsResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	lo, hi := -1, -1
	for i := range c.tablets {
		t := &c.tablets[i]
		if t.Table != req.Table {
			continue
		}
		if t.Range.End == req.MergeAt-1 {
			lo = i
		}
		if t.Range.Start == req.MergeAt {
			hi = i
		}
	}
	if lo < 0 || hi < 0 {
		return &wire.MergeTabletsResponse{Status: wire.StatusNoSuchTable}
	}
	if c.tablets[lo].Master != c.tablets[hi].Master {
		return &wire.MergeTabletsResponse{Status: wire.StatusWrongServer}
	}
	for _, d := range c.deps {
		if d.Table == req.Table && (d.Range.Overlaps(c.tablets[lo].Range) || d.Range.Overlaps(c.tablets[hi].Range)) {
			return &wire.MergeTabletsResponse{Status: wire.StatusMigrationInProgress}
		}
	}
	c.tablets[lo].Range.End = c.tablets[hi].Range.End
	c.tablets = append(c.tablets[:hi], c.tablets[hi+1:]...)
	c.sortTabletsLocked()
	c.version++
	return &wire.MergeTabletsResponse{Status: wire.StatusOK, MapVersion: c.version}
}

// migrateStart atomically moves ownership of the exact range to the target
// and registers the lineage dependency. Tablet boundaries are created as
// needed ("defer all repartitioning work until the moment of migration").
func (c *Coordinator) migrateStart(req *wire.MigrateStartRequest) *wire.MigrateStartResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	// Idempotent retry: if this exact transfer already registered (the
	// target resent after losing our response), everything below already
	// happened — re-flipping would reject on Master != Source and strand
	// the migration. Answer OK again instead.
	for _, d := range c.deps {
		if d.Table == req.Table && d.Range == req.Range && d.Source == req.Source && d.Target == req.Target {
			return &wire.MigrateStartResponse{Status: wire.StatusOK, MapVersion: c.version}
		}
	}
	if !c.splitLocked(req.Table, req.Range.Start) {
		return &wire.MigrateStartResponse{Status: wire.StatusNoSuchTable}
	}
	if req.Range.End != ^uint64(0) {
		if !c.splitLocked(req.Table, req.Range.End+1) {
			return &wire.MigrateStartResponse{Status: wire.StatusNoSuchTable}
		}
	}
	// Flip every tablet inside the range (post-split they tile it).
	moved := false
	for i := range c.tablets {
		t := &c.tablets[i]
		if t.Table == req.Table && req.Range.ContainsRange(t.Range) {
			if t.Master != req.Source {
				return &wire.MigrateStartResponse{Status: wire.StatusWrongServer}
			}
			t.Master = req.Target
			moved = true
		}
	}
	if !moved {
		return &wire.MigrateStartResponse{Status: wire.StatusNoSuchTable}
	}
	c.deps = append(c.deps, Dependency{
		Table: req.Table, Range: req.Range,
		Source: req.Source, Target: req.Target,
		TargetLogWatermark: req.TargetLogWatermark,
	})
	c.version++
	return &wire.MigrateStartResponse{Status: wire.StatusOK, MapVersion: c.version}
}

func (c *Coordinator) migrateDone(req *wire.MigrateDoneRequest) *wire.MigrateDoneResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	kept := c.deps[:0]
	for _, d := range c.deps {
		if d.Table == req.Table && d.Range == req.Range && d.Source == req.Source && d.Target == req.Target {
			continue
		}
		kept = append(kept, d)
	}
	c.deps = kept
	return &wire.MigrateDoneResponse{Status: wire.StatusOK}
}

// reportCrash kicks off asynchronous recovery of a crashed server. The
// recovery outlives the ReportCrash reply, so it runs detached from the
// request's cancellation and deadline while keeping its trace id.
func (c *Coordinator) reportCrash(ctx context.Context, crashed wire.ServerID) {
	c.mu.Lock()
	if !c.servers[crashed] || c.recovered[crashed] {
		c.mu.Unlock()
		return
	}
	delete(c.servers, crashed)
	c.recovered[crashed] = true
	c.recoveryWG.Add(1)
	c.mu.Unlock()
	rctx := context.WithoutCancel(ctx)
	go func() {
		defer c.recoveryWG.Done()
		if err := c.recoverServer(rctx, crashed); err != nil {
			c.Logf("coordinator: recovery of %v failed: %v", crashed, err)
		}
	}()
}

// recoverServer restores a crashed server's tablets (RAMCloud's fast
// recovery, simplified to coordinator-driven replay) and resolves lineage
// dependencies per §3.4: ownership of any migrating tablet reverts to the
// source side, replaying the target's recovery-log tail along with the
// source's log.
func (c *Coordinator) recoverServer(ctx context.Context, crashed wire.ServerID) error {
	c.mu.Lock()
	var ownTablets []wire.Tablet
	for _, t := range c.tablets {
		if t.Master == crashed {
			ownTablets = append(ownTablets, t)
		}
	}
	var involved []Dependency
	kept := c.deps[:0]
	for _, d := range c.deps {
		if d.Source == crashed || d.Target == crashed {
			involved = append(involved, d)
		} else {
			kept = append(kept, d)
		}
	}
	c.deps = append([]Dependency(nil), kept...)
	live := c.liveServersLocked()
	c.mu.Unlock()

	if len(live) == 0 {
		return fmt.Errorf("no live servers to recover onto")
	}

	start := time.Now()
	crashedSegs, err := c.fetchBackupSegments(ctx, crashed, live)
	if err != nil {
		return err
	}
	fetched := time.Now()

	// Resolve migrations the crashed server participated in.
	for _, d := range involved {
		switch crashed {
		case d.Target:
			// Target died mid-migration: the tablet reverts to the (alive)
			// source, which must additionally replay the target's log tail
			// (writes the target accepted after ownership transfer).
			rep := recovery.NewReplayer(rangeFilter(d.Table, d.Range))
			// Only the target's log tail above the dependency's watermark:
			// if the target owned this range once before (a rebalancer
			// migrating a tablet back), its log still holds stale records
			// from that era, and replaying them would resurrect keys the
			// interim owner deleted.
			rep.AddBackupSegmentsAbove(crashedSegs, d.TargetLogWatermark)
			// Tombstones included: the source still holds its pre-migration
			// copies, so deletions the target accepted must be replayed as
			// deletions or those copies would resurrect.
			records, ceiling := rep.LiveWithTombstones()
			if err := c.installTablet(ctx, d.Table, d.Range, d.Source, records, ceiling); err != nil {
				return err
			}
		case d.Source:
			// Source died mid-migration: recover the migrating tablet from
			// the source's backup log *plus* the target's replicated log
			// tail, then install it on a recovery master (§3.4: "twice as
			// much recovery effort"). The alive target drops its partial
			// copy first.
			_, _ = c.node.Call(ctx, d.Target, wire.PriorityForeground, &wire.DropTabletRequest{Table: d.Table, Range: d.Range})
			targetSegs, err := c.fetchBackupSegments(ctx, d.Target, live)
			if err != nil {
				return err
			}
			rep := recovery.NewReplayer(rangeFilter(d.Table, d.Range))
			rep.AddBackupSegments(crashedSegs)
			// The target's log joins the replay only above the watermark,
			// for the same reason as the revert path: below it may sit
			// stale records from an earlier ownership of this range.
			rep.AddBackupSegmentsAbove(targetSegs, d.TargetLogWatermark)
			records, ceiling := rep.Live()
			master := c.pickRecoveryMaster(live, 0)
			if err := c.installTablet(ctx, d.Table, d.Range, master, records, ceiling); err != nil {
				return err
			}
		}
	}
	lineage := time.Now()

	// Normal recovery for the crashed server's own tablets. Ranges already
	// resolved by a lineage dependency above are excluded: when the crashed
	// server was a migration target, the map lists it as master of the
	// migrating range, but that range has just been re-installed on the
	// source *with tombstones*. Recovering it here a second time via Live()
	// would ship deletion-folded records after ownership reverted and
	// traffic resumed — a post-revert delete leaves no hash-table entry to
	// version-fence against, so the stale copy would resurrect the key.
	var installs []install
	for i, t := range ownTablets {
		resolved := false
		for _, d := range involved {
			// Splits inside a migrating range only produce fragments
			// contained in it, so Overlaps is containment in practice.
			if d.Table == t.Table && d.Range.Overlaps(t.Range) {
				resolved = true
				break
			}
		}
		if !resolved {
			installs = append(installs, install{table: t.Table, rng: t.Range, master: c.pickRecoveryMaster(live, i)})
		}
	}
	// One replay serves every tablet: each entry is parsed and hashed once,
	// and each tablet's records are a contiguous run of the sorted output.
	// Its ceiling is the master-wide one, at least every tablet's own.
	rep := recovery.NewReplayer(nil)
	if len(installs) > 0 {
		rep.AddBackupSegments(crashedSegs)
		// Tombstones ship here too: the chosen master may still hold stale
		// pre-migration copies of this range (a source whose DropTablet
		// was lost after the migration committed). On a fresh master
		// parking them is a no-op; on a stale one they are the only fence.
		sorted := rep.Sorted(true)
		for i := range installs {
			installs[i].records = sorted.Tablet(installs[i].table, installs[i].rng)
			installs[i].ceiling = sorted.Ceiling
		}
	}
	replayed := time.Now()
	err = c.installAll(ctx, installs)
	c.Logf("coordinator: recovery of %v: %d tablets, %d replicas, %d bytes replayed (%d entries); fetch %v, lineage %v, replay %v, install %v",
		crashed, len(installs), len(crashedSegs), rep.Bytes, rep.Entries,
		fetched.Sub(start), lineage.Sub(fetched), replayed.Sub(lineage), time.Since(replayed))
	return err
}

// install is one tablet's recovered records bound for its new master.
type install struct {
	table   wire.TableID
	rng     wire.HashRange
	master  wire.ServerID
	records []wire.Record
	ceiling uint64
}

// installAll runs the installs with one goroutine per master: masters
// replay concurrently, but each takes its tablets one after another, in
// the given order. It returns the first error; a master's goroutine stops
// at its first failed install.
func (c *Coordinator) installAll(ctx context.Context, installs []install) error {
	byMaster := make(map[wire.ServerID][]install)
	for _, in := range installs {
		byMaster[in.master] = append(byMaster[in.master], in)
	}
	var (
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	for _, ins := range byMaster {
		wg.Add(1)
		go func(ins []install) {
			defer wg.Done()
			for _, in := range ins {
				if err := c.installTablet(ctx, in.table, in.rng, in.master, in.records, in.ceiling); err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("install (%v, %v) on %v: %w", in.table, in.rng, in.master, err)
					}
					errMu.Unlock()
					return
				}
			}
		}(ins)
	}
	wg.Wait()
	return firstErr
}

// recoverMasterCold rebuilds one master's data from the backup segment
// replicas live servers hold for it: the cold-start recovery path after
// a full-cluster restart, where every process died together so no crash
// report ever fired and the coordinator's tablet map was rebuilt empty.
// The operator recreates tables first (deterministic layout), restarts
// every server on its old data directory, then issues RecoverMaster per
// old master; replayed records route by (table, key hash) onto whatever
// master owns them in the current map. Records whose table or range has
// no current tablet are counted and reported as StatusNoSuchTable — the
// operator forgot a table — rather than dropped silently.
func (c *Coordinator) recoverMasterCold(ctx context.Context, req *wire.RecoverMasterRequest) *wire.RecoverMasterResponse {
	c.mu.Lock()
	live := c.liveServersLocked()
	tablets := append([]wire.Tablet(nil), c.tablets...)
	c.mu.Unlock()
	if len(live) == 0 {
		return &wire.RecoverMasterResponse{Status: wire.StatusServerDown}
	}
	segs, err := c.fetchBackupSegments(ctx, req.Master, live)
	if err != nil {
		c.Logf("coordinator: cold recovery of %v: %v", req.Master, err)
		return &wire.RecoverMasterResponse{Status: wire.StatusServerDown}
	}
	rep := recovery.NewReplayer(nil)
	rep.AddBackupSegments(segs)
	// Tombstones included: a twice-recovered master may already hold
	// older copies of deleted keys; the tombstones are the fence.
	sorted := rep.Sorted(true)
	resp := &wire.RecoverMasterResponse{Status: wire.StatusOK, Segments: uint64(len(segs))}
	var installs []install
	for _, t := range tablets {
		recs := sorted.Tablet(t.Table, t.Range)
		if len(recs) == 0 {
			continue
		}
		installs = append(installs, install{table: t.Table, rng: t.Range, master: t.Master, records: recs, ceiling: sorted.Ceiling})
		resp.Records += uint64(len(recs))
	}
	if err := c.installAll(ctx, installs); err != nil {
		c.Logf("coordinator: cold recovery of %v: %v", req.Master, err)
		resp.Status = wire.StatusInternalError
		return resp
	}
	if resp.Records < uint64(len(sorted.Records)) {
		// Some records had no home tablet: a table was not recreated.
		resp.Status = wire.StatusNoSuchTable
	}
	c.Logf("coordinator: cold recovery of %v: %d segments, %d records", req.Master, resp.Segments, resp.Records)
	return resp
}

func rangeFilter(table wire.TableID, rng wire.HashRange) func(wire.TableID, uint64) bool {
	return func(t wire.TableID, h uint64) bool { return t == table && rng.Contains(h) }
}

func (c *Coordinator) liveServersLocked() []wire.ServerID {
	out := make([]wire.ServerID, 0, len(c.servers))
	for s := range c.servers {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (c *Coordinator) pickRecoveryMaster(live []wire.ServerID, i int) wire.ServerID {
	return live[i%len(live)]
}

// fetchBackupSegments collects every replica of a master's log from every
// live server's backup service, paging segment by segment: each request
// returns at most one byte-capped page (the backup's default), so
// recovering a large master never materializes its whole replica set in
// one unbounded response. An empty result is valid (the master never
// wrote anything durable) as long as at least one backup answered fully.
func (c *Coordinator) fetchBackupSegments(ctx context.Context, master wire.ServerID, live []wire.ServerID) ([]wire.BackupSegment, error) {
	var segs []wire.BackupSegment
	responded := 0
	for _, s := range live {
		var cursor uint64
		complete := true
		for {
			// Retried: under fault injection a dropped fetch must not
			// silently shrink the replica set recovery reads from — that
			// could turn an injected message loss into a genuine data loss.
			reply, err := c.node.CallWithRetries(ctx, s, wire.PriorityForeground,
				&wire.GetBackupSegmentsRequest{Master: master, Cursor: cursor}, transport.DefaultRetryPolicy())
			if err != nil {
				complete = false // a backup may have crashed too; others hold copies
				break
			}
			resp, ok := reply.(*wire.GetBackupSegmentsResponse)
			if !ok || resp.Status != wire.StatusOK {
				complete = false
				break
			}
			segs = append(segs, resp.Segments...)
			if !resp.More {
				break
			}
			cursor = resp.NextCursor
		}
		if complete {
			responded++
		}
	}
	if responded == 0 {
		return nil, fmt.Errorf("no backup answered for %v", master)
	}
	return segs, nil
}

// installTablet sends recovered records to their new master and flips the
// tablet map.
func (c *Coordinator) installTablet(ctx context.Context, table wire.TableID, rng wire.HashRange, master wire.ServerID, records []wire.Record, ceiling uint64) error {
	// TakeTablets is idempotent at the master (version-gated PutIfNewer),
	// so retrying a timed-out install is safe; without the retry a single
	// injected drop would strand the tablet unowned.
	reply, err := c.node.CallWithRetries(ctx, master, wire.PriorityForeground, &wire.TakeTabletsRequest{
		Table: table, Range: rng, Records: records, VersionCeiling: ceiling,
	}, transport.DefaultRetryPolicy())
	if err != nil {
		return err
	}
	if resp, ok := reply.(*wire.TakeTabletsResponse); !ok || resp.Status != wire.StatusOK {
		return fmt.Errorf("TakeTablets rejected by %v", master)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	// Remove any tablet fragments covered by the range, then insert.
	kept := c.tablets[:0]
	for _, t := range c.tablets {
		if t.Table == table && rng.ContainsRange(t.Range) {
			continue
		}
		kept = append(kept, t)
	}
	c.tablets = append(append([]wire.Tablet(nil), kept...), wire.Tablet{Table: table, Range: rng, Master: master})
	c.sortTabletsLocked()
	c.version++
	return nil
}
