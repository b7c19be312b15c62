package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"rocksteady/internal/backup"
	"rocksteady/internal/dispatch"
	"rocksteady/internal/recovery"
	"rocksteady/internal/storage"
	"rocksteady/internal/transport"
	"rocksteady/internal/wire"
)

// Probes are isolated timed calls into one layer's exported functions, on
// the workload's record shape. They run in the traced run only, after the
// rounds, when nothing else is running in the process.

const (
	probeCalls       = 20_000  // timed calls per RPC-level probe
	probeRecords     = 200_000 // records in the probe clusters
	replBatchBytes   = 64 << 10
	backupProbeBytes = 32 << 20
	pullBudgetBytes  = 20 << 10 // the paper's Pull byte budget
)

// perCall times n calls of fn and returns the mean ns per call.
func perCall(n int, fn func()) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// eachCall times n calls of fn one by one and returns the sorted record.
func eachCall(n int, fn func()) samples {
	rec := make(samples, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		fn()
		rec = append(rec, time.Since(start).Nanoseconds())
	}
	return merge(rec)
}

// allocsPerCall counts heap allocations per call of fn. Nothing else may
// be running in the process.
func allocsPerCall(n int, fn func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// prober runs the probes and files their results.
type prober struct {
	ctx     context.Context
	ms      *metricSet
	d       *dataset // record shape and values for the probes
	records int      // records in the probe clusters
}

// runProbes executes every probe for the scenario, each one a span.
func runProbes(ctx context.Context, sc scenario, ms *metricSet, tr *tracer) error {
	p := &prober{ctx: ctx, ms: ms, d: newDataset(sc.records, 1), records: min(sc.records, probeRecords)}
	for _, probe := range []struct {
		name string
		fn   func() error
	}{
		{"wire", p.wire},
		{"transport", p.transport},
		{"dispatch", p.dispatch},
		{"storage_backup_recovery", func() error { return p.storageBackupRecovery(sc.records) }},
		{"cluster_plain", func() error { return p.cluster(0) }},
		{"cluster_replicated", func() error { return p.cluster(2) }},
	} {
		start := time.Now()
		if err := probe.fn(); err != nil {
			return fmt.Errorf("probe %s: %w", probe.name, err)
		}
		tr.phase("probe."+probe.name, start, time.Now())
	}
	return nil
}

// wire: marshal into a pooled buffer, unmarshal, release, for the messages
// the workloads send most.
func (p *prober) wire() error {
	var failure error
	roundtrip := func(bodies ...wire.Payload) func() {
		msgs := make([]*wire.Message, len(bodies))
		for i, b := range bodies {
			msgs[i] = &wire.Message{ID: 7, From: 1010, To: 10, Op: b.Op(), IsResponse: i%2 == 1,
				Priority: wire.PriorityForeground, Body: b}
		}
		return func() {
			for _, m := range msgs {
				buf := wire.MarshalMessagePooled(m)
				got, err := wire.UnmarshalMessage(buf.B)
				if err != nil {
					failure = err
				} else if pr, ok := got.Body.(*wire.PullResponse); ok {
					wire.ReleaseRecordSlice(pr.Records)
				}
				wire.ReleaseBuffer(buf)
			}
		}
	}
	key, value := p.d.key(42), p.d.value(42, 0)
	read := roundtrip(&wire.ReadRequest{Table: 1, Key: key}, &wire.ReadResponse{Status: wire.StatusOK, Version: 9, Value: value})
	write := roundtrip(&wire.WriteRequest{Table: 1, Key: key, Value: value}, &wire.WriteResponse{Status: wire.StatusOK, Version: 9})
	batch := roundtrip(
		&wire.ReplicateBatchRequest{Master: 10, Chunks: []wire.ReplicateChunk{{LogID: 1, SegmentID: 3, Data: make([]byte, replBatchBytes)}}},
		&wire.ReplicateBatchResponse{Status: wire.StatusOK, ChunkStatuses: []wire.Status{wire.StatusOK}})
	var recs []wire.Record
	for size := 0; size < pullBudgetBytes; {
		r := wire.Record{Table: 1, Version: 9, Key: key, Value: value}
		recs = append(recs, r)
		size += r.WireSize()
	}
	pull := roundtrip(&wire.PullRequest{Table: 1, Range: wire.FullRange(), ByteBudget: pullBudgetBytes},
		&wire.PullResponse{Status: wire.StatusOK, Records: recs})

	p.ms.set("wire.roundtrip_read_ns", perCall(200_000, read), "ns")
	p.ms.set("wire.roundtrip_write_ns", perCall(200_000, write), "ns")
	p.ms.set("wire.roundtrip_replbatch_ns", perCall(5_000, batch), "ns")
	p.ms.set("wire.roundtrip_pull_ns", perCall(10_000, pull), "ns")
	p.ms.set("wire.allocs_read", allocsPerCall(20_000, read), "count")
	p.ms.set("wire.allocs_pull", allocsPerCall(2_000, pull), "count")
	return failure
}

// pinger answers Ping on the dispatch pump of a bare node, so the round
// trip contains transport work only.
func pinger(ep transport.Endpoint) *transport.Node {
	n := transport.NewNode(ep)
	n.SetHandler(func(m *wire.Message) { n.Reply(m, &wire.PingResponse{Status: wire.StatusOK}) })
	n.Start()
	return n
}

// transport: Ping round trips between two bare nodes, over loopback TCP
// and over the fabric.
func (p *prober) transport() error {
	var failure error
	ping := func(from *transport.Node, to wire.ServerID) func() {
		return func() {
			if _, err := from.Call(p.ctx, to, wire.PriorityForeground, &wire.PingRequest{}); err != nil {
				failure = err
			}
		}
	}

	a, err := transport.NewTCP(transport.TCPConfig{ID: 10, ListenAddr: "127.0.0.1:0"})
	if err != nil {
		return err
	}
	b, err := transport.NewTCP(transport.TCPConfig{ID: 1010, ListenAddr: "127.0.0.1:0", Peers: map[wire.ServerID]string{10: a.Addr()}})
	if err != nil {
		_ = a.Close()
		return err
	}
	server, caller := pinger(a), pinger(b)
	perCall(1000, ping(caller, 10)) // connect and warm the pools
	rtt := eachCall(probeCalls, ping(caller, 10))
	p.ms.set("transport.tcp_rtt_p50_ns", rtt.nanos(50), "ns")
	p.ms.set("transport.tcp_rtt_p99_ns", rtt.nanos(99), "ns")
	p.ms.set("transport.tcp_allocs_per_call", allocsPerCall(probeCalls, ping(caller, 10)), "count")
	caller.Close()
	server.Close()

	fabric := transport.NewFabric(transport.FabricConfig{})
	server, caller = pinger(fabric.Attach(10)), pinger(fabric.Attach(1010))
	perCall(1000, ping(caller, 10))
	p.ms.set("transport.fabric_rtt_p50_ns", eachCall(probeCalls, ping(caller, 10)).nanos(50), "ns")
	caller.Close()
	server.Close()
	return failure
}

// dispatch: an idle scheduler, Enqueue → the task starts on a worker.
func (p *prober) dispatch() error {
	s := dispatch.NewScheduler(workersPerServer)
	defer s.Close()
	started := make(chan time.Time)
	rec := make(samples, 0, probeCalls)
	for i := 0; i < probeCalls; i++ {
		enq := time.Now()
		s.Enqueue(wire.PriorityForeground, func() { started <- time.Now() })
		rec = append(rec, (<-started).Sub(enq).Nanoseconds())
	}
	p.ms.set("dispatch.enqueue_to_start_ns", merge(rec).nanos(50), "ns")
	return nil
}

// storageBackupRecovery builds a standalone log and hash table of the
// workload's size and times the storage calls on it; the log's segments
// then feed a standalone backup store in group-commit sized chunks, are
// paged back out as recovery does, and replayed.
func (p *prober) storageBackupRecovery(records int) error {
	const table = wire.TableID(1)
	log := storage.NewShardedLog(storage.DefaultSegmentSize, workersPerServer, nil)
	defer log.Close()
	ht := storage.NewHashTable(2 * records)
	for item := uint64(0); item < uint64(records); item++ {
		key := p.d.key(item)
		ref, _, err := log.AppendObject(table, key, p.d.value(item, 0))
		if err != nil {
			return err
		}
		ht.Put(table, key, wire.HashKey(key), ref)
	}

	// Uniformly random existing keys: the cache-unfriendly case a table of
	// this size presents; keys and hashes are prepared outside the timing.
	const n = 200_000
	rng := rand.New(rand.NewSource(1))
	keys := make([][]byte, n)
	hashes := make([]uint64, n)
	values := make([][]byte, n)
	for i := range keys {
		item := uint64(rng.Intn(records))
		keys[i], values[i] = p.d.key(item), p.d.value(item, 1)
		hashes[i] = wire.HashKey(keys[i])
	}
	var failure error
	i := 0
	p.ms.set("storage.ht_get_ns", perCall(n, func() {
		ref, ok := ht.Get(table, keys[i], hashes[i])
		if !ok {
			failure = fmt.Errorf("loaded key absent from hash table")
		} else if _, err := ref.Record(); err != nil {
			failure = err
		}
		i++
	}), "ns")
	refs := make([]storage.Ref, n)
	i = 0
	p.ms.set("storage.log_append_ns", perCall(n, func() {
		ref, _, err := log.AppendObject(table, keys[i], values[i])
		if err != nil {
			failure = err
		}
		refs[i] = ref
		i++
	}), "ns")
	i = 0
	p.ms.set("storage.ht_put_ns", perCall(n, func() {
		if prev, existed := ht.Put(table, keys[i], hashes[i], refs[i]); existed {
			log.MarkDead(prev)
		}
		i++
	}), "ns")
	if failure != nil {
		return failure
	}

	// Backup store: the first backupProbeBytes of the log arrive as 64 KB
	// group-commit chunks (the whole log of the larger workloads would take
	// the replayer several seconds).
	log.Seal()
	store := backup.NewStore()
	const master = wire.ServerID(10)
	var batches []*wire.ReplicateBatchRequest
	var logBytes int
	for _, seg := range log.Segments() {
		if logBytes >= backupProbeBytes {
			break
		}
		data := seg.Data(0, seg.Len())
		logBytes += len(data)
		for off := 0; off < len(data); off += replBatchBytes {
			end := min(off+replBatchBytes, len(data))
			batches = append(batches, &wire.ReplicateBatchRequest{Master: master, Chunks: []wire.ReplicateChunk{{
				LogID: seg.LogID, SegmentID: seg.ID, Offset: uint32(off), Data: data[off:end], Close: end == len(data),
			}}})
		}
	}
	i = 0
	p.ms.set("backup.store_replicate_batch_ns", perCall(len(batches), func() {
		if resp := store.HandleReplicateBatch(batches[i]); resp.Status != wire.StatusOK {
			failure = fmt.Errorf("replicate batch: %v", resp.Status)
		}
		i++
	}), "ns")
	if failure != nil {
		return failure
	}

	// Recovery's read path: page every replica back out, then replay.
	start := time.Now()
	var segs []wire.BackupSegment
	for cursor, more := uint64(0), true; more; {
		resp := store.HandleGetSegments(&wire.GetBackupSegmentsRequest{Master: master, Cursor: cursor})
		if resp.Status != wire.StatusOK {
			return fmt.Errorf("get segments: %v", resp.Status)
		}
		segs = append(segs, resp.Segments...)
		cursor, more = resp.NextCursor, resp.More
	}
	p.ms.set("backup.get_segments_mbps", float64(logBytes)/1e6/time.Since(start).Seconds(), "MB/s")

	start = time.Now()
	rp := recovery.NewReplayer(nil)
	rp.AddBackupSegments(segs)
	live, _ := rp.Live()
	p.ms.set("recovery.replayer_mbps", float64(logBytes)/1e6/time.Since(start).Seconds(), "MB/s")
	if len(live) == 0 || len(live) > records {
		return fmt.Errorf("replayer returned %d live records of at most %d", len(live), records)
	}
	return nil
}

// cluster probes a small idle fabric cluster with replication factor rf:
// raw RPCs to a server, the coordinator's map RPC, a Pull drain and an idle
// migration (rf 0), or the replicated write and the replicator (rf 2).
func (p *prober) cluster(rf int) error {
	tb, err := newFabricTestbed(3, rf, p.records)
	if err != nil {
		return err
	}
	defer tb.shutdown()
	d := newDataset(p.records, 1)
	table, err := tb.load(p.ctx, d, 1)
	if err != nil {
		return err
	}
	node, owner := tb.ctl.Node(), tb.servers[0].ID()
	rng := rand.New(rand.NewSource(1))
	var failure error
	call := func(to wire.ServerID, req func() wire.Payload) func() {
		return func() {
			if _, err := node.Call(p.ctx, to, wire.PriorityForeground, req()); err != nil {
				failure = err
			}
		}
	}
	write := call(owner, func() wire.Payload {
		item := uint64(rng.Intn(p.records))
		return &wire.WriteRequest{Table: table, Key: d.key(item), Value: d.value(item, 1)}
	})
	perCall(1000, write)

	if rf > 0 {
		p.ms.set("server.write_rpc_repl_ns", eachCall(probeCalls, write).nanos(50), "ns")
		// One append, then the flush a durable write waits for.
		srv := tb.servers[0]
		var syncNS int64
		const syncs = 5_000
		for i := 0; i < syncs && failure == nil; i++ {
			item := uint64(rng.Intn(p.records))
			key := d.key(item)
			ref, _, err := srv.Log().AppendObject(table, key, d.value(item, 2))
			if err != nil {
				return err
			}
			if prev, existed := srv.HashTable().Put(table, key, wire.HashKey(key), ref); existed {
				srv.Log().MarkDead(prev)
			}
			start := time.Now()
			failure = srv.Replicator().Sync(p.ctx)
			syncNS += time.Since(start).Nanoseconds()
		}
		p.ms.set("backup.sync_ns", float64(syncNS)/syncs, "ns")
		return failure
	}

	p.ms.set("server.write_rpc_ns", eachCall(probeCalls, write).nanos(50), "ns")
	p.ms.set("server.read_rpc_ns", eachCall(probeCalls, call(owner, func() wire.Payload {
		return &wire.ReadRequest{Table: table, Key: d.key(uint64(rng.Intn(p.records)))}
	})).nanos(50), "ns")
	p.ms.set("coordinator.get_tablet_map_ns", eachCall(probeCalls, call(wire.CoordinatorID, func() wire.Payload {
		return &wire.GetTabletMapRequest{}
	})).nanos(50), "ns")
	if failure != nil {
		return failure
	}

	// Source side of a migration alone: drain server 0 with back-to-back
	// Pulls, discarding the records.
	var pulls samples
	var pulled int64
	start := time.Now()
	for token, done := uint64(0), false; !done; {
		t := time.Now()
		reply, err := node.Call(p.ctx, owner, wire.PriorityBackground, &wire.PullRequest{
			Table: table, Range: wire.FullRange(), ResumeToken: token, ByteBudget: pullBudgetBytes})
		if err != nil {
			return err
		}
		pulls = append(pulls, time.Since(t).Nanoseconds())
		resp, ok := reply.(*wire.PullResponse)
		if !ok || resp.Status != wire.StatusOK {
			return fmt.Errorf("pull: unexpected reply %T", reply)
		}
		for i := range resp.Records {
			pulled += int64(resp.Records[i].WireSize())
		}
		token, done = resp.ResumeToken, resp.Done
		wire.ReleaseRecordSlice(resp.Records)
	}
	p.ms.set("core.pull_only_mbps", float64(pulled)/1e6/time.Since(start).Seconds(), "MB/s")
	p.ms.set("core.pull_rpc_p50_ns", merge(pulls).nanos(50), "ns")

	// The whole pipeline with no foreground load: loaded − idle is
	// contention, not pipeline.
	g, err := tb.migrate(p.ctx, table, wire.FullRange(), 0, 1)
	if err != nil {
		return err
	}
	res := g.Wait()
	if res.Err != nil {
		return res.Err
	}
	p.ms.set("core.idle_migration_mbps", res.RateMBps(), "MB/s")
	return nil
}
