package main

import (
	"fmt"
	"time"

	"rocksteady/internal/metrics"
	"rocksteady/internal/server"
	"rocksteady/internal/wire"
)

// This file is the traced run's view of the layers: in-situ deltas of the
// counters each layer already exports, read over the measured window of
// every round, and the ladder. Nothing here runs when tracing is off.

const ladderKeys = 20_000

// A server's cumulative counters, read before and after the window.
const (
	cDispatchBusy = iota
	cWorkerBusy
	cShed
	cReads
	cRetriesSent
	cWrongServer
	cSeqlockRetries
	cLogAppended
	cLogCleaned
	cFlushEvents
	cFlushRPCs
	cFlushNanos
	cBackupWritten
	numCounters
)

type serverCounters [numCounters]int64

func readServer(s *server.Server) (c serverCounters) {
	st := s.Stats()
	fl := s.Replicator().FlushStats()
	c[cDispatchBusy], c[cWorkerBusy] = s.Node().DispatchBusyNanos(), s.Scheduler().BusyNanos()
	c[cShed], _ = s.Scheduler().TasksShed()
	c[cReads], c[cRetriesSent], c[cWrongServer] = st.Reads.Load(), st.Retries.Load(), st.WrongServer.Load()
	c[cSeqlockRetries], _ = s.HashTable().SeqlockStats()
	_, _, c[cLogAppended], c[cLogCleaned] = s.Log().Stats()
	c[cFlushEvents], c[cFlushRPCs], c[cFlushNanos] = fl.Events, fl.RPCs, fl.Nanos
	c[cBackupWritten] = s.BackupStore().BytesWritten()
	return c
}

// clientCounters sums the generator connections' client-library counters.
type clientCounters struct {
	ops, retries, rpcs, refreshes, gaveUp, putsDone int64
}

// insitu accumulates the per-layer readings of a traced run over its rounds.
type insitu struct {
	dispatchFrac, workerFrac  float64        // busiest server of any round
	sum                       serverCounters // Σ servers, Σ rounds of the window deltas
	client                    clientCounters
	logBytes, userBytes       int64 // at the end of each window
	fgWait, fgService, bgWait metrics.Histogram
	reads, puts, genLate      []samples // closed-loop records and open-loop send lateness
	restReads, migReads       []samples // open-loop reads, from due time
	flipMS, firstOKMS         []float64
	ladder                    [3][]samples // storage, server rpc, client
	kopsTraced, kopsUntraced  []float64
}

// windowStart zeroes what can be zeroed and reads the rest, right after
// warm-up.
func (r *round) windowStart() []serverCounters {
	if r.tr == nil {
		return nil
	}
	before := make([]serverCounters, len(r.tb.servers))
	for i, s := range r.tb.servers {
		for _, h := range []*metrics.Histogram{
			s.Scheduler().QueueWaitHistogram(wire.PriorityForeground),
			s.Scheduler().ServiceHistogram(wire.PriorityForeground),
			s.Scheduler().QueueWaitHistogram(wire.PriorityBackground),
		} {
			h.Reset()
		}
		before[i] = readServer(s)
	}
	return before
}

// windowEnd reads the counters again at the end of the migrate act and
// files the deltas.
func (r *round) windowEnd(before []serverCounters, began time.Time) {
	if r.tr == nil {
		return
	}
	in := r.tr.insitu
	wall := time.Since(began)
	for i, s := range r.tb.servers {
		now, b := readServer(s), before[i]
		in.dispatchFrac = max(in.dispatchFrac, float64(now[cDispatchBusy]-b[cDispatchBusy])/float64(wall))
		in.workerFrac = max(in.workerFrac, float64(now[cWorkerBusy]-b[cWorkerBusy])/float64(wall*workersPerServer))
		for k := range now {
			in.sum[k] += now[k] - b[k]
		}
		in.logBytes += now[cLogAppended] - now[cLogCleaned]
		in.fgWait.Merge(s.Scheduler().QueueWaitHistogram(wire.PriorityForeground))
		in.fgService.Merge(s.Scheduler().ServiceHistogram(wire.PriorityForeground))
		in.bgWait.Merge(s.Scheduler().QueueWaitHistogram(wire.PriorityBackground))
	}
	in.userBytes += int64(r.sc.records) * userBytes
	for _, c := range r.conns {
		st := c.cl.Stats()
		// The connections are new in this round and warm-up is a sliver of
		// the window, so the cumulative client counters stand for the delta.
		in.client.ops += st.Ops.Load()
		in.client.retries += st.Retries.Load()
		in.client.rpcs += st.RPCs.Load()
		in.client.refreshes += st.MapRefreshes.Load()
		in.client.gaveUp += c.gaveUp
		in.client.putsDone += int64(len(c.puts))
		var late samples
		for _, op := range c.open {
			if op.idle {
				late = append(late, op.late)
			}
			if op.write && op.ok {
				in.client.putsDone++
			}
		}
		in.genLate = append(in.genLate, late)
	}
	in.reads = append(in.reads, r.res.reads)
	in.puts = append(in.puts, r.res.puts)
	rest, mig := openClasses(r.res)
	in.restReads, in.migReads = append(in.restReads, rest), append(in.migReads, mig)
	for _, m := range r.res.migrations {
		in.flipMS = append(in.flipMS, float64(m.flip-m.start)/1e6)
		if ms, ok := r.firstOKAfter(m); ok {
			in.firstOKMS = append(in.firstOKMS, ms)
		}
	}
}

// firstOKAfter finds the first operation on the moving range that was sent
// after the migration was requested and succeeded, and returns how long
// after the request it completed.
func (r *round) firstOKAfter(m migration) (ms float64, ok bool) {
	best := int64(-1)
	for _, op := range r.res.open {
		sent, done := op.due+op.late, op.due+op.lat
		if !op.ok || sent < m.start.Nanoseconds() || (best >= 0 && done >= best) {
			continue
		}
		if m.rng.Contains(wire.HashKey(r.d.key(op.item))) {
			best = done
		}
	}
	if best < 0 {
		return 0, false
	}
	return float64(best-m.start.Nanoseconds()) / 1e6, true
}

// ladder replays keys from the generator's stream at three successively
// deeper entry points on the loaded cluster: the owner's hash table and
// log, a raw ReadRequest to the owner, and the client library. Both
// connections climb at once, so the rungs see the contention the measured
// run saw. The rungs run back to back for each key and are recorded as
// nested spans, so a layer's self time is its rung minus the rung below.
func (r *round) ladder() error {
	if r.tr == nil {
		return nil
	}
	ownerOf, err := r.tb.owners(r.ctx, r.table)
	if err != nil {
		return err
	}
	errs := make([]error, connections)
	rungs := make([][3]samples, connections)
	r.each(func(c *conn) { rungs[c.id], errs[c.id] = r.climb(c, ownerOf) })
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("ladder: %w", err)
		}
		for k := range rungs[i] {
			r.tr.insitu.ladder[k] = append(r.tr.insitu.ladder[k], rungs[i][k])
		}
	}
	return nil
}

// climb is one connection's share of the ladder.
func (r *round) climb(c *conn, ownerOf func(hash uint64) *server.Server) (rungs [3]samples, err error) {
	for i := 0; i < ladderKeys/connections; i++ {
		item := c.mix.Chooser.Next(c.rng)
		key := r.d.key(item)
		hash := wire.HashKey(key)
		owner := ownerOf(hash)
		if owner == nil {
			return rungs, fmt.Errorf("no owner for item %d", item)
		}
		lo := r.d.acked[item].Load()

		t0 := time.Now()
		ref, found := owner.HashTable().Get(r.table, key, hash)
		if !found {
			return rungs, fmt.Errorf("item %d absent from its owner's hash table", item)
		}
		rec, err := ref.Record()
		t1 := time.Now()
		if err != nil {
			return rungs, fmt.Errorf("item %d: %w", item, err)
		}
		reply, err := c.cl.Node().Call(r.ctx, owner.ID(), wire.PriorityForeground, &wire.ReadRequest{Table: r.table, Key: key})
		t2 := time.Now()
		if err != nil {
			return rungs, fmt.Errorf("raw read of item %d: %w", item, err)
		}
		resp, ok := reply.(*wire.ReadResponse)
		if !ok || resp.Status != wire.StatusOK {
			return rungs, fmt.Errorf("raw read of item %d: unexpected reply %T", item, reply)
		}
		got, err := c.cl.Read(r.ctx, r.table, key)
		t3 := time.Now()
		if err != nil {
			return rungs, fmt.Errorf("client read of item %d: %w", item, err)
		}
		for _, v := range [][]byte{rec.Value, resp.Value, got} {
			c.attempted++
			if kind := r.d.check(item, lo, r.d.issued[item].Load(), v); kind != verdictOK {
				c.failures["ladder_"+kind]++
			}
		}

		durs := [3]time.Duration{t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)}
		top, mid := c.spans.newID(), c.spans.newID()
		c.spans.put(top, 0, top, "ladder.client_read", t2, t2.Add(durs[2]))
		c.spans.put(mid, top, top, "ladder.server_rpc", t2, t2.Add(durs[1]))
		c.spans.put(c.spans.newID(), mid, top, "ladder.storage_get", t2, t2.Add(durs[0]))
		for k, d := range durs {
			rungs[k] = append(rungs[k], d.Nanoseconds())
		}
	}
	return rungs, nil
}

// perLayer reduces a traced run to the per-layer metrics. Probe results
// are already in ms.
func perLayer(ms *metricSet, in *insitu, rounds []*roundResult, attempted, failed int64) {
	perK := func(n, per int64) float64 {
		if per == 0 {
			return 0
		}
		return float64(n) / float64(per) * 1e3
	}
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	ns := func(h *metrics.Histogram, p float64) float64 { return float64(h.Percentile(p).Nanoseconds()) }

	ms.set("transport.dispatch_busy_frac", in.dispatchFrac, "ratio")
	ms.set("dispatch.fg_queue_wait_p50_ns", ns(&in.fgWait, 50), "ns")
	ms.set("dispatch.fg_queue_wait_p99_ns", ns(&in.fgWait, 99), "ns")
	ms.set("dispatch.fg_service_p50_ns", ns(&in.fgService, 50), "ns")
	ms.set("dispatch.fg_service_p99_ns", ns(&in.fgService, 99), "ns")
	ms.set("dispatch.bg_queue_wait_p99_ns", ns(&in.bgWait, 99), "ns")
	ms.set("dispatch.worker_busy_frac", in.workerFrac, "ratio")
	ms.set("dispatch.tasks_shed", float64(in.sum[cShed]), "count")

	ms.set("storage.seqlock_retries_per_kread", perK(in.sum[cSeqlockRetries], in.sum[cReads]), "count")
	ms.set("storage.log_bytes_per_user_byte", ratio(in.logBytes, in.userBytes), "ratio")
	ms.set("storage.cleaned_bytes", float64(in.sum[cLogCleaned]), "B")

	ms.set("server.retries_sent", float64(in.sum[cRetriesSent]), "count")
	ms.set("server.wrong_server", float64(in.sum[cWrongServer]), "count")

	ms.set("backup.flush_events_per_rpc", ratio(in.sum[cFlushEvents], in.sum[cFlushRPCs]), "count")
	ms.set("backup.flush_ns_per_event", ratio(in.sum[cFlushNanos], in.sum[cFlushEvents]), "ns")
	ms.set("backup.bytes_written_per_user_byte", ratio(in.sum[cBackupWritten], in.client.putsDone*userBytes), "ratio")

	ladder := [3]samples{merge(in.ladder[0]...), merge(in.ladder[1]...), merge(in.ladder[2]...)}
	ms.set("bench.ladder_storage_ns", ladder[0].nanos(50), "ns")
	ms.set("bench.ladder_rpc_ns", ladder[1].nanos(50), "ns")
	ms.set("bench.ladder_client_ns", ladder[2].nanos(50), "ns")
	ms.set("client.read_overhead_ns", ladder[2].nanos(50)-ladder[1].nanos(50), "ns")
	ms.set("client.retries_per_kop", perK(in.client.retries, in.client.ops), "count")
	ms.set("client.map_refreshes", float64(in.client.refreshes), "count")
	ms.set("client.rpcs_per_op", ratio(in.client.rpcs, in.client.ops), "count")
	ms.set("client.err_retries_exhausted", float64(in.client.gaveUp), "count")
	ms.set("client.failed_frac", ratio(failed, attempted), "ratio")
	reads := merge(in.reads...)
	ms.setPercentile("client.read_p999_us", reads, 99.9)
	puts := merge(in.puts...)
	ms.setPercentile("client.put_p99_us", puts, 99)
	ms.setPercentile("client.put_p999_us", puts, 99.9)
	ms.setPercentile("client.gen_late_p99_us", merge(in.genLate...), 99)
	ms.setPercentile("client.rest_read_p50_us", merge(in.restReads...), 50)
	mig := merge(in.migReads...)
	ms.setPercentile("client.mig_read_p50_us", mig, 50)
	ms.setPercentile("client.mig_read_p99_us", mig, 99)

	var res struct{ pulls, bytes, ppRPCs, ppRecords, tail int64 }
	for _, r := range rounds {
		for _, m := range r.migrations {
			res.pulls += m.res.PullRPCs
			res.bytes += m.res.BytesPulled
			res.ppRPCs += m.res.PriorityPullRPCs
			res.ppRecords += m.res.PriorityPullRecords
			res.tail += m.res.TailRecords
		}
	}
	ms.set("core.ownership_flip_ms", median(in.flipMS), "ms")
	ms.set("core.first_ok_after_flip_ms", median(in.firstOKMS), "ms")
	ms.set("core.pull_rpcs", float64(res.pulls), "count")
	ms.set("core.bytes_per_pull", ratio(res.bytes, res.pulls), "B")
	ms.set("core.priority_pull_rpcs", float64(res.ppRPCs), "count")
	ms.set("core.priority_pull_records", float64(res.ppRecords), "count")
	ms.set("core.tail_records", float64(res.tail), "count")

	traced, untraced := median(in.kopsTraced), median(in.kopsUntraced)
	ms.set("bench.trace_overhead_frac", 1-traced/untraced, "ratio")
	served := reads.nanos(50)
	ms.set("bench.ladder_residual_frac", (served-ladder[2].nanos(50))/served, "ratio")
}
