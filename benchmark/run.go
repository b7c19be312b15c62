package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"rocksteady/internal/core"
	"rocksteady/internal/wire"
	"rocksteady/internal/ycsb"
)

const (
	zipfTheta    = 0.99
	openLoopRate = 10_000 // ops/s offered in the migrate act, ≈ 5 % of closed-loop capacity
	sloLimit     = time.Millisecond
	maxWarmup    = 500 * time.Millisecond
	verifyBatch  = 256 // keys per MultiGet of the final read-back
)

// migration is one finished move of the migrate act.
type migration struct {
	rng               wire.HashRange
	start, flip, done time.Duration // offsets into the open-loop window
	res               core.Result
}

// roundResult is what one round (one cluster, start to teardown) measured.
type roundResult struct {
	setupS, heapRatio float64

	serveS     float64
	reads      samples // closed loop, sorted later
	puts       samples
	open       []opSample
	migrations []migration

	recoveryS, recoveredBytes float64
	wallS                     float64 // the whole round, set-up to teardown

	attempted, failed int64
	failures          map[string]int64
}

func (r *roundResult) fail(kind string, n int64) {
	r.failed += n
	r.failures[kind] += n
}

// round runs the life of one cluster: set-up, serve, migrate under load,
// lose a server and recover, read everything back.
type round struct {
	sc    scenario
	ctx   context.Context
	tb    *testbed
	d     *dataset
	table wire.TableID
	conns []*conn
	res   *roundResult
	tr    *tracer // nil unless tracing
}

// runRound executes one round of the scenario with foreground seconds secs.
func runRound(ctx context.Context, sc scenario, seed int64, secs float64, tr *tracer) (*roundResult, error) {
	r := &round{sc: sc, ctx: ctx, tr: tr, res: &roundResult{failures: make(map[string]int64)}}
	began := time.Now()

	// Everything allocated from here to the measurement belongs to the
	// store; the generator's own buffers were allocated by earlier rounds or
	// are small next to the data.
	heapBefore := heapInUse()

	defer func() {
		if r.tb != nil {
			r.tb.shutdown()
		}
	}()
	if err := r.setup(seed, min(maxWarmup, time.Duration(secs/4*float64(time.Second)))); err != nil {
		return nil, err
	}
	r.res.setupS = time.Since(began).Seconds()

	counters, window := r.windowStart(), time.Now()
	r.serve(time.Duration(secs * sc.serveShare * float64(time.Second)))
	if err := r.migrateUnderLoad(time.Duration(secs * (1 - sc.serveShare) * float64(time.Second))); err != nil {
		return nil, err
	}
	r.windowEnd(counters, window)
	if err := r.ladder(); err != nil {
		return nil, err
	}
	r.res.heapRatio = float64(heapInUse()-heapBefore) / float64(sc.records*userBytes)
	if err := r.crashAndRecover(); err != nil {
		return nil, err
	}
	if err := r.readBack(); err != nil {
		return nil, err
	}
	for _, c := range r.conns {
		r.res.attempted += c.attempted
		for kind, n := range c.failures {
			r.res.fail(kind, n)
		}
	}
	r.res.wallS = time.Since(began).Seconds()
	return r.res, nil
}

func heapInUse() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapInuse)
}

// setup builds the cluster, loads the table and warms it up.
func (r *round) setup(seed int64, warmup time.Duration) error {
	sc := r.sc
	var err error
	if sc.tcp {
		r.tb, err = newTCPTestbed(r.ctx, sc.servers, sc.rf, sc.records)
	} else {
		r.tb, err = newFabricTestbed(sc.servers, sc.rf, sc.records)
	}
	if err != nil {
		return fmt.Errorf("build cluster: %w", err)
	}
	r.d = newDataset(sc.records, uint64(seed))
	if r.table, err = r.tb.load(r.ctx, r.d, sc.spread); err != nil {
		return err
	}
	mix := ycsb.WorkloadB(uint64(sc.records), zipfTheta)
	mix.ReadFraction = sc.readFraction
	for i := 0; i < connections; i++ {
		cl, err := r.tb.attach()
		if err != nil {
			return fmt.Errorf("attach client: %w", err)
		}
		c := newConn(i, cl, seed*connections+int64(i), mix, r.d, r.table)
		c.spans = r.tr.connLog(i)
		r.conns = append(r.conns, c)
	}
	r.each(func(c *conn) { c.closedLoop(r.ctx, warmup, false) })
	return nil
}

// each runs fn on every connection concurrently and waits.
func (r *round) each(fn func(c *conn)) {
	var wg sync.WaitGroup
	for _, c := range r.conns {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			fn(c)
		}(c)
	}
	wg.Wait()
}

// serve is the at-rest act: both connections in a closed loop. A traced
// run keeps spans for the second half only, so that the two halves give
// the tracing overhead.
func (r *round) serve(dur time.Duration) {
	ops := func() (n int) {
		for _, c := range r.conns {
			n += len(c.reads) + len(c.puts)
		}
		return n
	}
	start := time.Now()
	if r.tr == nil {
		r.each(func(c *conn) { c.closedLoop(r.ctx, dur, true) })
	} else {
		r.each(func(c *conn) {
			c.spans = nil
			c.closedLoop(r.ctx, dur/2, true)
		})
		half, plain := time.Now(), ops()
		r.each(func(c *conn) {
			c.spans = r.tr.connLog(c.id)
			c.closedLoop(r.ctx, dur/2, true)
		})
		in := r.tr.insitu
		in.kopsUntraced = append(in.kopsUntraced, float64(plain)/half.Sub(start).Seconds()/1e3)
		in.kopsTraced = append(in.kopsTraced, float64(ops()-plain)/time.Since(half).Seconds()/1e3)
	}
	r.res.serveS = time.Since(start).Seconds()
	for _, c := range r.conns {
		r.res.reads = append(r.res.reads, c.reads...)
		r.res.puts = append(r.res.puts, c.puts...)
	}
}

// migrateUnderLoad is the paper's headline experiment: an open loop at a
// fixed rate, at rest first and then across the scenario's migrations.
func (r *round) migrateUnderLoad(window time.Duration) error {
	interval := time.Second * connections / openLoopRate
	ops := int(window / interval)
	// Moves start at even spacing after a rest period of a fifth of the
	// window (the at-rest reference on the same cluster and schedule).
	rest := window / 5
	gap := (window - rest) / time.Duration(len(r.sc.moves))

	t0 := time.Now()
	errc := make(chan error, 1)
	go func() {
		for k, mv := range r.sc.moves {
			at := rest + time.Duration(k)*gap
			if d := time.Until(t0.Add(at)); d > 0 {
				time.Sleep(d)
			}
			rng := mv.hashRange()
			m := migration{rng: rng, start: time.Since(t0)}
			began := time.Now()
			g, err := r.tb.migrate(r.ctx, r.table, rng, mv.src, mv.dst)
			if err != nil {
				errc <- err
				return
			}
			m.flip = time.Since(t0)
			m.res = g.Wait()
			m.done = time.Since(t0)
			if m.res.Err != nil {
				errc <- fmt.Errorf("migration %v: %w", rng, m.res.Err)
				return
			}
			r.tr.phase("core.migration", began, time.Now())
			r.res.migrations = append(r.res.migrations, m)
		}
		errc <- nil
	}()
	r.each(func(c *conn) {
		c.openLoop(r.ctx, t0, interval/connections*time.Duration(c.id), interval, ops)
	})
	if err := <-errc; err != nil {
		return err
	}
	for _, c := range r.conns {
		r.res.open = append(r.res.open, c.open...)
	}

	// Every moved range must now belong to the destination of its last move.
	tablets, err := r.tb.tabletMap(r.ctx)
	if err != nil {
		return err
	}
	owner := make(map[wire.HashRange]wire.ServerID)
	for _, mv := range r.sc.moves {
		owner[mv.hashRange()] = r.tb.servers[mv.dst].ID()
	}
	for rng, want := range owner {
		for _, t := range tablets {
			if t.Table == r.table && t.Range.Overlaps(rng) && t.Master != want {
				r.res.attempted++
				r.res.fail("tablet_not_moved", 1)
			}
		}
	}
	return nil
}

// crashAndRecover kills the scenario's victim and times the coordinator's
// recovery: crash report → recovered tablets installed → client map fresh.
func (r *round) crashAndRecover() error {
	victim := r.tb.servers[r.sc.victim]
	_, live, _, _ := victim.Log().Stats()
	start := time.Now()
	r.tb.kill(r.sc.victim)
	if err := r.tb.ctl.ReportCrash(r.ctx, victim.ID()); err != nil {
		return fmt.Errorf("report crash: %w", err)
	}
	r.tb.coord.WaitForRecoveries()
	if err := r.tb.ctl.RefreshMap(r.ctx); err != nil {
		return fmt.Errorf("refresh map after recovery: %w", err)
	}
	r.res.recoveryS = time.Since(start).Seconds()
	r.res.recoveredBytes = float64(live)
	r.tr.phase("recovery.crash_to_map", start, time.Now())
	return nil
}

// readBack reads every key and checks it against the last acknowledged
// write: nothing may be lost or altered by the migrations or the crash.
func (r *round) readBack() error {
	errs := make([]error, connections)
	bad := make([]map[string]int64, connections)
	r.each(func(c *conn) {
		bad[c.id] = make(map[string]int64)
		keys := make([][]byte, 0, verifyBatch)
		for lo := c.id * verifyBatch; lo < r.d.n; lo += connections * verifyBatch {
			hi := min(lo+verifyBatch, r.d.n)
			keys = keys[:0]
			for item := lo; item < hi; item++ {
				keys = append(keys, r.d.key(uint64(item)))
			}
			values, err := c.cl.MultiGet(r.ctx, r.table, keys)
			if err != nil {
				errs[c.id] = fmt.Errorf("read back items %d–%d: %w", lo, hi, err)
				return
			}
			for i, v := range values {
				item := uint64(lo + i)
				if kind := r.d.check(item, r.d.acked[item].Load(), r.d.issued[item].Load(), v); kind != verdictOK {
					bad[c.id]["readback_"+kind]++
				}
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	r.res.attempted += int64(r.d.n)
	for _, m := range bad {
		for kind, n := range m {
			r.res.fail(kind, n)
		}
	}
	return nil
}
