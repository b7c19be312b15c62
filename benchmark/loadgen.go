package main

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"time"

	"rocksteady/internal/client"
	"rocksteady/internal/wire"
	"rocksteady/internal/ycsb"
)

// connections is the number of client connections the generator drives:
// one per core of the box the benchmark is sized for.
const connections = 2

// Failure kinds beyond the verification verdicts of dataset.check.
const (
	failRetriesExhausted = "err_retries_exhausted"
	failOtherError       = "err_other"
)

// opSample is one open-loop operation, kept raw until the run ends.
type opSample struct {
	item  uint64
	due   int64 // scheduled send time, ns since the window opened
	late  int64 // actual send − due
	idle  bool  // the connection was free at the due time: late is the generator's own
	lat   int64 // completion − due: what a caller with a schedule saw
	write bool
	ok    bool
}

// conn is one synchronous client connection of the generator. Everything
// it records is private to its goroutine until the run merges it.
type conn struct {
	id    int
	cl    *client.Client
	rng   *rand.Rand
	mix   *ycsb.Workload
	d     *dataset
	table wire.TableID

	reads, puts samples    // closed loop: call → return
	open        []opSample // open loop

	attempted int64
	failures  map[string]int64
	gaveUp    int64    // ErrRetriesExhausted returns the generator retried
	spans     *spanLog // nil unless tracing
}

func newConn(id int, cl *client.Client, seed int64, mix *ycsb.Workload, d *dataset, table wire.TableID) *conn {
	return &conn{
		id: id, cl: cl, rng: rand.New(rand.NewSource(seed)), mix: mix, d: d, table: table,
		failures: make(map[string]int64),
	}
}

// ownItem maps a chosen item onto the residue class this connection
// writes, so every item has exactly one writer.
func (c *conn) ownItem(item uint64) uint64 {
	item = item - item%connections + uint64(c.id)
	if item >= uint64(c.d.n) {
		item -= connections
	}
	return item
}

// do issues one operation and verifies its outcome against the oracle.
func (c *conn) do(ctx context.Context, op ycsb.Op) (ok bool) {
	c.attempted++
	var kind string
	if op.Kind == ycsb.OpRead {
		kind = c.read(ctx, op.Item)
	} else {
		kind = c.write(ctx, c.ownItem(op.Item))
	}
	if kind != verdictOK {
		c.failures[kind]++
		return false
	}
	return true
}

// maxGiveUps bounds how often one operation is re-sent after the client
// library gave up on it.
const maxGiveUps = 1000

// retry runs one client call the way an application would: the client
// library gives up after 500 redirects (a few milliseconds when ownership
// is in flux), the caller still needs its answer and asks again. The
// operation stays one operation, charged the whole wait; the give-ups are
// counted and reported as client.err_retries_exhausted.
func (c *conn) retry(call func() error) error {
	for i := 0; ; i++ {
		err := call()
		if !errors.Is(err, client.ErrRetriesExhausted) || i == maxGiveUps {
			return err
		}
		c.gaveUp++
	}
}

func (c *conn) read(ctx context.Context, item uint64) string {
	lo := c.d.acked[item].Load()
	var got []byte
	err := c.retry(func() (err error) {
		got, err = c.cl.Read(ctx, c.table, c.d.key(item))
		return err
	})
	hi := c.d.issued[item].Load()
	switch {
	case errors.Is(err, client.ErrNoSuchKey):
		return verdictMissing // every key is loaded and none is ever deleted
	case err != nil:
		return errorKind(err)
	}
	return c.d.check(item, lo, hi, got)
}

func (c *conn) write(ctx context.Context, item uint64) string {
	seq := c.d.issued[item].Add(1)
	key, value := c.d.key(item), c.d.value(item, seq)
	if err := c.retry(func() error { return c.cl.Write(ctx, c.table, key, value) }); err != nil {
		// Not acknowledged: the store may hold either value, which the
		// [acked, issued] window of later reads allows for.
		return errorKind(err)
	}
	c.d.acked[item].Store(seq)
	return verdictOK
}

// spanName names the root span of a generator operation.
func spanName(kind ycsb.OpKind) string {
	if kind == ycsb.OpWrite {
		return "client.put"
	}
	return "client.read"
}

func errorKind(err error) string {
	if errors.Is(err, client.ErrRetriesExhausted) {
		return failRetriesExhausted
	}
	return failOtherError
}

// closedLoop sends the next operation as soon as the previous one returns,
// for dur. Callers of a RAMCloud-style store are synchronous RPC clients,
// so this is the at-rest load model. record = false is the warm-up.
func (c *conn) closedLoop(ctx context.Context, dur time.Duration, record bool) {
	deadline := time.Now().Add(dur)
	for {
		op := c.mix.NextOp(c.rng)
		start := time.Now()
		if !start.Before(deadline) {
			return
		}
		c.do(ctx, op)
		end := time.Now()
		if !record {
			continue
		}
		// A failed operation stays in the latency record: it took that
		// long to fail.
		ns := end.Sub(start).Nanoseconds()
		if op.Kind == ycsb.OpRead {
			c.reads = append(c.reads, ns)
		} else {
			c.puts = append(c.puts, ns)
		}
		c.spans.root(spanName(op.Kind), start, end)
	}
}

// openLoop sends operation k at t0 + phase + k·interval whether or not the
// store keeps up: a late operation is sent as soon as the connection is
// free, never skipped, so a stall shows up as a backlog and every queued
// operation is charged the wait from its due time. Migration impact is
// measured this way because a stalled closed loop stops offering load and
// hides the stall.
func (c *conn) openLoop(ctx context.Context, t0 time.Time, phase, interval time.Duration, ops int) {
	var end time.Time
	for k := 0; k < ops; k++ {
		op := c.mix.NextOp(c.rng)
		due := t0.Add(phase + time.Duration(k)*interval)
		// Yield-spin, not time.Sleep: an otherwise idle Go process parks in
		// epoll with millisecond resolution, which would make the generator
		// itself ~0.5 ms late on a 200 µs schedule.
		for time.Until(due) > 0 {
			runtime.Gosched()
		}
		idle := !end.After(due)
		sent := time.Now()
		ok := c.do(ctx, op)
		end = time.Now()
		c.open = append(c.open, opSample{
			item:  op.Item,
			due:   due.Sub(t0).Nanoseconds(),
			late:  sent.Sub(due).Nanoseconds(),
			idle:  idle,
			lat:   end.Sub(due).Nanoseconds(),
			write: op.Kind == ycsb.OpWrite,
			ok:    ok,
		})
		c.spans.root(spanName(op.Kind), sent, end)
	}
}
