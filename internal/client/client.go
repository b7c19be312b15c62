// Package client implements the store's client library: tablet-map
// caching with refresh-on-redirect, retry-with-hint handling during
// migration, single-key operations, server-grouped multiget/multiput
// (the locality mechanics Figure 3 measures), and index scans (indexlet
// lookup followed by a multiget-by-hash fan-out, Figure 2). Every data
// operation reaches its servers through route (one key) or fanOut (a batch
// grouped by owner), which apply the routing policy written out above
// them; the public methods only build requests and decode replies.
package client

import (
	"bytes"
	"context"
	"errors"
	"sort"
	"sync/atomic"
	"time"

	"rocksteady/internal/transport"
	"rocksteady/internal/wire"
)

// ErrNoSuchKey reports a read of an absent key.
var ErrNoSuchKey = errors.New("client: no such key")

// ErrNoSuchTable reports an operation on an unknown table.
var ErrNoSuchTable = errors.New("client: no such table or tablet")

// ErrRetriesExhausted reports an operation that kept being redirected or
// deferred beyond the retry budget.
var ErrRetriesExhausted = errors.New("client: retries exhausted")

// maxAttempts bounds the map refreshes one operation spends on redirects
// and failed RPCs; retry-with-hint waits (migration in progress) are
// bounded by retryBudget instead, since a cold record may legitimately
// take a while to arrive.
const maxAttempts = 500

// retryBudget bounds the total time an operation waits across
// StatusRetry responses before giving up.
const retryBudget = 10 * time.Second

// maxRetrySleep caps the exponential retry backoff.
const maxRetrySleep = 2 * time.Millisecond

// Stats counts client-side events; benchmarks sample them.
type Stats struct {
	Ops          atomic.Int64
	Retries      atomic.Int64 // waits on StatusRetry responses
	MapRefreshes atomic.Int64
	RPCs         atomic.Int64
}

// Client is one application client.
type Client struct {
	node *transport.Node

	tablets   atomic.Pointer[[]wire.Tablet]
	indexlets atomic.Pointer[[]wire.Indexlet]

	stats Stats
}

// New creates a client on the given endpoint and fetches the tablet map
// under ctx.
func New(ctx context.Context, ep transport.Endpoint) (*Client, error) {
	return NewWithTimeout(ctx, ep, 0)
}

// NewWithTimeout is New with a custom per-attempt RPC timeout for the
// client's node (0 means the transport default); fault harnesses use
// short ones so injected drops surface quickly.
func NewWithTimeout(ctx context.Context, ep transport.Endpoint, timeout time.Duration) (*Client, error) {
	c := &Client{node: transport.NewNodeWithTimeout(ep, timeout)}
	c.node.Start()
	if err := c.RefreshMap(ctx); err != nil {
		c.node.Close()
		return nil, err
	}
	return c, nil
}

// Close releases the client.
func (c *Client) Close() { c.node.Close() }

// Stats returns the client's counters.
func (c *Client) Stats() *Stats { return &c.stats }

// Node exposes the underlying RPC node (for control operations).
func (c *Client) Node() *transport.Node { return c.node }

// RefreshMap fetches the tablet and indexlet maps from the coordinator.
func (c *Client) RefreshMap(ctx context.Context) error {
	c.stats.MapRefreshes.Add(1)
	reply, err := c.node.Call(ctx, wire.CoordinatorID, wire.PriorityForeground, &wire.GetTabletMapRequest{})
	if err != nil {
		return err
	}
	resp, ok := reply.(*wire.GetTabletMapResponse)
	if !ok || resp.Status != wire.StatusOK {
		return errors.New("client: tablet map fetch failed")
	}
	tablets := resp.Tablets
	indexlets := resp.Indexlets
	c.tablets.Store(&tablets)
	c.indexlets.Store(&indexlets)
	return nil
}

// ownerOf resolves the master for (table, hash) from the cached map,
// refreshing the map once if it names none.
func (c *Client) ownerOf(ctx context.Context, table wire.TableID, hash uint64) (wire.ServerID, error) {
	for refreshed := false; ; refreshed = true {
		tablets := *c.tablets.Load()
		for i := range tablets {
			if t := &tablets[i]; t.Table == table && t.Range.Contains(hash) {
				return t.Master, nil
			}
		}
		if refreshed {
			return 0, ErrNoSuchTable
		}
		if err := c.RefreshMap(ctx); err != nil {
			return 0, err
		}
	}
}

// indexletOf resolves the indexlet holding a secondary key, refreshing the
// cached map once if it names none.
func (c *Client) indexletOf(ctx context.Context, id wire.IndexID, key []byte) (wire.Indexlet, error) {
	for refreshed := false; ; refreshed = true {
		for _, il := range *c.indexlets.Load() {
			if il.Index == id && (len(il.Begin) == 0 || bytes.Compare(key, il.Begin) >= 0) &&
				(len(il.End) == 0 || bytes.Compare(key, il.End) < 0) {
				return il, nil
			}
		}
		if refreshed {
			return wire.Indexlet{}, ErrNoSuchTable
		}
		if err := c.RefreshMap(ctx); err != nil {
			return wire.Indexlet{}, err
		}
	}
}

// backoff is one operation's retry state: the map refreshes it has spent
// against maxAttempts, and its waits on StatusRetry, which start at the
// server's hint ("a few tens of microseconds", §3) and double up to
// maxRetrySleep, bounding the CPU burned by retry storms while keeping
// the first retry prompt.
type backoff struct {
	refreshes int
	next      time.Duration
	deadline  time.Time
}

func newBackoff() backoff {
	return backoff{deadline: time.Now().Add(retryBudget)}
}

// sleep waits before the next retry; it returns false once the budget is
// exhausted or ctx is done, so a caller-imposed deadline cuts a retry
// storm short immediately.
func (b *backoff) sleep(ctx context.Context, hintMicros uint32) bool {
	if time.Now().After(b.deadline) || ctx.Err() != nil {
		return false
	}
	hint := time.Duration(hintMicros) * time.Microsecond
	if hint == 0 {
		hint = 40 * time.Microsecond
	}
	if b.next < hint {
		b.next = hint
	}
	if transport.Sleep(ctx, b.next) != nil {
		return false
	}
	b.next *= 2
	if b.next > maxRetrySleep {
		b.next = maxRetrySleep
	}
	return true
}

// Routing policy. route and fanOut apply the client's half of the
// migration contract (§3) — a source that has handed a range off answers
// WrongServer, a target still pulling it answers Retry with a hint — and
// nothing else sends a data operation:
//
//  1. A key the cached map has no owner for refreshes the map once; still
//     none is ErrNoSuchTable.
//  2. A failed RPC waits out the backoff, refreshes the map and resends.
//     A Delete is the exception: it may have landed, so its error is
//     returned.
//  3. StatusWrongServer refreshes the map; it spends one of maxAttempts.
//  4. StatusRetry waits out the reply's hint (backoff.sleep); the wait
//     spends no attempt, and retryBudget bounds the total.
//  5. Any other non-OK status, top-level or per item, is a
//     wire.StatusError. StatusNoSuchKey is an answer, not a failure:
//     route returns ErrNoSuchKey, fanOut hands the item to its caller.

// refresh re-fetches the map after a WrongServer reply or a failed RPC
// (cause), spending one of the operation's maxAttempts. A failed RPC first
// waits out the backoff: its owner may have crashed, and the recovery that
// moves the range takes longer than maxAttempts back-to-back refreshes.
// When the wait or the refresh fails, cause is what the caller sees, if
// there was one.
func (c *Client) refresh(ctx context.Context, bo *backoff, cause error) error {
	bo.refreshes++
	if bo.refreshes >= maxAttempts {
		return ErrRetriesExhausted
	}
	if cause != nil && !bo.sleep(ctx, 0) {
		return cause
	}
	if err := c.RefreshMap(ctx); err != nil {
		if cause != nil {
			return cause
		}
		return err
	}
	return nil
}

// status checks that reply answers req and extracts its top-level status,
// its per-item statuses (nil when the top-level status covers the whole
// request) and its retry hint.
func status(req, reply wire.Payload) (top wire.Status, items []wire.Status, hint uint32, err error) {
	if reply != nil && reply.Op() == req.Op() {
		switch r := reply.(type) {
		case *wire.ReadResponse:
			return r.Status, nil, r.RetryAfterMicros, nil
		case *wire.WriteResponse:
			return r.Status, nil, 0, nil
		case *wire.DeleteResponse:
			return r.Status, nil, 0, nil
		case *wire.MultiGetResponse:
			if r.Statuses != nil && len(r.Values) == len(r.Statuses) {
				return r.Status, r.Statuses, r.RetryAfterMicros, nil
			}
		case *wire.MultiPutResponse:
			if r.Statuses != nil {
				return r.Status, r.Statuses, 0, nil
			}
		case *wire.MultiGetByHashResponse:
			return r.Status, nil, r.RetryAfterMicros, nil
		}
	}
	return 0, nil, 0, errors.New("client: bad " + req.Op().String() + " response")
}

// route sends req, a single-key request for (table, hash), to the key's
// owner under the routing policy and returns the reply once it is OK.
func (c *Client) route(ctx context.Context, table wire.TableID, hash uint64, req wire.Payload) (wire.Payload, error) {
	bo := newBackoff()
	for {
		owner, err := c.ownerOf(ctx, table, hash)
		if err != nil {
			return nil, err
		}
		c.stats.RPCs.Add(1)
		reply, err := c.node.Call(ctx, owner, wire.PriorityForeground, req)
		if err != nil {
			if req.Op() == wire.OpDelete {
				return nil, err // it may have landed (rule 2)
			}
			if err := c.refresh(ctx, &bo, err); err != nil {
				return nil, err
			}
			continue
		}
		st, _, hint, err := status(req, reply)
		if err != nil {
			return nil, err
		}
		switch st {
		case wire.StatusOK:
			return reply, nil
		case wire.StatusNoSuchKey:
			return nil, ErrNoSuchKey
		case wire.StatusWrongServer:
			if err := c.refresh(ctx, &bo, nil); err != nil {
				return nil, err
			}
		case wire.StatusRetry:
			c.stats.Retries.Add(1)
			if !bo.sleep(ctx, hint) {
				return nil, ErrRetriesExhausted
			}
		default:
			return nil, wire.StatusError{Status: st}
		}
	}
}

// fanOut sends a batch of items of one table, item i living at hashes[i],
// under the routing policy. The outstanding items are grouped by owner,
// build makes one request per owner from the indexes of the items it
// carries, and every request is in flight at once. take decodes each
// reply against the same indexes; it must skip items that are not OK,
// because those that came back WrongServer or Retry, or whose RPC failed,
// are regrouped and resent.
func (c *Client) fanOut(ctx context.Context, table wire.TableID, hashes []uint64,
	build func(idxs []int) wire.Payload, take func(idxs []int, reply wire.Payload)) error {
	pending := make([]int, len(hashes))
	for i := range pending {
		pending[i] = i
	}
	bo := newBackoff()
	for len(pending) > 0 {
		groups := make(map[wire.ServerID][]int)
		for _, i := range pending {
			owner, err := c.ownerOf(ctx, table, hashes[i])
			if err != nil {
				return err
			}
			groups[owner] = append(groups[owner], i)
		}
		type flight struct {
			req  wire.Payload
			call *transport.Call
			idxs []int
		}
		flights := make([]flight, 0, len(groups))
		for owner, idxs := range groups {
			req := build(idxs)
			c.stats.RPCs.Add(1)
			flights = append(flights, flight{req, c.node.Go(ctx, owner, wire.PriorityForeground, req), idxs})
		}
		pending = pending[:0]
		var failed error
		redirected, deferred := false, false
		var hint uint32
		for _, f := range flights {
			reply, err := f.call.Wait()
			if err != nil {
				failed = err
				pending = append(pending, f.idxs...)
				continue
			}
			top, items, h, err := status(f.req, reply)
			if err != nil {
				return err
			}
			if items != nil && len(items) != len(f.idxs) {
				return errors.New("client: bad " + f.req.Op().String() + " response")
			}
			// A per-item reply's top-level status summarises its items;
			// anything else there (a failed replication) fails the batch.
			if top != wire.StatusOK && top != wire.StatusWrongServer && top != wire.StatusRetry {
				return wire.StatusError{Status: top}
			}
			for j, i := range f.idxs {
				st := top
				if items != nil {
					st = items[j]
				}
				switch st {
				case wire.StatusOK, wire.StatusNoSuchKey:
				case wire.StatusWrongServer:
					redirected = true
					pending = append(pending, i)
				case wire.StatusRetry:
					deferred = true
					hint = max(hint, h)
					pending = append(pending, i)
				default:
					return wire.StatusError{Status: st}
				}
			}
			if take != nil {
				take(f.idxs, reply)
			}
		}
		if failed != nil || redirected {
			if err := c.refresh(ctx, &bo, failed); err != nil {
				return err
			}
		}
		if deferred {
			c.stats.Retries.Add(1)
			if !bo.sleep(ctx, hint) {
				return ErrRetriesExhausted
			}
		}
	}
	return nil
}

// hashKeys returns the primary-key hash of each key.
func hashKeys(keys [][]byte) []uint64 {
	hashes := make([]uint64, len(keys))
	for i, k := range keys {
		hashes[i] = wire.HashKey(k)
	}
	return hashes
}

// Read fetches one object.
func (c *Client) Read(ctx context.Context, table wire.TableID, key []byte) ([]byte, error) {
	v, _, err := c.ReadVersioned(ctx, table, key)
	return v, err
}

// ReadVersioned fetches one object along with its version. Invariant
// checkers use the version to assert per-key monotonicity across
// migrations and recoveries.
func (c *Client) ReadVersioned(ctx context.Context, table wire.TableID, key []byte) ([]byte, uint64, error) {
	c.stats.Ops.Add(1)
	reply, err := c.route(ctx, table, wire.HashKey(key), &wire.ReadRequest{Table: table, Key: key})
	if err != nil {
		return nil, 0, err
	}
	resp := reply.(*wire.ReadResponse)
	return resp.Value, resp.Version, nil
}

// Write stores one object durably.
func (c *Client) Write(ctx context.Context, table wire.TableID, key, value []byte) error {
	c.stats.Ops.Add(1)
	_, err := c.route(ctx, table, wire.HashKey(key), &wire.WriteRequest{Table: table, Key: key, Value: value})
	return err
}

// Delete removes one object durably.
func (c *Client) Delete(ctx context.Context, table wire.TableID, key []byte) error {
	c.stats.Ops.Add(1)
	_, err := c.route(ctx, table, wire.HashKey(key), &wire.DeleteRequest{Table: table, Key: key})
	return err
}

// MultiGet fetches several keys of one table, grouping them by owning
// server and issuing the per-server RPCs in parallel. The returned values
// align with keys; absent keys yield nil entries.
func (c *Client) MultiGet(ctx context.Context, table wire.TableID, keys [][]byte) ([][]byte, error) {
	c.stats.Ops.Add(1)
	values := make([][]byte, len(keys))
	err := c.fanOut(ctx, table, hashKeys(keys), func(idxs []int) wire.Payload {
		req := &wire.MultiGetRequest{Table: table, Keys: make([][]byte, len(idxs))}
		for j, i := range idxs {
			req.Keys[j] = keys[i]
		}
		return req
	}, func(idxs []int, reply wire.Payload) {
		resp := reply.(*wire.MultiGetResponse)
		for j, i := range idxs {
			if resp.Statuses[j] == wire.StatusOK {
				values[i] = resp.Values[j]
			}
		}
	})
	if err != nil {
		return nil, err
	}
	return values, nil
}

// MultiPut stores several objects of one table, grouping them by owning
// server and issuing the per-server RPCs in parallel.
func (c *Client) MultiPut(ctx context.Context, table wire.TableID, keys, values [][]byte) error {
	if len(keys) != len(values) {
		return errors.New("client: keys/values length mismatch")
	}
	c.stats.Ops.Add(1)
	return c.fanOut(ctx, table, hashKeys(keys), func(idxs []int) wire.Payload {
		req := &wire.MultiPutRequest{Table: table, Keys: make([][]byte, len(idxs)), Values: make([][]byte, len(idxs))}
		for j, i := range idxs {
			req.Keys[j], req.Values[j] = keys[i], values[i]
		}
		return req
	}, nil)
}

// IndexInsert adds (secondaryKey -> primary key) to an index.
func (c *Client) IndexInsert(ctx context.Context, id wire.IndexID, secondaryKey, primaryKey []byte) error {
	il, err := c.indexletOf(ctx, id, secondaryKey)
	if err != nil {
		return err
	}
	c.stats.RPCs.Add(1)
	reply, err := c.node.Call(ctx, il.Master, wire.PriorityForeground, &wire.IndexInsertRequest{
		Index: id, SecondaryKey: secondaryKey, KeyHash: wire.HashKey(primaryKey),
	})
	if err != nil {
		return err
	}
	if resp, ok := reply.(*wire.IndexInsertResponse); !ok || resp.Status != wire.StatusOK {
		return errors.New("client: index insert failed")
	}
	return nil
}

// ScanResult is one record returned by an index scan.
type ScanResult struct {
	Key     []byte
	Value   []byte
	Version uint64
}

// IndexScan returns up to limit records of table whose secondary keys lie
// in [begin, end): an indexlet lookup for ordered primary-key hashes, then
// a multiget-by-hash fan-out to the owning tablets (Figure 2). The number
// of distinct servers contacted is 1 (indexlet) plus however many tablets
// back the hashes — the dispatch amplification Figure 4 measures.
func (c *Client) IndexScan(ctx context.Context, table wire.TableID, id wire.IndexID, begin, end []byte, limit int) ([]ScanResult, error) {
	c.stats.Ops.Add(1)
	il, err := c.indexletOf(ctx, id, begin)
	if err != nil {
		return nil, err
	}
	c.stats.RPCs.Add(1)
	reply, err := c.node.Call(ctx, il.Master, wire.PriorityForeground, &wire.IndexLookupRequest{
		Index: id, Begin: begin, End: end, Limit: uint32(limit),
	})
	if err != nil {
		return nil, err
	}
	lookup, ok := reply.(*wire.IndexLookupResponse)
	if !ok || lookup.Status != wire.StatusOK {
		return nil, errors.New("client: index lookup failed")
	}
	order := make(map[uint64]int, len(lookup.Hashes))
	for i, h := range lookup.Hashes {
		if _, ok := order[h]; !ok {
			order[h] = i
		}
	}
	type rankedResult struct {
		res  ScanResult
		rank int
	}
	var out []rankedResult
	err = c.fanOut(ctx, table, lookup.Hashes, func(idxs []int) wire.Payload {
		req := &wire.MultiGetByHashRequest{Table: table, Hashes: make([]uint64, len(idxs))}
		for j, i := range idxs {
			req.Hashes[j] = lookup.Hashes[i]
		}
		return req
	}, func(_ []int, reply wire.Payload) {
		resp := reply.(*wire.MultiGetByHashResponse)
		if resp.Status != wire.StatusOK {
			return
		}
		for _, rec := range resp.Records {
			out = append(out, rankedResult{
				res:  ScanResult{Key: rec.Key, Value: rec.Value, Version: rec.Version},
				rank: order[wire.HashKey(rec.Key)],
			})
		}
	})
	if err != nil {
		return nil, err
	}
	// Restore secondary-key order: the fan-out interleaves servers, but the
	// indexlet returned hashes in key order.
	sort.SliceStable(out, func(i, j int) bool { return out[i].rank < out[j].rank })
	results := make([]ScanResult, len(out))
	for i, r := range out {
		results[i] = r.res
	}
	return results, nil
}

// MigrateTablet asks target to live-migrate (table, rng) away from source
// (§3: "Migration is initiated by a client").
func (c *Client) MigrateTablet(ctx context.Context, table wire.TableID, rng wire.HashRange, source, target wire.ServerID) error {
	reply, err := c.node.Call(ctx, target, wire.PriorityForeground, &wire.MigrateTabletRequest{
		Table: table, Range: rng, Source: source,
	})
	if err != nil {
		return err
	}
	resp, ok := reply.(*wire.MigrateTabletResponse)
	if !ok {
		return errors.New("client: bad migrate response")
	}
	if resp.Status != wire.StatusOK {
		return wire.StatusError{Status: resp.Status}
	}
	return c.RefreshMap(ctx)
}

// CreateTable creates a table spread over the given servers.
func (c *Client) CreateTable(ctx context.Context, name string, servers ...wire.ServerID) (wire.TableID, error) {
	reply, err := c.node.Call(ctx, wire.CoordinatorID, wire.PriorityForeground, &wire.CreateTableRequest{
		Name: name, Servers: servers,
	})
	if err != nil {
		return 0, err
	}
	resp, ok := reply.(*wire.CreateTableResponse)
	if !ok || resp.Status != wire.StatusOK {
		return 0, errors.New("client: create table failed")
	}
	return resp.Table, c.RefreshMap(ctx)
}

// CreateIndex creates a secondary index over a table, range partitioned
// across the servers at the given split keys.
func (c *Client) CreateIndex(ctx context.Context, table wire.TableID, servers []wire.ServerID, splitKeys [][]byte) (wire.IndexID, error) {
	reply, err := c.node.Call(ctx, wire.CoordinatorID, wire.PriorityForeground, &wire.CreateIndexRequest{
		Table: table, Servers: servers, SplitKeys: splitKeys,
	})
	if err != nil {
		return 0, err
	}
	resp, ok := reply.(*wire.CreateIndexResponse)
	if !ok || resp.Status != wire.StatusOK {
		return 0, errors.New("client: create index failed")
	}
	return resp.Index, c.RefreshMap(ctx)
}

// ReportCrash notifies the coordinator that a server appears dead.
func (c *Client) ReportCrash(ctx context.Context, id wire.ServerID) error {
	_, err := c.node.Call(ctx, wire.CoordinatorID, wire.PriorityForeground, &wire.ReportCrashRequest{Server: id})
	return err
}
