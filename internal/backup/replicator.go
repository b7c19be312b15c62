package backup

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"rocksteady/internal/storage"
	"rocksteady/internal/transport"
	"rocksteady/internal/wire"
)

// ErrReplicationFailed reports that a backup rejected or lost an update.
var ErrReplicationFailed = errors.New("backup: replication failed")

// Replicator streams a master's log growth to its backups. Writers call
// Sync after appending; concurrent Syncs share flushes (group commit), so
// under load the replication ceiling — not per-RPC latency — governs
// throughput, as in §2.3.
type Replicator struct {
	node    *transport.Node
	master  wire.ServerID
	backups []wire.ServerID
	factor  int
	// root anchors group-commit flush RPCs: a flush serves every writer
	// waiting on the generation, so no single writer's deadline may
	// cancel it (see Sync).
	root context.Context

	mu        sync.Mutex
	cond      *sync.Cond
	pending   []storage.AppendEvent
	appended  uint64 // generation: events accepted
	synced    uint64 // generation: events durable on all replicas
	flushing  bool
	failed    error
	bytesSent int64
	dead      map[wire.ServerID]bool

	// resolve maps (logID, segmentID) to the live segment so a batch that
	// lost every replica can be re-replicated in full to a fresh backup.
	resolve func(logID, segID uint64) *storage.Segment

	// Group-commit batching counters (see FlushStats). Atomic so flush can
	// update them without re-entering mu.
	flushes     atomic.Int64
	flushEvents atomic.Int64
	flushChunks atomic.Int64
	flushRPCs   atomic.Int64
	flushNanos  atomic.Int64
}

// FlushStats reports group-commit batching behaviour: how many flushes
// ran, how many append events and coalesced chunks they carried, how many
// RPCs they issued (one per backup per flush in the common case), and the
// cumulative flush latency.
type FlushStats struct {
	Flushes int64
	Events  int64
	Chunks  int64
	RPCs    int64
	Nanos   int64
}

// FlushStats returns a snapshot of the group-commit counters.
func (r *Replicator) FlushStats() FlushStats {
	return FlushStats{
		Flushes: r.flushes.Load(),
		Events:  r.flushEvents.Load(),
		Chunks:  r.flushChunks.Load(),
		RPCs:    r.flushRPCs.Load(),
		Nanos:   r.flushNanos.Load(),
	}
}

// NewReplicator creates a replicator writing to the given backups with the
// given replication factor (clamped to the backup count). A nil node or
// empty backup list disables replication: Sync succeeds immediately.
func NewReplicator(node *transport.Node, master wire.ServerID, backups []wire.ServerID, factor int) *Replicator {
	if factor > len(backups) {
		factor = len(backups)
	}
	if factor < 0 {
		factor = 0
	}
	r := &Replicator{node: node, master: master, backups: backups, factor: factor,
		dead: make(map[wire.ServerID]bool)}
	//lint:ignore ctxcheck server root: group-commit flushes outlive any one writer's request
	r.root = context.Background()
	r.cond = sync.NewCond(&r.mu)
	return r
}

// SetSegmentResolver installs the lookup used to re-replicate a whole
// segment after a backup failure.
func (r *Replicator) SetSegmentResolver(f func(logID, segID uint64) *storage.Segment) {
	r.resolve = f
}

// Enabled reports whether replication is active.
func (r *Replicator) Enabled() bool { return r.node != nil && r.factor > 0 }

// BytesSent returns total bytes shipped to backups (per-replica counted).
func (r *Replicator) BytesSent() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.bytesSent
}

// OnAppend accepts a log append event; pass it as the AppendFunc of
// storage.NewShardedLog. It never blocks the log append path.
func (r *Replicator) OnAppend(ev storage.AppendEvent) {
	if !r.Enabled() {
		return
	}
	r.mu.Lock()
	r.pending = append(r.pending, ev)
	r.appended++
	r.mu.Unlock()
}

// Sync blocks until every event accepted before the call is durable on
// the replication factor's worth of backups. A done ctx aborts before
// any waiting starts; once a flush is joined it runs to completion under
// the replicator's root context, because one flush commits many writers'
// events — a single caller's deadline must not fail its neighbours.
func (r *Replicator) Sync(ctx context.Context) error {
	if !r.Enabled() {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return context.Cause(ctx)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	target := r.appended
	for r.synced < target {
		if r.failed != nil {
			return r.failed
		}
		if !r.flushing {
			r.flushing = true
			batch := r.pending
			gen := r.appended
			r.pending = nil
			r.mu.Unlock()
			err := r.flush(batch)
			r.mu.Lock()
			r.flushing = false
			if err != nil {
				r.failed = err
			} else {
				r.synced = gen
			}
			r.cond.Broadcast()
			continue
		}
		r.cond.Wait()
	}
	return r.failed
}

// backupsFor places a segment's replicas: factor consecutive live backups
// starting at a position derived from the segment ID. Backups that failed
// a replication RPC are skipped permanently (the coordinator recovers
// their replicas elsewhere; re-enlisting is out of scope).
func (r *Replicator) backupsFor(segID uint64) []wire.ServerID {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]wire.ServerID, 0, r.factor)
	for i := 0; i < len(r.backups) && len(out) < r.factor; i++ {
		b := r.backups[(int(segID)+i)%len(r.backups)]
		if !r.dead[b] {
			out = append(out, b)
		}
	}
	return out
}

// markDead excludes a backup from future placement.
func (r *Replicator) markDead(b wire.ServerID) {
	r.mu.Lock()
	r.dead[b] = true
	r.mu.Unlock()
}

// segChunk is one contiguous span of one segment's bytes bound for the
// segment's replicas.
type segChunk struct {
	wire.ReplicateChunk
	// seg is the whole segment when the caller holds it (side logs);
	// otherwise failover looks it up through the segment resolver.
	seg *storage.Segment
}

// coalesceChunks folds a run of append events into contiguous per-segment
// chunks. Events for one segment arrive in append order (emitted under the
// shard lock), so adjacent same-segment events always glue together; with
// sharded heads the run interleaves chunks of several segments.
func coalesceChunks(batch []storage.AppendEvent) []segChunk {
	var out []segChunk
	for _, ev := range batch {
		n := len(out)
		if n > 0 && out[n-1].SegmentID == ev.SegmentID && out[n-1].LogID == ev.LogID &&
			!out[n-1].Close && int(out[n-1].Offset)+len(out[n-1].Data) == ev.Offset {
			out[n-1].Data = append(out[n-1].Data, ev.Data...)
			out[n-1].Close = ev.Sealed
			continue
		}
		data := make([]byte, len(ev.Data))
		copy(data, ev.Data)
		out = append(out, segChunk{ReplicateChunk: wire.ReplicateChunk{
			LogID: ev.LogID, SegmentID: ev.SegmentID, Offset: uint32(ev.Offset),
			Data: data, Close: ev.Sealed,
		}})
	}
	return out
}

// replicaRPC is one ReplicateBatch RPC of a send: its backup and the
// indexes of the chunks it carries, in request order.
type replicaRPC struct {
	to   wire.ServerID
	idxs []int
	req  *wire.ReplicateBatchRequest
	call *transport.Call
}

// send is the one writer of replica bytes: group commit, side-log
// re-replication and failover all go through it. Each chunk goes to its
// segment's replicas (backupsFor), every RPC in flight at once. perChunk
// picks the RPC shape: false packs all chunks bound for one backup into
// one request (group commit: one RPC per backup per flush); true sends
// one one-chunk request per (chunk, replica), so no backup worker runs a
// many-megabyte batch to completion. It returns how many RPCs it issued,
// not counting retries and failover.
//
// The failure policy: a failed RPC gets one synchronous retry (a batch is
// idempotent: the store rewrites prefixes), so a transient fault does not
// shrink the backup set; a second failure marks the backup dead —
// durability degrades rather than halting the master, the availability
// call RAMCloud makes. A chunk that no replica acked is covered by
// re-sending its whole segment, once per segment, to a live backup: a
// delta would leave a gap on a backup that never saw the prefix.
func (r *Replicator) send(ctx context.Context, chunks []segChunk, perChunk bool) (int, error) {
	var rpcs []*replicaRPC
	byBackup := make(map[wire.ServerID]*replicaRPC)
	var sent int64
	for i := range chunks {
		for _, b := range r.backupsFor(chunks[i].SegmentID) {
			rpc := byBackup[b]
			if rpc == nil || perChunk {
				rpc = &replicaRPC{to: b, req: &wire.ReplicateBatchRequest{Master: r.master}}
				byBackup[b] = rpc
				rpcs = append(rpcs, rpc)
			}
			rpc.idxs = append(rpc.idxs, i)
			rpc.req.Chunks = append(rpc.req.Chunks, chunks[i].ReplicateChunk)
			sent += int64(len(chunks[i].Data))
		}
	}
	for _, rpc := range rpcs {
		rpc.call = r.node.Go(ctx, rpc.to, wire.PriorityReplication, rpc.req)
	}
	acks := make([]int, len(chunks))
	for _, rpc := range rpcs {
		resp := r.await(ctx, rpc.to, rpc.req, rpc.call)
		for j, ci := range rpc.idxs {
			if acked(resp, j) {
				acks[ci]++
			}
		}
	}

	resent := make(map[[2]uint64]bool)
	for i := range chunks {
		c := &chunks[i]
		key := [2]uint64{c.LogID, c.SegmentID}
		if acks[i] > 0 || resent[key] {
			continue
		}
		resent[key] = true
		seg := c.seg
		if seg == nil && r.resolve != nil {
			seg = r.resolve(c.LogID, c.SegmentID)
		}
		if seg == nil {
			return len(rpcs), fmt.Errorf("%w: segment %d vanished during failover", ErrReplicationFailed, c.SegmentID)
		}
		req := &wire.ReplicateBatchRequest{Master: r.master, Chunks: []wire.ReplicateChunk{{
			LogID: c.LogID, SegmentID: c.SegmentID, Data: seg.Data(0, seg.Len()), Close: c.Close || seg.Sealed(),
		}}}
		for {
			if err := ctx.Err(); err != nil {
				return len(rpcs), context.Cause(ctx)
			}
			targets := r.backupsFor(c.SegmentID)
			if len(targets) == 0 {
				return len(rpcs), fmt.Errorf("%w: no live backup for segment %d", ErrReplicationFailed, c.SegmentID)
			}
			resp := r.await(ctx, targets[0], req, r.node.Go(ctx, targets[0], wire.PriorityReplication, req))
			if acked(resp, 0) {
				break
			}
			if resp != nil {
				r.markDead(targets[0]) // it rejected even the whole segment
			}
		}
	}

	r.mu.Lock()
	r.bytesSent += sent
	r.mu.Unlock()
	return len(rpcs), nil
}

// await waits for one of send's RPCs, retrying it once synchronously, and
// marks the backup dead if both attempts fail. It returns nil on failure.
// A failure caused by the caller's own ctx marks nothing dead: the backup
// did nothing wrong.
func (r *Replicator) await(ctx context.Context, b wire.ServerID, req *wire.ReplicateBatchRequest, call *transport.Call) *wire.ReplicateBatchResponse {
	reply, err := call.Wait()
	if err != nil {
		reply, err = r.node.Call(ctx, b, wire.PriorityReplication, req)
	}
	resp, ok := reply.(*wire.ReplicateBatchResponse)
	if (err != nil || !ok) && ctx.Err() == nil {
		r.markDead(b)
	}
	return resp
}

// acked reports whether resp acknowledges the i-th chunk of its request.
func acked(resp *wire.ReplicateBatchResponse, i int) bool {
	return resp != nil && i < len(resp.ChunkStatuses) && resp.ChunkStatuses[i] == wire.StatusOK
}

// flush ships a batch of events as group commit: all pending chunks bound
// for one backup travel in a single ReplicateBatch RPC, so each flush
// costs one RPC per backup regardless of how many shards appended. The
// whole payload is assembled and marshaled outside the replicator's
// mutex — Sync snapshots pending and releases mu before calling flush.
func (r *Replicator) flush(batch []storage.AppendEvent) error {
	start := time.Now()
	chunks := coalesceChunks(batch)
	rpcs, err := r.send(r.root, chunks, false)
	if err != nil {
		return err
	}
	r.flushes.Add(1)
	r.flushEvents.Add(int64(len(batch)))
	r.flushChunks.Add(int64(len(chunks)))
	r.flushRPCs.Add(int64(rpcs))
	r.flushNanos.Add(time.Since(start).Nanoseconds())
	return nil
}

// ReplicateSegments ships whole segments (side logs at migration end —
// the *lazy* re-replication of §3.4), one RPC per (segment, replica), all
// in flight at once. Events bypass the pending queue: the caller owns
// ordering, so unlike Sync the caller's ctx governs every RPC.
func (r *Replicator) ReplicateSegments(ctx context.Context, segs []*storage.Segment) error {
	if !r.Enabled() {
		return nil
	}
	chunks := make([]segChunk, len(segs))
	for i, seg := range segs {
		chunks[i] = segChunk{seg: seg, ReplicateChunk: wire.ReplicateChunk{
			LogID: seg.LogID, SegmentID: seg.ID, Data: seg.Data(0, seg.Len()), Close: true,
		}}
	}
	_, err := r.send(ctx, chunks, true)
	return err
}
