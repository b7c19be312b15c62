package core

import (
	"errors"

	"rocksteady/internal/wire"
)

// requestPriorityPull is called on the worker serving a client read whose
// record has not arrived yet (§3.3). In the default asynchronous mode it
// enqueues the hash for the batching loop and returns immediately with a
// retry hint, freeing the worker; in the synchronous baseline it blocks
// the worker on a single-hash pull.
func (g *Migration) requestPriorityPull(hash uint64) (retryMicros uint32, knownMissing bool) {
	g.ppMu.Lock()
	if _, ok := g.ppMissing[hash]; ok || g.ppPulled {
		g.ppMu.Unlock()
		return 0, true
	}
	syncPull := g.opts.SyncPriorityPulls && !g.opts.DisablePriorityPulls
	if syncPull {
		// Counted under the lock ppPulled is set under, so the drain
		// before the epilogue waits for this pull's replay: replayed
		// later, it would find the side logs committed.
		g.ppSyncInflight++
	}
	g.ppMu.Unlock()

	if g.opts.DisablePriorityPulls {
		// Figure 9(b): the client keeps retrying until a background Pull
		// delivers the record.
		return g.opts.RetryHintMicros, false
	}
	if syncPull {
		defer g.syncPriorityPullDone()
		return g.syncPriorityPull(hash)
	}

	g.ppMu.Lock()
	defer g.ppMu.Unlock()
	if _, ok := g.ppMissing[hash]; ok || g.ppPulled {
		return 0, true
	}
	// De-duplicate: a hash already queued or in flight is never requested
	// from the source twice (§3.3).
	if _, inflight := g.ppInflight[hash]; !inflight {
		if _, queued := g.ppQueued[hash]; !queued {
			g.ppQueued[hash] = struct{}{}
		}
	}
	if !g.ppActive {
		g.ppActive = true
		go g.priorityPullLoop()
	}
	return g.opts.RetryHintMicros, false
}

// syncPriorityPull is the naive baseline of Figures 13/14: the worker
// stalls on the RPC and replays inline; the server answers the client from
// the hash table immediately afterwards (retry hint 0).
func (g *Migration) syncPriorityPull(hash uint64) (uint32, bool) {
	reply, err := g.mgr.srv.Node().Call(g.ctx, g.Source, wire.PriorityPriorityPull, &wire.PriorityPullRequest{
		Table: g.Table, Hashes: []uint64{hash},
	})
	if err != nil {
		g.fail(err)
		return g.opts.RetryHintMicros, false
	}
	resp, ok := reply.(*wire.PriorityPullResponse)
	if !ok || resp.Status != wire.StatusOK {
		if ok {
			wire.ReleaseRecordSlice(resp.Records)
		}
		return g.opts.RetryHintMicros, false
	}
	g.priorityPullRPCs.Add(1)
	if len(resp.Records) > 0 {
		g.priorityPullRecords.Add(int64(len(resp.Records)))
		g.replayRecords(resp.Records)
	}
	wire.ReleaseRecordSlice(resp.Records)
	if len(resp.Missing) > 0 {
		g.ppMu.Lock()
		for _, h := range resp.Missing {
			g.ppMissing[h] = struct{}{}
		}
		g.ppMu.Unlock()
		for _, h := range resp.Missing {
			if h == hash {
				return 0, true
			}
		}
	}
	return 0, false
}

// syncPriorityPullDone retires a synchronous PriorityPull counted in
// requestPriorityPull and wakes drainPriorityPulls.
func (g *Migration) syncPriorityPullDone() {
	g.ppMu.Lock()
	g.ppSyncInflight--
	g.ppDrained.Broadcast()
	g.ppMu.Unlock()
}

// priorityPullLoop runs while client-requested hashes are pending: it
// batches up to PriorityPullBatch hashes per RPC, keeps exactly one RPC in
// flight, accumulates newly requested hashes meanwhile, and replays each
// response at the highest priority (§3.3).
func (g *Migration) priorityPullLoop() {
	srv := g.mgr.srv
	for {
		g.ppMu.Lock()
		if g.ctx.Err() != nil || len(g.ppQueued) == 0 {
			g.ppActive = false
			g.ppDrained.Broadcast()
			g.ppMu.Unlock()
			return
		}
		batch := make([]uint64, 0, g.opts.PriorityPullBatch)
		for h := range g.ppQueued {
			delete(g.ppQueued, h)
			g.ppInflight[h] = struct{}{}
			batch = append(batch, h)
			if len(batch) >= g.opts.PriorityPullBatch {
				break
			}
		}
		g.ppMu.Unlock()

		reply, err := g.callSource(wire.PriorityPriorityPull, &wire.PriorityPullRequest{
			Table: g.Table, Hashes: batch,
		})
		if err != nil {
			g.fail(err)
			g.clearInflight(batch)
			continue
		}
		resp, ok := reply.(*wire.PriorityPullResponse)
		if !ok || resp.Status != wire.StatusOK {
			if ok {
				wire.ReleaseRecordSlice(resp.Records)
			}
			g.fail(errors.New("priority pull rejected"))
			g.clearInflight(batch)
			continue
		}
		g.priorityPullRPCs.Add(1)

		// Replay at the highest priority on a worker; the batch's hashes
		// stay "in flight" until the records are visible, so retrying
		// clients and the de-duplication logic stay consistent.
		if len(resp.Records) > 0 {
			g.priorityPullRecords.Add(int64(len(resp.Records)))
			records := resp.Records
			done := make(chan struct{})
			srv.Scheduler().Enqueue(wire.PriorityPriorityPull, func() {
				defer close(done)
				g.replayRecords(records)
			})
			<-done
			wire.ReleaseRecordSlice(records)
		} else {
			wire.ReleaseRecordSlice(resp.Records)
		}
		g.ppMu.Lock()
		for _, h := range resp.Missing {
			g.ppMissing[h] = struct{}{}
		}
		for _, h := range batch {
			delete(g.ppInflight, h)
		}
		g.ppMu.Unlock()
	}
}

func (g *Migration) clearInflight(batch []uint64) {
	g.ppMu.Lock()
	for _, h := range batch {
		delete(g.ppInflight, h)
	}
	g.ppMu.Unlock()
}

// drainPriorityPulls waits for the loop to go idle, and for synchronous
// PriorityPulls to finish, before the migration epilogue (every
// client-visible promise resolved). A single condition wait
// covers both the active loop and straggler reads that queued hashes after
// the loop exited: requestPriorityPull restarts the loop whenever it queues
// a hash, and the loop broadcasts on every exit. Cancellation also wakes the
// wait (fail broadcasts), so a cancelled migration with queued hashes never
// hangs here.
func (g *Migration) drainPriorityPulls() {
	g.ppMu.Lock()
	for g.ctx.Err() == nil && (g.ppActive || len(g.ppQueued) > 0 || g.ppSyncInflight > 0) {
		g.ppDrained.Wait()
	}
	g.ppMu.Unlock()
}
